import math
import pickle
import re
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import qemsim as q
from qemsim import state as state_module
from qemsim.circuit import FusedGate, Param
from qemsim.experiments import run_validation_suite, scaling_ladder
from qemsim.noise import MAX_SUBSTEPS, scale_terms
from qemsim.state import (
    LocalOp,
    PairedDensity,
    StateVector,
    _gate_op,
    check_count,
    check_real,
    pair,
    paired_axes,
    unpair,
)

from conftest import (
    PAULI,
    from_debug_json,
    kron_embed,
    kron_embed_multi,
    random_density_matrix,
    to_debug_json,
)


def bound(kind, qubits, angle=None):
    return q.BoundGate(kind, tuple(qubits), angle)


def purity(rho):
    """tr(rho^2), which for a Hermitian rho is the sum of |rho_ij|^2."""
    return np.vdot(rho.data, rho.data).real


class TestNewPureGround:
    def test_single_qubit(self):
        rho = q.new_pure_ground(1)
        assert np.allclose(rho.data, [[1, 0], [0, 0]])

    def test_two_qubits(self):
        rho = q.new_pure_ground(2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.allclose(rho.data, expected)

    def test_four_qubits_trace_and_purity(self):
        rho = q.new_pure_ground(4)
        assert abs(rho.trace() - 1) < 1e-12
        assert abs(purity(rho) - 1) < 1e-12

    def test_capacity_error(self):
        with pytest.raises(q.CapacityError):
            q.new_pure_ground(15)
        with pytest.raises(ValueError):
            q.new_pure_ground(0)

    def test_the_cap_itself_is_accepted(self):
        # the check alone, so nothing of that size is allocated
        cap = state_module.DEFAULT_QUBIT_CAP
        state_module.check_cap(cap)
        with pytest.raises(q.CapacityError, match=f"{cap + 1} qubits exceeds the cap of {cap} "):
            state_module.check_cap(cap + 1)


class TestApplyGate:
    def test_x_flips_ground(self):
        rho = q.apply_gate(q.new_pure_ground(1), bound("X", [0]))
        assert np.allclose(rho.data, [[0, 0], [0, 1]])

    def test_hadamard_superposition(self):
        rho = q.apply_gate(q.new_pure_ground(1), bound("H", [0]))
        assert np.allclose(rho.data, [[0.5, 0.5], [0.5, 0.5]])

    def test_bell_state(self):
        rho = q.new_pure_ground(2)
        rho = q.apply_gate(rho, bound("H", [0]))
        rho = q.apply_gate(rho, bound("CNOT", [0, 1]))
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.allclose(rho.data, expected, atol=1e-12)

    def test_invalid_qubits(self):
        rho = q.new_pure_ground(2)
        with pytest.raises(ValueError):
            q.apply_gate(rho, bound("X", [2]))
        with pytest.raises(ValueError):
            q.apply_gate(rho, bound("CNOT", [1, 1]))

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_purity_and_inverse(self, seed):
        rng = np.random.default_rng(seed)
        rho0 = q.new_pure_ground(3)
        for kind in ("H", "X"):
            rho0 = q.apply_gate(rho0, bound(kind, [int(rng.integers(3))]))
        gate = bound("Rx", [int(rng.integers(3))], float(rng.uniform(-3, 3)))
        rho1 = q.apply_gate(rho0, gate)
        assert abs(rho1.trace() - rho0.trace()) < 1e-12
        assert abs(purity(rho1) - purity(rho0)) < 1e-9
        inverse = bound("Rx", gate.qubits, -gate.angle)
        back = q.apply_gate(rho1, inverse)
        assert np.max(np.abs(back.data - rho0.data)) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_qubit_kron_oracle(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(a)
        rho = q.new_pure_ground(n)
        for qb in range(n):
            rho = q.apply_gate(rho, bound("H", [qb]))
        for qb in range(n):
            gate = bound("Rz", [qb], 0.7 * (qb + 1))
            got = q.apply_gate(rho, gate)
            full = kron_embed(gate.matrix(), qb, n)
            want = full @ rho.data @ full.conj().T
            assert np.max(np.abs(got.data - want)) < 1e-12

    def test_cnot_kron_oracle(self):
        # CNOT(c, t) = P0_c + P1_c X_t, assembled independently
        n = 3
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho_data = a @ a.conj().T
        rho_data /= np.trace(rho_data)
        rho = q.DensityMatrix(n, rho_data)
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        for c, t in [(0, 1), (1, 0), (0, 2), (2, 0), (2, 1)]:
            full = kron_embed(p0, c, n) + kron_embed(p1, c, n) @ kron_embed(
                PAULI["X"], t, n
            )
            want = full @ rho.data @ full.conj().T
            got = q.apply_gate(rho, bound("CNOT", [c, t]))
            assert np.max(np.abs(got.data - want)) < 1e-12


class TestDiagnostics:
    def test_min_eigenvalue_of_pure_state(self):
        rho = q.new_pure_ground(2)
        rho = q.apply_gate(rho, bound("H", [0]))
        rho = q.apply_gate(rho, bound("CNOT", [0, 1]))
        assert abs(rho.min_eigenvalue()) < 1e-9

    def test_hermiticity_defect(self):
        rho = q.new_pure_ground(1)
        assert rho.hermiticity_defect() < 1e-15
        rho.data[0, 1] = 0.1j
        assert rho.hermiticity_defect() == pytest.approx(0.1)

    def test_debug_json_round_trip(self):
        rho = q.apply_gate(q.new_pure_ground(2), bound("H", [1]))
        back = from_debug_json(to_debug_json(rho))
        assert back.n_qubits == 2
        assert np.allclose(back.data, rho.data)


class TestKernels:
    def test_left_right_match_dense(self):
        # U on the row axes is U @ rho; M on the column axes is rho @ M^T
        n = 3
        rng = np.random.default_rng(9)
        rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for qubits in [(0, 1), (2, 0), (1, 2), (2, 1)]:
            full = kron_embed_multi(m, qubits, n)
            left = LocalOp(m, [n - 1 - qb for qb in qubits], 2 * n)(rho)
            right = LocalOp(m, [2 * n - 1 - qb for qb in qubits], 2 * n)(rho)
            assert np.max(np.abs(left - full @ rho)) < 1e-12
            assert np.max(np.abs(right - rho @ full.T)) < 1e-12
            embedded = LocalOp(m, [n - 1 - qb for qb in qubits], 2 * n)(np.eye(2**n, dtype=complex))
            assert np.max(np.abs(embedded - full)) < 1e-12

    def test_superoperator_on_doubled_register(self):
        # kron(A, B^T) on the paired axes of a qubit is A rho B
        n = 3
        rng = np.random.default_rng(6)
        rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        paired = pair(q.DensityMatrix(n, rho)).data
        for qb in range(n):
            out = LocalOp(np.kron(a, b.T), paired_axes((qb,), n), 2 * n)(paired)
            got = unpair(PairedDensity(n, out)).data
            want = kron_embed(a, qb, n) @ rho @ kron_embed(b, qb, n)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_embed_against_kron(self):
        # m on the row axes of the identity is m's dense embedding
        rng = np.random.default_rng(2)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for qb in range(3):
            embedded = LocalOp(m, [2 - qb], 2 * 3)(np.eye(8, dtype=complex))
            assert np.max(np.abs(embedded - kron_embed(m, qb, 3))) < 1e-14


class TestGateSuperopCache:
    def test_entry_is_the_fresh_superoperator(self):
        # the op kept on the gate is bit for bit a fresh build, at every
        # position of a 4-qubit register
        n = 4
        gates = [bound("H", (qb,)) for qb in range(n)] + [
            bound("CNOT", (0, 1)),
            bound("CNOT", (3, 2)),
            bound("CNOT", (3, 0)),
            bound("Rz", (1,), 0.3),
            bound("Rx", (2,), -1.1),
        ]
        rho = pair(q.new_pure_ground(n))
        for gate in gates:
            q.apply_gate(rho, gate)
            fresh = _gate_op(gate, n, PairedDensity)
            kept = gate._ops[n, PairedDensity]
            assert (kept.axes, kept.post) == (fresh.axes, fresh.post)
            assert np.array_equal(kept.m, fresh.m)
            assert not kept.m.flags.writeable
        # qubit 1 of 4: a 4x4 superoperator folded over its 4 trailing entries
        folded = _gate_op(bound("H", (1,)), n, PairedDensity)
        assert (list(folded.axes), folded.m.shape) == ([4, 5, 6, 7], (16, 16))

    def test_rz_angles_never_share_an_entry(self):
        rho = pair(q.new_pure_ground(2))
        gate = bound("Rz", (0,), 0.3)
        q.apply_gate(rho, gate)
        a = gate._ops[2, PairedDensity]
        for angle in (0.3 + 1e-15, -0.3):
            other = bound("Rz", (0,), angle)
            q.apply_gate(rho, other)
            b = other._ops[2, PairedDensity]
            assert b is not a
            assert not np.array_equal(a.m, b.m)
        # the same gate again is the same entry
        q.apply_gate(rho, gate)
        assert gate._ops[2, PairedDensity] is a

    @pytest.mark.parametrize("layout", ["StateVector", "PairedDensity", "DensityMatrix"])
    def test_bad_qubits_raise_on_every_call(self, layout):
        # a qubit past the register is seen when the op is built, and a
        # failed build keeps nothing, so the second call raises as the
        # first did; a negative or repeated qubit is refused when the gate
        # is built
        rho = q.new_pure_ground(2)
        state = {
            "StateVector": q.new_statevector(2),
            "PairedDensity": pair(rho),
            "DensityMatrix": rho,
        }[layout]
        gate = bound("X", [2])
        for _ in range(2):
            with pytest.raises(ValueError, match="qubit index 2 out of range for 2 qubits"):
                q.apply_gate(state, gate)
        assert gate._ops == {}
        for kind, qubits, message in [
            ("X", [-1], r"X needs 1 distinct non-negative qubit\(s\), got \(-1,\)"),
            ("CNOT", [1, 1], r"CNOT needs 2 distinct non-negative qubit\(s\), got \(1, 1\)"),
        ]:
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    q.apply_gate(state, bound(kind, qubits))

    @pytest.mark.parametrize("layout", ["StateVector", "PairedDensity", "DensityMatrix"])
    def test_malformed_gate_raises_on_every_call(self, layout):
        # refused when the gate is built, so no malformed gate reaches a state
        rho = q.new_pure_ground(3)
        state = {
            "StateVector": q.new_statevector(3),
            "PairedDensity": pair(rho),
            "DensityMatrix": rho,
        }[layout]
        for kind, qubits, angle, message in [
            ("CNOT", [1], None, r"CNOT needs 2 distinct non-negative qubit\(s\), got \(1,\)"),
            ("X", [0, 2], None, r"X needs 1 distinct non-negative qubit\(s\), got \(0, 2\)"),
            ("H", [0], 0.5, "H takes no angle, got 0.5"),
            ("Rx", [0], None, "Rx angle must be a finite real, got None"),
            ("Foo", [0], None, "unknown gate kind 'Foo'"),
        ]:
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    q.apply_gate(state, bound(kind, qubits, angle))

    def test_list_qubits_become_a_tuple(self):
        gate = q.BoundGate("X", [0])
        assert gate.qubits == (0,) and gate == q.BoundGate("X", (0,))
        psi = q.new_statevector(1)
        assert np.array_equal(
            q.apply_gate(psi, gate).data, q.apply_gate(psi, q.BoundGate("X", (0,))).data
        )
        rho = pair(random_density_matrix(2, np.random.default_rng(1)))
        for kind, qubits in [("X", [1]), ("CNOT", [1, 0])]:
            got = q.apply_gate(rho, q.BoundGate(kind, qubits))
            want = q.apply_gate(rho, q.BoundGate(kind, tuple(qubits)))
            assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_density_matrix_gate_is_bit_identical_to_paired(self, n):
        rho = random_density_matrix(n, np.random.default_rng(n))
        gates = [
            bound(kind, [qb], angle)
            for qb in range(n)
            for kind, angle in [("H", None), ("X", None), ("Rx", 0.7), ("Ry", -0.4), ("Rz", 1.3)]
        ]
        for c in range(n - 1):  # adjacent, both directions
            gates += [bound("CNOT", [c, c + 1]), bound("CNOT", [c + 1, c])]
        if n > 2:  # wrap-around
            gates += [bound("CNOT", [0, n - 1]), bound("CNOT", [n - 1, 0])]
        for gate in gates:
            got = q.apply_gate(rho, gate)
            want = unpair(q.apply_gate(pair(rho), gate))
            assert isinstance(got, q.DensityMatrix)
            assert np.array_equal(got.data, want.data), gate

    def test_fused_gate_on_rho_matches_its_gates(self, h2_bound_circuit):
        # every H2 group, a CNOT on the wrap-around pair fed by both its
        # qubits, and a run that feeds no 2-qubit gate
        n = h2_bound_circuit.n_qubits
        wrap = (bound("Ry", (0,), 0.4), bound("Rx", (3,), 1.1), bound("H", (3,)))
        extra = [
            FusedGate(wrap + (bound("CNOT", (3, 0)),)),
            FusedGate(wrap[1:] + (bound("Rz", (3,), -0.7),)),
        ]
        rho = random_density_matrix(n, np.random.default_rng(7))
        for fused in h2_bound_circuit.fused() + tuple(extra):
            for state in (rho, pair(rho)):
                want = state
                for gate in fused.gates:
                    want = q.apply_gate(want, gate)
                got = q.apply_gate(state, fused)
                assert type(got) is type(state)
                assert np.max(np.abs(got.data - want.data)) <= 1e-13, fused

    def test_noiseless_runs_build_each_statevector_op_once(
        self, h2_uccsd_circuit, h2_vqe_result, monkeypatch
    ):
        # a fresh copy of the H2 circuit, so none of its FusedGates has an op yet
        ansatz = h2_uccsd_circuit
        fresh = q.Circuit(ansatz.n_qubits, ansatz.gates, ansatz.n_params)
        builds = []
        gate_op = state_module._gate_op

        def counted(gate, n_qubits, layout):
            assert layout is StateVector
            builds.append(gate)
            return gate_op(gate, n_qubits, layout)

        def run(circuit):
            out = q.run_noisy_circuit(q.new_statevector(circuit.n_qubits), circuit, q.NoiseModel())
            assert isinstance(out, StateVector)
            return out

        monkeypatch.setattr(state_module, "_gate_op", counted)
        circuit = q.bind(fresh, h2_vqe_result.theta_opt)
        out = run(circuit)
        # 158 gates in 68 groups, 33 distinct: equal groups are one
        # FusedGate, and each builds its op once
        fused = circuit.fused()
        assert len(fused) == 68 and all(isinstance(g, FusedGate) for g in fused)
        assert len(set(fused)) == len({id(g) for g in fused}) == 33
        assert len(builds) == len({id(g) for g in builds}) == 33
        builds.clear()
        assert np.array_equal(run(circuit).data, out.data)
        assert builds == []
        # a second binding shares the Circuit's 27 fixed FusedGates, and
        # builds its 6 groups that hold a Param gate, alone
        other = q.bind(fresh, h2_vqe_result.theta_opt + 0.1)
        run(other)
        shared = {id(g) for g in fused} & {id(g) for g in other.fused()}
        assert len(shared) == 27
        assert len(builds) == len({id(g) for g in builds}) == 6
        assert {id(g) for g in builds} == {id(g) for g in other.fused()} - shared
        # a copy, of the bound circuit or of the Circuit, carries no op and
        # builds its own
        for copy in (
            pickle.loads(pickle.dumps(circuit)),
            q.bind(pickle.loads(pickle.dumps(fresh)), h2_vqe_result.theta_opt),
        ):
            assert not any("_ops" in vars(g) for g in copy.fused() + copy.gates)
            builds.clear()
            assert np.array_equal(run(copy).data, out.data)
            assert len(builds) == 33

    def test_a_noiseless_run_is_one_kernel_call_per_group(self, h2_uccsd_circuit, monkeypatch):
        calls = []
        call = LocalOp.__call__
        monkeypatch.setattr(LocalOp, "__call__", lambda op, data: calls.append(op) or call(op, data))
        chain10 = q.build_ansatz(q.AnsatzSpec("Entangling", layers=1), 10)
        criterion8 = q.build_ansatz(q.AnsatzSpec("Entangling", layers=4), 4)
        for circuit, gates, groups in [
            (chain10, 70, 20),
            (criterion8, 88, 20),
            (h2_uccsd_circuit, 158, 68),
        ]:
            calls.clear()
            bound = q.bind(circuit, np.linspace(-1, 1, circuit.n_params))
            q.run_noisy_circuit(q.new_statevector(circuit.n_qubits), bound, q.NoiseModel())
            assert (len(bound.gates), len(calls)) == (gates, groups)

    def test_fixed_gates_are_bound_once_per_circuit(self, h2_uccsd_circuit):
        rng = np.random.default_rng(3)
        a, b = (
            q.bind(h2_uccsd_circuit, rng.uniform(-3, 3, h2_uccsd_circuit.n_params))
            for _ in range(2)
        )
        fixed = [not isinstance(g.param, Param) for g in h2_uccsd_circuit.gates]
        for is_fixed, ga, gb in zip(fixed, a.gates, b.gates):
            assert (ga is gb) == is_fixed
        # equal gates are one object, fixed or not
        assert len({id(g) for g in a.gates}) == len(set(a.gates)) < len(a.gates)
        assert len({id(g) for g, f in zip(a.gates, fixed) if not f}) == 6
        assert sum(not f for f in fixed) == 12 < len(fixed) == 158

    def test_cache_stays_bounded_over_many_thetas(self, h2_uccsd_circuit):
        # a parametrized gate's op lives as long as its bound circuit, and
        # no reference cycle holds it, so nothing collects ops over many
        # thetas
        n = h2_uccsd_circuit.n_qubits
        rng = np.random.default_rng(0)
        rho = pair(q.new_pure_ground(n))
        for _ in range(20):
            circuit = q.bind(h2_uccsd_circuit, rng.uniform(-3, 3, h2_uccsd_circuit.n_params))
            for gate in circuit.gates:
                rho = q.apply_gate(rho, gate)
            rotation = next(g for g in circuit.gates if g.kind == "Rz")
            op = weakref.ref(rotation._ops[n, PairedDensity])
            assert op() is not None
            del circuit, gate, rotation
            assert op() is None
        assert abs(rho.trace() - 1) < 1e-12

    def test_fused_ops_live_as_long_as_their_binding(self, h2_uccsd_circuit):
        # a FusedGate that holds a Param gate is its binding's, and it and
        # its op die with the binding, as no reference cycle holds them; a
        # fixed one is the Circuit's, with one op whatever the binding
        ansatz = h2_uccsd_circuit
        fresh = q.Circuit(ansatz.n_qubits, ansatz.gates, ansatz.n_params)
        fixed = {id(g): g for g in fresh._fusion[0]}
        assert len(fixed) == 27
        n = fresh.n_qubits
        rng = np.random.default_rng(0)
        for _ in range(20):
            circuit = q.bind(fresh, rng.uniform(-3, 3, fresh.n_params))
            q.run_noisy_circuit(q.new_statevector(n), circuit, q.NoiseModel())
            own = {id(g): g for g in circuit.fused() if id(g) not in fixed}
            ops = [weakref.ref(g._ops[n, StateVector]) for g in own.values()]
            assert len(ops) == 6 and all(op() is not None for op in ops)
            del circuit, own
            assert all(op() is None for op in ops)
        assert all(list(g._ops) == [(n, StateVector)] for g in fixed.values())

    def test_threads_share_the_cache(self):
        # more threads than cores, switching often, two threads on each
        # circuit, so both build and write the same gates' ops at once
        n = 3

        def make_circuits():
            rng = np.random.default_rng(5)
            circuits = []
            for _ in range(8):
                gates = [bound("H", (qb,)) for qb in range(n)]
                for qb, kind, angle in zip(
                    rng.integers(0, n, 40), rng.choice(["Rx", "Rz"], 40), rng.uniform(-3, 3, 40)
                ):
                    qb = int(qb)
                    gates += [bound(kind, (qb,), angle), bound("CNOT", (qb, (qb + 1) % n))]
                circuits.append(gates)
            return circuits

        def run(gates):
            rho = pair(q.new_pure_ground(n))
            for gate in gates:
                rho = q.apply_gate(rho, gate)
            return rho.data

        serial = [run(gates) for gates in make_circuits()]
        circuits = make_circuits()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, gates) for gates in circuits * 2]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, serial * 2):
            assert np.array_equal(got, want)

    def test_threads_share_the_fused_ops(self, h2_uccsd_circuit):
        # more threads than cores, switching often, two threads on each
        # binding of one Circuit, so they build the same FusedGates' ops at
        # once, the Circuit's and each binding's own
        ansatz = h2_uccsd_circuit
        fresh = q.Circuit(ansatz.n_qubits, ansatz.gates, ansatz.n_params)
        rng = np.random.default_rng(6)
        thetas = [rng.uniform(-3, 3, fresh.n_params) for _ in range(8)]

        def run(circuit):
            start = q.new_statevector(circuit.n_qubits)
            return q.run_noisy_circuit(start, circuit, q.NoiseModel()).data

        serial = [run(q.BoundCircuit(fresh.n_qubits, q.bind(ansatz, t).gates)) for t in thetas]
        circuits = [q.bind(fresh, t) for t in thetas]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(run, c) for c in circuits * 2]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(results, serial * 2):
            assert np.array_equal(got, want)
        # each FusedGate kept one op: the Circuit's 27 fixed ones, and 6 of
        # each binding's own
        n = fresh.n_qubits
        fixed = {id(g) for g in fresh._fusion[0]}
        for c in circuits:
            kept = {id(g): g for g in c.fused()}
            assert fixed < set(kept) and len(kept) == 27 + 6
            assert all(list(g._ops) == [(n, StateVector)] for g in kept.values())


_DEPHASING = q.NoiseModel((q.LindbladTerm("dephasing", (0,), 0.1),))
_Z0 = q.PauliString({0: "Z"})

# Each count or real setting that a constructor or entry point checks, by
# `state.check_count` or `state.check_real`: (id, what its message names,
# a call that passes the value, least, then for a count its `most` and any
# further values to refuse, for a real whether it must be strictly above
# `least`).
COUNTS = [
    ("new_statevector", "n_qubits", q.new_statevector, 1, None, (2.0,)),
    ("Circuit.n_qubits", "n_qubits", lambda v: q.Circuit(v, (), 0), 1, None, ()),
    ("Circuit.n_params", "n_params", lambda v: q.Circuit(1, (), v), 0, None, ()),
    ("BoundCircuit.n_qubits", "n_qubits", lambda v: q.BoundCircuit(v, ()), 1, None, ()),
    ("AnsatzSpec.layers", "Entangling ansatz layers",
     lambda v: q.AnsatzSpec("Entangling", layers=v), 1, None, (1.5,)),
    ("Entangling n_qubits", "Entangling ansatz n_qubits",
     lambda v: q.build_ansatz(q.AnsatzSpec("Entangling", layers=1), v), 2, None, ()),
    ("PropagatorConfig.substeps", "substeps",
     lambda v: q.PropagatorConfig(substeps=v), 1, MAX_SUBSTEPS, ()),
    ("gamma1 template", "gamma1 template n_qubits",
     lambda v: q.build_template_model("gamma1", v, 1e-3), 1, None, ()),
    ("correlated template", "correlated template n_qubits",
     lambda v: q.build_template_model("correlated", v, 1e-3), 2, None, ()),
    ("max_evals", "max_evals", lambda v: q.OptimizerSettings(max_evals=v), 1, None, ()),
    ("seed", "seed", lambda v: q.OptimizerSettings(seed=v), 0, None, (1.5,)),
    ("scaling_ladder", "n_points", lambda v: scaling_ladder(None, None, None, n_points=v),
     2, None, ()),
    ("run_validation_suite", "validate substeps", run_validation_suite,
     1, MAX_SUBSTEPS // 5, ()),
    ("PauliSum.n_qubits", "n_qubits", lambda v: q.PauliSum([], v), 1, None, (2.7,)),
    ("Param.index", "parameter index", q.Param, 0, None, ()),
]
REALS = [
    ("Gate angle", "Rx angle", lambda v: q.Gate("Rx", (0,), v), -math.inf, False),
    ("BoundGate angle", "Rz angle", lambda v: q.BoundGate("Rz", (0,), v), -math.inf, False),
    ("rate", "rate", lambda v: q.LindbladTerm("dephasing", (0,), v), 0, False),
    ("n_th", "n_th", lambda v: q.LindbladTerm("thermal", (0,), 0.1, n_th=v), 0, False),
    ("tau", "tau", lambda v: q.PropagatorConfig(tau=v), 0, True),
    ("scale_terms", "scale factor", lambda v: scale_terms(_DEPHASING, (0,), v), 0, False),
    ("f_tol", "f_tol", lambda v: q.OptimizerSettings(f_tol=v), 0, True),
    ("x_tol", "x_tol", lambda v: q.OptimizerSettings(x_tol=v), 0, True),
    ("initial_step", "initial_step", lambda v: q.OptimizerSettings(initial_step=v), 0, True),
    ("weight", "weight", lambda v: q.RemovalGroup("g", (0,), v), 0, True),
    ("inflation factor", "inflation factor",
     lambda v: q.scaled_noise_correction(None, None, None, v), 1, True),
    ("PauliSum coefficient", "coefficient", lambda v: q.PauliSum([(v, _Z0)], 1), -math.inf, False),
    ("Param.prefactor", "prefactor", lambda v: q.Param(0, v), -math.inf, False),
]


def _count_cases():
    for name, what, call, least, most, extra in COUNTS:
        top = "" if most is None else f" and <= {most}"
        probes = (True, 2.5, least - 1) + (() if most is None else (most + 1,)) + extra
        for value in probes:
            message = f"{what} must be an int >= {least}{top}, got {value!r}"
            yield pytest.param(call, value, message, id=f"{name}-{value!r}")


def _real_cases():
    for name, what, call, least, above in REALS:
        bound = "" if least == -math.inf else f" {'>' if above else '>='} {least}"
        # 10**400 passes a comparison with inf but overflows any float use
        for value in (True, math.nan, math.inf, -math.inf, 10**400) + ((least,) if above else ()):
            message = f"{what} must be a finite real{bound}, got {value!r}"
            yield pytest.param(call, value, message, id=f"{name}-{value!r:.12}")


class TestSettingChecks:
    @pytest.mark.parametrize("call, value, message", [*_count_cases(), *_real_cases()])
    def test_every_count_and_real_setting_is_refused_by_name(self, call, value, message):
        # many of these used to be accepted (PauliSum([], 2.7) as 2 qubits, a
        # True rate as 1) or to fail later in numpy with a TypeError
        with pytest.raises(ValueError, match=re.escape(message)):
            call(value)

    def test_numpy_values_and_the_ends_of_a_range_pass(self):
        for value in (1, 3, np.int64(3)):
            check_count("n", value, 1, 3)
        for value in (0.5, np.float32(0.5), 0, np.int8(0)):
            assert check_real("x", value, 0) is value
        assert check_real("x", 1e-300, 0, above=True) == 1e-300
        assert check_real("x", -1e300) == -1e300
        # PauliSum stores its register as an int and its coefficients as floats
        observable = q.PauliSum([(np.float32(0.5), _Z0)], np.int64(1))
        assert type(observable.n_qubits) is int and type(observable.terms[0][0]) is float
