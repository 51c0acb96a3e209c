import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import qemsim as q
from qemsim.state import (
    GATE_CACHE_SIZE,
    LocalOp,
    PairedDensity,
    StateVector,
    _gate_op,
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
        # bit for bit the uncached build, at every position of a 4-qubit
        # register
        n = 4
        gates = [bound("H", (qb,)) for qb in range(n)] + [
            bound("CNOT", (0, 1)),
            bound("CNOT", (3, 2)),
            bound("CNOT", (3, 0)),
            bound("Rz", (1,), 0.3),
            bound("Rx", (2,), -1.1),
        ]
        for gate in gates:
            fresh = _gate_op.__wrapped__(gate, n, PairedDensity)
            cached = _gate_op(gate, n, PairedDensity)
            assert (cached.axes, cached.post) == (fresh.axes, fresh.post)
            assert np.array_equal(cached.m, fresh.m)
            assert not cached.m.flags.writeable
        # qubit 1 of 4: a 4x4 superoperator folded over its 4 trailing entries
        folded = _gate_op(bound("H", (1,)), n, PairedDensity)
        assert (list(folded.axes), folded.m.shape) == ([4, 5, 6, 7], (16, 16))

    def test_rz_angles_never_share_an_entry(self):
        a = _gate_op(bound("Rz", (0,), 0.3), 2, PairedDensity)
        for angle in (0.3 + 1e-15, -0.3):
            b = _gate_op(bound("Rz", (0,), angle), 2, PairedDensity)
            assert b is not a
            assert not np.array_equal(a.m, b.m)
        # the same gate again is the same entry
        assert _gate_op(bound("Rz", (0,), 0.3), 2, PairedDensity) is a

    @pytest.mark.parametrize("layout", ["StateVector", "PairedDensity", "DensityMatrix"])
    def test_bad_qubits_raise_on_every_call(self, layout):
        # the check runs inside the cached build, and a raised error is
        # not cached, so the second call raises as the first did
        rho = q.new_pure_ground(2)
        state = {
            "StateVector": q.new_statevector(2),
            "PairedDensity": pair(rho),
            "DensityMatrix": rho,
        }[layout]
        for gate, message in [
            (bound("X", [2]), "qubit index 2 out of range for 2 qubits"),
            (bound("X", [-1]), "qubit index -1 out of range for 2 qubits"),
            (bound("CNOT", [1, 1]), r"duplicate qubit indices: \(1, 1\)"),
        ]:
            for _ in range(2):
                with pytest.raises(ValueError, match=message):
                    q.apply_gate(state, gate)

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

    def test_noiseless_runs_build_each_statevector_op_once(self, h2_bound_circuit):
        circuit = h2_bound_circuit
        distinct = len(set(circuit.gates))
        _gate_op.cache_clear()
        for _ in range(2):
            out = q.run_noisy_circuit(q.new_statevector(circuit.n_qubits), circuit, q.NoiseModel())
            assert isinstance(out, StateVector)
        info = _gate_op.cache_info()
        assert distinct < len(circuit.gates)
        assert (info.misses, info.hits) == (distinct, 2 * len(circuit.gates) - distinct)

    def test_cache_stays_bounded_over_many_thetas(self, h2_uccsd_circuit):
        n = h2_uccsd_circuit.n_qubits
        rng = np.random.default_rng(0)
        rho = pair(q.new_pure_ground(n))
        _gate_op.cache_clear()
        for _ in range(20):
            circuit = q.bind(h2_uccsd_circuit, rng.uniform(-3, 3, h2_uccsd_circuit.n_params))
            for gate in circuit.gates:
                rho = q.apply_gate(rho, gate)
            assert _gate_op.cache_info().currsize <= GATE_CACHE_SIZE
        info = _gate_op.cache_info()
        # its Rz angles are new at every theta, so entries were evicted
        assert info.maxsize == GATE_CACHE_SIZE < info.misses
        assert abs(rho.trace() - 1) < 1e-12

    def test_threads_share_the_cache(self):
        # more threads than cores, switching often, over more distinct gates
        # than the cache holds, so entries are evicted while others read them
        n = 3
        rng = np.random.default_rng(5)
        circuits = []
        for _ in range(8):
            gates = [bound("H", (qb,)) for qb in range(n)]
            for qb, kind, angle in zip(
                rng.integers(0, n, 40), rng.choice(["Rx", "Rz"], 40), rng.uniform(-3, 3, 40)
            ):
                gates += [bound(kind, (int(qb),), angle), bound("CNOT", (int(qb), (qb + 1) % n))]
            circuits.append(gates)

        def run(gates):
            rho = pair(q.new_pure_ground(n))
            for gate in gates:
                rho = q.apply_gate(rho, gate)
            return rho.data

        serial = [run(gates) for gates in circuits]
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
