import math

import numpy as np
import pytest

import qemsim as q
from qemsim.errors import IntegrationError
from qemsim.noise import (
    MAX_SUBSTEPS,
    IntervalPropagator,
    _local_liouvillian,
    _rhs,
    build_template_model,
    scale_terms,
)
from qemsim.state import PairedDensity, pair, paired_axes, paired_superop, unpair

from conftest import dense_liouvillian, dense_rk4, random_density_matrix

SIGMA = np.array([[0, 1], [0, 0]], dtype=complex)
EXCITED = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def ad_model(gamma, qubit=0):
    return q.NoiseModel((q.LindbladTerm("amplitude_damping", (qubit,), gamma),))


def paired_rhs(rho_data, parts, n):
    """`_rhs` on rho_data in paired order, the result unpaired again;
    `parts` are (qubits, superoperator in (rows, columns) order) pairs."""
    paired = pair(q.DensityMatrix(n, rho_data)).data
    parts = [(paired_axes(qubits, n), paired_superop(m)) for qubits, m in parts]
    return unpair(PairedDensity(n, _rhs(paired, parts))).data


def dissipator(rho_data, collapse, qubits, n):
    """D[C](rho) = C rho C^dag - (C^dag C rho + rho C^dag C) / 2, through
    the local superoperator and the sum that wide blocks use."""
    superop = _local_liouvillian([(1.0, collapse, qubits)], qubits)
    return paired_rhs(rho_data, [(qubits, superop)], n)


def lindblad_rhs(rho_data, model, n):
    """L(rho) the way a wide block computes it: one local superoperator
    per nonzero-rate term, summed by `_rhs`."""
    parts = [
        (t.qubits, _local_liouvillian(t.collapse_ops(), t.qubits))
        for t in model.terms
        if t.rate
    ]
    return paired_rhs(rho_data, parts, n)


class TestLindbladTerm:
    def test_correlated_needs_two_distinct_qubits(self):
        with pytest.raises(ValueError):
            q.LindbladTerm("correlated", (0,), 0.1)
        with pytest.raises(ValueError):
            q.LindbladTerm("correlated", (1, 1), 0.1)

    def test_single_qubit_kinds_need_one_qubit(self):
        with pytest.raises(ValueError):
            q.LindbladTerm("dephasing", (0, 1), 0.1)

    def test_negative_qubit(self):
        with pytest.raises(ValueError):
            q.LindbladTerm("amplitude_damping", (-1,), 0.1)

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            q.LindbladTerm("amplitude_damping", (0,), -0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rate(self, value):
        with pytest.raises(ValueError):
            q.LindbladTerm("amplitude_damping", (0,), value)

    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    def test_bad_n_th(self, value):
        with pytest.raises(ValueError):
            q.LindbladTerm("thermal", (0,), 0.1, n_th=value)

    def test_n_th_only_for_thermal(self):
        with pytest.raises(ValueError):
            q.LindbladTerm("amplitude_damping", (0,), 0.1, n_th=0.5)
        with pytest.raises(ValueError):
            q.LindbladTerm("thermal", (0,), 0.1)
        q.LindbladTerm("thermal", (0,), 0.1, n_th=0.5)  # valid

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            q.LindbladTerm("bit_flip", (0,), 0.1)


class TestDissipator:
    def test_sigma_on_excited(self):
        inc = dissipator(EXCITED, SIGMA, (0,), 1)
        assert np.allclose(inc, [[1, 0], [0, -1]])

    def test_sigma_on_ground(self):
        ground = np.array([[1, 0], [0, 0]], dtype=complex)
        assert np.allclose(dissipator(ground, SIGMA, (0,), 1), 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_traceless(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(2, rng)
        inc = dissipator(rho.data, SIGMA, (1,), 2)
        assert abs(np.trace(inc)) < 1e-12


class TestLindbladRhs:
    def test_empty_model(self):
        out = lindblad_rhs(EXCITED, q.NoiseModel(), 1)
        assert np.allclose(out, 0)

    def test_amplitude_damping_scaling(self):
        gamma = 0.37
        out = lindblad_rhs(EXCITED, ad_model(gamma), 1)
        assert np.allclose(out, gamma * np.array([[1, 0], [0, -1]]))

    def test_dephasing_annihilates_populations(self):
        diag = np.diag([0.3, 0.7]).astype(complex)
        model = q.NoiseModel((q.LindbladTerm("dephasing", (0,), 0.2),))
        assert np.allclose(lindblad_rhs(diag, model, 1), 0)

    @pytest.mark.parametrize("template", ["gamma1_gamma2", "thermal", "correlated"])
    def test_traceless_and_hermitian_preserving(self, template):
        rng = np.random.default_rng(8)
        rho = random_density_matrix(3, rng)
        model = build_template_model(template, 3, 0.17)
        out = lindblad_rhs(rho.data, model, 3)
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_superoperator_matches_tensor_path(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(2, rng)
        model = q.NoiseModel(
            (
                q.LindbladTerm("amplitude_damping", (0,), 0.1),
                q.LindbladTerm("dephasing", (1,), 0.3),
                q.LindbladTerm("thermal", (0,), 0.2, n_th=0.5),
                q.LindbladTerm("correlated", (0, 1), 0.15),
            )
        )
        lmat = dense_liouvillian(model, 2)
        via_oracle = (lmat @ rho.data.reshape(-1)).reshape(4, 4)
        factorized = lindblad_rhs(rho.data, model, 2)
        assert np.max(np.abs(via_oracle - factorized)) < 1e-12


class TestEvolve:
    def test_amplitude_damping_closed_form(self):
        gamma, t = 0.25, 3.0
        rho = q.DensityMatrix(1, EXCITED.copy())
        out = q.evolve(rho, ad_model(gamma), q.PropagatorConfig(tau=t, substeps=192))
        assert out.data[1, 1].real == pytest.approx(math.exp(-gamma * t), abs=1e-9)

    def test_dephasing_closed_form(self):
        gamma, t = 0.4, 2.0
        model = q.NoiseModel((q.LindbladTerm("dephasing", (0,), gamma),))
        rho = q.DensityMatrix(1, PLUS.copy())
        out = q.evolve(rho, model, q.PropagatorConfig(tau=t, substeps=128))
        assert abs(out.data[0, 1] - 0.5 * math.exp(-0.5 * gamma * t)) < 1e-9
        # populations untouched by pure dephasing
        assert out.data[1, 1].real == pytest.approx(0.5, abs=1e-12)

    def test_thermal_steady_state(self):
        model = q.NoiseModel((q.LindbladTerm("thermal", (0,), 0.5, n_th=0.5),))
        rho = q.new_pure_ground(1)
        out = q.evolve(rho, model, q.PropagatorConfig(tau=60.0, substeps=960))
        assert out.data[1, 1].real == pytest.approx(0.25, abs=1e-6)

    def test_trace_preserved_without_renormalization(self):
        model = build_template_model("gamma1_gamma2", 2, 0.05)
        rho = q.apply_gate(q.new_pure_ground(2), q.BoundGate("H", (0,)))
        out = q.evolve(rho, model, q.PropagatorConfig())
        assert abs(out.trace() - 1.0) < 1e-9
        assert out.min_eigenvalue() > -1e-7

    def test_semigroup_property(self):
        model = build_template_model("gamma1_gamma2", 2, 0.08)
        rho = q.apply_gate(q.new_pure_ground(2), q.BoundGate("H", (1,)))
        cfg = q.PropagatorConfig(tau=1.0, substeps=64)
        one_then_one = q.evolve(q.evolve(rho, model, cfg), model, cfg)
        both = q.evolve(rho, model, q.PropagatorConfig(tau=2.0, substeps=128))
        assert np.max(np.abs(one_then_one.data - both.data)) < 1e-8

    def test_fourth_order_convergence(self):
        gamma = 0.8
        exact = math.exp(-gamma)

        def error(substeps):
            rho = q.DensityMatrix(1, EXCITED.copy())
            out = q.evolve(rho, ad_model(gamma), q.PropagatorConfig(substeps=substeps))
            return abs(out.data[1, 1].real - exact)

        assert error(2) / error(4) > 8.0
        assert error(4) / error(8) > 8.0

    def test_tensor_path_matches_superoperator_path(self):
        # per-qubit blocks, each precomputed, against full-register RK4
        # on the dense oracle; splitting RK4 by block changes it only at
        # O((h * rate)^5), under 1e-15 here
        model = build_template_model("gamma1_gamma2", 2, 0.1)
        rho = q.apply_gate(q.new_pure_ground(2), q.BoundGate("H", (0,)))
        cfg = q.PropagatorConfig(tau=1.0, substeps=32)
        fast = q.evolve(rho, model, cfg)
        want = dense_rk4(dense_liouvillian(model, 2), rho.data, cfg.tau, cfg.substeps)
        assert np.max(np.abs(fast.data - want)) < 1e-12

    def test_correlated_ring_wide_block_matches_dense_oracle(self):
        # a 5-qubit ring is one block wider than the precomputed ones, so
        # it runs RK4 with one local superoperator per term
        n = 5
        model = build_template_model("correlated", n, 0.2)
        propagator = IntervalPropagator(model, n, q.PropagatorConfig(substeps=8))
        assert [b.qubits for b in propagator.blocks] == [(4, 3, 2, 1, 0)]
        assert propagator.blocks[0].matrix is None
        rho = random_density_matrix(n, np.random.default_rng(11))
        # populations alone would only see the exchange terms' diagonal
        rho = q.apply_gate(q.apply_gate(rho, q.BoundGate("X", (0,))), q.BoundGate("H", (4,)))
        got = unpair(propagator.propagate(pair(rho)))
        want = dense_rk4(dense_liouvillian(model, n), rho.data, 1.0, 8)
        assert np.max(np.abs(got.data - want)) < 1e-12
        assert np.max(np.abs(got.data - rho.data)) > 1e-3

    def test_mixed_blocks_match_dense_oracle(self):
        # a 2-qubit correlated block, a 3-qubit chain and a lone qubit,
        # one zero-rate term bridging two of them
        n = 6
        model = q.NoiseModel(
            (
                q.LindbladTerm("correlated", (5, 1), 0.3),
                q.LindbladTerm("thermal", (0,), 0.2, n_th=0.4),
                q.LindbladTerm("correlated", (2, 4), 0.1),
                q.LindbladTerm("correlated", (1, 0), 0.0),
                q.LindbladTerm("amplitude_damping", (3,), 0.25),
                q.LindbladTerm("correlated", (4, 3), 0.15),
                q.LindbladTerm("dephasing", (5,), 0.05),
            )
        )
        cfg = q.PropagatorConfig(tau=1.0, substeps=16)
        propagator = IntervalPropagator(model, n, cfg)
        assert sorted(b.qubits for b in propagator.blocks) == [(0,), (4, 3, 2), (5, 1)]
        rho = random_density_matrix(n, np.random.default_rng(4))
        got = unpair(propagator.propagate(pair(rho)))
        # the blocks commute, so one dense RK4 per block in any order is
        # the factorized channel; a single full-model RK4 differs at O(h^5)
        want = rho.data
        for terms in ([0, 6], [1], [2, 4, 5]):
            block = q.NoiseModel(tuple(model.terms[i] for i in terms))
            want = dense_rk4(dense_liouvillian(block, n), want, cfg.tau, cfg.substeps)
        assert np.max(np.abs(got.data - want)) < 1e-12

    def test_integrator_failure_raises(self):
        rho = q.DensityMatrix(1, EXCITED.copy())
        with pytest.raises(IntegrationError, match="substeps"):
            q.evolve(rho, ad_model(5e4), q.PropagatorConfig(tau=1.0, substeps=1))

    def test_drift_guard_reads_the_paired_diagonal(self):
        n = 3
        rho = random_density_matrix(n, np.random.default_rng(7))
        paired = pair(rho)
        assert paired.trace() == pytest.approx(np.trace(rho.data), abs=1e-15)
        propagator = IntervalPropagator(
            build_template_model("gamma1_gamma2", n, 0.05), n, q.PropagatorConfig()
        )
        assert abs(propagator.propagate(paired).trace() - 1.0) < 1e-12
        # the channels keep the trace, so an input 1e-3 off leaves 1e-3 off
        off = PairedDensity(n, paired.data * (1 + 1e-3))
        with pytest.raises(IntegrationError, match="trace drifted by 0.001"):
            propagator.propagate(off)

    def test_unstable_step_raises(self):
        # h * 2 * gamma = 20 is far outside RK4's stability interval; the
        # integrator used to return population 291 with trace exactly 1
        rho = q.DensityMatrix(1, EXCITED.copy())
        with pytest.raises(IntegrationError, match="substeps"):
            q.evolve(rho, ad_model(10.0), q.PropagatorConfig(tau=1.0, substeps=1))
        out = q.evolve(rho, ad_model(10.0), q.PropagatorConfig(tau=1.0, substeps=64))
        assert out.data[1, 1].real == pytest.approx(math.exp(-10.0), abs=1e-6)

    def test_config_validation(self):
        for tau in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                q.PropagatorConfig(tau=tau)
        with pytest.raises(ValueError):
            q.PropagatorConfig(substeps=0)
        # at 10^20 each step rounds to the identity; a trace-drift error
        # used to ask for still more substeps
        with pytest.raises(ValueError, match="round-off") as exc:
            q.PropagatorConfig(substeps=10**20)
        assert "increase" not in str(exc.value)
        out = q.evolve(
            q.DensityMatrix(1, EXCITED.copy()),
            ad_model(1e-3),
            q.PropagatorConfig(substeps=MAX_SUBSTEPS),
        )
        assert out.data[1, 1].real == pytest.approx(math.exp(-1e-3), abs=1e-9)


class TestRunNoisyCircuit:
    def test_empty_model_equals_sequential_gates(self):
        gates = (
            q.BoundGate("H", (0,)),
            q.BoundGate("CNOT", (0, 1)),
            q.BoundGate("Rz", (1,), 0.4),
        )
        circuit = q.BoundCircuit(2, gates)
        noisy = q.run_noisy_circuit(q.new_pure_ground(2), circuit, q.NoiseModel())
        rho = q.new_pure_ground(2)
        for g in gates:
            rho = q.apply_gate(rho, g)
        assert np.max(np.abs(noisy.data - rho.data)) < 1e-14

    def test_single_gate_sees_no_noise(self):
        circuit = q.BoundCircuit(1, (q.BoundGate("X", (0,)),))
        out = q.run_noisy_circuit(q.new_pure_ground(1), circuit, ad_model(10.0))
        assert np.allclose(out.data, EXCITED)

    def test_two_x_gates_single_decay_interval(self):
        gamma = 0.3
        circuit = q.BoundCircuit(1, (q.BoundGate("X", (0,)),) * 2)
        out = q.run_noisy_circuit(q.new_pure_ground(1), circuit, ad_model(gamma))
        # X, decay for one interval, X: survival probability moves to |0>
        assert out.data[0, 0].real == pytest.approx(math.exp(-gamma), abs=1e-9)
        assert out.data[1, 1].real == pytest.approx(1 - math.exp(-gamma), abs=1e-9)

    def test_rates_to_zero_converges_linearly(self):
        circuit = q.BoundCircuit(
            2, (q.BoundGate("H", (0,)), q.BoundGate("CNOT", (0, 1)), q.BoundGate("H", (1,)))
        )
        ideal = q.run_noisy_circuit(q.new_pure_ground(2), circuit, q.NoiseModel())

        def gap(rate):
            model = build_template_model("gamma1_gamma2", 2, rate)
            out = q.run_noisy_circuit(q.new_pure_ground(2), circuit, model)
            return np.max(np.abs(out.data - ideal.data))

        g1, g2 = gap(1e-3), gap(5e-4)
        assert g1 / g2 == pytest.approx(2.0, rel=0.05)

    def test_qubit_count_mismatch(self):
        circuit = q.BoundCircuit(2, (q.BoundGate("H", (0,)),))
        with pytest.raises(ValueError):
            q.run_noisy_circuit(q.new_pure_ground(1), circuit, q.NoiseModel())

    def test_model_qubits_validated(self):
        circuit = q.BoundCircuit(1, (q.BoundGate("H", (0,)),))
        with pytest.raises(ValueError):
            q.run_noisy_circuit(q.new_pure_ground(1), circuit, ad_model(0.1, qubit=1))


class TestModelEditing:
    def test_remove_and_scale_terms(self):
        model = build_template_model("gamma1", 3, 0.1)
        scaled = scale_terms(model, [1], 3.0)
        assert scaled.terms[1].rate == pytest.approx(0.3)
        assert scaled.terms[0].rate == pytest.approx(0.1)


class TestConfigHelpers:
    def test_template_models(self):
        both = build_template_model("gamma1_gamma2", 4, 0.1)
        assert len(both) == 8
        corr = build_template_model("correlated", 4, 0.1)
        assert [t.qubits for t in corr.terms] == [(0, 1), (1, 2), (2, 3), (3, 0)]
        with pytest.raises(ValueError):
            build_template_model("nope", 4, 0.1)


class TestParallelSafety:
    def test_concurrent_runs_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        circuit = q.BoundCircuit(
            2, (q.BoundGate("H", (0,)), q.BoundGate("CNOT", (0, 1)), q.BoundGate("X", (1,)))
        )
        model = build_template_model("gamma1_gamma2", 2, 0.01)

        def run():
            return q.run_noisy_circuit(q.new_pure_ground(2), circuit, model)

        serial = run()
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: run(), range(4)))
        for r in results:
            assert np.array_equal(r.data, serial.data)
