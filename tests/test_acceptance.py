"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The lines are printed with capture suspended so they show up in the -v
log.  Criteria needing a noise-rate sweep share one module-scoped sweep
per noise template to keep the whole gate under a few minutes.
"""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

import qemsim as q
from qemsim.cli import main as cli_main
from qemsim.experiments import (
    CHEMICAL_ACCURACY,
    check_amplitude_damping,
    check_dephasing,
    check_rk4_convergence,
    check_thermal_steady_state,
    dense_unitary,
    sweep,
    threshold_ratio,
    scaling_ladder,
    uncorrected_error,
)
from qemsim.noise import build_template_model

from conftest import pauli_string_dense

RATE_GRID = np.logspace(-6, -2.5, 8)


@pytest.fixture
def report(capsys):
    def _report(num, name, ok):
        line = f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


@pytest.fixture(scope="module")
def uccsd_sweeps(h2_hamiltonian, h2_bound_circuit):
    """Rate sweeps of the optimized UCCSD circuit, one per noise template."""
    out = {}
    for template in ("gamma1_gamma2", "thermal", "correlated"):
        out[template] = sweep(
            h2_bound_circuit, h2_hamiltonian, template, RATE_GRID, n_th=0.5
        )
    return out


@pytest.fixture(scope="module")
def entangling_vqe(h2_hamiltonian):
    circuit = q.build_ansatz(q.AnsatzSpec("Entangling", layers=4), 4)
    problem = q.VqeProblem(h2_hamiltonian, circuit)
    result = q.solve_vqe(problem, q.OptimizerSettings(max_evals=3000, seed=7))
    return circuit, result


def test_criterion_1_noiseless_vqe_baseline(report, h2_vqe_result, h2_ground_energy):
    gap = abs(h2_vqe_result.energy - h2_ground_energy)
    report(1, "noiseless VQE baseline", gap < CHEMICAL_ACCURACY)


def test_criterion_2_correction_efficacy(report, uccsd_sweeps):
    rows = uccsd_sweeps["gamma1_gamma2"]
    # both crossings must be interior to the grid, otherwise the ratio
    # would be an artifact of the grid edges
    assert uncorrected_error(rows[0]) < CHEMICAL_ACCURACY
    assert rows[-1]["residual"] > CHEMICAL_ACCURACY
    ratio = threshold_ratio(rows)
    report(2, "correction efficacy >= 10x", ratio is not None and ratio >= 10.0)


def test_criterion_3_noise_type_ordering(report, h2_hamiltonian, h2_bound_circuit):
    ideal = q.run_noisy_circuit(
        q.new_pure_ground(4), h2_bound_circuit, q.NoiseModel()
    )
    a_ideal = q.expectation(ideal, h2_hamiltonian)

    def raw_error(template, rate):
        model = build_template_model(template, 4, rate)
        rho = q.run_noisy_circuit(q.new_pure_ground(4), h2_bound_circuit, model)
        return abs(q.expectation(rho, h2_hamiltonian) - a_ideal)

    ok = all(
        raw_error("gamma1", r) > raw_error("gamma2", r)
        for r in (1e-4, 1e-3, 1e-2)
    )
    report(3, "amplitude damping dominates dephasing", ok)


def test_criterion_4_thermal_and_correlated(report, uccsd_sweeps):
    ratios = {}
    for template in ("thermal", "correlated"):
        rows = uccsd_sweeps[template]
        assert uncorrected_error(rows[0]) < CHEMICAL_ACCURACY
        assert rows[-1]["residual"] > CHEMICAL_ACCURACY
        ratios[template] = threshold_ratio(rows)
    ok = all(r is not None and r >= 10.0 for r in ratios.values())
    report(4, "thermal and correlated >= 10x", ok)


def test_criterion_5_first_order_cancellation(report, h2_hamiltonian, h2_bound_circuit):
    model = build_template_model("gamma1_gamma2", 4, 3e-4)
    _, slope_raw, slope_corr = scaling_ladder(
        h2_bound_circuit, model, h2_hamiltonian, n_points=4
    )
    ok = abs(slope_raw - 1.0) <= 0.15 and slope_corr >= 1.8
    report(5, "tau-scaling slopes 1.0 / >= 1.8", ok)


def test_criterion_6_channel_closed_forms(report):
    checks = [
        check_amplitude_damping(substeps=64),
        check_dephasing(substeps=64),
        check_thermal_steady_state(),
        check_rk4_convergence(),
    ]
    report(6, "closed-form channels and RK4 order", all(ok for ok, _ in checks))


def test_criterion_7_compiled_unitaries(report):
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        qubits = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
        ps = q.PauliString({int(qb): "XYZ"[rng.integers(3)] for qb in qubits})
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        gates = q.compile_pauli_exponential(ps, theta, n)
        u = dense_unitary(q.bind(q.Circuit(n, tuple(gates), 0), []))
        want = expm(-0.5j * theta * pauli_string_dense(ps, n))
        worst = max(worst, float(np.max(np.abs(u - want))))
    report(7, "compiled exponentials within 1e-10", worst < 1e-10)


def test_criterion_8_entangling_ansatz_parity(report, h2_hamiltonian, entangling_vqe):
    circuit, result = entangling_vqe
    bound = q.bind(circuit, result.theta_opt)
    rows = sweep(bound, h2_hamiltonian, "gamma1_gamma2", RATE_GRID)
    assert uncorrected_error(rows[0]) < CHEMICAL_ACCURACY
    assert rows[-1]["residual"] > CHEMICAL_ACCURACY
    ratio = threshold_ratio(rows)
    report(8, "entangling ansatz >= 10x", ratio is not None and ratio >= 10.0)


def test_criterion_9_large_configuration_accepted(report, tmp_path):
    # 12-qubit configuration must be accepted behind --large and run
    # without structural failure; kept to a single objective evaluation
    # because the full experiment is an hours-scale stretch run
    ham = tmp_path / "chain12.txt"
    lines = ["qubits 12"] + [f"0.5 Z{i}" for i in range(12)]
    ham.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "large.json"
    cfg.write_text(
        json.dumps(
            {
                "hamiltonian": str(ham),
                "ansatz": {"kind": "entangling", "layers": 1},
                "optimizer": {"max_evals": 1},
            }
        )
    )
    out = tmp_path / "out.json"
    refused = cli_main(["vqe", "--config", str(cfg)]) == 2
    code = cli_main(["vqe", "--config", str(cfg), "--large", "--output", str(out)])
    payload = json.loads(out.read_text())
    ok = refused and code == 0 and len(payload["theta_opt"]) == 60

    # a 6-qubit register with actual noise: gamma1_gamma2 factorizes
    # into one precomputed 1-qubit block per qubit
    circuit = q.BoundCircuit(
        6, (q.BoundGate("H", (0,)), q.BoundGate("CNOT", (0, 1)), q.BoundGate("X", (5,)))
    )
    model = build_template_model("gamma1_gamma2", 6, 1e-3)
    rho = q.run_noisy_circuit(q.new_pure_ground(6), circuit, model)
    ok = ok and abs(rho.trace() - 1.0) < 1e-9
    report(9, "large configs accepted under --large", ok)


def test_criterion_10_variational_floor(
    report, h2_vqe_result, h2_ground_energy, entangling_vqe
):
    floor = h2_ground_energy - 1e-9
    energies = [h2_vqe_result.energy, entangling_vqe[1].energy]
    energies += [e for _, e in h2_vqe_result.history]
    energies += [e for _, e in entangling_vqe[1].history]
    report(10, "variational floor respected", all(e >= floor for e in energies))
