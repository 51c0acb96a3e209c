"""The benchmark's checks must pass true outputs and flag moved ones.

Run with `python3 -m pytest -q perfbench`.  Small registers keep it fast;
the same check functions serve the benchmark's workloads.
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from qemsim import circuit, mitigation, noise, vqe  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _entangling(n, seed=7):
    ansatz = circuit.build_ansatz(circuit.AnsatzSpec("Entangling", layers=1), n)
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, ansatz.n_params)
    return ansatz, theta


@pytest.fixture(scope="module", params=["gamma1_gamma2", "thermal", "correlated"])
def mitigated(request):
    template, n, rate = request.param, 3, 2e-3
    ansatz, theta = _entangling(n)
    bound = circuit.bind(ansatz, theta)
    observable = workloads.ising_ring(n)
    model = noise.build_template_model(template, n, rate, workloads.N_TH)
    report = mitigation.run_mitigation(bound, model, observable)
    terms = checks.template_terms(template, n, rate, workloads.N_TH)

    def failures(r):
        return workloads.report_check({}, None, r, bound, terms, observable, n, 1.0)

    return report, failures


def test_true_report_passes(mitigated):
    report, failures = mitigated
    assert failures(report) == []


@pytest.mark.parametrize("field", ["a_noisy", "a_ideal", "a_corrected"])
def test_moved_report_field_fails(mitigated, field):
    report, failures = mitigated
    assert failures(replace(report, **{field: getattr(report, field) + 1e-6}))


def test_moved_group_value_fails(mitigated):
    report, failures = mitigated
    label, value, weight = report.a_removed[0]
    moved = [(label, value + 1e-6, weight)] + report.a_removed[1:]
    assert failures(replace(report, a_removed=moved))


def test_statevector_oracle_matches_noiseless_objective():
    ansatz, theta = _entangling(5)
    problem = vqe.VqeProblem(workloads.ising_ring(5), ansatz)
    got = vqe.energy_objective(problem, theta)
    want = checks.statevector_value(checks.bind_gates(ansatz, theta), problem.hamiltonian, 5)
    assert checks.close("objective", got, want, checks.ORACLE_TOL) == []
    assert checks.close("objective", got + 1e-6, want, checks.ORACLE_TOL)


def test_sparse_and_dense_exponentials_agree():
    ansatz, theta = _entangling(3)
    oracle = checks.NoisyOracle(workloads.ising_ring(3), 3, 1.0)
    units = oracle.unitaries(checks.bind_gates(ansatz, theta))
    terms = checks.template_terms("correlated", 3, 1e-2)
    dense = oracle.value(units, oracle.interval(terms))
    gen = checks.liouvillian(terms, 3)  # tau = 1
    sparse = oracle.value(units, lambda v: expm_multiply(gen, v))
    assert abs(dense - sparse) < 1e-12


def test_reference_comparison_flags_moved_value():
    assert checks.reference_failures({"x": [1.0]}, {"x": [1.0]}) == []
    assert checks.reference_failures({"x": [1.0 + 1e-11]}, {"x": [1.0]})
    assert checks.reference_failures({"x": []}, {"x": [1.0]})
