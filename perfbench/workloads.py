"""The four workloads: inputs made from a seed, the job a run repeats, and
the checks of its outputs.

Each job is one user-level task run through qemsim's public functions;
an op is the user-visible unit inside it (one run_mitigation call or one
objective evaluation).  Why each workload exists is recorded in
BENCHMARK.json; in short, each is the only one where its layer dominates:
propagator build on h2_sweep and h2_vqe_noisy, inter-gate propagation on
ring6_mitigation, and the gate kernel on chain10_objective.

The check functions import `checks` (and with it scipy) when called, so
the setup that run.py times in child processes does not include it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from qemsim import IntegrationError, circuit, experiments, mitigation, noise, paulis, vqe

from spans import patched

SWEEP_TEMPLATES = ("gamma1_gamma2", "thermal", "correlated")
# The two ends of logspace(-6, -2.5, 8): six mitigations, about 2 s a job,
# so a run holds enough jobs for a steady median.
SWEEP_RATES = tuple(float(r) for r in np.logspace(-6, -2.5, 2))
N_TH = 0.5
VQE_RATE = 1e-3
# Nelder-Mead needs 99-121 evaluations to converge here, depending on the
# seed; a fixed budget below that keeps the work of a job seed-independent,
# and a short one (about 2 s) lets a run hold enough jobs for a steady median.
VQE_MAX_EVALS = 20
RING_RATE = 1e-3
# The rotation layer and the H/CNOT ring of the 42-gate ansatz: the ring of
# CNOTs stays, and with substeps=1 a job takes about 2 s instead of 13.
RING_GATES = 24
# rate * h = 1e-3; the observables match substeps=4 to 3e-14.
RING_SUBSTEPS = 1
ISING_ZZ, ISING_X = 1.0, 0.7
# Ten qubits: a 16 MB rho, out of L2.  At eleven every 64 MB temporary
# goes to mmap and page faults, and run-to-run spread reached 19%.
CHAIN_QUBITS = 10

# Errors qemsim raises for a run it cannot complete (CapacityError is a
# ValueError); each counts as a failed op.  Anything else stops the run.
OP_ERRORS = (IntegrationError, ValueError)


@dataclass
class Op:
    seconds: float
    args: tuple
    result: Any


@dataclass
class Job:
    seconds: float
    result: Any = None
    ops: list[Op] = field(default_factory=list)
    error: str | None = None


class OpLog:
    """Times each call of a wrapped function and keeps its arguments and result."""

    def __init__(self):
        self.ops: list[Op] = []

    def wrap(self, fn):
        ops = self.ops

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            ops.append(Op(time.perf_counter() - t0, args, out))
            return out

        return timed


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]  # seed -> inputs
    job: Callable  # (inputs, OpLog, span) -> result; span(name, fn) wraps direct calls
    check: Callable  # (inputs, Job, cache: dict) -> one list of messages per op
    values: Callable  # Job -> {key: [floats]} compared with reference.json
    perturb: Callable  # Job -> copy of the Job with one output moved by 1e-6


def ising_ring(n: int) -> paulis.PauliSum:
    terms = [
        (ISING_ZZ, paulis.PauliString({q: "Z", (q + 1) % n: "Z"})) for q in range(n)
    ]
    terms += [(ISING_X, paulis.PauliString({q: "X"})) for q in range(n)]
    return paulis.PauliSum(terms, n)


def _h2():
    ham = paulis.parse_pauli_sum(experiments.bundled_text("h2"))
    spec, n = circuit.parse_ansatz_file(experiments.bundled_text("h2_uccsd"))
    return ham, circuit.build_ansatz(spec, n)


def _entangling(n: int):
    return circuit.build_ansatz(circuit.AnsatzSpec("Entangling", layers=1), n)


def _angles(seed: int, count: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-math.pi, math.pi, count)


def _flag_last(per_op: list, message: str) -> None:
    """Charge a job-level mismatch to the op that produced the job's result."""
    if per_op:
        per_op[-1] = per_op[-1] + [message]


def _oracle_cached(cache: dict, key, compute):
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def _report_values(job: Job) -> dict:
    reports = [op.result for op in job.ops]
    return {
        "a_noisy": [r.a_noisy for r in reports],
        "a_removed": [v for r in reports for _, v, _ in r.a_removed],
        "a_ideal": [r.a_ideal for r in reports],
        "a_corrected": [r.a_corrected for r in reports],
    }


def _perturb_first_report(job: Job) -> Job:
    op = job.ops[0]
    moved = replace(op.result, a_corrected=op.result.a_corrected + 1e-6)
    return replace(job, ops=[replace(op, result=moved)] + job.ops[1:])


def report_check(cache, key, report, bound_circuit, terms, observable, n, tau):
    """Oracle comparison for one CorrectionReport, oracle values cached by key."""
    from checks import (
        NoisyOracle,
        circuit_gates,
        expected_groups,
        report_failures,
        statevector_value,
    )

    groups = expected_groups(terms, n)

    def compute():
        gates = circuit_gates(bound_circuit)
        oracle = NoisyOracle(observable, n, tau)
        units = oracle.unitaries(gates)
        models = [terms] + [left for _, _, left in groups]
        noisy = [oracle.value(units, oracle.interval(t)) for t in models]
        return noisy, statevector_value(gates, observable, n)

    noisy, ideal = _oracle_cached(cache, key, compute)
    return report_failures(report, noisy, ideal, groups)


# ---------------------------------------------------------------------------
# h2_sweep: three templates x eight rates, one mitigation per point.


def _sweep_setup(seed):
    ham, ansatz = _h2()
    return {"ham": ham, "circuit": circuit.bind(ansatz, _angles(seed, ansatz.n_params))}


def _sweep_job(inp, log, span):
    sweep = span("experiments.sweep", experiments.sweep)
    with patched(experiments, "run_mitigation", log.wrap):
        return [
            sweep(inp["circuit"], inp["ham"], t, SWEEP_RATES, n_th=N_TH)
            for t in SWEEP_TEMPLATES
        ]


def _sweep_points():
    return [(t, r) for t in SWEEP_TEMPLATES for r in SWEEP_RATES]


def _sweep_check(inp, job, cache):
    from checks import template_terms

    n = inp["circuit"].n_qubits
    out = []
    rows = [row for rows in (job.result or []) for row in rows]
    for i, (op, (template, rate)) in enumerate(zip(job.ops, _sweep_points())):
        report = op.result
        terms = template_terms(template, n, rate, N_TH)
        bad = report_check(  # tau 1.0: sweep's default PropagatorConfig
            cache, (template, rate), report, inp["circuit"], terms, inp["ham"], n, 1.0
        )
        if i < len(rows) and rows[i]["a_corrected"] != report.a_corrected:
            bad.append("sweep row differs from its mitigation report")
        out.append(bad)
    if job.error is None and len(job.ops) != len(_sweep_points()):
        _flag_last(out, "wrong number of mitigations")
    return out


# ---------------------------------------------------------------------------
# h2_vqe_noisy: Nelder-Mead on the noisy objective.


def _vqe_setup(seed):
    ham, ansatz = _h2()
    model = noise.build_template_model("gamma1_gamma2", ansatz.n_qubits, VQE_RATE)
    return {
        "problem": vqe.VqeProblem(ham, ansatz, model),
        "settings": vqe.OptimizerSettings(max_evals=VQE_MAX_EVALS, seed=seed),
    }


def _vqe_job(inp, log, span):
    solve = span("vqe.solve_vqe", vqe.solve_vqe)
    with patched(vqe, "energy_objective", log.wrap):
        return solve(inp["problem"], inp["settings"], optimize_with_noise=True)


def _vqe_check(inp, job, cache):
    from checks import ORACLE_TOL, NoisyOracle, bind_gates, close, template_terms

    problem = inp["problem"]
    n = problem.ansatz.n_qubits
    terms = template_terms("gamma1_gamma2", n, VQE_RATE)
    oracle = _oracle_cached(
        cache, "oracle", lambda: NoisyOracle(problem.hamiltonian, n, problem.propagator.tau)
    )
    interval = _oracle_cached(cache, "interval", lambda: oracle.interval(terms))
    out = []
    for op in job.ops:
        theta = np.asarray(op.args[1], dtype=float)
        want = _oracle_cached(
            cache,
            theta.tobytes(),
            lambda: oracle.value(oracle.unitaries(bind_gates(problem.ansatz, theta)), interval),
        )
        out.append(close("objective", op.result, want, ORACLE_TOL))
    result = job.result
    if result is not None and out:
        values = [op.result for op in job.ops]
        if result.evals != len(values) or result.energy != min(values):
            _flag_last(out, "VqeResult disagrees with the evaluations made")
    return out


def _first_value(job: Job) -> dict:
    # Later VQE evaluations follow Nelder-Mead's path, which may branch when
    # the last digit of an objective moves; the first one is path-independent.
    return {"first_objective": [op.result for op in job.ops[:1]]}


def _perturb_first_value(job: Job) -> Job:
    op = job.ops[0]
    return replace(job, ops=[replace(op, result=op.result + 1e-6)] + job.ops[1:])


# ---------------------------------------------------------------------------
# ring6_mitigation: correlated ring noise on six qubits, one mitigation.


def _ring_setup(seed):
    ansatz = _entangling(6)
    bound = circuit.bind(ansatz, _angles(seed, ansatz.n_params))
    return {
        "circuit": circuit.BoundCircuit(6, bound.gates[:RING_GATES]),
        "ham": ising_ring(6),
        "model": noise.build_template_model("correlated", 6, RING_RATE),
        "cfg": noise.PropagatorConfig(substeps=RING_SUBSTEPS),
    }


def _ring_job(inp, log, span):
    run = log.wrap(span("mitigation.run_mitigation", mitigation.run_mitigation))
    return run(inp["circuit"], inp["model"], inp["ham"], inp["cfg"])


def _ring_check(inp, job, cache):
    from checks import template_terms

    terms = template_terms("correlated", 6, RING_RATE)
    tau = inp["cfg"].tau
    return [
        report_check(cache, "ring", op.result, inp["circuit"], terms, inp["ham"], 6, tau)
        for op in job.ops
    ]


# ---------------------------------------------------------------------------
# chain10_objective: one noiseless objective evaluation on ten qubits.


def _chain_setup(seed):
    ansatz = _entangling(CHAIN_QUBITS)
    return {
        "problem": vqe.VqeProblem(ising_ring(CHAIN_QUBITS), ansatz),
        "theta": _angles(seed, ansatz.n_params),
    }


def _chain_job(inp, log, span):
    # vqe.energy_objective is itself a traced site; no second span here.
    return log.wrap(vqe.energy_objective)(inp["problem"], inp["theta"])


def _chain_check(inp, job, cache):
    from checks import ORACLE_TOL, bind_gates, close, statevector_value

    problem = inp["problem"]
    want = _oracle_cached(
        cache,
        "chain",
        lambda: statevector_value(
            bind_gates(problem.ansatz, inp["theta"]), problem.hamiltonian, CHAIN_QUBITS
        ),
    )
    return [close("objective", op.result, want, ORACLE_TOL) for op in job.ops]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("h2_sweep", _sweep_setup, _sweep_job, _sweep_check, _report_values,
                 _perturb_first_report),
        Workload("h2_vqe_noisy", _vqe_setup, _vqe_job, _vqe_check, _first_value,
                 _perturb_first_value),
        Workload("ring6_mitigation", _ring_setup, _ring_job, _ring_check, _report_values,
                 _perturb_first_report),
        Workload("chain10_objective", _chain_setup, _chain_job, _chain_check,
                 _first_value, _perturb_first_value),
    )
}
