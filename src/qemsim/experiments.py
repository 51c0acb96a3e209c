"""Sweep, scaling-ladder, and self-check machinery shared by the CLI and tests."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .circuit import BoundCircuit, Circuit, bind, compile_pauli_exponential
from .mitigation import run_mitigation
from .noise import (
    MAX_SUBSTEPS,
    LindbladTerm,
    NoiseModel,
    PropagatorConfig,
    build_template_model,
    evolve,
)
from .paulis import PauliString, PauliSum, dense_matrix
from .state import DensityMatrix, StateVector, check_count, gate_op, new_pure_ground

CHEMICAL_ACCURACY = 1.6e-3  # Hartree

BUNDLED_FILES = {
    "h2": "h2_sto3g_0.74.txt",
    "h2_uccsd": "h2_uccsd_0.74.txt",
}


def bundled_text(name: str) -> str:
    """Contents of a bundled data file, by alias or file name."""
    from importlib import resources  # here, to keep it out of `import qemsim`

    fname = BUNDLED_FILES.get(name, name)
    return (resources.files("qemsim") / "data" / fname).read_text()


def sweep(
    circuit: BoundCircuit,
    observable: PauliSum,
    template: str,
    rates,
    cfg: PropagatorConfig | None = None,
    n_th: float | None = None,
) -> list[dict]:
    """One mitigation run per rate; rows mirror the output CSV columns.
    Without n_th, build_template_model's default holds."""
    thermal = {} if n_th is None else {"n_th": n_th}
    rows = []
    for rate in rates:
        model = build_template_model(template, circuit.n_qubits, float(rate), **thermal)
        report = run_mitigation(circuit, model, observable, cfg)
        rows.append(
            {
                "rate": float(rate),
                "a_noisy": report.a_noisy,
                "a_ideal": report.a_ideal,
                "a_corrected": report.a_corrected,
                "correction_magnitude": report.correction_magnitude,
                "residual": report.residual,
            }
        )
    return rows


def uncorrected_error(row: dict) -> float:
    return abs(row["a_noisy"] - row["a_ideal"])


def crossing_rate(rates, errors) -> float | None:
    """Rate at which the error first reaches chemical accuracy, interpolated
    log-log between the bracketing grid points.  None if never crossed."""
    rates = np.asarray(rates, dtype=float)
    errors = np.asarray(errors, dtype=float)
    for i in range(len(rates)):
        if errors[i] >= CHEMICAL_ACCURACY:
            if i == 0 or errors[i - 1] <= 0:
                return float(rates[i])
            lr0, lr1 = math.log(rates[i - 1]), math.log(rates[i])
            le0, le1 = math.log(errors[i - 1]), math.log(errors[i])
            if le1 == le0:
                return float(rates[i])
            frac = (math.log(CHEMICAL_ACCURACY) - le0) / (le1 - le0)
            return float(math.exp(lr0 + frac * (lr1 - lr0)))
    return None


def threshold_ratio(rows) -> float | None:
    """Corrected-over-uncorrected ratio of threshold-crossing rates."""
    rates = [r["rate"] for r in rows]
    raw = crossing_rate(rates, [uncorrected_error(r) for r in rows])
    corr = crossing_rate(rates, [r["residual"] for r in rows])
    if raw is None or corr is None:
        return None
    return corr / raw


def scaling_ladder(
    circuit: BoundCircuit,
    model: NoiseModel,
    observable: PauliSum,
    cfg: PropagatorConfig | None = None,
    n_points: int = 4,
) -> tuple[list[dict], float, float]:
    """Dyadic ladder tau, tau/2, ... from cfg.tau at cfg.substeps, with
    fitted log-log error slopes.

    The uncorrected error |<A> - <A_a>| should scale linearly in the
    interval length while the corrected residual drops quadratically
    (first-order cancellation).  An error that is 0 or not finite at
    some scale has no logarithm to fit, and is refused.
    """
    check_count("n_points", n_points, 2)  # a slope needs two points
    if cfg is None:
        cfg = PropagatorConfig()
    rows = []
    for k in range(n_points):
        scale = 0.5**k
        step = replace(cfg, tau=cfg.tau * scale)
        report = run_mitigation(circuit, model, observable, step)
        errors = abs(report.a_noisy - report.a_ideal), report.residual
        if not all(0 < e < math.inf for e in errors):
            raise ValueError(
                f"uncorrected and corrected errors at scale {scale} are {errors[0]!r}"
                f" and {errors[1]!r}; a log-log slope needs both finite and above 0"
            )
        rows.append(
            {
                "scale": scale,
                "tau": step.tau,
                "uncorrected_error": errors[0],
                "corrected_error": errors[1],
            }
        )
    log_s = np.log([r["scale"] for r in rows])
    slope_raw = float(
        np.polyfit(log_s, np.log([r["uncorrected_error"] for r in rows]), 1)[0]
    )
    slope_corr = float(
        np.polyfit(log_s, np.log([r["corrected_error"] for r in rows]), 1)[0]
    )
    return rows, slope_raw, slope_corr


# ---------------------------------------------------------------------------
# Self-checks (the validate subcommand): closed-form channels, integrator
# order, compiled-unitary equivalence.


# The decay and dephasing checks run `substeps` RK4 steps per unit time
# over this span, in one interval.
_DECAY_CHECK_T = 5.0


def _one_qubit_excited() -> DensityMatrix:
    rho = new_pure_ground(1)
    rho.data[:] = [[0, 0], [0, 1]]
    return rho


def _one_qubit_plus() -> DensityMatrix:
    rho = new_pure_ground(1)
    rho.data[:] = [[0.5, 0.5], [0.5, 0.5]]
    return rho


def check_amplitude_damping(substeps: int) -> tuple[bool, str]:
    """Excited population must follow exp(-gamma t), gamma = 0.1, t = 5."""
    gamma, t = 0.1, _DECAY_CHECK_T
    cfg = PropagatorConfig(tau=t, substeps=int(substeps * t))
    model = NoiseModel((LindbladTerm("amplitude_damping", (0,), gamma),))
    rho = evolve(_one_qubit_excited(), model, cfg)
    err = abs(rho.data[1, 1].real - math.exp(-gamma * t))
    return err < 1e-6, f"population error {err:.3g}"


def check_dephasing(substeps: int) -> tuple[bool, str]:
    """|+> coherence must follow exp(-gamma t / 2) / 2, gamma = 0.1, t = 5."""
    gamma, t = 0.1, _DECAY_CHECK_T
    cfg = PropagatorConfig(tau=t, substeps=int(substeps * t))
    model = NoiseModel((LindbladTerm("dephasing", (0,), gamma),))
    rho = evolve(_one_qubit_plus(), model, cfg)
    err = abs(rho.data[0, 1] - 0.5 * math.exp(-0.5 * gamma * t))
    return err < 1e-6, f"coherence error {err:.3g}"


def check_thermal_steady_state() -> tuple[bool, str]:
    """Long-time excited population must reach n_th / (2 n_th + 1)."""
    gamma, n_th, t = 0.5, 0.5, 60.0
    cfg = PropagatorConfig(tau=t, substeps=int(16 * t))
    model = NoiseModel((LindbladTerm("thermal", (0,), gamma, n_th=n_th),))
    rho = evolve(new_pure_ground(1), model, cfg)
    target = n_th / (2.0 * n_th + 1.0)
    err = abs(rho.data[1, 1].real - target)
    return err < 1e-6, f"steady-state error {err:.3g}"


def check_rk4_convergence() -> tuple[bool, str]:
    """Substeps 2 -> 4 must shrink the closed-form error ~16x (> 8x)."""
    gamma = 0.8
    model = NoiseModel((LindbladTerm("amplitude_damping", (0,), gamma),))
    exact = math.exp(-gamma)

    def err(steps):
        cfg = PropagatorConfig(tau=1.0, substeps=steps)
        rho = evolve(_one_qubit_excited(), model, cfg)
        return abs(rho.data[1, 1].real - exact)

    e1, e2 = err(2), err(4)
    if e2 == 0:
        return True, "fine-step error at machine precision"
    ratio = e1 / e2
    return ratio > 8.0, f"error ratio {ratio:.2f} (substeps 2 vs 4)"


def dense_unitary(circuit: BoundCircuit) -> np.ndarray:
    """Dense matrix of a bound circuit (oracle scale only)."""
    n = circuit.n_qubits
    u = np.eye(2**n, dtype=complex)
    for gate in circuit.gates:  # row j of u is U|j>, so u is U transposed
        u = gate_op(gate, n, StateVector)(u)
    return u.T


def check_compiled_exponentials() -> tuple[bool, str]:
    """Compiled exp(-i theta/2 P) vs cos - i sin P, 20 random strings, n <= 3."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        n_ops = int(rng.integers(1, n + 1))
        qubits = rng.choice(n, size=n_ops, replace=False)
        ps = PauliString({int(q): "XYZ"[rng.integers(3)] for q in qubits})
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        gates = compile_pauli_exponential(ps, theta, n)
        compiled = dense_unitary(bind(Circuit(n, tuple(gates), 0), []))
        p_dense = dense_matrix(PauliSum([(1.0, ps)], n))
        exact = math.cos(theta / 2) * np.eye(2**n) - 1j * math.sin(theta / 2) * p_dense
        worst = max(worst, float(np.max(np.abs(compiled - exact))))
    return worst < 1e-10, f"worst deviation {worst:.3g} over 20 strings"


def run_validation_suite(substeps: int) -> list[tuple[str, bool, str]]:
    # the decay checks take _DECAY_CHECK_T * substeps steps, at most MAX_SUBSTEPS
    check_count("validate substeps", substeps, 1, int(MAX_SUBSTEPS // _DECAY_CHECK_T))
    checks = [
        ("amplitude_damping_decay", check_amplitude_damping(substeps)),
        ("dephasing_coherence", check_dephasing(substeps)),
        ("thermal_steady_state", check_thermal_steady_state()),
        ("rk4_convergence_order", check_rk4_convergence()),
        ("compiled_pauli_exponentials", check_compiled_exponentials()),
    ]
    return [(name, ok, detail) for name, (ok, detail) in checks]
