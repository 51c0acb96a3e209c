#!/usr/bin/env python3
"""Pin qemsim's numbers: a record of seeded outputs, every float as hex.

    PYTHONPATH=src python3 tools/outputs.py           # compare with tests/golden.json
    PYTHONPATH=src python3 tools/outputs.py --write   # rewrite tests/golden.json

Each entry of JOBS runs one seeded job through qemsim's public functions
and returns its outputs as a flat list of ints and floats: every value of
a mitigation report, an objective, or a VQE's `evals`, `history`,
`theta_opt` and `energy`.  The record writes each float as `float.hex`,
so two records compare exactly, and a tolerance applies only where it is
stated: `tests/test_golden.py` reruns every job and holds each float
within TOLERANCE of the record, and each int exactly.  A `cli_` job is
the stdout of one `qemsim` mode on one small config, kept as text: CSV
and `validate` text must match exactly (their floats print as `.12g`),
JSON key by key, each float within TOLERANCE and everything else,
the order of keys included, exactly.  A change that
moves a value past TOLERANCE rewrites the record and says which values
moved, and why.  The exit status of a comparison is 1 if any value
moved past it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

import qemsim as q
from qemsim.cli import main as cli_main

RECORD = Path(__file__).resolve().parent.parent / "tests" / "golden.json"
TOLERANCE = 1e-12  # absolute, on values of order one
RATE = 1e-3


def _angles(count: int) -> np.ndarray:
    """Seed-0 angles, drawn as the benchmark draws them."""
    return np.random.default_rng(0).uniform(-math.pi, math.pi, count)


def _h2():
    ham = q.parse_pauli_sum(q.bundled_text("h2"))
    spec, n = q.parse_ansatz_file(q.bundled_text("h2_uccsd"))
    return ham, q.build_ansatz(spec, n)


def _entangling(n: int):
    return q.build_ansatz(q.AnsatzSpec("Entangling", layers=1), n)


def _ising_ring(n: int) -> q.PauliSum:
    terms = [(1.0, q.PauliString({k: "Z", (k + 1) % n: "Z"})) for k in range(n)]
    return q.PauliSum(terms + [(0.7, q.PauliString({k: "X"})) for k in range(n)], n)


def _correlated_h2() -> q.NoiseModel:
    """gamma1_gamma2 on H2's four qubits, and a correlated (1, 2) term."""
    model = q.build_template_model("gamma1_gamma2", 4, RATE)
    return q.NoiseModel(model.terms + (q.LindbladTerm("correlated", (1, 2), RATE),))


def _report(report: q.CorrectionReport) -> list:
    removed = [x for _, value, weight in report.a_removed for x in (value, weight)]
    return [report.a_noisy, *removed, report.a_corrected, report.a_ideal]


def _mitigation(template: str, factor: float | None = None):
    def job():
        ham, ansatz = _h2()
        bound = q.bind(ansatz, _angles(ansatz.n_params))
        model = q.build_template_model(template, 4, RATE)
        if factor is None:
            return _report(q.run_mitigation(bound, model, ham))
        return _report(q.scaled_noise_correction(bound, model, ham, factor))

    return job


def _entangling_mitigation(template: str, n: int):
    def job():
        ansatz = _entangling(n)
        bound = q.bind(ansatz, _angles(ansatz.n_params))
        model = q.build_template_model(template, n, RATE)
        return _report(q.run_mitigation(bound, model, _ising_ring(n)))

    return job


def _objective(kind: str, model):
    def job():
        if kind == "uccsd":
            ham, ansatz = _h2()
        else:
            ansatz = _entangling(6)
            ham = _ising_ring(6)
        noise = model() if model else q.NoiseModel()
        problem = q.VqeProblem(ham, ansatz, noise)
        return [q.energy_objective(problem, _angles(ansatz.n_params))]

    return job


def _vqe(model, max_evals=20):
    def job():
        ham, ansatz = _h2()
        problem = q.VqeProblem(ham, ansatz, model() if model else q.NoiseModel())
        settings = q.OptimizerSettings(max_evals=max_evals, seed=0)
        result = q.solve_vqe(problem, settings, optimize_with_noise=True)
        history = [x for point in result.history for x in point]
        return [result.evals, *history, *result.theta_opt.tolist(), result.energy]

    return job


def _gamma1_gamma2(n: int):
    return lambda: q.build_template_model("gamma1_gamma2", n, RATE)


def _cli(mode: str, config: dict | None = None):
    """The stdout of `qemsim mode --config` on `config` (no --config for
    None), which must exit 0; a `theta_file` names a file in a fresh
    directory that holds the angles THETA."""

    def job():
        with tempfile.TemporaryDirectory() as tmp:
            args, settings = [mode], dict(config or {})
            if "theta_file" in settings:
                settings["theta_file"] = str(Path(tmp, settings["theta_file"]))
                Path(settings["theta_file"]).write_text(json.dumps({"theta_opt": THETA}))
            if config is not None:
                Path(tmp, "c.json").write_text(json.dumps(settings))
                args += ["--config", str(Path(tmp, "c.json"))]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli_main(args)
        if code != 0:
            raise RuntimeError(f"qemsim {mode} exited {code}")
        return out.getvalue()

    return job


# The configs of tests/test_cli.py's matrix, and one correlated pair.
THETA = [0.1, 0.2, 0.3]
H2 = {"hamiltonian": "h2", "ansatz": {"kind": "uccsd", "path": "h2_uccsd"}}
CLI = {
    "vqe": ("vqe", {**H2, "optimizer": {"max_evals": 1}}),
    "entangling": ("vqe", {
        "hamiltonian": "h2", "ansatz": {"kind": "entangling", "layers": 1},
        "optimizer": {"max_evals": 1},
    }),
    "mitigate": ("mitigate", {
        **H2, "theta": THETA, "noise": {"template": "thermal", "rate": 1e-3, "n_th": 0.5},
    }),
    "theta_file": ("mitigate", {
        **H2, "theta_file": "theta.json", "noise": {"template": "gamma1", "rate": 1e-3},
    }),
    "terms": ("mitigate", {**H2, "theta": THETA, "noise": {"terms": [
        {"kind": "amplitude_damping", "qubits": [0], "rate": 1e-3},
        {"kind": "thermal", "qubits": [1], "rate": 1e-3, "n_th": 0.5},
    ]}}),
    "correlated_terms": ("mitigate", {**H2, "theta": THETA, "noise": {"terms": [
        {"kind": "correlated", "qubits": [1, 2], "rate": 1e-3},
        {"kind": "amplitude_damping", "qubits": [0], "rate": 1e-3},
    ]}}),
    "sweep": ("sweep", {
        **H2, "theta": THETA, "noise": {"template": "gamma1", "rates": [1e-3], "n_th": 0.5},
    }),
    "tau": ("tau-scaling", {
        **H2, "theta": THETA, "noise": {"template": "gamma1", "rate": 1e-3},
        "tau_scaling": {"points": 2},
    }),
    "validate": ("validate", None),
}

JOBS = {
    "mitigation_h2_gamma1_gamma2": _mitigation("gamma1_gamma2"),
    "mitigation_h2_thermal": _mitigation("thermal"),
    "mitigation_h2_correlated": _mitigation("correlated"),
    "mitigation_h2_gamma1_gamma2_scaled_2": _mitigation("gamma1_gamma2", 2.0),
    "mitigation_entangling5_gamma1_gamma2": _entangling_mitigation("gamma1_gamma2", 5),
    # all 42 gates at the default 64 substeps: a 6-qubit ring is one wide block
    "mitigation_entangling6_correlated": _entangling_mitigation("correlated", 6),
    "objective_h2_noiseless": _objective("uccsd", None),
    "objective_h2_gamma1_gamma2": _objective("uccsd", _gamma1_gamma2(4)),
    "objective_h2_correlated_1_2": _objective("uccsd", _correlated_h2),
    "objective_entangling6_noiseless": _objective("entangling", None),
    "objective_entangling6_gamma1_gamma2": _objective("entangling", _gamma1_gamma2(6)),
    # run to convergence: a fault in a late simplex move shows only there
    "vqe_h2_noiseless": _vqe(None, 4000),
    "vqe20_h2_gamma1_gamma2": _vqe(_gamma1_gamma2(4)),
    "vqe20_h2_correlated_1_2": _vqe(_correlated_h2),
    **{f"cli_{name}": _cli(*args) for name, args in CLI.items()},
}


def encode(values: list | str) -> list | str:
    """Text as it is, ints as they are, floats as `float.hex`."""
    if isinstance(values, str):
        return values
    return [v if isinstance(v, int) else float(v).hex() for v in values]


def _json_moved(got, want, where: str) -> list[str]:
    """How the JSON value `got` differs from the recorded `want`, key by
    key: floats past TOLERANCE, anything else by value and type."""
    if isinstance(want, dict) and isinstance(got, dict) and list(got) == list(want):
        return [line for k in want for line in _json_moved(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        pairs = enumerate(zip(got, want))
        return [line for i, (g, w) in pairs for line in _json_moved(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        same = abs(got - want) <= TOLERANCE  # NaN too
    else:
        same = type(got) is type(want) and got == want
    return [] if same else [f"{where or 'document'}: {got!r}, recorded {want!r}"]


def moved(got: list | str, want: list | str) -> list[str]:
    """How `got` differs from the recorded `want`: one line per value
    past TOLERANCE, or one for a different length; for text, one per
    JSON value that moved, or the first line that differs."""
    if isinstance(want, str):
        if want.startswith("{"):
            return _json_moved(json.loads(got), json.loads(want), "")
        if got == want:
            return []
        lines = zip(got.splitlines(True), want.splitlines(True))
        g, w = next(((g, w) for g, w in lines if g != w), (got, want))
        return [f"text: {g!r}, recorded {w!r}"]
    if len(got) != len(want):
        return [f"{len(got)} values, recorded {len(want)}"]
    out = []
    for i, (g, w) in enumerate(zip(got, want)):
        if isinstance(w, int):
            if g != w:
                out.append(f"value {i}: {g!r}, recorded {w}")
        elif not abs(g - float.fromhex(w)) <= TOLERANCE:  # NaN too
            out.append(f"value {i}: {g!r}, recorded {float.fromhex(w)!r}")
    return out


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        record = {name: encode(job()) for name, job in JOBS.items()}
        RECORD.write_text(json.dumps(record, indent=1) + "\n")
        return 0
    if argv:
        sys.exit(__doc__)
    record = json.loads(RECORD.read_text())
    failed = 0
    for name, job in JOBS.items():
        lines = moved(job(), record[name])
        failed += bool(lines)
        print(f"{name:40} {'moved' if lines else 'holds'}  {'; '.join(lines)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
