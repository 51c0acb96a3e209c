"""Configuration-driven experiment runner.

Subcommands: vqe, mitigate, sweep, tau-scaling, validate.  All take a
single JSON config (--config); physical quantities use the natural units
of the problem (energies in Hartree, noise rates in inverse gate
intervals).  Exit codes: 0 success, 1 validation/acceptance failure,
2 I/O or config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .circuit import AnsatzSpec, bind, build_ansatz, parse_ansatz_file
from .errors import IntegrationError, PauliParseError
from .experiments import (
    BUNDLED_FILES,
    bundled_text,
    run_validation_suite,
    scaling_ladder,
    sweep,
)
from .mitigation import run_mitigation, scaled_noise_correction
from .noise import (
    NoiseModel,
    PropagatorConfig,
    build_template_model,
    parse_noise_terms,
)
from .paulis import parse_pauli_sum
from .vqe import OptimizerSettings, VqeProblem, solve_vqe

LARGE_QUBIT_THRESHOLD = 8

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


def _read_input(path_or_alias: str) -> str:
    if path_or_alias in BUNDLED_FILES:
        return bundled_text(path_or_alias)
    if os.path.exists(path_or_alias):
        with open(path_or_alias) as fh:
            return fh.read()
    try:
        return bundled_text(path_or_alias)
    except FileNotFoundError:
        raise ConfigError(f"no such file or bundled dataset: {path_or_alias}")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")


def _build_problem_parts(config: dict):
    """(hamiltonian, circuit, n_qubits) from the config document."""
    if "hamiltonian" not in config:
        raise ConfigError("config needs a 'hamiltonian' entry")
    hamiltonian = parse_pauli_sum(_read_input(config["hamiltonian"]))
    ansatz_cfg = config.get("ansatz")
    if not isinstance(ansatz_cfg, dict) or "kind" not in ansatz_cfg:
        raise ConfigError("config needs an 'ansatz' object with a 'kind'")
    if ansatz_cfg["kind"] == "uccsd":
        if "path" not in ansatz_cfg:
            raise ConfigError("ansatz kind 'uccsd' needs a generator file 'path'")
        spec, n_qubits = parse_ansatz_file(_read_input(ansatz_cfg["path"]))
        if n_qubits != hamiltonian.n_qubits:
            raise ConfigError(
                f"ansatz file declares {n_qubits} qubits, "
                f"hamiltonian has {hamiltonian.n_qubits}"
            )
    elif ansatz_cfg["kind"] == "entangling":
        if "layers" not in ansatz_cfg:
            raise ConfigError("ansatz kind 'entangling' needs a 'layers' count")
        try:
            layers = int(ansatz_cfg["layers"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"ansatz 'layers' must be an integer: {exc}")
        spec = AnsatzSpec("Entangling", layers=layers)
        n_qubits = hamiltonian.n_qubits
    else:
        raise ConfigError(f"unknown ansatz kind {ansatz_cfg['kind']!r}")
    circuit = build_ansatz(spec, n_qubits)
    return hamiltonian, circuit, n_qubits


def _bound_problem(config: dict, args):
    """(hamiltonian, circuit bound to the config's theta) for the modes
    that run fixed angles."""
    hamiltonian, circuit, n_qubits = _build_problem_parts(config)
    _check_size(n_qubits, args.large)
    return hamiltonian, bind(circuit, _theta(config, circuit.n_params))


def _propagator(config: dict) -> PropagatorConfig:
    return PropagatorConfig(
        tau=float(config.get("tau", 1.0)),
        substeps=int(config.get("substeps", 64)),
    )


def _optimizer_settings(config: dict, seed_override=None) -> OptimizerSettings:
    opt = dict(config.get("optimizer", {}))
    unknown = sorted(set(opt) - {f.name for f in fields(OptimizerSettings)})
    if unknown:
        raise ConfigError(f"unknown optimizer setting(s): {', '.join(unknown)}")
    if seed_override is not None:
        opt["seed"] = seed_override
    try:
        return OptimizerSettings(**opt)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad optimizer setting: {exc}")


def _noise_model(config: dict, n_qubits: int, rate: float):
    noise = config.get("noise", {})
    if "terms" in noise:
        return parse_noise_terms(noise["terms"])
    template = noise.get("template")
    if template is None:
        raise ConfigError("config 'noise' needs a 'template' or explicit 'terms'")
    return build_template_model(
        template, n_qubits, rate, float(noise.get("n_th", 0.5))
    )


def _rate_grid(config: dict):
    rates = config.get("noise", {}).get("rates")
    if not rates:
        raise ConfigError("sweep mode needs a non-empty noise.rates grid")
    return [float(r) for r in rates]


def _single_rate(config: dict) -> float:
    noise = config.get("noise", {})
    if "terms" in noise:
        return 0.0  # rates live in the explicit terms
    if "rate" not in noise:
        raise ConfigError("this mode needs a single noise.rate")
    return float(noise["rate"])


def _theta(config: dict, n_params: int) -> np.ndarray:
    if "theta" in config:
        theta = np.asarray(config["theta"], dtype=float)
    elif "theta_file" in config:
        try:
            with open(config["theta_file"]) as fh:
                theta = np.asarray(json.load(fh)["theta_opt"], dtype=float)
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise ConfigError(f"cannot read theta_file: {exc}")
    else:
        raise ConfigError(
            "provide 'theta' inline or 'theta_file' (run the vqe subcommand first)"
        )
    if theta.shape != (n_params,):
        raise ConfigError(
            f"theta has length {theta.size}, ansatz expects {n_params}"
        )
    return theta


def _check_size(n_qubits: int, large: bool):
    if n_qubits > LARGE_QUBIT_THRESHOLD and not large:
        raise ConfigError(
            f"{n_qubits} qubits exceeds the desk-scale limit of "
            f"{LARGE_QUBIT_THRESHOLD}; pass --large to allow it"
        )


def _write_text(path, text: str):
    if path:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [f"{v:.12g}" if isinstance(v, float) else v for v in row]
        )
    return buf.getvalue()


def cmd_vqe(config, args) -> int:
    hamiltonian, circuit, n_qubits = _build_problem_parts(config)
    _check_size(n_qubits, args.large)
    optimize_with_noise = bool(config.get("optimize_with_noise", False))
    model = (
        _noise_model(config, n_qubits, _single_rate(config))
        if optimize_with_noise
        else NoiseModel()
    )
    problem = VqeProblem(hamiltonian, circuit, model, _propagator(config))
    result = solve_vqe(
        problem,
        _optimizer_settings(config, args.seed),
        optimize_with_noise=optimize_with_noise,
    )
    payload = {
        "theta_opt": [float(t) for t in result.theta_opt],
        "energy": result.energy,
        "evals": result.evals,
        "converged": result.converged,
        "history": [[i, e] for i, e in result.history],
    }
    _write_text(args.output or config.get("output"), json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_mitigate(config, args) -> int:
    hamiltonian, bound = _bound_problem(config, args)
    model = _noise_model(config, bound.n_qubits, _single_rate(config))
    cfg = _propagator(config)
    factor = config.get("scaled_noise_factor")
    if factor is not None:
        report = scaled_noise_correction(bound, model, hamiltonian, float(factor), cfg)
    else:
        report = run_mitigation(bound, model, hamiltonian, cfg)
    _write_text(args.output or config.get("output"), report.to_json() + "\n")
    return EXIT_OK


def cmd_sweep(config, args) -> int:
    hamiltonian, bound = _bound_problem(config, args)
    noise = config.get("noise", {})
    template = noise.get("template")
    if template is None:
        raise ConfigError("sweep mode needs a noise.template")
    rows = sweep(
        bound,
        hamiltonian,
        template,
        _rate_grid(config),
        _propagator(config),
        float(noise.get("n_th", 0.5)),
    )
    header = [
        "rate",
        "a_noisy",
        "a_ideal",
        "a_corrected",
        "correction_magnitude",
        "residual",
    ]
    text = _csv_text(header, [[row[k] for k in header] for row in rows])
    _write_text(args.output or config.get("output"), text)
    return EXIT_OK


def cmd_tau_scaling(config, args) -> int:
    hamiltonian, bound = _bound_problem(config, args)
    model = _noise_model(config, bound.n_qubits, _single_rate(config))
    ladder_cfg = config.get("tau_scaling", {})
    cfg = _propagator(config)
    rows, slope_raw, slope_corr = scaling_ladder(
        bound,
        model,
        hamiltonian,
        tau0=float(ladder_cfg.get("tau0", cfg.tau)),
        substeps=cfg.substeps,
        n_points=int(ladder_cfg.get("points", 4)),
    )
    header = [
        "scale",
        "tau",
        "uncorrected_error",
        "corrected_error",
        "uncorrected_slope",
        "corrected_slope",
    ]
    out_rows = [
        [r["scale"], r["tau"], r["uncorrected_error"], r["corrected_error"],
         slope_raw, slope_corr]
        for r in rows
    ]
    _write_text(args.output or config.get("output"), _csv_text(header, out_rows))
    return EXIT_OK


def cmd_validate(config, args) -> int:
    substeps = int(config.get("substeps", 64)) if config else 64
    results = run_validation_suite(substeps=substeps)
    failures = 0
    lines = []
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    text = "\n".join(lines) + "\n"
    _write_text(args.output or config.get("output"), text)
    return EXIT_OK if failures == 0 else EXIT_FAILURE


MODES = {
    "vqe": cmd_vqe,
    "mitigate": cmd_mitigate,
    "sweep": cmd_sweep,
    "tau-scaling": cmd_tau_scaling,
    "validate": cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qemsim",
        description="Density-matrix VQE simulation with individual-error-reduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in MODES:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON experiment config", default=None)
        p.add_argument("--output", help="output file (default stdout)", default=None)
        # Runs are serial; --workers is still accepted, and ignored, for
        # one release so existing command lines keep working.
        p.add_argument("--workers", type=int, default=None, help=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--large", action="store_true", help="allow >8-qubit runs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            config = _load_config(args.config) if args.config else {}
        else:
            if not args.config:
                raise ConfigError(f"{args.command} requires --config")
            config = _load_config(args.config)
        mode = config.get("mode", args.command.replace("_", "-"))
        if mode.replace("_", "-") != args.command:
            raise ConfigError(
                f"config mode {mode!r} does not match subcommand {args.command!r}"
            )
        return MODES[args.command](config, args)
    except (ConfigError, PauliParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, IntegrationError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
