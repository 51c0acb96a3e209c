"""Configuration-driven experiment runner.

Subcommands: vqe, mitigate, sweep, tau-scaling, validate.  All take a
single JSON config (--config); physical quantities use the natural units
of the problem (energies in Hartree, noise rates in inverse gate
intervals).  Exit codes: 0 success, 1 validation/acceptance failure,
2 I/O or config error.  Before any run, a key that no mode reads is
refused (exit 2), and so is a value of the wrong JSON type (see
`_KNOWN_KEYS`), whether or not the running mode reads it; a key the
config leaves out is not passed on, so the library's default holds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field, fields

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
from .noise import LindbladTerm, NoiseModel, PropagatorConfig, build_template_model
from .paulis import parse_pauli_sum
from .vqe import OptimizerSettings, VqeProblem, solve_vqe

LARGE_QUBIT_THRESHOLD = 8

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class Section:
    """One JSON object of a config, its place in it, and its keys' types."""

    data: dict
    path: str = ""
    kinds: dict = field(default_factory=lambda: _KNOWN_KEYS)

    def where(self, key: str) -> str:
        return f"'{key}' in {self.path}" if self.path else f"'{key}'"


_REQUIRED = object()
_JSON_TYPES = {
    "number": (int, float),
    "integer": int,
    "boolean": bool,
    "string": str,
    "object": dict,
}


def _matches(value, kind: str) -> bool:
    """JSON type check: an integer counts as a number, a boolean as neither."""
    if kind.startswith("list of "):
        entry = kind.removeprefix("list of ").removesuffix("s")
        return isinstance(value, list) and all(_matches(v, entry) for v in value)
    if isinstance(value, bool):
        return kind == "boolean"
    return isinstance(value, _JSON_TYPES[kind])


def _get(section: Section, key: str, default=_REQUIRED):
    """section[key], refused with a ConfigError unless it has the JSON
    type that `section.kinds` gives the key.  Nothing is converted, but
    an object comes back as a Section.  `default` (when given) stands in
    for an absent key."""
    kind = section.kinds[key]
    name = {dict: "object", list: "list of objects"}.get(type(kind), kind)
    where = section.where(key)
    value = section.data.get(key, default)
    if value is _REQUIRED:
        raise ConfigError(f"{where} is missing")
    if key in section.data and not _matches(value, name):
        raise ConfigError(f"{where} must be a JSON {name}, got {json.dumps(value)[:40]}")
    path = f"{section.path}.{key}" if section.path else key
    if isinstance(kind, dict):
        return Section(value, path, kind)
    if isinstance(kind, list):
        return [Section(v, f"{path}[{i}]", kind[0]) for i, v in enumerate(value)]
    return value


def _given(section: Section, *keys) -> dict:
    """{key: value} for each of `keys` that the section sets, read with
    _get, so the callee's own defaults stand for the others."""
    return {k: _get(section, k) for k in keys if k in section.data}


def _read_text(path: str, what: str) -> str:
    """The file at `path` as UTF-8 text; one that cannot be read or
    decoded is a ConfigError that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{what} {path} is not UTF-8 text: {exc}")


def _read_input(path_or_alias: str) -> str:
    if path_or_alias in BUNDLED_FILES:
        return bundled_text(path_or_alias)
    if os.path.exists(path_or_alias):
        return _read_text(path_or_alias, "data file")
    try:
        return bundled_text(path_or_alias)
    except FileNotFoundError:
        raise ConfigError(f"no such file or bundled dataset: {path_or_alias}")


def _load_json(path: str, what: str) -> dict:
    try:
        document = json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(document, dict):
        raise ConfigError(f"{what} {path} is not a JSON object")
    return document


def _build_problem_parts(config: Section):
    """(hamiltonian, circuit, n_qubits) from the config document."""
    hamiltonian = parse_pauli_sum(_read_input(_get(config, "hamiltonian")))
    ansatz = _get(config, "ansatz")
    kind = _get(ansatz, "kind")
    if kind == "uccsd":
        spec, n_qubits = parse_ansatz_file(_read_input(_get(ansatz, "path")))
        if n_qubits != hamiltonian.n_qubits:
            raise ConfigError(
                f"ansatz file declares {n_qubits} qubits, "
                f"hamiltonian has {hamiltonian.n_qubits}"
            )
    elif kind == "entangling":
        spec = AnsatzSpec("Entangling", layers=_get(ansatz, "layers"))
        n_qubits = hamiltonian.n_qubits
    else:
        raise ConfigError(f"unknown ansatz kind {kind!r}")
    circuit = build_ansatz(spec, n_qubits)
    return hamiltonian, circuit, n_qubits


def _bound_problem(config: Section, args):
    """(hamiltonian, circuit bound to the config's theta) for the modes
    that run fixed angles."""
    hamiltonian, circuit, n_qubits = _build_problem_parts(config)
    _check_size(n_qubits, args.large)
    return hamiltonian, bind(circuit, _theta(config, circuit.n_params))


def _propagator(config: Section) -> PropagatorConfig:
    return PropagatorConfig(**_given(config, "tau", "substeps"))


# Each optimizer setting takes the JSON type of its default.
_OPTIMIZER_KINDS = {
    f.name: "integer" if isinstance(f.default, int) else "number"
    for f in fields(OptimizerSettings)
}

# Every key some mode reads, with its JSON type: number, integer, boolean,
# string, or "list of" those in the plural.  An object's keys map to a
# dict of their own, a list of objects to a one-entry list of that.
_KNOWN_KEYS = dict(
    mode="string", output="string", hamiltonian="string", theta_file="string",
    theta="list of numbers", tau="number", substeps="integer",
    optimize_with_noise="boolean", scaled_noise_factor="number",
    ansatz=dict(kind="string", path="string", layers="integer"),
    optimizer=_OPTIMIZER_KINDS,
    noise=dict(
        template="string", rate="number", rates="list of numbers", n_th="number",
        terms=[
            dict(kind="string", qubits="list of integers", rate="number", n_th="number")
        ],
    ),
    tau_scaling=dict(points="integer"),
)


def _refuse_unknown_keys(section: Section) -> None:
    """Raise a ConfigError naming the first key, at any depth, that no
    mode reads or whose value has the wrong JSON type."""
    for key in section.data:
        if key not in section.kinds:
            raise ConfigError(f"unknown key {section.where(key)}")
        value = _get(section, key)
        if isinstance(value, Section):
            _refuse_unknown_keys(value)
        elif isinstance(section.kinds[key], list):
            for entry in value:
                _refuse_unknown_keys(entry)


def _optimizer_settings(config: Section, seed_override=None) -> OptimizerSettings:
    opt = _get(config, "optimizer", {})
    settings = _given(opt, *_OPTIMIZER_KINDS)
    if seed_override is not None:
        settings["seed"] = seed_override
    try:
        return OptimizerSettings(**settings)
    except ValueError as exc:
        raise ConfigError(f"bad optimizer setting: {exc}")


def _noise_model(config: Section, n_qubits: int) -> NoiseModel:
    """Explicit noise.terms, or a noise.template at its single noise.rate."""
    noise = _get(config, "noise")
    if "terms" not in noise.data:
        template = _get(noise, "template")
        rate = _get(noise, "rate")
        return build_template_model(template, n_qubits, rate, **_given(noise, "n_th"))
    return NoiseModel(
        LindbladTerm(
            _get(term, "kind"),
            _get(term, "qubits"),
            _get(term, "rate"),
            **_given(term, "n_th"),
        )
        for term in _get(noise, "terms")
    )


def _theta(config: Section, n_params: int) -> list:
    if "theta" in config.data:
        theta = _get(config, "theta")
    elif "theta_file" in config.data:
        path = _get(config, "theta_file")
        kinds = {"theta_opt": "list of numbers"}
        theta = _get(Section(_load_json(path, "theta_file"), path, kinds), "theta_opt")
    else:
        raise ConfigError(
            "provide 'theta' inline or 'theta_file' (run the vqe subcommand first)"
        )
    if len(theta) != n_params:
        raise ConfigError(f"theta has length {len(theta)}, ansatz expects {n_params}")
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
    optimize_with_noise = _get(config, "optimize_with_noise", False)
    model = _noise_model(config, n_qubits) if optimize_with_noise else NoiseModel()
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
    _write_text(args.output, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_mitigate(config, args) -> int:
    hamiltonian, bound = _bound_problem(config, args)
    model = _noise_model(config, bound.n_qubits)
    cfg = _propagator(config)
    factor = _get(config, "scaled_noise_factor", None)
    if factor is not None:
        report = scaled_noise_correction(bound, model, hamiltonian, factor, cfg)
    else:
        report = run_mitigation(bound, model, hamiltonian, cfg)
    _write_text(args.output, report.to_json() + "\n")
    return EXIT_OK


def cmd_sweep(config, args) -> int:
    hamiltonian, bound = _bound_problem(config, args)
    noise = _get(config, "noise")
    template = _get(noise, "template")
    rates = _get(noise, "rates")
    if not rates:
        raise ConfigError("sweep mode needs a non-empty noise.rates grid")
    rows = sweep(
        bound,
        hamiltonian,
        template,
        rates,
        _propagator(config),
        **_given(noise, "n_th"),
    )
    # Each row's keys are the CSV columns, in order.
    _write_text(args.output, _csv_text(list(rows[0]), [list(r.values()) for r in rows]))
    return EXIT_OK


def cmd_tau_scaling(config, args) -> int:
    hamiltonian, bound = _bound_problem(config, args)
    model = _noise_model(config, bound.n_qubits)
    cfg = _propagator(config)
    ladder = _get(config, "tau_scaling", {})
    extra = {}
    if "points" in ladder.data:
        extra["n_points"] = _get(ladder, "points")
    rows, slope_raw, slope_corr = scaling_ladder(bound, model, hamiltonian, cfg, **extra)
    header = [*rows[0], "uncorrected_slope", "corrected_slope"]
    out_rows = [[*r.values(), slope_raw, slope_corr] for r in rows]
    _write_text(args.output, _csv_text(header, out_rows))
    return EXIT_OK


def cmd_validate(config, args) -> int:
    substeps = _get(config, "substeps", PropagatorConfig().substeps)
    results = run_validation_suite(substeps)
    lines = [f"{'PASS' if ok else 'FAIL'} {n}: {d}\n" for n, ok, d in results]
    _write_text(args.output, "".join(lines))
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_FAILURE


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
        if name == "vqe":
            p.add_argument("--seed", type=int, default=None, help="optimizer seed")
        if name != "validate":
            p.add_argument("--large", action="store_true", help="allow >8-qubit runs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            config = Section(_load_json(args.config, "config"))
        elif args.command == "validate":
            config = Section({})
        else:
            raise ConfigError(f"{args.command} requires --config")
        _refuse_unknown_keys(config)
        mode = _get(config, "mode", args.command)
        if mode.replace("_", "-") != args.command:
            raise ConfigError(
                f"config mode {mode!r} does not match subcommand {args.command!r}"
            )
        output = _get(config, "output", None)
        args.output = args.output or output
        return MODES[args.command](config, args)
    except (ConfigError, PauliParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, IntegrationError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
