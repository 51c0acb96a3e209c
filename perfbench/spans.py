"""Outside-in tracing: spans around qemsim functions, recorded from the
benchmark without changing the library.

Names are wrapped in the module where they are looked up, not where they
are defined, because `from .state import apply_gate` binds a second name
that patching the defining module would miss.  A name missing at some
commit is skipped, so it records no span instead of raising.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter

# (module where the name is looked up, name, span name)
FUNCTION_SITES = (
    ("qemsim.noise", "apply_gate", "state.apply_gate"),
    ("qemsim.mitigation", "run_noisy_circuit", "noise.run"),
    ("qemsim.vqe", "run_noisy_circuit", "noise.run"),
    ("qemsim.mitigation", "expectation", "paulis.expectation"),
    ("qemsim.vqe", "expectation", "paulis.expectation"),
    ("qemsim.vqe", "bind", "circuit.bind"),
    ("qemsim.vqe", "energy_objective", "vqe.energy_objective"),
    ("qemsim.experiments", "run_mitigation", "mitigation.run_mitigation"),
)
PROPAGATOR_SITE = ("qemsim.noise", "IntervalPropagator")

# Self time outside the noise, state and paulis layers.
ORCHESTRATION = (
    "experiments.sweep",
    "mitigation.run_mitigation",
    "vqe.solve_vqe",
    "vqe.energy_objective",
    "circuit.bind",
)


@contextmanager
def patched(module, name: str, make):
    """Replace module.name by make(original) for the duration of the block."""
    if not hasattr(module, name):
        yield
        return
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _import(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def _build_key(args, kwargs):
    # IntervalPropagator(model, n_qubits, cfg): a build is useful once per key.
    return repr((args[1:], sorted(kwargs.items())))


def _state_qubits(args, kwargs):
    return getattr(args[0], "n_qubits", 0) if args else 0


class Tracer:
    """Spans kept in memory as [id, parent id, name, start, end, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1], name, 0.0, 0.0,
                   note(args, kwargs) if note else None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()

        return traced

    def _propagator_class(self, cls):
        tracer = self

        class Traced(cls):
            __init__ = tracer.wrap("noise.build", cls.__init__, _build_key)
            propagate = tracer.wrap("noise.propagate", cls.propagate)

        Traced.__name__ = Traced.__qualname__ = cls.__name__
        return Traced

    @contextmanager
    def installed(self):
        """Wrap every site that exists in the imported qemsim."""
        with ExitStack() as stack:
            for module_name, attr, span_name in FUNCTION_SITES:
                module = _import(module_name)
                if module is None:
                    continue
                note = _state_qubits if span_name == "state.apply_gate" else None
                stack.enter_context(patched(
                    module, attr, lambda fn, s=span_name, nt=note: self.wrap(s, fn, nt)
                ))
            module = _import(PROPAGATOR_SITE[0])
            if module is not None:
                stack.enter_context(
                    patched(module, PROPAGATOR_SITE[1], self._propagator_class)
                )
            yield self


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    child = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[sid] for sid, _, _, start, end, _ in spans]


def layer_metrics(spans) -> tuple[dict, dict]:
    """Per-layer figures of one traced job, and its self time by span name."""
    self_s, calls = {}, defaultdict(int)
    for rec, t in zip(spans, self_times(spans)):
        self_s[rec[2]] = self_s.get(rec[2], 0.0) + t
        calls[rec[2]] += 1
    builds = [rec[5] for rec in spans if rec[2] == "noise.build"]
    mitigation_ids = {rec[0] for rec in spans if rec[2] == "mitigation.run_mitigation"}
    runs_in_mitigation = sum(
        1 for rec in spans if rec[2] == "noise.run" and rec[1] in mitigation_ids
    )
    gate_bytes = sum(
        64 * 4**rec[5] for rec in spans if rec[2] == "state.apply_gate"
    )
    return {
        "noise.build_s": self_s.get("noise.build", 0.0),
        "noise.build_calls": calls["noise.build"],
        "noise.build_useful_frac": len(set(builds)) / len(builds) if builds else 0.0,
        "noise.propagate_s": self_s.get("noise.propagate", 0.0),
        "noise.propagate_calls": calls["noise.propagate"],
        "noise.run_self_s": self_s.get("noise.run", 0.0),
        "noise.runs": calls["noise.run"],
        "state.apply_gate_s": self_s.get("state.apply_gate", 0.0),
        "state.apply_gate_calls": calls["state.apply_gate"],
        # Computed, not measured: each gate makes two passes (U rho, then
        # (U rho) U^dag), each reading and writing all 4^n complex128 entries.
        "state.gate_bytes_computed": gate_bytes,
        "paulis.expectation_s": self_s.get("paulis.expectation", 0.0),
        "paulis.expectation_calls": calls["paulis.expectation"],
        "circuit.bind_calls": calls["circuit.bind"],
        "vqe.evals": calls["vqe.energy_objective"],
        "mitigation.runs_per_call": (
            runs_in_mitigation / len(mitigation_ids) if mitigation_ids else 0.0
        ),
        "orchestration.self_s": sum(self_s.get(name, 0.0) for name in ORCHESTRATION),
    }, self_s


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith("_bytes_computed"):
        return "B"
    return "count"


def write_spans(path, jobs_spans) -> None:
    """One tab-separated line per span: job, id, parent, name, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        for job, spans in enumerate(jobs_spans):
            for sid, parent, name, start, end, _ in spans:
                fh.write(f"{job}\t{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
