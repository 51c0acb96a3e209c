"""Individual-error-reduction: one all-noise run plus per-group removed runs.

The corrected observable is

    A_tilde = <A> - sum_i w_i (<A> - <A_i>)

where <A_i> is measured with removal group i switched off, i.e. its
rates scaled by 0.  The full-noise run and every group's run differ only
in their rates, so they are the rows of one batched run
(`noise.run_noisy_batch`): one pass through the gates, each distinct
1-qubit noise block built once.  The noiseless run stays a state vector, and a
row left with no nonzero rate takes its value.  Groups are per
qubit; a term whose qubit list spans k qubits would be removed k times by
the per-qubit sweep, so it carries per-group weight 1/k.  Groups mixing
multiplicities are split into one sub-group per multiplicity so every
term's weights sum to exactly 1 across groups, which is what makes the
first-order noise contributions cancel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .noise import (
    NoiseModel,
    PropagatorConfig,
    run_noisy_batch,
    run_noisy_circuit,
    scale_terms,
)
from .paulis import PauliSum, expectation
from .state import check_real, new_statevector


@dataclass(frozen=True)
class RemovalGroup:
    label: str
    removed_terms: tuple[int, ...]
    weight: float = 1.0

    def __post_init__(self):
        if not self.removed_terms:
            raise ValueError("removal group must remove at least one term")
        check_real("weight", self.weight, 0, above=True)


@dataclass
class CorrectionReport:
    a_noisy: float
    a_removed: list[tuple[str, float, float]]  # (label, <A_i>, weight)
    a_corrected: float
    a_ideal: float
    variant: str = "removal"

    @property
    def correction_magnitude(self) -> float:
        return abs(self.a_corrected - self.a_noisy)

    @property
    def residual(self) -> float:
        return abs(self.a_corrected - self.a_ideal)

    def to_dict(self) -> dict:
        return {
            "a_noisy": self.a_noisy,
            "a_ideal": self.a_ideal,
            "a_corrected": self.a_corrected,
            "correction_magnitude": self.correction_magnitude,
            "residual": self.residual,
            "groups": [
                {"label": label, "value": value, "weight": weight}
                for label, value, weight in self.a_removed
            ],
            "variant": self.variant,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def build_groups(model: NoiseModel) -> list[RemovalGroup]:
    """One group per (qubit, term multiplicity) that removes >= 1 term.

    Multiplicity of a term is the number of distinct qubits it touches,
    i.e. how many per-qubit groups would remove it; its per-group weight
    is the reciprocal, so single-qubit terms get weight 1 and two-qubit
    correlated terms weight 1/2.
    """
    by_qubit: dict[int, dict[int, list[int]]] = {}
    for i, term in enumerate(model.terms):
        multiplicity = len(set(term.qubits))
        for q in set(term.qubits):
            by_qubit.setdefault(q, {}).setdefault(multiplicity, []).append(i)
    groups = []
    for q in sorted(by_qubit):
        buckets = by_qubit[q]
        for k in sorted(buckets):
            label = f"q{q}" if len(buckets) == 1 else f"q{q}/m{k}"
            groups.append(RemovalGroup(label, tuple(buckets[k]), 1.0 / k))
    return groups


def corrected_value(a_noisy: float, removed) -> float:
    """A_tilde = <A> - sum_i w_i (<A> - <A_i>)."""
    return a_noisy - sum(w * (a_noisy - a_i) for a_i, w in removed)


def _correct(circuit, model, observable, factor, cfg):
    """Full-noise run and one run per group with its rates scaled by
    `factor`, as rows of one batched run, plus the noiseless run."""
    if observable.n_qubits != circuit.n_qubits:
        raise ValueError("observable and circuit qubit counts differ")
    groups = build_groups(model)
    models = [model] + [scale_terms(model, g.removed_terms, factor) for g in groups]
    psi0 = new_statevector(circuit.n_qubits)
    ideal = run_noisy_circuit(psi0, circuit, NoiseModel(), cfg)
    a_ideal = expectation(ideal, observable)
    # A model with no nonzero rate is the noiseless run: it takes its value.
    values = [a_ideal] * len(models)
    noisy = [i for i, m in enumerate(models) if any(t.rate for t in m.terms)]
    rhos = run_noisy_batch(psi0, circuit, [models[i] for i in noisy], cfg)
    for i, rho in zip(noisy, rhos):
        values[i] = expectation(rho, observable)
    a_noisy = values[0]
    removed = []
    for g, a_i in zip(groups, values[1:]):
        if factor != 0.0:
            # Extrapolate (<A_scaled,i> - <A>) / (factor - 1) to the removed run.
            a_i = a_noisy - (a_i - a_noisy) / (factor - 1.0)
        removed.append((g.label, a_i, g.weight))
    a_corr = corrected_value(a_noisy, [(v, w) for _, v, w in removed])
    return CorrectionReport(
        a_noisy, removed, a_corr, a_ideal, "removal" if factor == 0.0 else "scaled"
    )


def run_mitigation(
    circuit,
    model: NoiseModel,
    observable: PauliSum,
    cfg: PropagatorConfig | None = None,
) -> CorrectionReport:
    """Full-noise run, one removed run per group, plus the noiseless run.

    Removing a group scales its rates by 0; the propagator drops
    zero-rate terms, so that is the same run as deleting them.  Each
    <A_i> is stored as measured.
    """
    return _correct(circuit, model, observable, 0.0, cfg)


def scaled_noise_correction(
    circuit,
    model: NoiseModel,
    observable: PauliSum,
    factor: float,
    cfg: PropagatorConfig | None = None,
) -> CorrectionReport:
    """Controlled-noise-inflation variant of the correction.

    Each group's rates are multiplied by `factor`; the per-group
    correction is (<A_inflated,i> - <A>) / (factor - 1), which matches
    the removal-based correction to first order in the inter-gate
    interval.  The report stores the equivalent removed-run estimate
    <A> - correction_i per group, so the standard correction identity
    still reconstructs a_corrected from the stored fields.
    """
    check_real("inflation factor", factor, 1, above=True)
    return _correct(circuit, model, observable, factor, cfg)
