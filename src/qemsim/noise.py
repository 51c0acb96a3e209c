"""Lindblad noise terms and master-equation propagation between gates.

Four dissipator families are supported: amplitude damping D[sigma],
dephasing D[sigma^dag sigma], thermal (competing decay/excitation with
occupation n_th), and a two-qubit correlated excitation-exchange pair.
The inter-gate propagator exp(tau * L) is approximated by classic RK4
with a configurable number of substeps; the integrator itself must
preserve the trace (no renormalization), which doubles as a correctness
signal.

A model is split into blocks, the connected components of its terms'
qubit supports (zero-rate terms dropped).  Blocks act on disjoint qubits,
so their generators commute and each interval applies one block after
another.  Every block works on its own qubits only, as a 4^k x 4^k
superoperator (the Havel vec identity, see `state`) on the qubit-paired
rho that `run_noisy_circuit` and `evolve` hold between their two
conversions.  Each is built on its qubits in descending order and
reordered by `paired_superop` once, at build, so its paired axes ascend
and, on adjacent qubits, form one contiguous `state.apply_local`.  One
RK4 substep of the linear master equation is exactly the degree-4
Taylor polynomial of h*L, and one `_rk4` serves both kinds of block:

- a block of at most DENSE_BLOCK_MAX_QUBITS qubits is precomputed as
  (RK4 step)^substeps, a 4^k x 4^k matrix, by `_rk4` on the identity;
- a wider block runs `_rk4` on rho each substep, its h*L*rho a sum of
  one local superoperator per term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import IntegrationError
from .state import (
    DensityMatrix,
    PairedDensity,
    StateVector,
    apply_gate,
    apply_local,
    embed,
    pair,
    paired_axes,
    paired_superop,
    unpair,
)

KINDS = ("amplitude_damping", "dephasing", "thermal", "correlated")

TRACE_DRIFT_LIMIT = 1e-6
# A precomputed block is a 16^k complex matrix: 1 MiB at k = 4.
DENSE_BLOCK_MAX_QUBITS = 4
# RK4 keeps |R(z)| <= 1 on the negative real axis down to z = -2.785.
RK4_STABILITY_LIMIT = 2.785
# Past this many substeps round-off outgrows the RK4 error: one damped
# qubit at rate 1e-3 loses 2.6e-11 of trace at 10^6, 3.1e-7 at 10^10.
MAX_SUBSTEPS = 10**6

_SIGMA = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
_SIGMA_DAG = _SIGMA.conj().T
_NUMBER = _SIGMA_DAG @ _SIGMA


@dataclass(frozen=True)
class LindbladTerm:
    kind: str
    qubits: tuple[int, ...]
    rate: float
    n_th: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        want = 2 if self.kind == "correlated" else 1
        if len(self.qubits) != want or len(set(self.qubits)) != want:
            raise ValueError(
                f"{self.kind} needs {want} distinct qubit(s), got {self.qubits}"
            )
        if min(self.qubits) < 0:
            raise ValueError(f"qubit indices must be >= 0, got {self.qubits}")
        if not 0 <= self.rate < math.inf:
            raise ValueError(f"rate must be finite and >= 0, got {self.rate}")
        if (self.n_th is not None) != (self.kind == "thermal"):
            raise ValueError("n_th is required for thermal terms and only those")
        if self.n_th is not None and not 0 <= self.n_th < math.inf:
            raise ValueError(f"n_th must be finite and >= 0, got {self.n_th}")

    def collapse_ops(self) -> list[tuple[float, np.ndarray, tuple[int, ...]]]:
        """(rate, small collapse matrix, qubits) pairs for this term."""
        if self.kind == "amplitude_damping":
            return [(self.rate, _SIGMA, self.qubits)]
        if self.kind == "dephasing":
            return [(self.rate, _NUMBER, self.qubits)]
        if self.kind == "thermal":
            return [
                (self.rate * (self.n_th + 1.0), _SIGMA, self.qubits),
                (self.rate * self.n_th, _SIGMA_DAG, self.qubits),
            ]
        # correlated: sigma_1^dag sigma_2 and sigma_1 sigma_2^dag,
        # qubits[0] is the most-significant index of the 4x4 matrix
        return [
            (self.rate, np.kron(_SIGMA_DAG, _SIGMA), self.qubits),
            (self.rate, np.kron(_SIGMA, _SIGMA_DAG), self.qubits),
        ]


@dataclass(frozen=True)
class NoiseModel:
    terms: tuple[LindbladTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def max_qubit(self) -> int:
        return max((max(t.qubits) for t in self.terms), default=-1)

    def validate_for(self, n_qubits: int) -> None:
        if self.max_qubit() >= n_qubits:
            raise ValueError(
                f"noise model touches qubit {self.max_qubit()}, "
                f"state has {n_qubits} qubits"
            )


@dataclass(frozen=True)
class PropagatorConfig:
    tau: float = 1.0
    substeps: int = 64

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be finite and positive, got {self.tau}")
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")
        if self.substeps > MAX_SUBSTEPS:
            raise ValueError(
                f"substeps must be <= {MAX_SUBSTEPS}, got {self.substeps}: "
                "round-off limits the step count, and more steps lose accuracy"
            )


def scale_terms(model: NoiseModel, indices, factor: float) -> NoiseModel:
    if factor < 0:
        raise ValueError(f"scale factor must be >= 0, got {factor}")
    chosen = set(indices)
    return NoiseModel(
        tuple(
            replace(t, rate=t.rate * factor) if i in chosen else t
            for i, t in enumerate(model.terms)
        )
    )


def _local_liouvillian(ops, qubits) -> np.ndarray:
    """Dense superoperator L with vec(drho/dt) = L vec(rho), row-major vec,
    on `qubits` as a register of their own, qubits[0] its most-significant
    bit: (rows, columns) index order, before `paired_superop`.

    `ops` are (rate, small collapse matrix, qubits) triples, as returned
    by LindbladTerm.collapse_ops; L is 4^k x 4^k for k qubits.
    """
    k = len(qubits)
    local = {q: k - 1 - i for i, q in enumerate(qubits)}
    dim = 2**k
    eye = np.eye(dim, dtype=complex)
    lmat = np.zeros((dim * dim, dim * dim), dtype=complex)
    for rate, c_small, op_qubits in ops:
        if rate == 0.0:
            continue
        c = embed(c_small, tuple(local[q] for q in op_qubits), k)
        cdc = c.conj().T @ c
        lmat += rate * (
            np.kron(c, c.conj())
            - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
        )
    return lmat


def _rhs(data: np.ndarray, parts) -> np.ndarray:
    out = np.zeros_like(data)
    for axes, superop in parts:
        out += apply_local(data, superop, axes)
    return out


def _rk4(apply, v, t1):
    """One classic RK4 step of the linear ODE v' = L v: exactly the Taylor
    polynomial v + t1 + t2/2 + t3/6 + t4/24, with t1 = h*L v and
    t_{k+1} = apply(t_k) = h*L t_k."""
    t2 = apply(t1)
    t3 = apply(t2)
    t4 = apply(t3)
    # The same numbers as t2 / 2 + t3 / 6 + t4 / 24 (numpy divides complex by
    # real through the reciprocal), for a fifth of the cost of the division.
    return v + t1 + t2 * 0.5 + t3 * (1 / 6) + t4 * (1 / 24)


def _components(model: NoiseModel) -> list[tuple[LindbladTerm, ...]]:
    """Nonzero-rate terms grouped by the connected components of their
    qubit supports, each group in model order."""
    groups: list[tuple[set, list[int]]] = []
    for i, term in enumerate(model.terms):
        if term.rate == 0.0:
            continue
        support, members = set(term.qubits), [i]
        for group in [g for g in groups if g[0] & support]:
            groups.remove(group)
            support |= group[0]
            members += group[1]
        groups.append((support, members))
    return [tuple(model.terms[i] for i in sorted(members)) for _, members in groups]


class _Block:
    """One block's channel over one interval, on its own qubits of a
    paired n-qubit rho."""

    def __init__(self, terms, n_qubits: int, cfg: PropagatorConfig):
        # Descending, so the block's own register is little-endian too
        # and its paired axes ascend.
        qubits = tuple(sorted({q for t in terms for q in t.qubits}, reverse=True))
        self.qubits = qubits
        self.h = cfg.tau / cfg.substeps
        self.substeps = cfg.substeps
        ops = [op for t in terms for op in t.collapse_ops()]
        # 2 * sum rate_k ||c_k||_F^2 bounds the spectral radius of L.
        radius = 2.0 * sum(rate * np.vdot(c, c).real for rate, c, _ in ops)
        if self.h * radius > RK4_STABILITY_LIMIT:
            raise IntegrationError(
                f"step {self.h:.3g} times the decay-rate bound {radius:.3g} on "
                f"qubits {sorted(qubits)} exceeds the RK4 stability limit "
                f"{RK4_STABILITY_LIMIT}; increase substeps (currently {cfg.substeps})"
            )
        if len(qubits) <= DENSE_BLOCK_MAX_QUBITS:
            hl = self.h * _local_liouvillian(ops, qubits)
            step = _rk4(lambda m: m @ hl, np.eye(len(hl), dtype=complex), hl)
            self.axes = paired_axes(qubits, n_qubits)
            self.matrix = paired_superop(np.linalg.matrix_power(step, cfg.substeps))
            self.parts = None
        else:
            self.matrix = None
            self.parts = []
            for t in terms:
                term_qubits = tuple(sorted(t.qubits, reverse=True))
                superop = _local_liouvillian(t.collapse_ops(), term_qubits)
                self.parts.append(
                    (paired_axes(term_qubits, n_qubits), paired_superop(superop))
                )

    def apply(self, data: np.ndarray) -> np.ndarray:
        if self.matrix is not None:
            return apply_local(data, self.matrix, self.axes)

        def step(x):
            return self.h * _rhs(x, self.parts)

        for _ in range(self.substeps):
            data = _rk4(step, data, step(data))
        return data


class IntervalPropagator:
    """Reusable approximation of exp(tau * L) for a fixed model and config,
    on a paired rho."""

    def __init__(self, model: NoiseModel, n_qubits: int, cfg: PropagatorConfig):
        self.cfg = cfg
        self.blocks = [_Block(terms, n_qubits, cfg) for terms in _components(model)]

    def propagate(self, rho: PairedDensity) -> PairedDensity:
        if not self.blocks:
            return rho
        data = rho.data
        for block in self.blocks:
            data = block.apply(data)
        out = PairedDensity(rho.n_qubits, data)
        drift = abs(out.trace() - 1.0)
        if not drift <= TRACE_DRIFT_LIMIT:  # also catches NaN
            raise IntegrationError(
                f"trace drifted by {drift:.3g} over one interval; "
                f"increase substeps (currently {self.cfg.substeps})"
            )
        return out


def evolve(
    rho: StateVector | DensityMatrix, model: NoiseModel, cfg: PropagatorConfig
) -> DensityMatrix:
    """rho(t + tau) = exp(tau L) rho, via RK4 with cfg.substeps steps; a
    StateVector is taken as |psi><psi|."""
    if isinstance(rho, StateVector):
        rho = rho.to_density_matrix()
    model.validate_for(rho.n_qubits)
    propagator = IntervalPropagator(model, rho.n_qubits, cfg)
    return unpair(propagator.propagate(pair(rho)))


def run_noisy_circuit(
    state0: StateVector | DensityMatrix,
    circuit,
    model: NoiseModel,
    cfg: PropagatorConfig | None = None,
) -> StateVector | DensityMatrix:
    """Alternate gate jumps with inter-gate Lindblad evolution.

    Gate 1, evolve tau, gate 2, ..., gate G; there is no evolution after
    the final gate, so total noisy time is (G - 1) * tau.  With no
    nonzero-rate term this reduces to plain sequential gate application,
    and a StateVector start stays a StateVector.  Otherwise a StateVector
    start becomes |psi><psi| before the first gate, and rho is held in
    paired order from the first gate to the last.
    """
    if cfg is None:
        cfg = PropagatorConfig()
    if circuit.n_qubits != state0.n_qubits:
        raise ValueError(
            f"circuit has {circuit.n_qubits} qubits, state has {state0.n_qubits}"
        )
    model.validate_for(state0.n_qubits)
    propagator = IntervalPropagator(model, state0.n_qubits, cfg)
    if isinstance(state0, DensityMatrix):
        state = pair(state0)
    elif propagator.blocks:
        state = pair(state0.to_density_matrix())
    else:
        state = state0.copy()
    last = len(circuit.gates) - 1
    for i, gate in enumerate(circuit.gates):
        state = apply_gate(state, gate)
        if i != last:
            state = propagator.propagate(state)
    return unpair(state) if isinstance(state, PairedDensity) else state


def build_template_model(
    template: str, n_qubits: int, rate: float, n_th: float = 0.5
) -> NoiseModel:
    """Homogeneous-rate models matching the standard sweep templates.

    Correlated terms use ring pairing (q, (q+1) mod n); explicit term
    lists override this when finer control is needed.
    """
    terms: list[LindbladTerm] = []
    if template in ("gamma1", "gamma1_gamma2"):
        terms += [
            LindbladTerm("amplitude_damping", (q,), rate) for q in range(n_qubits)
        ]
    if template in ("gamma2", "gamma1_gamma2"):
        terms += [LindbladTerm("dephasing", (q,), rate) for q in range(n_qubits)]
    if template == "thermal":
        terms += [
            LindbladTerm("thermal", (q,), rate, n_th=n_th) for q in range(n_qubits)
        ]
    if template == "correlated":
        if n_qubits < 2:
            raise ValueError("correlated template needs at least 2 qubits")
        terms += [
            LindbladTerm("correlated", (q, (q + 1) % n_qubits), rate)
            for q in range(n_qubits)
        ]
    if not terms:
        raise ValueError(f"unknown noise template {template!r}")
    return NoiseModel(tuple(terms))
