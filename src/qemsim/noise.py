"""Lindblad noise terms and master-equation propagation between gates.

Four dissipator families are supported: amplitude damping D[sigma],
dephasing D[sigma^dag sigma], thermal (competing decay/excitation with
occupation n_th), and a two-qubit correlated excitation-exchange pair.
The inter-gate propagator exp(tau * L) is approximated by classic RK4
with a configurable number of substeps; the integrator itself must
preserve the trace (no renormalization), which doubles as a correctness
signal.  It is checked where it can break: each dense block's matrix
when it is built (`_block`), and each row's final trace once, at the end
of its run (`IntervalPropagator.finish`), which catches accumulated
round-off and a NaN alike; a wide block's generator keeps it by
construction (`_generator`); a step outside RK4's stability interval is
refused per block, before any block is built (`_check_step`).

A model is split into blocks, the connected components of its terms'
qubit supports (zero-rate terms dropped).  Blocks act on disjoint qubits,
so their generators commute and each interval applies one block after
another.  Every block works on its own qubits only, on the qubit-paired
rho that a run holds between its two conversions (see `state`).  A
collapse op is a basis-state pair (a, b), the matrix |a><b| on its
term's qubits in their own order, so a block's generator h*L is one
`_generator`: a real diagonal times rho, plus one strided slice move per
collapse op.  One RK4 substep of the linear master equation is exactly
the degree-4 Taylor polynomial of h*L, and one in-place `_rk4` serves
both kinds of block:

- a block of at most DENSE_BLOCK_MAX_QUBITS qubits is precomputed as
  (RK4 step)^substeps, a 4^k x 4^k matrix (the Havel vec identity) on
  its paired axes; its h*L is the generator applied to the rows of the
  4^k x 4^k identity, transposed.  Every collapse op keeps the coherence
  order m = popcount(row) - popcount(column) (see KINDS), so h*L, its
  step and their power are block-diagonal in m (Buča and Prosen, New J.
  Phys. 14, 073007, 2012): at every k, `_rk4` and the power run on each
  sector's identity alone, and the sectors fill a zero matrix;
- a wider block runs `_rk4` with the generator on rho each substep, in
  a layer of such blocks, at most one per row (see below).

Every run is `IntervalPropagator.run`, the one gate loop: a stack of
paired rho, one row per noise model, takes gate 1, an interval, gate 2,
...  `run_noisy_batch` runs a mitigation's rows in chunks of at most
BATCH_BYTES, `run_noisy_circuit` is its batch of one, and a noisy VQE
problem keeps one propagator.  Only a batch of noiseless models from a
StateVector stays on state vectors, where each fusion group of gates is
one `circuit.FusedGate` (see `state`); any other batch returns each row
as a DensityMatrix, and there each gate is one kernel call on all rows;
it makes a new stack, which the interval after it steps and may
overwrite.  Either way a gate's op is built at its first use and kept on
the gate.  An interval applies every row's 1-qubit blocks in one product
pass, by the shuffle algorithm for Kronecker products (de Boor, ACM
Trans. Math. Softw. 5, 173, 1979; Fernandes, Plateau and Stewart, J. ACM
45, 381, 1998): per qubit pair (2j+1, 2j), top first, a stack of each
row's kron(P_2j+1, P_2j) is one batched matmul that applies it to the
leading qubits of every row and rotates them to the end.  Each wider
block is then a kernel on just the rows holding it, called like a
`state.LocalOp`.  A dense one is a `LocalOp` of its matrix, by highest
qubit, descending; each distinct one is built once.  The wide blocks go
last, in layers: layer j is one `_Wide` on the rows that have a j-th
wide block (each row's by highest qubit, descending), with one
`_generator` of all their blocks, so a row never gets the summed
generator of two of its blocks (whose RK4 step differs at O(h^5)); it
steps its rows in place, in two work stacks of its own call.  The
product pass and the layers give each row the arithmetic of its run
alone, whatever rows share its batch, from two qubits up (on one, a
gate's product of a one-row stack can round differently).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import IntegrationError
from .state import (
    DensityMatrix,
    LocalOp,
    PairedDensity,
    StateVector,
    _kron,
    _paired_diagonal,
    apply_gate,
    check_cap,
    check_count,
    check_qubits,
    check_real,
    gate_op,
    pair,
    paired_axes,
    unpair,
)

# A collapse op c = |a><b| keeps coherence order, on which the dense block
# build relies (see the module docstring): c rho c^dag moves only the
# term entries (b, b) onto (a, a), and c^dag c = |b><b| is diagonal.
KINDS = ("amplitude_damping", "dephasing", "thermal", "correlated")

TRACE_DRIFT_LIMIT = 1e-6
# A precomputed block is a 16^k complex matrix: 1 MiB at k = 4.  It is
# built per coherence-order sector m, each C(2k, k + m) square: 70, 56,
# 56, 28, 28, 8, 8, 1 and 1 at k = 4.
DENSE_BLOCK_MAX_QUBITS = 4
# RK4 keeps |R(z)| <= 1 on the negative real axis down to z = -2.785.
RK4_STABILITY_LIMIT = 2.785
# Past this many substeps round-off outgrows the RK4 error: one damped
# qubit at rate 1e-3 loses 2.6e-11 of trace at 10^6, 3.1e-7 at 10^10.
MAX_SUBSTEPS = 10**6
# A batched run holds at most this many bytes of rho stack (16 B an
# entry, 4^n entries a row); a single row larger than that runs alone.
BATCH_BYTES = 64 * 2**20


@dataclass(frozen=True)
class LindbladTerm:
    kind: str
    qubits: tuple[int, ...]
    rate: float
    n_th: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        want = 2 if self.kind == "correlated" else 1
        object.__setattr__(self, "qubits", check_qubits(self.kind, self.qubits, want))
        check_real("rate", self.rate, 0)
        if (self.n_th is not None) != (self.kind == "thermal"):
            raise ValueError("n_th is required for thermal terms and only those")
        if self.n_th is not None:
            check_real("n_th", self.n_th, 0)

    def collapse_ops(self) -> list[tuple[float, int, int]]:
        """(rate, a, b) triples, each the collapse op |a><b| on the term's
        qubits in its own order, qubits[0] the most-significant bit: sigma =
        |0><1|, and the correlated pair sigma_1^dag sigma_2, sigma_1 sigma_2^dag."""
        if self.kind == "amplitude_damping":
            return [(self.rate, 0, 1)]
        if self.kind == "dephasing":  # sigma^dag sigma
            return [(self.rate, 1, 1)]
        if self.kind == "thermal":
            return [
                (self.rate * (self.n_th + 1.0), 0, 1),
                (self.rate * self.n_th, 1, 0),
            ]
        return [(self.rate, 0b10, 0b01), (self.rate, 0b01, 0b10)]


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
        check_real("tau", self.tau, 0, above=True)
        check_count("substeps", self.substeps, 1, MAX_SUBSTEPS)  # more lose accuracy to round-off


def scale_terms(model: NoiseModel, indices, factor: float) -> NoiseModel:
    check_real("scale factor", factor, 0)
    chosen = set(indices)
    outside = chosen - set(range(len(model)))
    if outside:
        raise ValueError(f"term indices {sorted(outside)} out of range for {len(model)} terms")
    return NoiseModel(
        tuple(
            replace(t, rate=t.rate * factor) if i in chosen else t
            for i, t in enumerate(model.terms)
        )
    )


def _generator(rows, register, h: float):
    """h*L of one term tuple per row on a stack of paired rho whose (rows,)
    + (4,)*k view holds register[i] on axis i + 1 (one tuple serves a
    stack of any height): apply(x, out) writes h*L x = d * x, plus one
    slice move per collapse op c = |a><b| weighted w = h * rate, into out.
    c rho c^dag moves the entries whose term digits (2 * row bit + column
    bit) are 3b onto those whose digits are 3a; -{c^dag c, rho} / 2 adds
    -w / 2 to d where the term's row bits are b, and again where its
    column bits are.  So each move's weight leaves its source's diagonal
    twice, at w/2, as it lands on (a, a): h*L keeps the trace by
    construction.  Each row has its own d, in its own term order.  A
    move acts on all rows at once, weighted by a column that is 0 on rows
    without it, and the moves go in one order whatever the rows, so no
    row's arithmetic depends on the rows beside it."""
    k = len(register)
    d = np.zeros((len(rows),) + (4,) * k)
    found = {}  # move key: [weight per row, to, src]

    def at(axes, bits, digits):
        """digits[bit] on each of `axes` of the (4,)*k view, axes[0] taking
        the top bit of `bits`."""
        index = [slice(None)] * k
        for j, ax in enumerate(reversed(axes)):
            index[ax] = digits[bits >> j & 1]
        return tuple(index)

    for row, terms in enumerate(rows):
        seen: dict[tuple, int] = {}
        for term in terms:
            axes = [register.index(q) for q in term.qubits]
            for rate, a, b in term.collapse_ops():
                w = h * rate
                if w == 0.0:
                    continue
                d[(row,) + at(axes, b, (slice(0, 2), slice(2, 4)))] -= 0.5 * w  # row bits b
                d[(row,) + at(axes, b, (slice(0, 4, 2), slice(1, 4, 2)))] -= 0.5 * w  # columns
                to, src = at(axes, a, (0, 3)), at(axes, b, (0, 3))
                # Moves go by their term's highest qubit, then its lowest,
                # descending (a ring's terms as `build_template_model` lists
                # them), then by the entries they move, and a repeat by count.
                key = (max(term.qubits), -min(term.qubits))
                key += tuple(-1 if i == slice(None) else i for i in to + src)
                seen[key] = seen.get(key, -1) + 1
                found.setdefault(key + (seen[key],), [np.zeros(len(rows)), to, src])[0][row] = w
    every = (slice(None),)  # the row axis
    moves = [
        (w.reshape((-1,) + (1,) * to.count(slice(None))), every + to, every + src)
        for w, to, src in (found[key] for key in sorted(found))
    ]

    def apply(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        view = x.reshape((-1,) + d.shape[1:])
        out = np.empty_like(x) if out is None else out
        acc = np.multiply(d, view, out=out.reshape(view.shape))
        for w, to, src in moves:
            acc[to] += w * view[src]
        return out

    return apply


def _rk4(apply, v, t1, t2):
    """One classic RK4 step of the linear ODE v' = L v, in place: v becomes
    exactly the Taylor polynomial v + t1 + t2/2 + t3/6 + t4/24, where t1
    holds h*L v on entry and apply(t_k, out) writes t_{k+1} = h*L t_k into
    out.  t1 and t2 are the work, and are overwritten."""
    # The same numbers as v + t1 + t2 / 2 + t3 / 6 + t4 / 24 (numpy divides
    # complex by real through the reciprocal), for a fifth of the cost of
    # the division, summed in place in the same order.
    v += t1
    apply(t1, t2)
    apply(t2, t1)  # t3, while t2 is summed
    v += np.multiply(t2, 0.5, out=t2)
    apply(t1, t2)
    v += np.multiply(t1, 1 / 6, out=t1)
    v += np.multiply(t2, 1 / 24, out=t2)


def _components(model: NoiseModel) -> list[tuple[set[int], tuple[LindbladTerm, ...]]]:
    """Nonzero-rate terms grouped by the connected components of their
    qubit supports: (support, terms) pairs, each group's terms in model
    order."""
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
    return [
        (support, tuple(model.terms[i] for i in sorted(members)))
        for support, members in groups
    ]


def _support(terms) -> tuple[int, ...]:
    """A component's qubits in descending order: the qubits of its own
    register, whose qubit 0 is its lowest, so its paired axes ascend."""
    return tuple(sorted({q for t in terms for q in t.qubits}, reverse=True))


class _Wide:
    """One layer of blocks wider than DENSE_BLOCK_MAX_QUBITS, at most one
    per row: `_rk4` each substep, with the `_generator` of every row's
    block on the whole register.  A call steps the layer's rows of a
    stack in place, in two work stacks of its own, and returns them."""

    def __init__(self, step, substeps: int):
        self.step = step
        self.substeps = substeps

    def __call__(self, v: np.ndarray) -> np.ndarray:
        # Work stacks that start where v ends, as the heap places them, put
        # each store to t1 16 B ahead of a load of v mod 4096, and on x86 the
        # load waits for it (4K aliasing); 2 KiB of slack keeps them apart.
        t1, t2 = np.empty(2 * v.size + 128, dtype=complex)[128:].reshape((2,) + v.shape)
        for _ in range(self.substeps):
            _rk4(self.step, v, self.step(v, t1), t2)
        return v


@lru_cache(maxsize=None)
def _sectors(k: int) -> tuple[np.ndarray, ...]:
    """The flat indices of a paired k-qubit block by coherence order
    m = popcount(row) - popcount(column): for m = 0..k, an array whose
    rows are the ascending indices of order m, then of order -m if m > 0.
    Orders m and -m have the same size, C(2k, k + m), so they step as one
    stack.  Each qubit is a base-4 digit d = 2 * row bit + column bit,
    adding 0, -1, +1, 0 to m."""
    order = np.zeros(1, dtype=int)
    for _ in range(k):
        order = (order[:, None] + np.array([0, -1, 1, 0])).reshape(-1)
    at = {m: np.flatnonzero(order == m) for m in range(-k, k + 1)}
    sectors = (at[0][None],) + tuple(np.stack([at[m], at[-m]]) for m in range(1, k + 1))
    for idx in sectors:
        idx.flags.writeable = False
    return sectors


def _check_step(terms, cfg: PropagatorConfig) -> None:
    """Refuse a block whose RK4 step is outside RK4's stability interval."""
    h = cfg.tau / cfg.substeps
    # 2 * sum rate_k ||c_k||_F^2 bounds L's spectral radius; each |a><b| has norm 1.
    radius = 2.0 * sum(rate for t in terms for rate, _, _ in t.collapse_ops())
    if h * radius > RK4_STABILITY_LIMIT:
        raise IntegrationError(
            f"step {h:.3g} times the decay-rate bound {radius:.3g} on "
            f"qubits {sorted(_support(terms))} exceeds the RK4 stability limit "
            f"{RK4_STABILITY_LIMIT}; increase substeps (currently {cfg.substeps})"
        )


def _block(terms, cfg: PropagatorConfig) -> np.ndarray:
    """One block of at most DENSE_BLOCK_MAX_QUBITS qubits over one
    interval: the dense 4^k x 4^k matrix M on the paired axes of
    `_support(terms)`, stepped and powered one coherence-order sector at a
    time, refused unless it keeps the trace, t M = t for the paired
    identity row t, within TRACE_DRIFT_LIMIT."""
    qubits = _support(terms)
    # Row i of the identity is unit vector i, which the generator takes to
    # column i of h*L: the rows it gives are h*L transposed.
    k = len(qubits)
    hl = _generator((terms,), qubits, cfg.tau / cfg.substeps)(np.eye(4**k, dtype=complex)).T
    # h*L is block-diagonal in coherence order (see KINDS): step and power
    # its sectors alone, orders m and -m as one stack.
    out = np.zeros((4**k, 4**k), dtype=complex)
    for idx in _sectors(k):
        sector = idx[:, :, None], idx[:, None, :]
        out[sector] = _power_step(hl[sector], cfg.substeps)
    diagonal = _paired_diagonal(k)
    t_m = out[diagonal].sum(axis=0)
    t_m[diagonal] -= 1.0
    defect = np.abs(t_m).max()
    if not defect <= TRACE_DRIFT_LIMIT:  # NaN too
        raise IntegrationError(
            f"the channel on qubits {sorted(qubits)} changes the trace by "
            f"{defect:.3g}; increase substeps (currently {cfg.substeps})"
        )
    return out


def _power_step(hl: np.ndarray, substeps: int) -> np.ndarray:
    """(RK4 step)^substeps of the matrix h*L, or of each of a stack of them."""
    step = np.broadcast_to(np.eye(hl.shape[-1], dtype=complex), hl.shape).copy()
    # t1 keeps hl's own layout, which picks the BLAS kernel of hl @ hl
    _rk4(lambda m, out: np.matmul(m, hl, out=out), step, hl.copy(order="K"), np.empty_like(step))
    return np.linalg.matrix_power(step, substeps)


def _row_index(rows: list[int], n_rows: int):
    """How a kernel reaches its rows of the stack: None for all of them, a
    slice view for a run of adjacent rows, else an index array to gather."""
    if len(rows) == n_rows:
        return None
    if rows[-1] - rows[0] == len(rows) - 1:
        return slice(rows[0], rows[-1] + 1)
    return np.array(rows)


class IntervalPropagator:
    """Reusable approximation of exp(tau * L) for a fixed config, on a
    (rows, 4^n) stack of paired rho, with one model per row (see the module
    docstring).  `stacks` holds the product pass as (qubits, stack) pairs,
    top first: a (rows, 16, 16) stack per qubit pair, after a (rows, 4, 4)
    one for the lone top qubit at odd n, each row's entry the kron of its
    1-qubit channels there, the identity where it has none; it is empty if
    no row has one.  A stack is held as a transposed view, the right factor
    of a shuffle step: a transposed copy would send BLAS to a kernel whose
    sums round differently.  `kernels` holds the wider components as
    (kernel, rows) pairs, each kernel taking the stack of its rows (see
    `_row_index`) and returning it stepped: the dense ones'
    `state.LocalOp`s, then one `_Wide` per layer, in the module docstring's
    order.  Rows are numbered from `first_row` in error messages.
    """

    def __init__(
        self, models, n_qubits: int, cfg: PropagatorConfig, first_row: int = 0
    ):
        self.cfg = cfg
        self.first_row = first_row
        self.n_rows = len(models)
        h = cfg.tau / cfg.substeps
        # each distinct dense component is built once
        block = lru_cache(maxsize=None)(lambda terms: _block(terms, cfg))
        lone = {}  # (qubit, row): 1-qubit component
        held: dict[tuple, list[int]] = {}  # dense wider component: rows
        wide: list[list] = [[] for _ in models]  # each row's wide components
        for row, model in enumerate(models):
            for support, terms in _components(model):
                _check_step(terms, cfg)
                if len(support) == 1:
                    lone[min(support), row] = terms
                elif len(support) <= DENSE_BLOCK_MAX_QUBITS:
                    held.setdefault(terms, []).append(row)
                else:
                    wide[row].append(terms)
        self.stacks = []
        if lone:
            channels = np.tile(np.eye(4, dtype=complex), (n_qubits, self.n_rows, 1, 1))
            for at, terms in lone.items():
                channels[at] = block(terms)
            odd = n_qubits % 2
            self.stacks = [((n_qubits - 1,), channels[-1].transpose(0, 2, 1))] * odd + [
                ((q, q - 1), _kron(channels[q], channels[q - 1]).transpose(0, 2, 1))
                for q in range(n_qubits - 1 - odd, 0, -2)
            ]
        self.kernels = []
        for terms in sorted(held, key=_support, reverse=True):
            op = LocalOp(block(terms), paired_axes(_support(terms), n_qubits), 2 * n_qubits)
            self.kernels.append((op, _row_index(held[terms], self.n_rows)))
        wide = [sorted(blocks, key=_support, reverse=True) for blocks in wide]
        for j in range(max(map(len, wide), default=0)):
            rows = [row for row, blocks in enumerate(wide) if len(blocks) > j]
            step = _generator([wide[row][j] for row in rows], range(n_qubits - 1, -1, -1), h)
            self.kernels.append((_Wide(step, cfg.substeps), _row_index(rows, self.n_rows)))

    def propagate(self, rho: PairedDensity) -> PairedDensity:
        """One interval on every row of rho, whose stack it may overwrite.
        Work stacks belong to a call, so threads can share a propagator."""
        data = rho.data
        for _, m_t in self.stacks:
            # The shuffle step: the leading qubits of each row, viewed as
            # (d, K), take their channel as x^T M^T and so rotate to the
            # end; after the last stack every qubit is back in place.
            x = data.reshape(self.n_rows, m_t.shape[-1], -1).transpose(0, 2, 1)
            data = np.matmul(x, m_t)
        data = data.reshape(rho.data.shape)
        for kernel, rows in self.kernels:
            if rows is None:
                data = kernel(data)
            else:  # a slice view stepped in place is not copied back
                data[rows] = kernel(data[rows])
        return PairedDensity(rho.n_qubits, data)

    def finish(self, rho: PairedDensity) -> list[DensityMatrix]:
        """Each row of rho, once its trace is within TRACE_DRIFT_LIMIT of 1:
        every interval and gate keeps it exactly, so drift is round-off or NaN."""
        for row, trace in enumerate(rho.trace().tolist()):
            if not abs(trace - 1.0) <= TRACE_DRIFT_LIMIT:  # NaN too
                raise IntegrationError(
                    f"trace drifted by {abs(trace - 1.0):.3g} over the run in row "
                    f"{self.first_row + row}; increase substeps (currently {self.cfg.substeps})"
                )
        return [unpair(PairedDensity(rho.n_qubits, row)) for row in rho.data]

    def run(self, state0: StateVector | DensityMatrix, circuit) -> list:
        """Gate 1, propagate, gate 2, ..., gate G, on one row per model,
        each from state0: the final state of each row, in order.  With no
        channel a StateVector start stays a StateVector, and the run is one
        op per gate of the circuit's `fused()` on it; else each gate makes
        a new stack, the run's own, which the interval after it may
        overwrite, and each row ends as a DensityMatrix, by `finish`."""
        if isinstance(state0, StateVector) and not (self.stacks or self.kernels):
            data, n = state0.data, state0.n_qubits
            for gate in circuit.fused():
                data = gate_op(gate, n, StateVector)(data)
            return [StateVector(state0.n_qubits, data.copy()) for _ in range(self.n_rows)]
        state = _stack(state0, self.n_rows)
        last = len(circuit.gates) - 1
        for i, gate in enumerate(circuit.gates):
            state = apply_gate(state, gate)
            if i != last:
                state = self.propagate(state)
        return self.finish(state)


def evolve(
    rho: StateVector | DensityMatrix, model: NoiseModel, cfg: PropagatorConfig
) -> DensityMatrix:
    """rho(t + tau) = exp(tau L) rho, via RK4 with cfg.substeps steps; a
    StateVector is taken as |psi><psi|."""
    model.validate_for(rho.n_qubits)
    propagator = IntervalPropagator([model], rho.n_qubits, cfg)
    start = _stack(rho, 1)  # a read-only view: the interval steps a copy
    return propagator.finish(propagator.propagate(replace(start, data=start.data.copy())))[0]


def _stack(state0: StateVector | DensityMatrix, rows: int) -> PairedDensity:
    """`rows` copies of the start state in paired order: a read-only view,
    which the first gate replaces by an array of its own."""
    if isinstance(state0, StateVector):
        state0 = state0.to_density_matrix()
    data = pair(state0).data
    return PairedDensity(state0.n_qubits, np.broadcast_to(data, (rows, data.size)))


def _chunks(n_rows: int, n_qubits: int) -> list[range]:
    """The rows of a batch, in order, split so each chunk's stack fits
    BATCH_BYTES."""
    size = max(1, BATCH_BYTES // (16 * 4**n_qubits))
    return [range(lo, min(lo + size, n_rows)) for lo in range(0, n_rows, size)]


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
    start becomes |psi><psi| before the first gate: the run is the batch
    of one of `run_noisy_batch`.
    """
    (out,) = run_noisy_batch(state0, circuit, [model], cfg)
    return out


def run_noisy_batch(
    state0: StateVector | DensityMatrix,
    circuit,
    models,
    cfg: PropagatorConfig | None = None,
) -> Iterator[StateVector | DensityMatrix]:
    """`run_noisy_circuit` of one circuit under each of `models`, as the
    rows of one paired stack: one kernel call per gate (per fusion group
    on a state vector) and one propagator per chunk of rows (see
    BATCH_BYTES).  Returns an iterator over the final state of each model,
    in order, made chunk by chunk; the inputs are checked by the call
    itself.

    Each row's channel is that of its own model, so a row matches its run
    alone.  If every model is noiseless and state0 is a StateVector, the
    rows are StateVectors; otherwise every row is a DensityMatrix.
    """
    if cfg is None:
        cfg = PropagatorConfig()
    models = list(models)
    n = state0.n_qubits
    if circuit.n_qubits != n:
        raise ValueError(f"circuit has {circuit.n_qubits} qubits, state has {n}")
    for model in models:
        model.validate_for(n)
    check_cap(n)
    if isinstance(state0, StateVector) and any(t.rate for m in models for t in m.terms):
        state0 = state0.to_density_matrix()  # one result type for every chunk
    return (
        state
        for chunk in _chunks(len(models), n)
        for state in IntervalPropagator(
            [models[i] for i in chunk], n, cfg, first_row=chunk.start
        ).run(state0, circuit)
    )


def build_template_model(
    template: str, n_qubits: int, rate: float, n_th: float = 0.5
) -> NoiseModel:
    """Homogeneous-rate models matching the standard sweep templates.

    Correlated terms use ring pairing (q, (q+1) mod n); explicit term
    lists override this when finer control is needed.
    """
    # the correlated ring pairs each qubit with the next, so needs two
    check_count(f"{template} template n_qubits", n_qubits, 2 if template == "correlated" else 1)
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
        terms += [
            LindbladTerm("correlated", (q, (q + 1) % n_qubits), rate)
            for q in range(n_qubits)
        ]
    if not terms:
        raise ValueError(f"unknown noise template {template!r}")
    return NoiseModel(tuple(terms))
