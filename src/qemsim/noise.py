"""Lindblad noise terms and master-equation propagation between gates.

Four dissipator families are supported: amplitude damping D[sigma],
dephasing D[sigma^dag sigma], thermal (competing decay/excitation with
occupation n_th), and a two-qubit correlated excitation-exchange pair.
The inter-gate propagator exp(tau * L) is approximated by classic RK4
with a configurable number of substeps; the integrator itself must
preserve the trace (no renormalization), which doubles as a correctness
signal.  It is checked where it can break: each block when it is built
(`_blocks`), and each row's final trace once, at the end of its run
(`IntervalPropagator.finish`), which catches accumulated round-off and a
NaN alike; a step outside RK4's stability interval is refused per block,
before any block is built (`_check_step`).

A model is split into blocks, the connected components of its terms'
qubit supports (zero-rate terms dropped).  Blocks act on disjoint qubits,
so their generators commute and each interval applies one block after
another.  Every block works on its own qubits only, on the qubit-paired
rho that a run holds between its two conversions (see `state`), whose
digits 2 * row bit + column bit are populations (0, 3) or coherences (1,
2).  A collapse op moves no coherence digit, so h*L, its RK4 step and
their power are block-diagonal in the pattern of coherence digits, a
finer split than the coherence order of Buča and Prosen (New J. Phys. 14,
073007, 2012): a pattern with p population digits is a real 2^p x 2^p
matrix, the same as its conjugate's (1 <-> 2), (6^k + 4^k) / 2 reals for
a k-qubit block (`_layout`).  Every block is built so, once: h*L
(`_generator`), then its degree-4 Taylor polynomial, one RK4 substep, to
the power substeps, one stack per sector size (`_blocks`).  A block of at
most DENSE_BLOCK_MAX_QUBITS qubits is scattered into its 4^k x 4^k matrix
(the Havel vec identity); a wider one steps an interval by one gather,
real matmul and put per sector size (`_Layer`), whatever the substeps.

Every run is `IntervalPropagator.run`, the one gate loop: a stack of
paired rho, one row per noise model, takes gate 1 and an interval, gate
2 and an interval, ..., then gate G.  `run_noisy_batch` runs a
mitigation's rows in chunks of at most BATCH_BYTES, `run_noisy_circuit`
is its batch of one, and a noisy VQE problem keeps one propagator.  Only
a batch of noiseless models from a StateVector stays on state vectors,
where each fusion group of gates is one `circuit.FusedGate` (see
`state`); any other batch returns each row as a DensityMatrix.  An
interval applies every row's 1-qubit blocks in one product pass, by the
shuffle algorithm for Kronecker products (de Boor, ACM Trans. Math.
Softw. 5, 173, 1979; Fernandes, Plateau and Stewart, J. ACM 45, 381,
1998): per qubit pair (2j+1, 2j), top first, a stack of each row's
kron(P_2j+1, P_2j) is one batched matmul that applies it to the leading
qubits of every row and rotates them to the end.  A gate whose qubits
lie in one entry of that pass (a 1-qubit gate, the lone top qubit at odd
n included, or a 2-qubit gate on both qubits of a pair) is folded into
it: its S = kron(U, conj(U)) multiplies into the entry, so the interval
after the gate applies gate and noise in the same matmuls (a row with
no 1-qubit block of its own takes it through the identity there).  Any
other gate, every gate where no row has a 1-qubit block, and the last
gate are a pass of their own: one kernel call on all rows, which makes a
new stack that the interval after it steps and may overwrite.  A gate's
op is built at its first use and kept on the gate.  Each wider block is
then a kernel on just the rows holding it: a dense one a `state.LocalOp`
of its matrix, each distinct one built once, by highest qubit,
descending; then the wide ones in layers, layer j one `_Layer` on the
rows that have a j-th wide block (each row's by highest qubit,
descending), which steps them in place.

A run owes the pass of each interval to rho until it must pay it.  Two
product passes compose entry by entry, (A2 x B2)(A1 x B1) = A2 A1 x
B2 B1 (the mixed-product rule behind the shuffle algorithm), so rho owes
one pending pass, which it pays, then the kernels, before a gate of its
own, the last gate among them; with a kernel, before every gate, since
no pass holds a kernel's interval.  A run takes one flat list of steps
(`IntervalPropagator._plan`): a gate of its own; a `Param` gate of a
`circuit.Circuit` in one entry, whose S multiplies into that entry of
the pending pass before the plain pass after it composes in; or a fixed
gate's fold, the plain pass after it with its S, built once a plan.
Without kernels each maximal run of fixed folds composes once, into the
plain pass that the step before it brings; with kernels each fold is a
step of its own.  A propagator keeps the plan of the last Circuit it
ran, from its second run of it on, so a noisy VQE's evaluations compose
only their Param gates, while a mitigation's propagator, which runs
once, keeps none.  `run_noisy_batch` chunks rows by the widths of block
they hold: 1-qubit blocks alone, wider ones alone, both, or none.  So no
chunk mixes rows with and without a product pass, or rows whose passes
compose with rows that pay every interval, and each row's arithmetic is
that of its run alone, whatever rows share its batch, from two qubits up
(on one, a gate's product of a one-row stack can round differently).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import CapacityError, IntegrationError
from .state import (
    DEFAULT_QUBIT_CAP,
    DensityMatrix,
    LocalOp,
    PairedDensity,
    StateVector,
    _gate_op,
    _kron,
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

# A collapse op c = |a><b| keeps the pattern of coherence digits, on which
# the block build relies (see `_generator`).
KINDS = ("amplitude_damping", "dephasing", "thermal", "correlated")

TRACE_DRIFT_LIMIT = 1e-6
# A dense block is a 16^k complex matrix, 1 MiB at k = 4; a wider one
# keeps its (6^k + 4^k) / 2 sector reals.
DENSE_BLOCK_MAX_QUBITS = 4
# RK4 keeps |R(z)| <= 1 on the negative real axis down to z = -2.785.
RK4_STABILITY_LIMIT = 2.785
# Past this many substeps round-off outgrows the RK4 error: one damped
# qubit at rate 1e-3 loses 2.6e-11 of trace at 10^6, 3.1e-7 at 10^10.
MAX_SUBSTEPS = 10**6
# A batched run holds at most this many bytes of rho stack (16 B an
# entry, 4^n entries a row) and wide blocks' sectors; a larger row runs alone.
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
    # True == 1 and 1.0 == 1, so either would pick term 1
    outside = {i for i in chosen if isinstance(i, bool) or not isinstance(i, Integral)}
    outside |= chosen - set(range(len(model)))
    if outside:
        raise ValueError(
            f"term indices {sorted(outside, key=repr)} out of range for {len(model)} terms"
        )
    return NoiseModel(
        tuple(
            replace(t, rate=t.rate * factor) if i in chosen else t
            for i, t in enumerate(model.terms)
        )
    )


@lru_cache(maxsize=None)
def _layout(k: int) -> tuple:
    """Where the sectors of a paired k-qubit block lie, by arithmetic on its
    flat indices f, digit i on axis i, the top first: (digits, at, home,
    local, representative, starts).  A class is a pattern whose top
    coherence digit is 1 (or none), and for p < k population digits its
    conjugate too; at[p] holds their f, (classes, partners, 2^p), each by
    its local index, the bits of its population digits (3 for 1).  A block
    is every class's 2^p x 2^p matrix, p ascending, size p from starts[p];
    entry (f, g) of a class's own pattern is at home[f] + local[g]."""
    f = np.arange(4**k)
    digits = np.array([f >> 2 * (k - 1 - i) & 3 for i in range(k)], dtype=np.intp).reshape(k, 4**k)
    local, pops, first, flip, threes = (np.zeros_like(f) for _ in range(5))
    for i in reversed(range(k)):  # the lowest digit first
        d, weight = digits[i], 3 << 2 * (k - 1 - i)
        coherent = (d == 1) | (d == 2)
        local += (d == 3) << pops
        pops += ~coherent
        first += coherent * (d - first)  # ends as the top coherence digit
        flip += coherent * weight
        threes += (d == 3) * weight
    partner = (first == 2).astype(np.intp)
    base = (f ^ flip * partner) - threes  # the class's own pattern
    at, starts, home, rank = [], [0], np.zeros_like(f), np.zeros_like(f)
    for p in range(k + 1):
        classes = np.flatnonzero((base == f) & (pops == p))
        rank[classes] = np.arange(len(classes))
        mine = np.flatnonzero(pops == p)
        c, m = rank[base[mine]], 1 << p
        table = np.zeros((len(classes), 1 + (p < k), m), dtype=np.intp)
        table[c, partner[mine], local[mine]] = mine
        home[mine] = starts[-1] + (c * m + local[mine]) * m
        starts.append(starts[-1] + len(classes) * m * m)
        at.append(table)
    own = partner == 0
    for a in (digits, *at, home, local, own):
        a.flags.writeable = False
    return digits, tuple(at), home, local, own, tuple(starts)


def _generator(blocks, h: float) -> np.ndarray:
    """h*L of each block (terms on its `_support`) as a (blocks, (6^k +
    4^k) / 2) real stack of sectors.  A collapse op |a><b| weighted w = h *
    rate adds -w/2 on the diagonal where its term's row bits are b, and
    again where its column bits are, and moves w from each entry whose term
    digits are 3b onto the one with 3a: so h*L keeps the trace, and each
    pattern, on which it is real and the same as on its conjugate.  One
    bincount sums each block's diagonal weights, then its moves."""
    k = len(_support(blocks[0]))
    digits, _, home, local, representative, starts = _layout(k)
    slots, out = {}, np.zeros((len(blocks), starts[-1]))
    for row, terms in enumerate(blocks):
        register, diagonal, moves = _support(terms), [], []
        for term in terms:
            axes = tuple(register.index(q) for q in term.qubits)
            for rate, a, b in term.collapse_ops():
                w = h * rate
                if w == 0.0:
                    continue
                if (axes, a, b) not in slots:  # one op's slots, in a class's own pattern
                    rows = cols = src = representative
                    shift = 0
                    for j, ax in enumerate(axes):
                        top = len(axes) - 1 - j  # axes[0] takes the top bit
                        bit_a, bit_b, d = a >> top & 1, b >> top & 1, digits[ax]
                        rows, cols = rows & (d >> 1 == bit_b), cols & (d & 1 == bit_b)
                        src = src & (d == 3 * bit_b)
                        shift += 3 * (bit_a - bit_b) << 2 * (k - 1 - ax)
                    rows, cols, src = map(np.flatnonzero, (rows, cols, src))
                    on = np.concatenate([home[rows] + local[rows], home[cols] + local[cols]])
                    slots[axes, a, b] = on, home[src + shift] + local[src]
                on, to = slots[axes, a, b]
                diagonal.append((on, -0.5 * w))
                moves.append((to, w))
        pieces = diagonal + moves
        at = np.concatenate([np.zeros(0, dtype=np.intp)] + [x for x, _ in pieces])
        out[row] = np.bincount(at, np.repeat([w for _, w in pieces], [len(x) for x, _ in pieces]), starts[-1])
    return out


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


def _blocks(blocks, cfg: PropagatorConfig) -> np.ndarray:
    """Blocks of one width k over one interval, as the `_generator` stack
    with each sector size stepped and powered in place as one stack; each
    block is refused unless it keeps the trace, each column of its
    all-population sector summing to 1 within TRACE_DRIFT_LIMIT."""
    k = len(_support(blocks[0]))
    starts = _layout(k)[-1]
    out = _generator(blocks, cfg.tau / cfg.substeps)
    # a dense block steps in complex arithmetic, as a run without wide blocks
    # does throughout (real BLAS kernels would page in 256 KiB more of the
    # library); a wide one in real, as its layer does
    dtype = float if k > DENSE_BLOCK_MAX_QUBITS else complex
    for p in range(k + 1):
        sector = out[:, starts[p] : starts[p + 1]]
        step = _power_step(sector.reshape(-1, 2**p, 2**p).astype(dtype, copy=False), cfg.substeps)
        sector[...] = step.real.reshape(sector.shape)
    sums = out[:, starts[k] :].reshape(len(blocks), 2**k, 2**k).sum(axis=1)
    for terms, defect in zip(blocks, np.abs(sums - 1.0).max(axis=1)):
        if not defect <= TRACE_DRIFT_LIMIT:  # NaN too
            raise IntegrationError(
                f"the channel on qubits {sorted(_support(terms))} changes the trace by "
                f"{defect:.3g}; increase substeps (currently {cfg.substeps})"
            )
    return out


def _dense(sectors: np.ndarray, k: int) -> np.ndarray:
    """Each block of a `_blocks` stack as its 4^k x 4^k complex matrix M on
    the paired axes of its support: each class's matrix in its own
    pattern and its conjugate's, zero between patterns."""
    _, at, _, _, _, starts = _layout(k)
    out = np.zeros((len(sectors), 4**k, 4**k), dtype=complex)
    for p, idx in enumerate(at):
        cells = sectors[:, starts[p] : starts[p + 1]].reshape(len(sectors), -1, 1, 2**p, 2**p)
        out[:, idx[..., :, None], idx[..., None, :]] = cells  # both partners
    return out


def _power_step(hl: np.ndarray, substeps: int) -> np.ndarray:
    """(RK4 step)^substeps of the matrix h*L, or of each of a stack of them:
    one classic RK4 step of v' = L v is exactly the Taylor polynomial
    I + t1 + t2/2 + t3/6 + t4/24 of t1 = h*L, t_k+1 = t_k h*L."""
    v = np.broadcast_to(np.eye(hl.shape[-1], dtype=hl.dtype), hl.shape).copy()
    # summed in place in that order, each division as numpy divides complex
    # by real, through the reciprocal; t1 keeps hl's own layout, which picks
    # the BLAS kernel of hl @ hl
    t1 = hl.copy(order="K")
    v += t1
    t2 = t1 @ hl
    np.matmul(t2, hl, out=t1)  # t3, while t2 is summed
    v += np.multiply(t2, 0.5, out=t2)
    np.matmul(t1, hl, out=t2)
    v += np.multiply(t1, 1 / 6, out=t1)
    v += np.multiply(t2, 1 / 24, out=t2)
    return np.linalg.matrix_power(v, substeps)


def _sector_bytes(terms) -> int:
    """The bytes of a wide block's (6^k + 4^k) / 2 sector reals, refused,
    before any is built, past those of a rho at the qubit cap."""
    k = len(_support(terms))
    size = 4 * (6**k + 4**k)
    if size > 16 * 4**DEFAULT_QUBIT_CAP:
        raise CapacityError(
            f"a noise block on {k} qubits needs {size} bytes of sector matrices, "
            f"more than a {DEFAULT_QUBIT_CAP}-qubit density matrix"
        )
    return size


class _Layer:
    """One layer of wide blocks, at most one per row, stepping the whole
    stack in place: per width and sector size, one take of its rows'
    entries (a pattern's beside its conjugate's), one real matmul by each
    row's sectors, as `build` (`_blocks`) makes them, and one put back.
    Work belongs to a call, so threads can share a layer."""

    def __init__(self, blocks, rows, n_qubits: int, build):
        self.steps = []  # (each row's matrices, where its entries are)
        for k in sorted({len(_support(terms)) for terms in blocks}, reverse=True):
            mine = [j for j, terms in enumerate(blocks) if len(_support(terms)) == k]
            sectors = build([blocks[j] for j in mine])
            digits, at, _, _, _, starts = _layout(k)
            supports = np.array([_support(blocks[j]) for j in mine], dtype=np.intp)
            others = [[q for q in range(n_qubits) if q not in s] for s in supports]
            others = np.array(others, dtype=np.intp).reshape(len(mine), -1)
            # each entry's place in the row, then each spectator's; each row's start
            place = (4 ** supports[:, :, None] * digits).sum(axis=1)
            spectators = (4 ** others[:, :, None] * _layout(n_qubits - k)[0]).sum(axis=1)
            first = np.array([rows[j] for j in mine])[:, None] * 4**n_qubits + spectators
            for p, idx in enumerate(at):
                m = 2**p
                # (rows, classes, m, partners x spectators): a row's classes
                # read its own entries, each pattern's and its conjugate's
                where = place[:, idx].transpose(0, 1, 3, 2)[..., None] + first[:, None, None, None]
                where = where.reshape(len(mine), len(idx), m, -1)
                matrices = sectors[:, starts[p] : starts[p + 1]].reshape(len(mine), -1, m, m)
                self.steps.append((matrices, where))
        self.size = max(where.size for _, where in self.steps)

    def __call__(self, data: np.ndarray) -> np.ndarray:
        flat = data.reshape(-1)  # a view: every stack a run steps is C-contiguous
        work = np.empty(2 * self.size, dtype=complex)
        for matrices, where in self.steps:
            x = flat.take(where, out=work[: where.size].reshape(where.shape), mode="clip")
            y = work[where.size : 2 * where.size].reshape(where.shape)
            np.matmul(matrices, x.view(float), out=y.view(float))
            flat[where] = y
        return data


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
    docstring).  `product` is the product pass, top first: a (rows, 4, 4)
    entry for the lone top qubit at odd n, then a (rows, 16, 16) one per
    qubit pair, each row's entry the kron of its 1-qubit channels there,
    the identity where it has none; it is empty if no row has one.  An
    entry is held as a transposed view, the right factor of a shuffle step:
    a transposed copy would send BLAS to a kernel whose sums round
    differently.  `stacks` pairs each entry with its qubits, and `entry`
    maps the qubits of each gate that one entry holds (each qubit, each
    pair in either order) to that entry's index.  `kept` is the last
    Circuit whose bindings ran and its plan, once kept (`_steps`).
    `kernels` holds the wider components as (kernel, rows) pairs (see
    `_row_index`): the dense ones' `state.LocalOp`s, each taking the stack
    of its rows and returning it stepped, then one `_Layer` per layer,
    which takes the whole stack and its own rows.  Rows are numbered from
    `first_row` in error messages.
    """

    def __init__(
        self, models, n_qubits: int, cfg: PropagatorConfig, first_row: int = 0
    ):
        self.cfg = cfg
        self.first_row = first_row
        self.n_rows = len(models)
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
                    _sector_bytes(terms)
                    wide[row].append(terms)
        widths: dict[int, list] = {}  # each distinct dense component, built once by width
        for terms in dict.fromkeys([*lone.values(), *held]):
            widths.setdefault(len(_support(terms)), []).append(terms)
        built = {}
        for k, group in widths.items():
            built.update(zip(group, _dense(_blocks(group, cfg), k)))
        self.product, self.stacks = (), []
        if lone:
            channels = np.tile(np.eye(4, dtype=complex), (n_qubits, self.n_rows, 1, 1))
            for at, terms in lone.items():
                channels[at] = built[terms]
            odd = n_qubits % 2
            top = n_qubits - 1 - odd  # the top qubit of the top pair
            groups = [channels[-1:]] * odd
            if n_qubits > 1:
                groups.append(_kron(channels[top:0:-2], channels[top - 1 :: -2]))
            self.product = tuple(m_t for group in groups for m_t in group.transpose(0, 1, 3, 2))
            qubits = [(n_qubits - 1,)] * odd + [(q, q - 1) for q in range(top, 0, -2)]
            self.stacks = list(zip(qubits, self.product))
        self.entry = {g: at for at, (qs, _) in enumerate(self.stacks) for g in [qs, qs[::-1], *zip(qs)]}
        self.kept = None, None  # a Circuit and its `_plan`, once kept
        self.kernels = []
        for terms in sorted(held, key=_support, reverse=True):
            op = LocalOp(built[terms], paired_axes(_support(terms), n_qubits), 2 * n_qubits)
            self.kernels.append((op, _row_index(held[terms], self.n_rows)))
        wide = [sorted(blocks, key=_support, reverse=True) for blocks in wide]
        for j in range(max(map(len, wide), default=0)):
            rows = [row for row, blocks in enumerate(wide) if len(blocks) > j]
            layer = _Layer([wide[row][j] for row in rows], rows, n_qubits, lambda b: _blocks(b, cfg))
            self.kernels.append((layer, _row_index(rows, self.n_rows)))

    def _into(self, pending, gate, at, product, build=gate_op) -> tuple:
        """The pass `pending` (None for none), then `gate`, which entry `at`
        holds, then the pass `product`, as one new pass.  The gate's op on
        the entry's qubits takes S = kron(U, conj(U)) on each row of
        pending's stored P^T there, which makes P^T S^T, and that composes
        with product's entry; pending and product are left as they are.
        With no pass owed it is the identity's: the entry is S^T M^T.  A
        Param gate keeps its op for its binding's next use of it (see
        `state.gate_op`); a fixed gate's fold, kept in a plan, builds its op
        with `state._gate_op`, which keeps none."""
        qubits, _ = self.stacks[at]
        op = build(gate, len(qubits), PairedDensity, qubits[-1])
        if pending is None:
            entry = op(np.eye(4 ** len(qubits), dtype=complex)) @ product[at]
            return (*product[:at], entry, *product[at + 1 :])
        pending = list(pending)
        pending[at] = op(pending[at])
        return tuple(map(np.matmul, pending, product))

    def _plan(self, gates, slots) -> Iterator[tuple]:
        """(i, at, pass) for each step of a run of `gates`, made as they are
        taken (see the module docstring); gate j is its Circuit's own fixed
        gate where it is slots[j].  A gate of its own, the last among them,
        has at None, a folded Param gate its entry, and the step of a fixed
        gate's fold i None.  Each fold is built once a plan; without
        kernels, a run of folds composes into the pass of the step before."""
        folds, step, last = {}, None, len(gates) - 1  # folds: id(gate): its fold
        for j, gate in enumerate(gates):
            at = self.entry.get(gate.qubits) if j < last else None
            if at is None or gate is not slots[j]:
                made = j, at, self.product
            else:  # a fixed gate
                if id(gate) not in folds:
                    folds[id(gate)] = self._into(None, gate, at, self.product, _gate_op)
                if step is not None and not self.kernels:
                    step = *step[:2], tuple(map(np.matmul, step[2], folds[id(gate)]))
                    continue
                made = None, None, folds[id(gate)]
            if step is not None:
                yield step
            step = made
        if step is not None:
            yield step

    def _steps(self, circuit):
        """`_plan` of `circuit`, each of its gates fixed unless it was bound
        from a `circuit.Circuit`, whose Param gates are not.  `kept` holds
        the last Circuit run: its first run marks it seen, its second keeps
        its plan, and a run of another Circuit takes the slot.  A run that
        uses a kept plan does what building it does, bit for bit."""
        gates, source = circuit.gates, vars(circuit).get("_circuit")
        if source is None:
            return self._plan(gates, gates)
        seen, plan = self.kept
        if seen is not source or plan is None:
            plan = self._plan(gates, source._slots)
            if seen is source:  # the second run keeps the plan
                plan = list(plan)
                self.kept = source, plan
            else:  # the first marks the Circuit seen, so a run once keeps none
                self.kept = source, None
        return plan

    def propagate(self, rho: PairedDensity, product=None) -> PairedDensity:
        """One interval on every row of rho, whose stack it may overwrite:
        the product pass, then the kernels.  A `product` given is the pass
        in place of the interval's own, the pass owed (see `run`).  Work
        stacks belong to a call, so threads can share a propagator."""
        data = rho.data
        for m_t in product or self.product:
            # The shuffle step: the leading qubits of each row, viewed as
            # (d, K), take their channel as x^T M^T and so rotate to the
            # end; after the last entry every qubit is back in place.
            x = data.reshape(self.n_rows, m_t.shape[-1], -1).transpose(0, 2, 1)
            data = np.matmul(x, m_t)
        data = data.reshape(rho.data.shape)
        for kernel, rows in self.kernels:
            if rows is None or isinstance(kernel, _Layer):  # a layer takes its own rows
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
        op per gate of the circuit's `fused()` on it; else each row ends as
        a DensityMatrix, by `finish`, through the steps of `_steps`.
        Before each step but a folded Param gate's (before every step, with
        kernels) `propagate` pays the pass owed; a gate of its own is then
        `apply_gate`, and the step's pass is owed, in a Param gate's step
        after the gate has multiplied into the pass owed (`_into`).  The
        pass after the last gate is dropped."""
        if isinstance(state0, StateVector) and not (self.stacks or self.kernels):
            data, n = state0.data, state0.n_qubits
            for gate in circuit.fused():
                data = gate_op(gate, n, StateVector)(data)
            return [StateVector(state0.n_qubits, data.copy()) for _ in range(self.n_rows)]
        state, gates = _stack(state0, self.n_rows), circuit.gates
        pending = None  # the pass rho owes: (A2 x B2)(A1 x B1) = A2 A1 x B2 B1
        for i, at, product in self._steps(circuit):
            # no pass holds a kernel's interval, so with kernels rho pays
            # before every gate
            if pending is not None and (at is None or self.kernels):
                state, pending = self.propagate(state, pending), None
            if at is not None:
                product = self._into(pending, gates[i], at, product)
            elif i is not None:
                state = apply_gate(state, gates[i])
            pending = product
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


def _chunks(models, n_qubits: int) -> list[range]:
    """The rows of a batch, in order: each run of rows alike in the widths
    of block they hold (1-qubit, wider, both or none), split so each
    chunk's stack and its wide blocks' sector matrices fit BATCH_BYTES."""
    chunks, used, last = [], 0, None
    for row, model in enumerate(models):
        parts = _components(model)
        kind = {len(support) == 1 for support, _ in parts}
        size = 16 * 4**n_qubits + sum(
            _sector_bytes(terms) for support, terms in parts if len(support) > DENSE_BLOCK_MAX_QUBITS
        )
        if kind == last and used + size <= BATCH_BYTES:
            chunks[-1], used = range(chunks[-1].start, row + 1), used + size
        else:
            chunks.append(range(row, row + 1))
            used, last = size, kind
    return chunks


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
    rows of paired stacks: one propagator per chunk of rows (see
    `_chunks`), whose run makes one kernel call per gate of its own (per
    fusion group on a state vector).  Returns an iterator over the final
    state of each model, in order, made chunk by chunk; the inputs are
    checked by the call itself.

    Each row's channel is that of its own model, and a chunk's rows are
    alike in the widths of block they hold, so each row takes the steps of
    its run alone and matches it.  If every model is noiseless and state0
    is a StateVector, the rows are StateVectors; otherwise every row is a
    DensityMatrix.
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
    chunks = _chunks(models, n)  # which refuses a wide block past the cap
    if isinstance(state0, StateVector) and any(t.rate for m in models for t in m.terms):
        state0 = state0.to_density_matrix()  # one result type for every chunk
    return (
        state
        for chunk in chunks
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
