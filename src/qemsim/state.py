"""Quantum states and the local-operator kernel.

A run from a pure state under unitaries alone stays pure, so it is
carried as a `StateVector`: 2^n complex amplitudes.  Any other run is a
`DensityMatrix`: the 2^n x 2^n complex matrix rho.  Basis indexing is
little-endian: qubit 0 is the least-significant bit of the
computational-basis index.  Viewed as a (2,)*n tensor, a state vector
has one axis per qubit (axis n-1-q).

`LocalOp` applies a small 2^k x 2^k matrix to k chosen axes of a
(2,)*N view, O(2^k * 2^N) per call instead of the O(8^n) of a full
matrix product; it orders the matrix to its axes once, so a gate or
channel applied many times pays only the call, and it is the one code
that places a matrix on axes.  Gates and noise act on rho as
superoperators: with row-major vec, vec(A rho B) = (A kron B^T) vec(rho)
(Havel, J. Math. Phys. 44, 534, 2003), so a k-qubit channel is a
4^k x 4^k matrix and a gate U is kron(U, conj(U)).

While a noisy run is in progress rho is held as a `PairedDensity`, the
same 4^n entries in qubit-paired order: viewed as a (2,)*2n tensor,
qubit q's row bit is axis 2(n-1-q) and its column bit axis 2(n-1-q)+1,
so each qubit is one contiguous 4-entry axis.  A gate's kron(U, conj(U))
indexes the row bits of its qubits, then their column bits, so it is a
`LocalOp` on those axes in that order; `LocalOp` moves it onto the
ascending paired axes, one contiguous apply for a 1-qubit gate and for a
gate on adjacent qubits.  A gate is one `LocalOp` per state layout: U on
a state vector, kron(U, conj(U)) on a paired rho; a DensityMatrix takes
a gate in a paired copy.  A state-vector run of a circuit fuses its
gates, as state-vector simulators do (Häner and Steiger, SC17,
arXiv:1704.01127; Isakov et al., arXiv:2111.02396): each qubit's run of
1-qubit gates is one 2x2 P, taken into the 2-qubit gate U it feeds as
U @ kron(P_a, P_b), and each such group is one gate, a
`circuit.FusedGate`.  Every op is built at its first use and kept on
the gate it was built from (`gate_op`), so the FusedGate of a group of
fixed gates, which a `Circuit` holds for all its bindings, is built once.
Every dense noise channel on rho is a `LocalOp` too; a wider noise block
steps with `noise._generator` instead.  `pair` and `unpair` convert at
the two ends of a run, one 4^n transpose each.  A batched run holds
several rho as the rows of one (rows, 4^n) array; a `LocalOp` folds the
row axis into its leading count, so one call acts on every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real

import numpy as np

from .errors import CapacityError

DEFAULT_QUBIT_CAP = 14
# With few trailing entries a batched matmul makes one tiny BLAS call per
# leading index; folding them into the small matrix as kron(m, I) keeps
# it to one call, and pays while the folded matrix has at most this many
# rows.
_MAX_FOLDED = 16
_EYES = {post: np.eye(post) for post in (2, 4, 8)}  # a fold's I, made once, not per op


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices, or of two stacks of them matrix by
    matrix: the same products, without the generic overhead that
    dominates np.kron on matrices this small."""
    d = a.shape[-1] * b.shape[-1]
    return (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(a.shape[:-2] + (d, d))


def paired_axes(qubits, n_qubits) -> list[int]:
    """Axes of a paired rho's (2,)*2n view that hold `qubits`, each
    qubit's row bit then its column bit."""
    return [a for q in qubits for a in (2 * (n_qubits - 1 - q), 2 * (n_qubits - q) - 1)]


class LocalOp:
    """A 2^k x 2^k matrix m on k axes of each row of data viewed as
    (rows,) + (2,)*N, prepared once so each call applies it at the cost
    of the call alone.

    m takes axes[0] as the most-significant bit of its index.  Contiguous
    axes, in any order, are put in ascending order with m reordered to
    match, and with few entries after them m is folded as kron(m, I)
    over those too (see _MAX_FOLDED): a call is then one reshape+matmul
    view, with the rows folded into its leading count and `post` entries
    after the axes.  Other axes (`post` None) are moved last by `perm`,
    applied there and moved back by `inverse`, both fixed at build.  A
    call returns a new C-contiguous array of data's shape.
    """

    def __init__(self, m: np.ndarray, axes, n_axes: int):
        axes = list(axes)
        k = len(axes)
        order = sorted(range(k), key=axes.__getitem__)
        lo = axes[order[0]]
        self.m, self.axes, self.post, self.n_axes = m, axes, None, n_axes
        if axes[order[-1]] - lo != k - 1:
            rest = [a + 1 for a in range(n_axes) if a not in axes]
            self.perm = [0] + rest + [a + 1 for a in axes]
            self.inverse = np.argsort(self.perm)
            return
        if order != list(range(k)):
            m = m.reshape((2,) * (2 * k)).transpose(order + [k + i for i in order])
            m = m.reshape(2**k, 2**k)
        self.m, self.axes, self.post = m, range(lo, lo + k), 2 ** (n_axes - lo - k)
        if 1 < self.post and 2**k * self.post <= _MAX_FOLDED:
            self.m = _kron(m, _EYES[self.post])
            self.axes, self.post = range(lo, n_axes), 1

    def __call__(self, data: np.ndarray) -> np.ndarray:
        m, post = self.m, self.post
        if post is None:
            t = data.reshape((-1,) + (2,) * self.n_axes).transpose(self.perm)
            out = np.ascontiguousarray(t).reshape(-1, len(m)) @ m.T
            out = out.reshape(t.shape).transpose(self.inverse)
            return np.ascontiguousarray(out).reshape(data.shape)
        if post == 1:
            out = data.reshape(-1, len(m)) @ m.T
        else:
            out = np.matmul(m, data.reshape(-1, len(m), post))
        return out.reshape(data.shape)


@dataclass
class DensityMatrix:
    n_qubits: int
    data: np.ndarray  # (2^n, 2^n) complex128

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.n_qubits, self.data.copy())

    def trace(self) -> complex:
        return complex(np.trace(self.data))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.data - self.data.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.data)[0])


@dataclass
class StateVector:
    n_qubits: int
    data: np.ndarray  # (2^n,) complex128

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.data.copy())

    def to_density_matrix(self) -> DensityMatrix:
        """|psi><psi|."""
        return DensityMatrix(self.n_qubits, np.outer(self.data, self.data.conj()))


@dataclass
class PairedDensity:
    """rho inside a noisy run, in qubit-paired order (see the module
    docstring): one rho, or a stack of them, one per row, that a batched
    run carries through the same gates.  `pair` and `unpair` convert one
    rho from and to a DensityMatrix."""

    n_qubits: int
    data: np.ndarray  # (4^n,) or (rows, 4^n) complex128

    def trace(self):
        """Tr(rho), or one per row of a stack."""
        return self.data.take(_paired_diagonal(self.n_qubits), axis=-1).sum(axis=-1)


@lru_cache(maxsize=None)
def _paired_diagonal(n_qubits: int) -> np.ndarray:
    """Flat indices of rho's diagonal in paired order: (i, i) is at the
    base-4 number whose digit q is 3 * (bit q of i)."""
    idx = np.zeros(1, dtype=np.intp)
    for q in range(n_qubits):
        idx = np.concatenate([idx, idx + 3 * 4**q])
    idx.flags.writeable = False
    return idx


def pair(rho: DensityMatrix) -> PairedDensity:
    """rho in paired order, as a new array."""
    n = rho.n_qubits
    row_col_pairs = [a for j in range(n) for a in (j, n + j)]
    t = rho.data.reshape((2,) * (2 * n)).transpose(row_col_pairs)
    return PairedDensity(n, t.copy().reshape(-1))


def unpair(rho: PairedDensity) -> DensityMatrix:
    """The (2^n, 2^n) matrix of a paired rho, as a new array."""
    n = rho.n_qubits
    rows_then_cols = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    t = rho.data.reshape((2,) * (2 * n)).transpose(rows_then_cols)
    return DensityMatrix(n, t.copy().reshape(2**n, 2**n))


def check_cap(n_qubits: int) -> None:
    """Refuse more than DEFAULT_QUBIT_CAP qubits, before anything that big exists."""
    if n_qubits > DEFAULT_QUBIT_CAP:
        raise CapacityError(
            f"{n_qubits} qubits exceeds the cap of {DEFAULT_QUBIT_CAP} "
            f"(a density matrix stores 4^n complex numbers)"
        )


def check_qubits(what: str, qubits, count: int | None = None) -> tuple[int, ...]:
    """The one check of a qubit list: distinct ints >= 0, never a bool, and
    `count` of them unless it is None; returns them as a tuple of int."""
    qubits = tuple(qubits)
    ints = all(isinstance(q, Integral) and not isinstance(q, bool) and q >= 0 for q in qubits)
    if not ints or len(set(qubits)) != len(qubits) or count not in (None, len(qubits)):
        many = "" if count is None else f"{count} "
        raise ValueError(f"{what} needs {many}distinct non-negative qubit(s), got {qubits}")
    return tuple(map(int, qubits))


def check_count(what: str, value, least: int, most: int | None = None) -> None:
    """The one check of a count: an int, never a bool, from `least` up to
    `most` (unbounded when None)."""
    ok = isinstance(value, Integral) and not isinstance(value, bool)
    if not ok or value < least or most is not None and value > most:
        top = "" if most is None else f" and <= {most}"
        raise ValueError(f"{what} must be an int >= {least}{top}, got {value!r}")


def check_real(what: str, value, least: float = -math.inf, above: bool = False):
    """The one check of a real setting: a finite real, never a bool, at
    least `least`, or strictly above it when `above` is set; returns `value`."""
    try:  # an int past the float range overflows here, as it would in any use
        ok = isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        ok = False
    if not ok or (value <= least if above else value < least):
        bound = "" if least == -math.inf else f" {'>' if above else '>='} {least}"
        raise ValueError(f"{what} must be a finite real{bound}, got {value!r}")
    return value


def new_statevector(n_qubits: int) -> StateVector:
    """|0...0> on n qubits."""
    check_count("n_qubits", n_qubits, 1)
    check_cap(n_qubits)
    data = np.zeros(2**n_qubits, dtype=complex)
    data[0] = 1.0
    return StateVector(n_qubits, data)


def new_pure_ground(n_qubits: int) -> DensityMatrix:
    """|0...0><0...0| on n qubits."""
    return new_statevector(n_qubits).to_density_matrix()


def _gate_op(gate, n_qubits: int, layout: type) -> LocalOp:
    """A gate, bound or fused, as one read-only LocalOp on a state of
    class `layout`: U on axes n-1-q of a StateVector, or kron(U, conj(U))
    on its qubits' row axes then column axes of a PairedDensity (LocalOp
    reorders them).  The gate checked itself when it was built, so this
    checks only that its qubits fit in the register."""
    qubits = gate.qubits
    if max(qubits) >= n_qubits:
        raise ValueError(f"qubit index {max(qubits)} out of range for {n_qubits} qubits")
    u = gate.matrix()
    if layout is StateVector:
        op = LocalOp(u, [n_qubits - 1 - q for q in qubits], n_qubits)
    else:
        axes = paired_axes(qubits, n_qubits)
        op = LocalOp(_kron(u, u.conj()), axes[0::2] + axes[1::2], 2 * n_qubits)
    op.m = op.m.view()  # read-only, leaving the gate's own matrix as it is
    op.m.setflags(write=False)
    return op


def gate_op(gate, n_qubits: int, layout: type) -> LocalOp:
    """`_gate_op` of a gate, built at its first use and kept on the gate
    (two threads may both build it; the two ops are equal)."""
    key = n_qubits, layout
    ops = getattr(gate, "_ops", None) or vars(gate).setdefault("_ops", {})
    return ops.get(key) or ops.setdefault(key, _gate_op(gate, *key))


def apply_gate(state, gate):
    """psi -> U psi on a StateVector, rho -> U rho U^dagger on a
    PairedDensity (on every row of a stack), or on a DensityMatrix by way
    of a paired copy: the gate's op on the state's layout (see `gate_op`)."""
    if isinstance(state, DensityMatrix):
        return unpair(apply_gate(pair(state), gate))
    op = gate_op(gate, state.n_qubits, type(state))
    return type(state)(state.n_qubits, op(state.data))
