"""Quantum states and the local-operator kernel.

A run from a pure state under unitaries alone stays pure, so it is
carried as a `StateVector`: 2^n complex amplitudes.  Any other run is a
`DensityMatrix`: the 2^n x 2^n complex matrix rho.  Basis indexing is
little-endian: qubit 0 is the least-significant bit of the
computational-basis index.  Viewed as a (2,)*n tensor, a state vector
has one axis per qubit (axis n-1-q).

`apply_local` applies a small 2^k x 2^k matrix to k chosen axes of a
(2,)*N view, O(2^k * 2^N) per call instead of the O(8^n) of a full
matrix product.  Gates and noise act on rho as superoperators: with
row-major vec, vec(A rho B) = (A kron B^T) vec(rho) (Havel, J. Math.
Phys. 44, 534, 2003), so a k-qubit channel is a 4^k x 4^k matrix and a
gate U is kron(U, conj(U)).

While a noisy run is in progress rho is held as a `PairedDensity`, the
same 4^n entries in qubit-paired order: viewed as a (2,)*2n tensor,
qubit q's row bit is axis 2(n-1-q) and its column bit axis 2(n-1-q)+1,
so each qubit is one contiguous 4-entry axis.  A superoperator reordered
once by `paired_superop` from (rows, columns) to (row, column) pairs
then acts on `paired_axes(qubits, n)`: one contiguous apply for a
1-qubit gate or channel, and for an op on adjacent qubits.  `pair` and
`unpair` convert at the two ends of a run, one 4^n transpose each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapacityError

DEFAULT_QUBIT_CAP = 14
# With few trailing entries a batched matmul makes one tiny BLAS call per
# leading index; folding them into the small matrix as kron(m, I) keeps
# it to one call, and pays while the folded matrix has at most this many
# rows.
_MAX_FOLDED = 16


def _check_qubits(qubits, n_qubits):
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit indices: {qubits}")
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices: the same products, without the
    generic overhead that dominates np.kron on matrices this small."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def paired_axes(qubits, n_qubits) -> list[int]:
    """Axes of a paired rho's (2,)*2n view that hold `qubits`, each
    qubit's row bit then its column bit."""
    return [a for q in qubits for a in (2 * (n_qubits - 1 - q), 2 * (n_qubits - q) - 1)]


def _pair_order(k: int) -> list[int]:
    # (rows, columns) axes of a (2,)*2k view, taken as (row, column) pairs
    return [a for j in range(k) for a in (j, k + j)]


def paired_superop(superop: np.ndarray) -> np.ndarray:
    """A 4^k x 4^k superoperator in Havel (rows, columns) index order,
    reordered to act on the paired axes of its k qubits."""
    k = (superop.shape[0].bit_length() - 1) // 2
    if k == 1:
        return superop  # one qubit's (row, column) pair is already paired order
    order = _pair_order(k)
    t = superop.reshape((2,) * (4 * k)).transpose(order + [2 * k + a for a in order])
    return t.reshape(superop.shape)


def apply_local(data: np.ndarray, m: np.ndarray, axes) -> np.ndarray:
    """m applied to `axes` of data viewed as a (2,)*N tensor.

    m is 2^k x 2^k with axes[0] as the most-significant bit of its index.
    Returns a new C-contiguous array of data's shape.  Contiguous axes, in
    any order, take a reshape+matmul view; others fall back to tensordot.
    """
    k = len(axes)
    ndim = data.size.bit_length() - 1
    order = sorted(range(k), key=axes.__getitem__)
    lo = axes[order[0]]
    if axes[order[-1]] - lo != k - 1:
        t = data.reshape((2,) * ndim)
        mt = m.reshape((2,) * (2 * k))
        out = np.tensordot(mt, t, axes=(list(range(k, 2 * k)), axes))
        return np.ascontiguousarray(np.moveaxis(out, range(k), axes)).reshape(data.shape)
    if order != list(range(k)):
        m = m.reshape((2,) * (2 * k)).transpose(order + [k + i for i in order])
        m = m.reshape(2**k, 2**k)
    pre, post = 2**lo, 2 ** (ndim - lo - k)
    if post == 1 or 2**k * post <= _MAX_FOLDED:
        if post > 1:
            m = _kron(m, np.eye(post))
        out = data.reshape(pre, -1) @ m.T
    else:
        out = np.matmul(m, data.reshape(pre, 2**k, post))
    return out.reshape(data.shape)


def embed(u, qubits, n_qubits):
    """Dense 2^n x 2^n embedding of a small operator on the given qubits."""
    _check_qubits(qubits, n_qubits)
    eye = np.eye(2**n_qubits, dtype=complex)
    axes = [n_qubits - 1 - q for q in qubits]
    return apply_local(eye, np.asarray(u, dtype=complex), axes)


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
    docstring); `pair` and `unpair` convert from and to a DensityMatrix."""

    n_qubits: int
    data: np.ndarray  # (4^n,) complex128

    def trace(self) -> complex:
        return complex(self.data[_paired_diagonal(self.n_qubits)].sum())


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
    t = rho.data.reshape((2,) * (2 * n)).transpose(_pair_order(n))
    return PairedDensity(n, t.copy().reshape(-1))


def unpair(rho: PairedDensity) -> DensityMatrix:
    """The (2^n, 2^n) matrix of a paired rho, as a new array."""
    n = rho.n_qubits
    rows_then_cols = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    t = rho.data.reshape((2,) * (2 * n)).transpose(rows_then_cols)
    return DensityMatrix(n, t.copy().reshape(2**n, 2**n))


def new_statevector(n_qubits: int, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """|0...0> on n qubits."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > cap:
        raise CapacityError(
            f"{n_qubits} qubits exceeds the cap of {cap} "
            f"(a noisy run stores 4^n complex numbers)"
        )
    data = np.zeros(2**n_qubits, dtype=complex)
    data[0] = 1.0
    return StateVector(n_qubits, data)


def new_pure_ground(n_qubits: int, cap: int = DEFAULT_QUBIT_CAP) -> DensityMatrix:
    """|0...0><0...0| on n qubits."""
    return new_statevector(n_qubits, cap).to_density_matrix()


def apply_gate(state, gate):
    """psi -> U psi on a StateVector, rho -> U rho U^dagger on a
    PairedDensity or DensityMatrix, for a bound (fully resolved) gate.

    On rho the gate is the one superoperator kron(U, conj(U)) on the
    paired axes of its qubits; a DensityMatrix is paired for the call and
    unpaired after it."""
    if isinstance(state, DensityMatrix):
        return unpair(apply_gate(pair(state), gate))
    n = state.n_qubits
    _check_qubits(gate.qubits, n)
    u = gate.matrix()
    if isinstance(state, StateVector):
        return StateVector(n, apply_local(state.data, u, [n - 1 - q for q in gate.qubits]))
    superop = paired_superop(_kron(u, u.conj()))
    return PairedDensity(n, apply_local(state.data, superop, paired_axes(gate.qubits, n)))
