"""Quantum states and the local-operator kernel.

A run from a pure state under unitaries alone stays pure, so it is
carried as a `StateVector`: 2^n complex amplitudes.  Any other run is a
`DensityMatrix`: the 2^n x 2^n complex matrix rho.  Basis indexing is
little-endian: qubit 0 is the least-significant bit of the
computational-basis index.  Viewed as a (2,)*n tensor, a state vector
has one axis per qubit (axis n-1-q); viewed as a (2,)*2n tensor, rho has
one such axis for its rows and one for its columns (axis 2n-1-q).

`apply_local` applies a small 2^k x 2^k matrix to k chosen axes of either
view, O(2^k * 2^N) per call for N axes instead of the O(8^n) of a full
matrix product.  It serves gates (U on the vector's axes; U on rho's row
axes and conj(U) on its column axes), embeddings, and noise
superoperators on the doubled (row, column) register: with row-major
vec, vec(A rho B) = (A kron B^T) vec(rho) (Havel, J. Math. Phys. 44, 534,
2003), so a k-qubit superoperator is a 4^k x 4^k matrix on the 2k axes
`doubled_axes(qubits, n)`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

DEFAULT_QUBIT_CAP = 14
# Below this many trailing entries a batched matmul makes one tiny BLAS
# call per leading index; folding them into the small matrix as
# kron(m, I) keeps it to one call.
_MIN_MATMUL_TAIL = 16


def _check_qubits(qubits, n_qubits):
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit indices: {qubits}")
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise ValueError(f"qubit index {q} out of range for {n_qubits} qubits")


def row_axes(qubits, n_qubits) -> list[int]:
    """Axes of rho's (2,)*2n view that index the rows of `qubits`."""
    return [n_qubits - 1 - q for q in qubits]


def col_axes(qubits, n_qubits) -> list[int]:
    """Axes of rho's (2,)*2n view that index the columns of `qubits`."""
    return [2 * n_qubits - 1 - q for q in qubits]


def doubled_axes(qubits, n_qubits) -> list[int]:
    """Axes a 4^k x 4^k superoperator on `qubits` acts on (rows, then columns)."""
    return row_axes(qubits, n_qubits) + col_axes(qubits, n_qubits)


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
    if post < _MIN_MATMUL_TAIL:
        if post > 1:
            m = np.kron(m, np.eye(post))
        out = data.reshape(pre, -1) @ m.T
    else:
        out = np.matmul(m, data.reshape(pre, 2**k, post))
    return out.reshape(data.shape)


def embed(u, qubits, n_qubits):
    """Dense 2^n x 2^n embedding of a small operator on the given qubits."""
    _check_qubits(qubits, n_qubits)
    eye = np.eye(2**n_qubits, dtype=complex)
    return apply_local(eye, np.asarray(u, dtype=complex), row_axes(qubits, n_qubits))


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
    DensityMatrix, for a bound (fully resolved) gate."""
    _check_qubits(gate.qubits, state.n_qubits)
    u = gate.matrix()
    out = apply_local(state.data, u, row_axes(gate.qubits, state.n_qubits))
    if isinstance(state, StateVector):
        return StateVector(state.n_qubits, out)
    out = apply_local(out, u.conj(), col_axes(gate.qubits, state.n_qubits))
    return DensityMatrix(state.n_qubits, out)
