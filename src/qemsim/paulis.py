"""Pauli-string observables: parsing, expectation values, exact diagonalization.

A PauliSum with real coefficients represents a Hermitian observable such
as a molecular Hamiltonian.  A string P maps basis state |j> to
phi_j |j ^ flip>, flip its X/Y qubits and phi_j its Y/Z phases, so the
strings of a sum are grouped by X/Y mask, once per PauliSum, into one
diagonal d per mask: A|j> = sum over masks of d[j] |j ^ flip>.
Expectation values Tr(rho A) = sum over masks of sum_j d[j] rho[j, j ^ flip]
use index/bit arithmetic, never materializing A as a dense matrix.

Both data files, observables here and ansatz generators in `circuit`,
are read by one reader per kind of token: `read_count` (a count or index
in ASCII digits), `read_number` (a finite number) and `read_term` (a
"<number> <Pauli string>" line on the declared register); each refusal
is a `PauliParseError` naming its line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PauliParseError
from .state import check_cap, check_count, check_qubits, check_real

_PAULI_LETTERS = ("X", "Y", "Z")


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis; identity on unlisted qubits."""

    ops: tuple[tuple[int, str], ...]  # sorted (qubit, letter) pairs

    def __init__(self, ops):
        pairs = list(ops.items() if isinstance(ops, dict) else map(tuple, ops))
        qubits = check_qubits("Pauli string", [q for q, _ in pairs])
        for _, letter in pairs:
            if letter not in _PAULI_LETTERS:
                raise ValueError(f"unknown Pauli letter {letter!r}")
        object.__setattr__(self, "ops", tuple(sorted(zip(qubits, (letter for _, letter in pairs)))))

    def is_identity(self) -> bool:
        return not self.ops

    def max_qubit(self) -> int:
        return max((q for q, _ in self.ops), default=-1)

    def masks(self) -> tuple[int, int, int]:
        """(flip, y, z) bit masks: flip = X|Y qubits, y = Y qubits, z = Z qubits."""
        flip = y = z = 0
        for q, letter in self.ops:
            if letter in ("X", "Y"):
                flip |= 1 << q
            if letter == "Y":
                y |= 1 << q
            if letter == "Z":
                z |= 1 << q
        return flip, y, z

    def __str__(self) -> str:
        if not self.ops:
            return "I"
        return " ".join(f"{letter}{q}" for q, letter in self.ops)


@dataclass(frozen=True)
class PauliSum:
    """Real-weighted sum of Pauli strings on a fixed qubit register."""

    terms: tuple[tuple[float, PauliString], ...]
    n_qubits: int

    def __init__(self, terms, n_qubits):
        check_count("n_qubits", n_qubits, 1)
        terms = tuple((float(check_real("coefficient", c)), p) for c, p in terms)
        for _, p in terms:
            if p.max_qubit() >= n_qubits:
                raise ValueError(
                    f"string {p} exceeds declared qubit count {n_qubits}"
                )
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "n_qubits", int(n_qubits))

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def _by_flip(self) -> tuple[tuple[int, np.ndarray], ...]:
        """(flip, d) per distinct X/Y flip mask, with A|j> the sum of
        d[j] |j ^ flip>; built at the first use of the sum."""
        idx = np.arange(2**self.n_qubits)
        table = {}
        for coeff, ps in self.terms:
            flip, ymask, zmask = ps.masks()
            signs = 1.0 - 2.0 * (np.bitwise_count(idx & (ymask | zmask)) & 1)
            phases = coeff * 1j ** ymask.bit_count() * signs
            table[flip] = table.get(flip, 0) + phases
        return tuple(table.items())


def expectation(state, a: PauliSum) -> float:
    """Tr(rho A) of a DensityMatrix, <psi|A|psi> of a StateVector, one
    sum per X/Y mask of A; refuses a total that is not finite or not real."""
    if state.n_qubits != a.n_qubits:
        raise ValueError(
            f"qubit-count mismatch: state has {state.n_qubits}, observable {a.n_qubits}"
        )
    data = state.data
    idx = np.arange(len(data))
    total = 0.0 + 0.0j
    for flip, d in a._by_flip:
        # rho[j, j ^ flip], which is psi[j] conj(psi[j ^ flip]) when rho is pure
        if data.ndim == 1:
            entries = data * data[idx ^ flip].conj()
        else:
            entries = data[idx, idx ^ flip]
        total += np.sum(d * entries)
    if not np.isfinite(total):
        raise ValueError(f"expectation is not finite: {total}")
    if not abs(total.imag) <= 1e-9:
        raise ValueError(f"expectation has imaginary part {total.imag:g}")
    return float(total.real)


def dense_matrix(a: PauliSum) -> np.ndarray:
    """Dense 2^n x 2^n Hermitian matrix of the sum (oracle-scale only)."""
    check_cap(a.n_qubits)
    dim = 2**a.n_qubits
    idx = np.arange(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for flip, d in a._by_flip:
        out[idx ^ flip, idx] = d
    return out


def exact_ground_energy(h: PauliSum) -> float:
    """Smallest eigenvalue of the dense matrix of h."""
    return float(np.linalg.eigvalsh(dense_matrix(h))[0])


def read_count(token: str, line_no, bad: str, below=None, what="qubit index") -> int:
    """The one reader of an index or count token: ASCII digits alone
    (`str.isdigit` also passes '²', which `int` refuses), else `bad`;
    with `below`, an index at or past it is refused too."""
    if not (token.isascii() and token.isdigit()):
        raise PauliParseError(bad, line_no)
    if below is not None and int(token) >= below:
        raise PauliParseError(f"{what} exceeds declared count {below}", line_no)
    return int(token)


def read_number(token: str, line_no, what: str) -> float:
    """The one reader of a number token: a finite float, `what` in its refusals."""
    try:
        value = float(token)
    except ValueError:
        raise PauliParseError(f"bad {what} {token!r}", line_no) from None
    if not math.isfinite(value):
        raise PauliParseError(f"{what} must be finite, got {token!r}", line_no)
    return value


def read_term(tokens, line_no, n_qubits: int, what: str) -> tuple[float, PauliString]:
    """The one reader of a "<number> <Pauli string>" line, split into
    `tokens`: a finite number (`what` in its refusals), then "<P><idx>"
    tokens on the declared `n_qubits`, or a bare "I" for the identity."""
    if len(tokens) < 2:
        raise PauliParseError(f"expected a {what} and a Pauli string", line_no)
    number, letters = read_number(tokens[0], line_no, what), tokens[1:]
    if len(letters) == 1 and letters[0].upper() == "I":
        return number, PauliString(())
    pairs = []
    for token in letters:
        if token.upper() == "I":
            raise PauliParseError("bare 'I' must stand alone as the identity string", line_no)
        index = read_count(token[1:], line_no, f"bad Pauli token {token!r}", n_qubits)
        pairs.append((index, token[0].upper()))
    try:  # PauliString refuses an unknown letter or a repeated qubit
        return number, PauliString(pairs)
    except ValueError as exc:
        raise PauliParseError(str(exc), line_no) from exc


def _content_lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def _header(lines, key: str, least: int) -> int:
    """N of a "<key> N" header, the next of the content `lines`; N must be
    at least `least`."""
    line_no, line = next(lines, (None, None))
    if line is None:
        raise PauliParseError(f"expected '{key} N' header, got end of file")
    parts = line.split()
    bad = f"expected '{key} N' header, got {line!r}"
    if len(parts) != 2 or parts[0].lower() != key:
        raise PauliParseError(bad, line_no)
    n = read_count(parts[1], line_no, bad)
    if n < least:
        raise PauliParseError(f"'{key}' must be at least {least}, got {n}", line_no)
    return n


def parse_pauli_sum(text: str) -> PauliSum:
    """Parse the observable file format.

    First non-comment line: "qubits N".  Each following line:
    "<coeff> <P><idx> [<P><idx> ...]", with a bare "I" for the identity
    string; "#" starts a comment.
    """
    lines = _content_lines(text)
    n_qubits = _header(lines, "qubits", 1)
    terms = [read_term(line.split(), line_no, n_qubits, "coefficient") for line_no, line in lines]
    return PauliSum(terms, n_qubits)
