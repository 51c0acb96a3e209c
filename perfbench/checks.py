"""Output checks for the benchmark, run after the timed region.

The oracles here are written independently of qemsim: gates are rebuilt
from their (kind, qubits, angle) fields as cos(a/2) I - i sin(a/2) P,
noise models are rebuilt from the template definitions, noisy values come
from an exact exponential of the Lindblad generator (dense
scipy.linalg.expm up to DENSE_MAX_QUBITS, sparse expm_multiply above), and
noiseless values from a statevector.  Only the input data structures
(bound gate lists, Pauli terms, ansatz parameter slots) are shared with
the library.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

ORACLE_TOL = 1e-8  # simulator (RK4 between gates) vs exact exponential
EXACT_TOL = 1e-12  # identities and the recorded reference values
DENSE_MAX_QUBITS = 4

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
_RAISE = _LOWER.T.copy()
_FIXED = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "X": PAULI["X"],
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
}


def gate_matrix(kind: str, angle) -> np.ndarray:
    """Small gate matrix; the first listed qubit is the most significant."""
    if kind in _FIXED:
        return _FIXED[kind]
    pauli = PAULI[kind[1].upper()]  # Rx, Ry, Rz
    return np.cos(angle / 2) * np.eye(2) - 1j * np.sin(angle / 2) * pauli


def bind_gates(ansatz, theta) -> list[tuple[str, tuple[int, ...], float | None]]:
    """(kind, qubits, angle) of each ansatz gate at the parameters theta."""
    out = []
    for g in ansatz.gates:
        p = g.param
        if p is None or isinstance(p, (int, float)):
            angle = p
        else:
            angle = p.prefactor * float(theta[p.index])
        out.append((g.kind, tuple(g.qubits), angle))
    return out


def circuit_gates(bound_circuit) -> list[tuple[str, tuple[int, ...], float | None]]:
    return [(g.kind, tuple(g.qubits), g.angle) for g in bound_circuit.gates]


# ---------------------------------------------------------------------------
# Little-endian index helpers: qubit q is bit q of a basis index.


def _sub_index(idx: np.ndarray, qubits) -> np.ndarray:
    """Bits of `qubits` in each index, qubits[0] as the most significant."""
    out = np.zeros_like(idx)
    for q in qubits:
        out = (out << 1) | ((idx >> q) & 1)
    return out


def _deposit(value: int, qubits) -> int:
    k = len(qubits)
    return sum(((value >> (k - 1 - j)) & 1) << q for j, q in enumerate(qubits))


def _mask(qubits) -> int:
    return sum(1 << q for q in qubits)


def embed(op: np.ndarray, qubits, n: int) -> np.ndarray:
    """Dense 2^n x 2^n operator acting as `op` on `qubits`."""
    idx = np.arange(2**n)
    sub = _sub_index(idx, qubits)
    rest = idx & ~_mask(qubits)
    same_rest = rest[:, None] == rest[None, :]
    return np.where(same_rest, op[sub[:, None], sub[None, :]], 0)


def apply_to_vector(psi: np.ndarray, op: np.ndarray, qubits) -> np.ndarray:
    idx = np.arange(psi.size)
    sub = _sub_index(idx, qubits)
    rest = idx & ~_mask(qubits)
    out = np.zeros_like(psi)
    for s in range(op.shape[1]):
        out += op[sub, s] * psi[rest | _deposit(s, qubits)]
    return out


# ---------------------------------------------------------------------------
# Noiseless oracle: statevector.


def statevector_value(gates, observable, n: int) -> float:
    """<psi|A|psi> with psi = G_last ... G_1 |0...0>."""
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    for kind, qubits, angle in gates:
        psi = apply_to_vector(psi, gate_matrix(kind, angle), qubits)
    total = 0.0
    for coeff, ps in observable.terms:
        phi = psi
        for q, letter in ps.ops:
            phi = apply_to_vector(phi, PAULI[letter], (q,))
        total += coeff * np.vdot(psi, phi)
    return float(np.real(total))


# ---------------------------------------------------------------------------
# Noisy oracle: exact exponential of the Lindblad generator between gates.
# A term is (kind, qubits, rate, n_th), as in the qemsim noise templates.


def template_terms(template: str, n: int, rate: float, n_th: float = 0.5) -> list:
    if template == "gamma1_gamma2":
        return [("amplitude_damping", (q,), rate, None) for q in range(n)] + [
            ("dephasing", (q,), rate, None) for q in range(n)
        ]
    if template == "thermal":
        return [("thermal", (q,), rate, n_th) for q in range(n)]
    if template == "correlated":
        return [("correlated", (q, (q + 1) % n), rate, None) for q in range(n)]
    raise ValueError(f"no oracle for template {template!r}")


def _collapse_ops(term):
    kind, qubits, rate, n_th = term
    if kind == "amplitude_damping":
        return [(rate, _LOWER)]
    if kind == "dephasing":
        return [(rate, _RAISE @ _LOWER)]
    if kind == "thermal":
        return [(rate * (n_th + 1.0), _LOWER), (rate * n_th, _RAISE)]
    if kind == "correlated":  # excitation exchange, both directions
        return [(rate, np.kron(_RAISE, _LOWER)), (rate, np.kron(_LOWER, _RAISE))]
    raise ValueError(f"no oracle for noise kind {kind!r}")


def liouvillian(terms, n: int) -> scipy.sparse.csr_matrix:
    """Sparse L with vec(d rho/dt) = L vec(rho), row-major vec:
    vec(A rho B) = (A kron B^T) vec(rho)."""
    dim = 2**n
    eye = scipy.sparse.identity(dim, dtype=complex, format="csr")
    out = scipy.sparse.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for term in terms:
        for rate, small in _collapse_ops(term):
            c = scipy.sparse.csr_matrix(embed(small, term[1], n))
            cdc = (c.conj().T @ c).tocsr()
            out = out + rate * (
                scipy.sparse.kron(c, c.conj())
                - 0.5 * scipy.sparse.kron(cdc, eye)
                - 0.5 * scipy.sparse.kron(eye, cdc.T)
            )
    return out.tocsr()


def observable_matrix(observable, n: int) -> np.ndarray:
    out = np.zeros((2**n, 2**n), dtype=complex)
    for coeff, ps in observable.terms:
        term = np.eye(2**n, dtype=complex)
        for q, letter in ps.ops:
            term = term @ embed(PAULI[letter], (q,), n)
        out += coeff * term
    return out


class NoisyOracle:
    """Tr(rho A) after gate jumps with exp(tau L) between consecutive gates."""

    def __init__(self, observable, n: int, tau: float):
        self.n = n
        self.tau = tau
        self.obs = observable_matrix(observable, n)

    def interval(self, terms):
        """Function applying exp(tau L) to a row-major vec(rho)."""
        gen = self.tau * liouvillian(terms, self.n)
        if self.n <= DENSE_MAX_QUBITS:
            prop = scipy.linalg.expm(gen.toarray())
            return lambda v: prop @ v
        return lambda v: scipy.sparse.linalg.expm_multiply(gen, v)

    def unitaries(self, gates):
        return [embed(gate_matrix(kind, a), qubits, self.n) for kind, qubits, a in gates]

    def value(self, unitaries, interval) -> float:
        dim = 2**self.n
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        last = len(unitaries) - 1
        for i, u in enumerate(unitaries):
            rho = u @ rho @ u.conj().T
            if i != last:
                rho = interval(rho.reshape(-1)).reshape(dim, dim)
        return float(np.real(np.sum(rho * self.obs.T)))


# ---------------------------------------------------------------------------
# Report checks.  Each returns a list of failure messages (empty when good).


def expected_groups(terms, n: int):
    """Per-qubit removal groups: (label, weight, terms left after removal).

    Every oracle template has one multiplicity m (qubits per term), so each
    qubit's group carries weight 1/m.
    """
    sizes = {len(t[1]) for t in terms}
    if len(sizes) != 1:
        raise ValueError("oracle groups assume one term multiplicity per model")
    weight = 1.0 / sizes.pop()
    return [
        (f"q{q}", weight, [t for t in terms if q not in t[1]]) for q in range(n)
    ]


def identity_failures(report) -> list[str]:
    """a_corrected must equal <A> - sum_i w_i (<A> - <A_i>) from stored fields."""
    rebuilt = report.a_noisy - sum(
        w * (report.a_noisy - v) for _, v, w in report.a_removed
    )
    err = abs(report.a_corrected - rebuilt)
    if not err <= EXACT_TOL:
        return [f"correction identity off by {err:.3g}"]
    return []


def close(label: str, got: float, want: float, tol: float) -> list[str]:
    err = abs(got - want)
    if not err <= tol:  # also catches NaN
        return [f"{label}: got {got!r}, oracle {want!r}, |diff| {err:.3g} > {tol:g}"]
    return []


def report_failures(report, noisy_values, ideal_value, groups) -> list[str]:
    """Compare a CorrectionReport with oracle values for the full model
    (noisy_values[0]) and each removal group (noisy_values[1:])."""
    bad = []
    got = [(label, w) for label, _, w in report.a_removed]
    want = [(label, w) for label, w, _ in groups]
    if got != want:
        return [f"removal groups {got} != expected {want}"]
    bad += close("a_noisy", report.a_noisy, noisy_values[0], ORACLE_TOL)
    for (label, value, _), oracle in zip(report.a_removed, noisy_values[1:]):
        bad += close(f"<A_{label}>", value, oracle, ORACLE_TOL)
    bad += close("a_ideal", report.a_ideal, ideal_value, ORACLE_TOL)
    return bad + identity_failures(report)


def reference_failures(values: dict, reference: dict) -> list[str]:
    """Compare named value lists with the recorded reference values."""
    bad = []
    for key, want in reference.items():
        got = values.get(key, [])
        if len(got) != len(want):
            bad.append(f"reference {key}: {len(got)} values, expected {len(want)}")
            continue
        for i, (g, w) in enumerate(zip(got, want)):
            bad += close(f"reference {key}[{i}]", g, w, EXACT_TOL)
    return bad
