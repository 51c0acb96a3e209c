"""Shared fixtures: bundled H2 problem, optimized parameters, kron oracles."""

import json

import numpy as np
import pytest
from scipy import sparse

import qemsim as q
from qemsim import noise

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_embed(op, qubit, n):
    """Independent little-endian embedding oracle (qubit 0 = LSB)."""
    full = np.array([[1.0 + 0j]])
    for j in range(n - 1, -1, -1):
        full = np.kron(full, op if j == qubit else I2)
    return full


def kron_embed_multi(m, qubits, n):
    """Independent embedding of a 2^k x 2^k matrix, qubits[0] its
    most-significant bit, as a sum of products of elementary |i><j| krons."""
    k = len(qubits)
    full = np.zeros((2**n, 2**n), dtype=complex)
    for row in range(2**k):
        for col in range(2**k):
            term = np.eye(2**n, dtype=complex)
            for b, qubit in enumerate(qubits):
                unit = np.zeros((2, 2), dtype=complex)
                unit[(row >> (k - 1 - b)) & 1, (col >> (k - 1 - b)) & 1] = 1
                term = term @ kron_embed(unit, qubit, n)
            full += m[row, col] * term
    return full


def pauli_string_dense(ps, n):
    """Independent dense matrix of a PauliString via explicit krons."""
    full = np.eye(2**n, dtype=complex)
    for qubit, letter in ps.ops:
        full = full @ kron_embed(PAULI[letter], qubit, n)
    return full


def pauli_sum_dense(psum):
    out = np.zeros((2**psum.n_qubits,) * 2, dtype=complex)
    for coeff, ps in psum.terms:
        out += coeff * pauli_string_dense(ps, psum.n_qubits)
    return out


SIGMA = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
SIGMA_DAG = SIGMA.conj().T


def dense_collapse_ops(term, n):
    """Independent (rate, 2^n x 2^n collapse matrix) pairs of a LindbladTerm."""
    a = term.qubits[0]
    if term.kind == "amplitude_damping":
        return [(term.rate, kron_embed(SIGMA, a, n))]
    if term.kind == "dephasing":
        return [(term.rate, kron_embed(SIGMA_DAG @ SIGMA, a, n))]
    if term.kind == "thermal":
        return [
            (term.rate * (term.n_th + 1.0), kron_embed(SIGMA, a, n)),
            (term.rate * term.n_th, kron_embed(SIGMA_DAG, a, n)),
        ]
    b = term.qubits[1]
    return [
        (term.rate, kron_embed(SIGMA_DAG, a, n) @ kron_embed(SIGMA, b, n)),
        (term.rate, kron_embed(SIGMA, a, n) @ kron_embed(SIGMA_DAG, b, n)),
    ]


def dense_liouvillian(model, n):
    """Independent full-register oracle L, vec(drho/dt) = L vec(rho) with
    row-major vec, so vec(A rho B) = kron(A, B^T) vec(rho).  Sparse: at
    n = 6 the 4096 x 4096 dense matrix takes seconds to build and apply."""
    dim = 2**n
    eye = sparse.identity(dim, dtype=complex, format="csr")
    lmat = sparse.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for term in model.terms:
        for rate, c in dense_collapse_ops(term, n):
            cdc = sparse.csr_matrix(c.conj().T @ c)
            c = sparse.csr_matrix(c)
            lmat += rate * (
                sparse.kron(c, c.conj())
                - 0.5 * sparse.kron(cdc, eye)
                - 0.5 * sparse.kron(eye, cdc.T)
            )
    return lmat


def paired_superop(superop):
    """Independent reorder of a 4^k x 4^k superoperator from Havel order
    (k row bits, then k column bits, qubits[0] first) to the qubit-paired
    order of its k qubits (each qubit's row bit, then its column bit)."""
    k = (superop.shape[0].bit_length() - 1) // 2
    pairs = [b for j in range(k) for b in (j, k + j)]
    t = superop.reshape((2,) * (4 * k)).transpose(pairs + [2 * k + b for b in pairs])
    return t.reshape(superop.shape)


def coherence_pattern(k):
    """Independent coherence pattern of each flat index of a paired k-qubit
    superoperator: the index with each population digit (0 or 3) read as
    0, where qubit j's digit is 2 * row bit + column bit, bits 2j + 1 and
    2j of the index."""
    return np.array(
        [
            sum(d << 2 * j for j in range(k) if (d := i >> 2 * j & 3) in (1, 2))
            for i in range(4**k)
        ]
    )


def conjugate(k):
    """Independent conjugate of each flat index of a paired k-qubit
    superoperator: each coherence digit 1 (|0><1|) read as 2 (|1><0|) and
    2 as 1, each population digit kept."""
    swap = {0: 0, 1: 2, 2: 1, 3: 3}
    return np.array(
        [sum(swap[i >> 2 * j & 3] << 2 * j for j in range(k)) for i in range(4**k)]
    )


def dense_rk4(lmat, rho_data, tau, substeps):
    """Classic RK4 of vec' = L vec on the full register, as the oracle."""
    h = tau / substeps
    v = rho_data.reshape(-1)
    for _ in range(substeps):
        k1 = lmat @ v
        k2 = lmat @ (v + 0.5 * h * k1)
        k3 = lmat @ (v + 0.5 * h * k2)
        k4 = lmat @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return v.reshape(rho_data.shape)


def dense_block(terms, cfg):
    """The dense 4^k x 4^k channel matrix of the one noise block of `terms`
    on its k qubits, as a propagator builds it."""
    k = len(noise._support(terms))
    return noise._dense(noise._blocks([terms], cfg), k)[0]


def random_density_matrix(n, rng):
    dim = 2**n
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    return q.DensityMatrix(n, rho)


def to_debug_json(rho):
    """Row-major dump of a DensityMatrix as nested [re, im] pairs."""
    return json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in rho.data])


def from_debug_json(text):
    data = np.array([[complex(re, im) for re, im in row] for row in json.loads(text)])
    return q.DensityMatrix(int(np.log2(data.shape[0]) + 0.5), data)


@pytest.fixture(scope="session")
def h2_hamiltonian():
    return q.parse_pauli_sum(q.bundled_text("h2"))


@pytest.fixture(scope="session")
def h2_ground_energy(h2_hamiltonian):
    """Independent dense eigensolve of the bundled file (oracle)."""
    return float(np.linalg.eigvalsh(pauli_sum_dense(h2_hamiltonian))[0])


@pytest.fixture(scope="session")
def h2_uccsd_circuit():
    spec, n = q.parse_ansatz_file(q.bundled_text("h2_uccsd"))
    return q.build_ansatz(spec, n)


@pytest.fixture(scope="session")
def h2_vqe_result(h2_hamiltonian, h2_uccsd_circuit):
    problem = q.VqeProblem(h2_hamiltonian, h2_uccsd_circuit)
    return q.solve_vqe(problem, q.OptimizerSettings(max_evals=2000, seed=3))

@pytest.fixture(scope="session")
def h2_bound_circuit(h2_uccsd_circuit, h2_vqe_result):
    return q.bind(h2_uccsd_circuit, h2_vqe_result.theta_opt)
