"""Property tests: the local-operator kernel against the kron oracle, and
block channels on random models."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qemsim as q
from qemsim.noise import KINDS, IntervalPropagator
from qemsim.state import apply_local, col_axes, doubled_axes, row_axes

from conftest import kron_embed_multi


def random_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


@st.composite
def kernel_cases(draw):
    """(n, register, qubits, seed): qubits of the n-qubit register, or of
    the 2n-qubit doubled register (kept to n <= 3 for the oracle's size)."""
    register = draw(st.sampled_from(["rows", "cols", "doubled"]))
    n = draw(st.integers(1, 3 if register == "doubled" else 5))
    width = n if register != "doubled" else 2 * n
    k = draw(st.integers(1, min(3, width)))
    qubits = tuple(draw(st.permutations(range(width)))[:k])
    return n, register, qubits, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
@example((5, "rows", (4, 0), 0))
@example((5, "cols", (4, 0), 1))
@example((4, "rows", (3, 2, 1), 2))
@example((4, "cols", (1, 2, 3), 3))
@example((2, "doubled", (3, 0), 4))
@example((3, "doubled", (5, 4, 3), 5))
def test_kernel_matches_kron_oracle(case):
    n, register, qubits, seed = case
    rng = np.random.default_rng(seed)
    rho = random_matrix(rng, 2**n)
    m = random_matrix(rng, 2 ** len(qubits))
    if register == "rows":
        got = apply_local(rho, m, row_axes(qubits, n))
        want = kron_embed_multi(m, qubits, n) @ rho
    elif register == "cols":
        got = apply_local(rho, m, col_axes(qubits, n))
        want = rho @ kron_embed_multi(m, qubits, n).T
    else:
        # doubled-register qubit j is tensor axis 2n-1-j of rho's view
        got = apply_local(rho, m, [2 * n - 1 - j for j in qubits])
        want = (kron_embed_multi(m, qubits, 2 * n) @ rho.reshape(-1)).reshape(rho.shape)
    assert got.shape == rho.shape
    assert np.max(np.abs(got - want)) < 1e-12


def test_doubled_axes_are_rows_then_columns():
    assert doubled_axes((4, 0), 5) == [0, 4, 5, 9]


@st.composite
def noise_models(draw):
    # up to five qubits, so a connected model can exceed the precomputed width
    n = draw(st.integers(2, 5))
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(KINDS))
        width = 2 if kind == "correlated" else 1
        qubits = tuple(draw(st.permutations(range(n)))[:width])
        rate = draw(st.floats(0.0, 0.01))
        n_th = draw(st.floats(0.0, 1.0)) if kind == "thermal" else None
        terms.append(q.LindbladTerm(kind, qubits, rate, n_th))
    return n, q.NoiseModel(tuple(terms))


@settings(max_examples=60, deadline=None)
@given(noise_models(), st.integers(0, 2**32 - 1))
def test_block_channels_trace_preserving_and_positive(case, seed):
    # An RK4 step is exp(hL) only to O((h*rate)^5), and so is positivity
    # (see the xfail test below).  Rates up to 0.01 at the default 64
    # substeps (the sweeps stop at 10^-2.5) keep that far below 1e-12.
    n, model = case
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi /= np.linalg.norm(psi)
    rho = q.DensityMatrix(n, np.outer(psi, psi.conj()))
    propagator = IntervalPropagator(model, n, q.PropagatorConfig())
    for block in propagator.blocks:
        out = q.DensityMatrix(n, block.apply(rho.data, n))
        assert abs(out.trace() - 1.0) < 1e-12
        assert out.hermiticity_defect() < 1e-12
        assert out.min_eigenvalue() >= -1e-12


@pytest.mark.xfail(
    strict=True,
    reason="RK4 interval channels are not completely positive: the degree-4 "
    "Taylor polynomial of h*L for a block that joins two damped qubits has a "
    "negative Choi eigenvalue, and nothing checks it",
)
def test_block_channel_positive_on_entangled_input():
    # Amplitude damping on qubits 0 and 1, joined into one block by a
    # near-zero exchange term, at h * rate = 0.5 (the stability guard
    # accepts it).  Qubits 0, 1 start maximally entangled with qubits 2, 3,
    # so the output is the block channel's Choi matrix over 4: its lowest
    # eigenvalue is -6.8e-4 at substeps=1, -6.7e-8 at 8, -1.2e-12 at 64.
    model = q.NoiseModel(
        (
            q.LindbladTerm("amplitude_damping", (0,), 0.5),
            q.LindbladTerm("amplitude_damping", (1,), 0.5),
            q.LindbladTerm("correlated", (0, 1), 1e-9),
        )
    )
    psi = np.zeros(16, dtype=complex)
    psi[[0, 5, 10, 15]] = 0.5
    rho = q.DensityMatrix(4, np.outer(psi, psi.conj()))
    out = q.evolve(rho, model, q.PropagatorConfig(tau=1.0, substeps=1))
    assert abs(out.trace() - 1.0) < 1e-12
    assert out.min_eigenvalue() >= -1e-12
