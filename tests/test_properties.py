"""Property tests: the local-operator kernel and the qubit-paired layout
against the kron oracle, block channels and noisy runs on random models,
the state-vector path against the density matrix, and the invariants of
the correction estimator."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qemsim as q
from qemsim import noise
from qemsim.circuit import Param
from qemsim.mitigation import build_groups, corrected_value
from qemsim.noise import KINDS, IntervalPropagator, build_template_model, scale_terms
from qemsim.state import LocalOp, PairedDensity, pair, paired_axes, unpair

from conftest import (
    coherence_pattern,
    conjugate,
    dense_block,
    dense_liouvillian,
    dense_rk4,
    kron_embed_multi,
    paired_superop,
    random_density_matrix,
)


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
    # in rho's (2,)*2n view qubit j's row bit is axis n-1-j, its column
    # bit axis 2n-1-j
    if register == "rows":
        got = LocalOp(m, [n - 1 - j for j in qubits], 2 * n)(rho)
        want = kron_embed_multi(m, qubits, n) @ rho
    elif register == "cols":
        got = LocalOp(m, [2 * n - 1 - j for j in qubits], 2 * n)(rho)
        want = rho @ kron_embed_multi(m, qubits, n).T
    else:
        # doubled-register qubit j is tensor axis 2n-1-j of rho's view
        got = LocalOp(m, [2 * n - 1 - j for j in qubits], 2 * n)(rho)
        want = (kron_embed_multi(m, qubits, 2 * n) @ rho.reshape(-1)).reshape(rho.shape)
    assert got.shape == rho.shape
    assert np.max(np.abs(got - want)) < 1e-12


def test_paired_axes_interleave_rows_and_columns():
    assert paired_axes((4, 0), 5) == [0, 1, 8, 9]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_pair_then_unpair_is_the_identity(n, seed):
    rho = q.DensityMatrix(n, random_matrix(np.random.default_rng(seed), 2**n))
    paired = pair(rho)
    assert paired.data.shape == (4**n,)
    assert np.array_equal(unpair(paired).data, rho.data)
    # the paired diagonal is rho's diagonal
    assert paired.trace() == pytest.approx(np.trace(rho.data), abs=1e-12)


class UnitaryGate:
    """A gate of a given matrix, as apply_gate reads a bound gate."""

    def __init__(self, u, qubits):
        self.u, self.qubits = u, qubits

    def matrix(self):
        return self.u


@st.composite
def gate_cases(draw):
    """(n, qubits, seed) of a random 1- or 2-qubit gate, in any order."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, min(2, n)))
    qubits = tuple(draw(st.permutations(range(n)))[:k])
    return n, qubits, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(gate_cases())
@example((5, (4, 0), 0))
@example((5, (0, 4), 1))
@example((4, (1, 0), 2))
@example((4, (2, 3), 3))
@example((3, (2, 0), 4))
def test_paired_gate_matches_kron_oracle(case):
    n, qubits, seed = case
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(random_matrix(rng, 2 ** len(qubits)))
    rho = random_matrix(rng, 2**n)
    got = q.apply_gate(pair(q.DensityMatrix(n, rho)), UnitaryGate(u, qubits))
    assert isinstance(got, PairedDensity)
    full = kron_embed_multi(u, qubits, n)
    want = full @ rho @ full.conj().T
    assert np.max(np.abs(unpair(got).data - want)) < 1e-12


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
    propagator = IntervalPropagator([model], n, q.PropagatorConfig())
    # each layer of wider blocks, and each stack entry of the product pass
    # on its qubits
    channels = propagator.layers + [
        LocalOp(stack[0].T, paired_axes(qubits, n), 2 * n) for qubits, stack in propagator.stacks
    ]
    for kernel in channels:
        out = unpair(PairedDensity(n, kernel(pair(rho).data[None])[0]))
        assert abs(out.trace() - 1.0) < 1e-12
        assert np.max(np.abs(out.data - out.data.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(out.data)[0] >= -1e-12


@st.composite
def dense_blocks(draw):
    """(k, terms, substeps): terms of every kind on qubits 0..k-1, each
    qubit touched, zero rates included, so `dense_block` builds one dense block
    whose register is the whole k-qubit register."""
    k = draw(st.integers(1, 4))
    kinds = KINDS if k > 1 else tuple(x for x in KINDS if x != "correlated")
    rates = st.just(0.0) | st.floats(0.0, 0.05)
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        width = 2 if kind == "correlated" else 1
        qubits = tuple(draw(st.permutations(range(k)))[:width])
        n_th = draw(st.floats(0.0, 1.0)) if kind == "thermal" else None
        terms.append(q.LindbladTerm(kind, qubits, draw(rates), n_th))
    touched = {j for t in terms for j in t.qubits}
    terms += [
        q.LindbladTerm("dephasing", (j,), draw(rates)) for j in range(k) if j not in touched
    ]
    return k, tuple(terms), draw(st.sampled_from([1, 8, 64]))


def check_sector_build(terms, k, substeps, lmat):
    """`dense_block` of terms on k qubits against the full-matrix oracle: the
    RK4 step of their Havel-order Liouvillian lmat, to the power substeps.
    The build does each class of coherence patterns alone, exact because
    the oracle keeps every entry between patterns at exactly 0 and is the
    same on a pattern and its conjugate."""
    cfg = q.PropagatorConfig(substeps=substeps)
    hl = cfg.tau / substeps * paired_superop(lmat)
    want = noise._power_step(hl, substeps)
    pattern, flip = coherence_pattern(k), conjugate(k)
    assert np.all(want[pattern[:, None] != pattern[None, :]] == 0)
    assert np.max(np.abs(want[np.ix_(flip, flip)] - want)) < 1e-15
    got = dense_block(terms, cfg)
    assert np.max(np.abs(got - want)) < 1e-13


@settings(max_examples=40, deadline=None)
@given(dense_blocks())
@example((4, tuple(build_template_model("correlated", 4, 10**-2.5).terms), 64))
def test_sector_build_matches_full_matrix_oracle(case):
    k, terms, substeps = case
    check_sector_build(terms, k, substeps, dense_liouvillian(q.NoiseModel(terms), k).toarray())


class StubTerm:
    """A noise term as `dense_block` reads it: its qubits and its collapse ops,
    here any (rate, a, b) triples, not only those of the four kinds."""

    def __init__(self, qubits, ops):
        self.qubits, self.ops = qubits, ops

    def collapse_ops(self):
        return self.ops


@st.composite
def single_entry_blocks(draw):
    """(k, terms, substeps): stub terms of width 1-2 on qubits 0..k-1, each
    with 1-2 arbitrary collapse ops |a><b|, and dephasing on every qubit no
    term touches, so `dense_block` builds one dense block on the k qubits."""
    k = draw(st.integers(1, 3))
    rates = st.just(0.0) | st.floats(0.0, 0.05)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        width = draw(st.integers(1, min(2, k)))
        qubits = tuple(draw(st.permutations(range(k)))[:width])
        basis = st.integers(0, 2**width - 1)
        ops = draw(st.lists(st.tuples(rates, basis, basis), min_size=1, max_size=2))
        terms.append(StubTerm(qubits, ops))
    touched = {j for t in terms for j in t.qubits}
    terms += [StubTerm((j,), [(draw(rates), 1, 1)]) for j in range(k) if j not in touched]
    return k, tuple(terms), draw(st.sampled_from([1, 8, 64]))


@settings(max_examples=60, deadline=None)
@given(single_entry_blocks())
@example((2, (StubTerm((0, 1), [(0.05, 3, 0), (0.02, 1, 2)]),), 8))
@example((3, (StubTerm((2, 0), [(0.04, 2, 1)]), StubTerm((1,), [(0.03, 0, 0)])), 64))
def test_any_single_entry_op_keeps_the_sector_build_exact(case):
    # The sector build needs only the (rate, a, b) format, for any collapse
    # ops |a><b| and not just those of the four kinds.
    k, terms, substeps = case
    eye = np.eye(2**k, dtype=complex)
    lmat = np.zeros((4**k, 4**k), dtype=complex)
    for term in terms:
        for rate, a, b in term.collapse_ops():
            unit = np.zeros((2 ** len(term.qubits),) * 2, dtype=complex)
            unit[a, b] = 1.0
            c = kron_embed_multi(unit, term.qubits, k)
            cdc = c.conj().T @ c
            lmat += rate * (
                np.kron(c, c.conj()) - 0.5 * np.kron(cdc, eye) - 0.5 * np.kron(eye, cdc.T)
            )
    check_sector_build(terms, k, substeps, lmat)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
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
    assert np.linalg.eigvalsh(out.data)[0] >= -1e-12


GATE_KINDS = ("H", "X", "CNOT", "Rx", "Ry", "Rz")


@st.composite
def circuits(draw, min_qubits=1, max_qubits=5):
    n = draw(st.integers(min_qubits, max_qubits))
    kinds = GATE_KINDS if n > 1 else tuple(k for k in GATE_KINDS if k != "CNOT")
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        width = 2 if kind == "CNOT" else 1
        qubits = tuple(draw(st.permutations(range(n)))[:width])
        angle = draw(st.floats(-np.pi, np.pi)) if kind[0] == "R" else None
        gates.append(q.BoundGate(kind, qubits, angle))
    return q.BoundCircuit(n, tuple(gates))


def bound_from_circuit(circuit):
    """The same gates as the binding of a `Circuit` of fixed gates alone,
    whose noisy runs compose their fixed runs (see `noise`)."""
    gates = tuple(q.Gate(g.kind, g.qubits, g.angle) for g in circuit.gates)
    return q.bind(q.Circuit(circuit.n_qubits, gates, 0), [])


@st.composite
def pauli_sums(draw, n):
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        qubits = draw(st.permutations(range(n)))[: draw(st.integers(0, n))]
        ops = {qb: draw(st.sampled_from("XYZ")) for qb in qubits}
        terms.append((draw(st.floats(-2.0, 2.0)), q.PauliString(ops)))
    return q.PauliSum(terms, n)


@st.composite
def models_on(draw, n, rates):
    kinds = KINDS if n > 1 else tuple(k for k in KINDS if k != "correlated")
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        width = 2 if kind == "correlated" else 1
        qubits = tuple(draw(st.permutations(range(n)))[:width])
        n_th = draw(st.floats(0.0, 1.0)) if kind == "thermal" else None
        terms.append(q.LindbladTerm(kind, qubits, draw(rates), n_th))
    return q.NoiseModel(tuple(terms))


@st.composite
def noiseless_cases(draw, allow_empty=True):
    """(circuit, observable, model) with no nonzero-rate term in the model."""
    circuit = draw(circuits())
    n = circuit.n_qubits
    empty = allow_empty and draw(st.booleans())
    model = q.NoiseModel() if empty else draw(models_on(n, st.just(0.0)))
    return circuit, draw(pauli_sums(n)), model


@settings(max_examples=80, deadline=None)
@given(noiseless_cases())
def test_pure_start_matches_density_matrix_without_noise(case):
    circuit, observable, model = case
    n = circuit.n_qubits
    psi = q.run_noisy_circuit(q.new_statevector(n), circuit, model)
    rho = q.run_noisy_circuit(q.new_pure_ground(n), circuit, model)
    assert isinstance(psi, q.StateVector)
    assert isinstance(rho, q.DensityMatrix)
    assert abs(q.expectation(psi, observable) - q.expectation(rho, observable)) < 1e-12


@st.composite
def fusion_cases(draw):
    """(Circuit, theta) on 1-6 qubits: every gate kind, each rotation's
    angle a Param or a literal, and equal gates repeated."""
    n = draw(st.integers(1, 6))
    n_params = draw(st.integers(0, 3))
    kinds = GATE_KINDS if n > 1 else tuple(k for k in GATE_KINDS if k != "CNOT")
    gates = []
    for _ in range(draw(st.integers(0, 24))):
        if gates and draw(st.integers(0, 3)) == 0:
            gates.append(gates[-1])
            continue
        kind = draw(st.sampled_from(kinds))
        qubits = tuple(draw(st.permutations(range(n)))[: 2 if kind == "CNOT" else 1])
        angle = draw(st.floats(-np.pi, np.pi)) if kind[0] == "R" else None
        if angle is not None and n_params and draw(st.booleans()):
            angle = Param(draw(st.integers(0, n_params - 1)), draw(st.sampled_from([1.0, -0.5])))
        gates.append(q.Gate(kind, qubits, angle))
    theta = draw(st.lists(st.floats(-np.pi, np.pi), min_size=n_params, max_size=n_params))
    return q.Circuit(n, tuple(gates), n_params), theta


def every_cnot_case():
    """Param and literal rotations feeding CNOTs both ways on an adjacent
    (0, 1), a non-adjacent (1, 4) and the wrap-around (5, 0) pair of six
    qubits, with equal gates and equal groups repeated."""
    gates = []
    for k, (a, b) in enumerate([(0, 1), (1, 0), (1, 4), (4, 1), (5, 0), (0, 5), (0, 5)]):
        gates += [
            q.Gate("Ry", (a,), Param(k % 3)),
            q.Gate("Rx", (b,), 0.3 * k),
            q.Gate("H", (b,)),
            q.Gate("CNOT", (a, b)),
        ]
    gates += [q.Gate("Rz", (qb,), Param(0, -0.5)) for qb in range(6)] + [q.Gate("X", (3,))] * 2
    return q.Circuit(6, tuple(gates), 3), [0.4, -1.2, 2.0]


@settings(max_examples=150, deadline=None)
@example(every_cnot_case())
@given(fusion_cases())
def test_fused_run_matches_gate_by_gate(case):
    circuit, theta = case
    n = circuit.n_qubits
    bound = q.bind(circuit, theta)
    psi = q.new_statevector(n)
    for gate in bound.gates:
        psi = q.apply_gate(psi, gate)
    fused = q.run_noisy_circuit(q.new_statevector(n), bound, q.NoiseModel())
    assert np.max(np.abs(fused.data - psi.data)) <= 1e-13
    # a bound circuit made directly groups its gates alike and builds its
    # own ops, the same ones
    direct = q.BoundCircuit(n, bound.gates)
    again = q.run_noisy_circuit(q.new_statevector(n), direct, q.NoiseModel())
    assert np.array_equal(again.data, fused.data)


@st.composite
def noisy_cases(draw):
    circuit = draw(circuits())
    rates = st.floats(1e-4, 0.01)
    return circuit, draw(models_on(circuit.n_qubits, rates))


def connected_blocks(model):
    """The nonzero-rate terms grouped by connected qubit support, each
    group as a model of its own."""
    groups = []
    for term in model.terms:
        if term.rate == 0.0:
            continue
        support, members = set(term.qubits), [term]
        for group in [g for g in groups if g[0] & support]:
            groups.remove(group)
            support |= group[0]
            members += group[1]
        groups.append((support, members))
    return [q.NoiseModel(tuple(members)) for _, members in groups]


def dense_noisy_run(circuit, model, cfg):
    """Gates as full 2^n unitaries and each block's interval as RK4 on the
    full register: the blocks commute, so this is the factorized channel."""
    n = circuit.n_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    lmats = [dense_liouvillian(block, n) for block in connected_blocks(model)]
    for i, gate in enumerate(circuit.gates):
        full = kron_embed_multi(gate.matrix(), gate.qubits, n)
        rho = full @ rho @ full.conj().T
        if i != len(circuit.gates) - 1:
            for lmat in lmats:
                rho = dense_rk4(lmat, rho, cfg.tau, cfg.substeps)
    return rho


@st.composite
def wrapped_noisy_cases(draw):
    """A noisy run whose model joins the end qubits, n-1 and 0, whose
    paired axes are the farthest apart."""
    circuit = draw(circuits(min_qubits=2))
    n = circuit.n_qubits
    model = draw(models_on(n, st.floats(1e-4, 0.01)))
    wrap = q.LindbladTerm("correlated", (n - 1, 0), draw(st.floats(1e-4, 0.01)))
    return circuit, q.NoiseModel(model.terms + (wrap,))


_FIVE_QUBIT_CIRCUIT = q.BoundCircuit(
    5,
    (
        q.BoundGate("H", (0,)),
        q.BoundGate("H", (4,)),
        q.BoundGate("CNOT", (0, 1)),
        q.BoundGate("Rx", (2,), 0.3),
        q.BoundGate("CNOT", (4, 0)),
        q.BoundGate("Ry", (3,), 0.7),
        q.BoundGate("H", (2,)),
    ),
)


# (4, 0) alone is a 2-qubit block on non-contiguous axes
_LONE_AND_PAIR = q.NoiseModel(
    (
        q.LindbladTerm("correlated", (4, 0), 0.01),
        q.LindbladTerm("amplitude_damping", (0,), 0.005),
        q.LindbladTerm("thermal", (2,), 0.008, n_th=0.3),
    )
)


@settings(max_examples=30, deadline=None)
@given(wrapped_noisy_cases())
# the 5-qubit ring is one block, its (4, 0) term a non-contiguous part
@example((_FIVE_QUBIT_CIRCUIT, q.build_template_model("correlated", 5, 0.01)))
@example((_FIVE_QUBIT_CIRCUIT, _LONE_AND_PAIR))
# on a binding of a Circuit its first three gates are a fixed run, which
# the 2-qubit block's interval after each gate keeps from composing
@example((bound_from_circuit(_FIVE_QUBIT_CIRCUIT), _LONE_AND_PAIR))
def test_noisy_run_matches_dense_oracle(case):
    circuit, model = case
    cfg = q.PropagatorConfig(substeps=4)
    got = q.run_noisy_circuit(q.new_pure_ground(circuit.n_qubits), circuit, model, cfg)
    want = dense_noisy_run(circuit, model, cfg)
    assert np.max(np.abs(got.data - want)) < 1e-12


@st.composite
def batch_cases(draw):
    """A circuit and the rows of one batch: the full model, its removal
    and scaled rows, a zero-rate row and duplicates, in any order."""
    circuit, model = draw(noisy_cases())
    n = circuit.n_qubits
    rows = [model, scale_terms(model, range(len(model.terms)), 0.0)]
    for group in build_groups(model):
        factor = draw(st.sampled_from([0.0, 2.0]))
        rows.append(scale_terms(model, group.removed_terms, factor))
    rows = draw(st.permutations(rows))
    return circuit, rows + draw(st.lists(st.sampled_from(rows), max_size=2))


_SIX_QUBIT_CIRCUIT = q.BoundCircuit(
    6,
    (
        q.BoundGate("H", (0,)),
        q.BoundGate("CNOT", (0, 3)),
        q.BoundGate("Ry", (5,), 0.9),
        q.BoundGate("CNOT", (4, 1)),
    ),
)


def _chain(n, rate, damping=True):
    terms = tuple(q.LindbladTerm("correlated", (k, k + 1), rate) for k in range(n - 1))
    if damping:
        terms += tuple(
            q.LindbladTerm("amplitude_damping", (k,), rate / 2) for k in range(n)
        )
    return q.NoiseModel(terms)


def _removal_rows(model, n):
    groups = build_groups(model)
    return [model] + [scale_terms(model, g.removed_terms, 0.0) for g in groups]


@settings(max_examples=40, deadline=None)
@given(batch_cases())
# a 4-qubit chain is one block; removing qubit 1 or 2 splits it
@example((_FIVE_QUBIT_CIRCUIT, _removal_rows(_chain(4, 0.01), 5)))
# a 6-qubit chain is one block; removing an end qubit leaves a 5-qubit
# block, removing qubit 2 or 3 splits it into two smaller ones
@example((_SIX_QUBIT_CIRCUIT, _removal_rows(_chain(6, 0.01, damping=False), 6)))
def test_batched_rows_match_their_serial_runs(case):
    circuit, rows = case
    n = circuit.n_qubits
    cfg = q.PropagatorConfig(substeps=4)
    psi = q.new_statevector(n)
    batch = list(q.run_noisy_batch(psi, circuit, rows, cfg))
    assert len(batch) == len(rows)
    for model, got in zip(rows, batch):
        alone = q.run_noisy_circuit(psi, circuit, model, cfg)
        if isinstance(alone, q.StateVector):
            alone = alone.to_density_matrix()
        assert isinstance(got, q.DensityMatrix)
        assert np.max(np.abs(got.data - alone.data)) < 1e-12


@st.composite
def per_qubit_batch_cases(draw):
    """A circuit and a mitigation's rows under noise made of 1-qubit terms
    only, so the product pass holds all of it: the full model, each
    group's removal or scaled row, in any order.  At least two qubits: on
    one, a 1-qubit gate's (rows, 4) product of a one-row stack can round
    differently from the same row in a taller stack."""
    circuit = draw(circuits(min_qubits=2))
    n = circuit.n_qubits
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from([k for k in KINDS if k != "correlated"]))
        n_th = draw(st.floats(0.0, 1.0)) if kind == "thermal" else None
        qubit = draw(st.integers(0, n - 1))
        terms.append(q.LindbladTerm(kind, (qubit,), draw(st.floats(1e-4, 0.01)), n_th))
    model = q.NoiseModel(tuple(terms))
    rows = [model]
    for group in build_groups(model):
        factor = draw(st.sampled_from([0.0, 2.0]))
        rows.append(scale_terms(model, group.removed_terms, factor))
    return circuit, draw(st.permutations(rows))


@settings(max_examples=40, deadline=None)
@given(per_qubit_batch_cases())
# five qubits, two terms each: the lone top qubit 4, then pairs (3, 2) and
# (1, 0); each removal row has the identity on one qubit
@example(
    (
        _FIVE_QUBIT_CIRCUIT,
        _removal_rows(q.build_template_model("gamma1_gamma2", 5, 0.01), 5),
    )
)
def test_paired_rows_are_bit_identical_to_their_runs_alone(case):
    # each row of the product pass is its own matmul of one shape, so a
    # batch changes no row's arithmetic
    assert_rows_match_alone(*case, substeps=4)


def assert_rows_match_alone(circuit, rows, substeps):
    """Each row of a batched run equals its run alone, bit for bit."""
    n = circuit.n_qubits
    cfg = q.PropagatorConfig(substeps=substeps)
    batch = q.run_noisy_batch(q.new_statevector(n), circuit, rows, cfg)
    for model, got in zip(rows, batch):
        alone = q.run_noisy_circuit(q.new_pure_ground(n), circuit, model, cfg)
        assert np.array_equal(got.data, alone.data)


@st.composite
def wide_batch_cases(draw):
    """A 5-qubit circuit and a mitigation's rows under correlated and
    1-qubit terms, in any order.  Correlated terms along a random path
    join all five qubits, so the full row holds one 5-qubit block; a
    group's removal or scaled row holds it or smaller blocks.
    Rates up to 0.1 make each RK4 term large enough that a sum taken in
    another order changes the rounding of the step."""
    circuit = draw(circuits(min_qubits=5))
    n = circuit.n_qubits
    rates = st.floats(1e-3, 0.1)
    path = draw(st.permutations(range(n)))
    terms = [q.LindbladTerm("correlated", path[j : j + 2], draw(rates)) for j in range(n - 1)]
    for _ in range(draw(st.integers(0, 2))):
        pair_qubits = tuple(draw(st.permutations(range(n)))[:2])
        terms.append(q.LindbladTerm("correlated", pair_qubits, draw(rates)))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from([k for k in KINDS if k != "correlated"]))
        n_th = draw(st.floats(0.0, 1.0)) if kind == "thermal" else None
        terms.append(q.LindbladTerm(kind, (draw(st.integers(0, n - 1)),), draw(rates), n_th))
    model = q.NoiseModel(tuple(draw(st.permutations(terms))))
    rows = [model] + [
        scale_terms(model, group.removed_terms, draw(st.sampled_from([0.0, 2.0])))
        for group in build_groups(model)
    ]
    return circuit, draw(st.permutations(rows))


@settings(max_examples=25, deadline=None)
@given(wide_batch_cases())
def test_wide_block_rows_are_bit_identical_to_their_runs_alone(case):
    # a layer applies each row's own sector matrices to that row's
    # entries alone, one matmul of one shape per row and class, so a batch
    # changes no row's arithmetic
    assert_rows_match_alone(*case, substeps=4)


@st.composite
def wide_models(draw):
    """(n, model, substeps, seed): on 7 qubits, two wider components on
    random disjoint qubits, 2 to 4 and then 2 or 3, so up to three qubits
    may be spectators.  Each component is a random path of correlated
    terms, its pairs rarely adjacent, and up to three terms of any kind
    inside it; rates up to 0.05 keep substeps 1 stable."""
    n = 7
    order = draw(st.permutations(range(n)))
    first, second = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    rates = st.floats(1e-3, 0.05)
    terms = []
    for component in (order[:first], order[first : first + second]):
        path = draw(st.permutations(component))
        for j in range(len(path) - 1):
            terms.append(q.LindbladTerm("correlated", path[j : j + 2], draw(rates)))
        for _ in range(draw(st.integers(0, 3))):
            kind = draw(st.sampled_from(KINDS))
            qubits = tuple(draw(st.permutations(component))[: 2 if kind == "correlated" else 1])
            n_th = draw(st.floats(0.0, 1.0)) if kind == "thermal" else None
            terms.append(q.LindbladTerm(kind, qubits, draw(rates), n_th))
    model = q.NoiseModel(tuple(draw(st.permutations(terms))))
    return n, model, draw(st.sampled_from([1, 3, 64])), draw(st.integers(0, 2**32 - 1))


def own_register(block):
    """A block's terms on its own qubits, its lowest as qubit 0, and their count."""
    support = sorted({j for t in block.terms for j in t.qubits})
    terms = (replace(t, qubits=tuple(map(support.index, t.qubits))) for t in block.terms)
    return q.NoiseModel(tuple(terms)), len(support)


@settings(max_examples=20, deadline=None)
@given(wide_models())
def test_wide_sector_channel_matches_dense_rk4(case):
    # a layer is the oracle's RK4 channel of each of its blocks, and the
    # oracle's channel is the same on a pattern and on its conjugate
    n, model, substeps, seed = case
    cfg = q.PropagatorConfig(substeps=substeps)
    propagator = IntervalPropagator([model], n, cfg)
    assert propagator.stacks == [] and [type(k) for k in propagator.layers] == [noise._Layer] * 2
    rho = random_density_matrix(n, np.random.default_rng(seed))
    (got,) = propagator.propagate(PairedDensity(n, pair(rho).data[None].copy())).data
    want = rho.data
    for block in connected_blocks(model):
        want = dense_rk4(dense_liouvillian(block, n), want, cfg.tau, cfg.substeps)
        own, k = own_register(block)
        hl = cfg.tau / substeps * paired_superop(dense_liouvillian(own, k).toarray())
        channel, flip = noise._power_step(hl, substeps), conjugate(k)
        assert np.max(np.abs(channel[np.ix_(flip, flip)] - channel)) < 1e-15
        built = noise._dense(noise._blocks([own.terms], cfg), k)[0]
        assert np.max(np.abs(built - channel)) < 1e-13
    assert np.max(np.abs(unpair(PairedDensity(n, got)).data - want)) < 1e-13


@st.composite
def bare_batch_cases(draw):
    """A circuit and a batch that mixes rows with 1-qubit terms and bare
    rows, which have none: a row of correlated terms only and its
    zero-rate copy, in any order with the others.  A bare row has no
    product pass in its run alone."""
    circuit = draw(circuits(min_qubits=2))
    n = circuit.n_qubits
    single = [k for k in KINDS if k != "correlated"]

    def term(kind, qubits):
        n_th = draw(st.floats(0.0, 1.0)) if kind == "thermal" else None
        return q.LindbladTerm(kind, qubits, draw(st.floats(1e-4, 0.01)), n_th)

    lone = [
        q.NoiseModel(tuple(
            term(draw(st.sampled_from(single)), (draw(st.integers(0, n - 1)),))
            for _ in range(draw(st.integers(1, 4)))
        ))
        for _ in range(draw(st.integers(1, 3)))
    ]
    pairs = [tuple(draw(st.permutations(range(n)))[:2]) for _ in range(draw(st.integers(1, 3)))]
    correlated = q.NoiseModel(tuple(term("correlated", qubits) for qubits in pairs))
    both = q.NoiseModel(lone[0].terms + correlated.terms)
    bare = [correlated, scale_terms(correlated, range(len(pairs)), 0.0)]
    return circuit, draw(st.permutations(lone + bare + [both]))


@settings(max_examples=40, deadline=None)
@given(bare_batch_cases())
# a 1-qubit-only row beside a correlated row, on a binding of a Circuit:
# the first composes its passes and fixed runs, the row that has both pays
# every interval, and the correlated row runs in a chunk of its own
@example(
    (
        bound_from_circuit(_FIVE_QUBIT_CIRCUIT),
        [
            q.build_template_model("gamma1_gamma2", 5, 0.01),
            q.NoiseModel((q.LindbladTerm("correlated", (4, 0), 0.01),)),
            q.NoiseModel(
                (
                    q.LindbladTerm("thermal", (2,), 0.008, n_th=0.3),
                    q.LindbladTerm("correlated", (1, 3), 0.005),
                )
            ),
            q.build_template_model("thermal", 5, 0.02),
        ],
    )
)
def test_bare_rows_are_bit_identical_to_their_runs_alone(case):
    # rows are chunked by the widths of block they hold, so a bare row
    # never shares a product pass, and a row of 1-qubit blocks alone,
    # whose passes compose, never shares a run with a kernel
    assert_rows_match_alone(*case, substeps=4)


@st.composite
def composed_cases(draw):
    """A circuit on one to six qubits, as its own gates or as the binding
    of a Circuit, and the rows of a batch with 1-qubit terms alone, any of
    them zero-rate, in any order."""
    circuit = draw(circuits(max_qubits=6))
    if draw(st.booleans()):
        circuit = bound_from_circuit(circuit)
    n = circuit.n_qubits
    single = [k for k in KINDS if k != "correlated"]
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(single))
            n_th = draw(st.floats(0.0, 1.0)) if kind == "thermal" else None
            rate = draw(st.floats(1e-3, 0.05))
            terms.append(q.LindbladTerm(kind, (draw(st.integers(0, n - 1)),), rate, n_th))
        factor = draw(st.sampled_from([1.0, 1.0, 0.0]))
        rows.append(scale_terms(q.NoiseModel(tuple(terms)), range(len(terms)), factor))
    return circuit, rows


def kron_apply(blocks, vec):
    """kron(blocks[0], blocks[1], ...) @ vec, one factor per axis of vec's
    (4,)*n view, blocks[0] on the leading one."""
    t = vec.reshape((4,) * len(blocks))
    for axis, block in enumerate(blocks):
        t = np.moveaxis(np.tensordot(block, t, axes=([1], [axis])), 0, axis)
    return t.reshape(-1)


@settings(max_examples=60, deadline=None)
@given(composed_cases())
# odd n: the lone top qubit's 4x4 entry composes beside the pairs, and a
# noiseless row runs in a chunk of its own
@example(
    (
        bound_from_circuit(_FIVE_QUBIT_CIRCUIT),
        _removal_rows(q.build_template_model("thermal", 5, 0.02), 5) + [q.NoiseModel()],
    )
)
def test_composed_run_matches_the_per_interval_loop_and_the_kron_oracle(case):
    circuit, rows = case
    n, gates = circuit.n_qubits, circuit.gates
    cfg = q.PropagatorConfig(substeps=4)
    batch = list(q.run_noisy_batch(q.new_pure_ground(n), circuit, rows, cfg))
    # the per-interval loop: each gate but the last, then its interval
    propagator = IntervalPropagator(rows, n, cfg)
    state = PairedDensity(n, np.stack([pair(q.new_pure_ground(n)).data] * len(rows)))
    for gate in gates[:-1]:
        state = propagator.propagate(q.apply_gate(state, gate))
    for gate in gates[-1:]:
        state = q.apply_gate(state, gate)
    for model, got, looped in zip(rows, batch, state.data):
        assert np.max(np.abs(got.data - unpair(PairedDensity(n, looped)).data)) < 1e-14
        # the kron oracle: each interval the kron of the row's 1-qubit
        # blocks, top qubit first, and each gate U rho U^dag
        lone = {min(qubits): terms for qubits, terms in noise._components(model)}
        blocks = [dense_block(lone[k], cfg) if k in lone else np.eye(4) for k in reversed(range(n))]
        rho = q.new_pure_ground(n).data
        for i, gate in enumerate(gates):
            u = kron_embed_multi(gate.matrix(), gate.qubits, n)
            rho = u @ rho @ u.conj().T
            if i < len(gates) - 1:
                paired = kron_apply(blocks, pair(q.DensityMatrix(n, rho)).data)
                rho = unpair(PairedDensity(n, paired)).data
        assert np.max(np.abs(got.data - rho)) < 1e-14


@st.composite
def fold_cases(draw):
    """(n, rows, gate, seed): a propagator's models, whose first row has a
    1-qubit term, so most have a product pass; any row may add a
    correlated pair (a 2-qubit block, or part of a wider one) and, from
    five qubits, a correlated chain over five of them.  The gate
    is a 1-qubit gate, or a CNOT on one pair (2j+1, 2j) of the pass, in
    either order, or on any two qubits."""
    n = draw(st.integers(1, 6))
    rates = st.floats(1e-3, 0.05)
    single = [k for k in KINDS if k != "correlated"]
    rows = []
    for row in range(draw(st.integers(1, 3))):
        terms = []
        for _ in range(draw(st.integers(0 if row else 1, 3))):
            kind = draw(st.sampled_from(single))
            n_th = draw(st.floats(0.0, 1.0)) if kind == "thermal" else None
            terms.append(q.LindbladTerm(kind, (draw(st.integers(0, n - 1)),), draw(rates), n_th))
        if n >= 2 and draw(st.booleans()):
            qubits = tuple(draw(st.permutations(range(n)))[:2])
            terms.append(q.LindbladTerm("correlated", qubits, draw(rates)))
        if n >= 5 and draw(st.booleans()):
            path = draw(st.permutations(range(n)))[:5]
            terms += [q.LindbladTerm("correlated", path[j : j + 2], draw(rates)) for j in range(4)]
        rows.append(q.NoiseModel(tuple(terms)))
    kind = draw(st.sampled_from(GATE_KINDS if n > 1 else ("H", "X", "Rx", "Ry", "Rz")))
    if kind != "CNOT":
        qubits = (draw(st.integers(0, n - 1)),)
    elif n >= 2 and draw(st.booleans()):
        j = draw(st.integers(0, n // 2 - 1))
        qubits = draw(st.sampled_from([(2 * j + 1, 2 * j), (2 * j, 2 * j + 1)]))
    else:
        qubits = tuple(draw(st.permutations(range(n)))[:2])
    angle = draw(st.floats(-np.pi, np.pi)) if kind[0] == "R" else None
    return n, rows, q.BoundGate(kind, qubits, angle), draw(st.integers(0, 2**32 - 1))


def _mixed_rows(n):
    """1-qubit blocks and a 2-qubit block on (n - 1, 0), a bare row with a
    5-qubit block on the top five qubits, and the 1-qubit blocks alone."""
    lone = tuple(q.LindbladTerm("thermal", (k,), 0.02, n_th=0.2) for k in range(1, n - 1, 2))
    dense = (q.LindbladTerm("correlated", (n - 1, 0), 0.03),)
    wide = tuple(q.LindbladTerm("correlated", (k, k + 1), 0.04) for k in range(n - 5, n - 1))
    return [q.NoiseModel(lone + dense), q.NoiseModel(wide), q.NoiseModel(lone)]


@settings(max_examples=60, deadline=None)
@given(fold_cases())
# odd n: a gate on the lone top qubit, and a CNOT on the pair (1, 0)
@example((5, _mixed_rows(5), q.BoundGate("Ry", (4,), 0.7), 1))
@example((5, _mixed_rows(5), q.BoundGate("CNOT", (0, 1)), 2))
# even n: a gate on the low qubit of a pair, a CNOT on a pair, and one across pairs
@example((6, _mixed_rows(6), q.BoundGate("Rx", (2,), -1.1), 3))
@example((6, _mixed_rows(6), q.BoundGate("CNOT", (5, 4)), 4))
@example((6, _mixed_rows(6), q.BoundGate("CNOT", (3, 4)), 5))
def test_folded_gate_matches_the_gate_then_the_interval(case):
    n, rows, gate, seed = case
    propagator = IntervalPropagator(rows, n, q.PropagatorConfig(substeps=4))
    # the pass's entries: the lone top qubit at odd n, then the pairs
    entry = {k: "top" if n % 2 and k == n - 1 else k // 2 for k in range(n)}
    fits = len({entry[k] for k in gate.qubits}) == 1 and propagator.stacks != []
    at = propagator.entry.get(gate.qubits)
    assert (at is not None) == fits
    rng = np.random.default_rng(seed)
    data = np.stack([pair(random_density_matrix(n, rng)).data for _ in rows])
    want = propagator.propagate(q.apply_gate(PairedDensity(n, data.copy()), gate))
    assert np.max(np.abs(want.data - data)) > 1e-6
    if fits:
        fold = propagator._into(None, gate, at, propagator.product)
        folded = propagator.propagate(PairedDensity(n, data.copy()), fold)
        assert np.max(np.abs(folded.data - want.data)) < 1e-13
    if fits and not propagator.layers:
        # with an interval owed before the gate, its S multiplies into that pass
        owed = propagator._into(propagator.product, gate, at, propagator.product)
        folded = propagator.propagate(PairedDensity(n, data.copy()), owed)
        before = propagator.propagate(PairedDensity(n, data.copy()))
        want = propagator.propagate(q.apply_gate(before, gate))
        assert np.max(np.abs(folded.data - want.data)) < 1e-13


def test_correlated_mitigation_matches_dense_oracle():
    # every <A_i> of a 4-qubit correlated ring: the full row is one dense
    # 4-qubit block, each removal row its own 3-qubit block
    circuit = q.BoundCircuit(
        4,
        (
            q.BoundGate("H", (0,)),
            q.BoundGate("CNOT", (0, 1)),
            q.BoundGate("Rx", (2,), 0.3),
            q.BoundGate("CNOT", (3, 0)),
            q.BoundGate("Ry", (3,), 0.7),
            q.BoundGate("H", (2,)),
        ),
    )
    observable = q.PauliSum(
        [
            (1.0, q.PauliString({0: "Z", 1: "Z"})),
            (0.7, q.PauliString({2: "X"})),
            (0.5, q.PauliString({3: "Y", 0: "X"})),
        ],
        4,
    )
    model = q.build_template_model("correlated", 4, 0.05)
    cfg = q.PropagatorConfig(substeps=4)
    report = q.run_mitigation(circuit, model, observable, cfg)

    def oracle(m):
        return q.expectation(q.DensityMatrix(4, dense_noisy_run(circuit, m, cfg)), observable)

    assert abs(report.a_noisy - oracle(model)) < 1e-12
    groups = build_groups(model)
    assert len(report.a_removed) == len(groups) == 4
    for group, (label, value, _) in zip(groups, report.a_removed):
        assert label == group.label
        assert abs(value - oracle(scale_terms(model, group.removed_terms, 0.0))) < 1e-12


@settings(max_examples=40, deadline=None)
@given(noisy_cases())
def test_pure_start_under_noise_runs_the_density_matrix(case):
    # the StateVector start is turned into |psi><psi| before the first
    # gate, so every later step is the same arithmetic
    circuit, model = case
    n = circuit.n_qubits
    cfg = q.PropagatorConfig(substeps=4)
    from_pure = q.run_noisy_circuit(q.new_statevector(n), circuit, model, cfg)
    from_rho = q.run_noisy_circuit(q.new_pure_ground(n), circuit, model, cfg)
    assert isinstance(from_pure, q.DensityMatrix)
    assert np.array_equal(from_pure.data, from_rho.data)


@settings(max_examples=40, deadline=None)
@given(noisy_cases())
def test_evolve_takes_a_statevector_as_its_density_matrix(case):
    circuit, model = case
    n = circuit.n_qubits
    psi = q.run_noisy_circuit(q.new_statevector(n), circuit, q.NoiseModel())
    cfg = q.PropagatorConfig(substeps=4)
    got = q.evolve(psi, model, cfg)
    assert np.array_equal(got.data, q.evolve(psi.to_density_matrix(), model, cfg).data)


@given(st.integers(15, 64))
def test_statevector_capacity_error(n):
    # above the cap of 14, so the refusal comes before any allocation
    with pytest.raises(q.CapacityError):
        q.new_statevector(n)


def test_statevector_needs_a_qubit():
    with pytest.raises(ValueError):
        q.new_statevector(0)


@st.composite
def removal_cases(draw):
    circuit, model = draw(noisy_cases())
    indices = draw(st.sets(st.integers(0, len(model.terms) - 1)))
    return circuit, model, indices


@settings(max_examples=60, deadline=None)
@given(removal_cases())
def test_scale_by_zero_is_removal(case):
    # the mitigation driver removes a group by scaling its rates by 0
    circuit, model, indices = case
    n = circuit.n_qubits
    cfg = q.PropagatorConfig(substeps=4)
    kept = q.NoiseModel(tuple(t for i, t in enumerate(model.terms) if i not in indices))
    scaled = q.run_noisy_circuit(
        q.new_statevector(n), circuit, scale_terms(model, indices, 0.0), cfg
    )
    removed = q.run_noisy_circuit(q.new_statevector(n), circuit, kept, cfg)
    assert type(scaled) is type(removed)
    assert np.array_equal(scaled.data, removed.data)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: models_on(n, st.floats(0.0, 1.0))))
def test_group_weights_sum_to_one_per_term(model):
    n = model.max_qubit() + 1
    totals = [0.0] * len(model.terms)
    for group in build_groups(model):
        for i in group.removed_terms:
            totals[i] += group.weight
    assert all(abs(t - 1.0) < 1e-12 for t in totals)


@given(
    st.floats(-10.0, 10.0),
    st.lists(st.floats(0.01, 1.0), min_size=0, max_size=12),
)
def test_corrected_value_identity_at_zero_noise(a, weights):
    # at zero noise every removed run reads the noisy value
    assert corrected_value(a, [(a, w) for w in weights]) == a


@settings(max_examples=25, deadline=None)
@given(noiseless_cases(allow_empty=False))
def test_mitigation_identity_at_zero_noise(case):
    circuit, observable, model = case
    report = q.run_mitigation(circuit, model, observable)
    assert report.a_noisy == report.a_ideal
    assert report.a_corrected == report.a_noisy


@st.composite
def mitigation_cases(draw):
    circuit = draw(circuits(max_qubits=4))
    n = circuit.n_qubits
    return (
        circuit,
        draw(models_on(n, st.floats(1e-4, 0.01))),
        draw(pauli_sums(n)),
        draw(st.sampled_from(["removal", "scaled"])),
    )


@settings(max_examples=25, deadline=None)
@given(mitigation_cases())
def test_stored_report_reconstructs_corrected_value(case):
    circuit, model, observable, variant = case
    cfg = q.PropagatorConfig(substeps=4)
    if variant == "removal":
        report = q.run_mitigation(circuit, model, observable, cfg)
    else:
        report = q.scaled_noise_correction(circuit, model, observable, 2.0, cfg)
    stored = json.loads(report.to_json())
    assert stored["variant"] == variant
    removed = [(g["value"], g["weight"]) for g in stored["groups"]]
    assert corrected_value(stored["a_noisy"], removed) == stored["a_corrected"]
