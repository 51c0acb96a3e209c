import math
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qemsim as q
from qemsim import noise, state
from qemsim.errors import IntegrationError
from qemsim.noise import (
    KINDS,
    MAX_SUBSTEPS,
    IntervalPropagator,
    build_template_model,
    scale_terms,
)
from qemsim.state import LocalOp, PairedDensity, pair, paired_axes, unpair

from conftest import (
    coherence_pattern,
    conjugate,
    dense_block,
    dense_liouvillian,
    paired_superop,
    dense_rk4,
    random_density_matrix,
)

EXCITED = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def ad_model(gamma, qubit=0):
    return q.NoiseModel((q.LindbladTerm("amplitude_damping", (qubit,), gamma),))


def propagate_rows(propagator, rhos):
    """One interval of `propagator` on a stack with one row per rho, each
    row unpaired again."""
    n = rhos[0].n_qubits
    stack = PairedDensity(n, np.stack([pair(rho).data for rho in rhos]))
    return [unpair(PairedDensity(n, row)) for row in propagator.propagate(stack).data]


def layer_rows(propagator, n):
    """The rows of the stack that each of a propagator's layers takes, layer
    by layer: where its gathers reach, over a row's 4^n entries."""
    reach = ([where.ravel() // 4**n for _, where in layer.steps] for layer in propagator.layers)
    return [np.unique(np.concatenate(rows)).tolist() for rows in reach]


def apply_generator(stack, terms, n, h):
    """h*L of `terms` on each row of a paired (rows, 4^n) stack, as a new
    stack: their `noise._generator` sectors on their own qubits, applied
    by the take, matmul and put of a wide layer."""
    terms = tuple(terms)
    layer = noise._Layer([terms] * len(stack), range(len(stack)), n, lambda b: noise._generator(b, h))
    return layer(np.array(stack, dtype=complex))


def paired_rhs(rho_data, terms, n):
    """`noise._generator` of `terms` at h = 1 on rho_data, through
    `apply_generator`, the result unpaired again."""
    paired = pair(q.DensityMatrix(n, rho_data)).data[None]
    (out,) = apply_generator(paired, terms, n, 1.0)
    return unpair(PairedDensity(n, out)).data


def dissipator(rho_data, qubit, n):
    """D[sigma](rho) = sigma rho sigma^dag - (sigma^dag sigma rho + rho
    sigma^dag sigma) / 2 on `qubit`, through the generator that wide
    blocks use: that of a unit-rate amplitude damping term."""
    return paired_rhs(rho_data, [q.LindbladTerm("amplitude_damping", (qubit,), 1.0)], n)


def plan(model):
    """The qubits of each component of a model, each in descending order,
    by highest qubit, descending."""
    supports = (noise._support(terms) for _, terms in noise._components(model))
    return sorted(supports, reverse=True)


def lindblad_rhs(rho_data, model, n):
    """L(rho) the way a wide block computes it: the generator of the
    model's terms on the whole register."""
    return paired_rhs(rho_data, model.terms, n)


class TestLindbladTerm:
    def test_correlated_needs_two_distinct_qubits(self):
        with pytest.raises(ValueError):
            q.LindbladTerm("correlated", (0,), 0.1)
        with pytest.raises(ValueError):
            q.LindbladTerm("correlated", (1, 1), 0.1)

    def test_single_qubit_kinds_need_one_qubit(self):
        with pytest.raises(ValueError):
            q.LindbladTerm("dephasing", (0, 1), 0.1)

    def test_negative_qubit(self):
        with pytest.raises(ValueError):
            q.LindbladTerm("amplitude_damping", (-1,), 0.1)

    @pytest.mark.parametrize(
        "qubit", [1.5, 1.0, "1", None, True], ids=["1.5", "1.0", "str", "None", "bool"]
    )
    def test_non_int_qubit(self, qubit):
        # 1.5 used to fail at the propagator build with an IndexError, "1"
        # with a TypeError from `min`, and True was taken as qubit 1
        message = r"amplitude_damping needs 1 distinct non-negative qubit\(s\), got"
        with pytest.raises(ValueError, match=message):
            q.LindbladTerm("amplitude_damping", (qubit,), 0.1)

    def test_numpy_int_qubits_are_stored_as_ints(self):
        term = q.LindbladTerm("correlated", np.array([2, 0]), 0.1)
        assert term.qubits == (2, 0) and [type(k) for k in term.qubits] == [int, int]
        assert term == q.LindbladTerm("correlated", (2, 0), 0.1)

    def test_negative_rate(self):
        with pytest.raises(ValueError):
            q.LindbladTerm("amplitude_damping", (0,), -0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rate(self, value):
        with pytest.raises(ValueError):
            q.LindbladTerm("amplitude_damping", (0,), value)

    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    def test_bad_n_th(self, value):
        with pytest.raises(ValueError):
            q.LindbladTerm("thermal", (0,), 0.1, n_th=value)

    def test_n_th_only_for_thermal(self):
        with pytest.raises(ValueError):
            q.LindbladTerm("amplitude_damping", (0,), 0.1, n_th=0.5)
        with pytest.raises(ValueError):
            q.LindbladTerm("thermal", (0,), 0.1)
        q.LindbladTerm("thermal", (0,), 0.1, n_th=0.5)  # valid

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            q.LindbladTerm("bit_flip", (0,), 0.1)


class TestDissipator:
    def test_sigma_on_excited(self):
        inc = dissipator(EXCITED, 0, 1)
        assert np.allclose(inc, [[1, 0], [0, -1]])

    def test_sigma_on_ground(self):
        ground = np.array([[1, 0], [0, 0]], dtype=complex)
        assert np.allclose(dissipator(ground, 0, 1), 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_traceless(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(2, rng)
        inc = dissipator(rho.data, 1, 2)
        assert abs(np.trace(inc)) < 1e-12


class TestCoherencePattern:
    """Every block is built and applied one sector at a time, one per class
    of coherence patterns, which is exact only if every kind's
    superoperator keeps the pattern, is real, and is the same on a pattern
    and its conjugate."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_keeps_the_pattern_on_its_conjugate_too(self, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        k = 2 if kind == "correlated" else 1
        qubits = (1, 0) if kind == "correlated" else (0,)
        pattern = coherence_pattern(k)
        between = pattern[:, None] != pattern[None, :]
        flip = conjugate(k)
        for _ in range(5):
            n_th = rng.uniform(0.0, 2.0) if kind == "thermal" else None
            term = q.LindbladTerm(kind, qubits, rng.uniform(0.01, 2.0), n_th)
            # the independent oracle, in the paired order of the term's qubits
            superop = paired_superop(dense_liouvillian(q.NoiseModel((term,)), k).toarray())
            assert np.any(superop)
            assert np.all(superop[between] == 0) and np.all(superop.imag == 0)
            assert np.array_equal(superop[np.ix_(flip, flip)], superop)
            # and the build's h*L, scattered into the dense matrix, is it
            built = noise._dense(noise._generator([(term,)], 1.0), k)[0]
            assert np.max(np.abs(built - superop)) < 1e-14

    def test_a_layer_asks_for_the_layout_of_its_blocks_width_only(self, monkeypatch):
        # its spectators' digits come from a plain digit table, not from a
        # sector layout of the 7-qubit spectator register
        widths, layout = [], noise._layout

        def recorded(k):
            widths.append(k)
            return layout(k)

        monkeypatch.setattr(noise, "_layout", recorded)
        model = q.NoiseModel((q.LindbladTerm("correlated", (1, 2), 0.01),))
        propagator = IntervalPropagator([model], 9, q.PropagatorConfig())
        assert len(propagator.layers) == 1 and set(widths) == {2}

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_layout_partitions_the_block_by_class(self, k):
        digits, at, home, local, representative, starts = noise._layout(k)
        pattern, flip = coherence_pattern(k), conjugate(k)
        flat = np.concatenate([idx.reshape(-1) for idx in at])
        assert np.array_equal(np.sort(flat), np.arange(4**k))
        assert starts[-1] == (6**k + 4**k) // 2 and len(at) == k + 1
        cells = []
        for p, idx in enumerate(at):
            assert starts[p + 1] - starts[p] == len(idx) * 4**p
            assert idx.shape[1:] == (1 + (p < k), 2**p)
            populations = np.isin(digits[:, idx], (0, 3)).sum(axis=0)
            assert np.all(populations == p)
            # one pattern per class and partner, the partner its conjugate,
            # each entry at its local index, the bits of its digits 3
            assert np.all(pattern[idx] == pattern[idx[..., :1]])
            assert np.all(representative[idx[:, 0]]) and not np.any(representative[idx[:, 1:]])
            if p < k:
                assert np.array_equal(idx[:, 1], flip[idx[:, 0]])
            assert np.all(local[idx] == np.arange(2**p))
            rows = idx[:, 0]
            cells.append((home[rows][:, :, None] + local[rows][:, None, :]).reshape(-1))
        cells = np.concatenate(cells)
        assert np.array_equal(np.sort(cells), np.arange(starts[-1]))
        assert not any(a.flags.writeable for a in (digits, home, local, representative, *at))


class TestLindbladRhs:
    def test_empty_model(self):
        out = lindblad_rhs(EXCITED, q.NoiseModel(), 1)
        assert np.allclose(out, 0)

    def test_amplitude_damping_scaling(self):
        gamma = 0.37
        out = lindblad_rhs(EXCITED, ad_model(gamma), 1)
        assert np.allclose(out, gamma * np.array([[1, 0], [0, -1]]))

    def test_dephasing_annihilates_populations(self):
        diag = np.diag([0.3, 0.7]).astype(complex)
        model = q.NoiseModel((q.LindbladTerm("dephasing", (0,), 0.2),))
        assert np.allclose(lindblad_rhs(diag, model, 1), 0)

    @pytest.mark.parametrize("template", ["gamma1_gamma2", "thermal", "correlated"])
    def test_traceless_and_hermitian_preserving(self, template):
        rng = np.random.default_rng(8)
        rho = random_density_matrix(3, rng)
        model = build_template_model(template, 3, 0.17)
        out = lindblad_rhs(rho.data, model, 3)
        assert abs(np.trace(out)) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_superoperator_matches_tensor_path(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(2, rng)
        model = q.NoiseModel(
            (
                q.LindbladTerm("amplitude_damping", (0,), 0.1),
                q.LindbladTerm("dephasing", (1,), 0.3),
                q.LindbladTerm("thermal", (0,), 0.2, n_th=0.5),
                q.LindbladTerm("correlated", (0, 1), 0.15),
            )
        )
        lmat = dense_liouvillian(model, 2)
        via_oracle = (lmat @ rho.data.reshape(-1)).reshape(4, 4)
        factorized = lindblad_rhs(rho.data, model, 2)
        assert np.max(np.abs(via_oracle - factorized)) < 1e-12


def one_term(kind, qubits, rate=0.2):
    return q.LindbladTerm(kind, qubits, rate, 0.4 if kind == "thermal" else None)


def oracle_rhs(stack, terms, n, h):
    """h*L of `terms` on each row of a paired stack by the full-register
    oracle `conftest.dense_liouvillian`, each row paired again."""
    lmat = dense_liouvillian(q.NoiseModel(tuple(terms)), n)
    rows = [unpair(PairedDensity(n, row)).data.reshape(-1) for row in stack]
    return np.stack(
        [pair(q.DensityMatrix(n, h * (lmat @ row).reshape(2**n, 2**n))).data for row in rows]
    )


def random_stack(n, rows, seed):
    """A (rows, 4^n) stack of random complex rows: the generator is linear,
    so the rows need not be states."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, 4**n)) + 1j * rng.normal(size=(rows, 4**n))


@st.composite
def generator_cases(draw):
    """(n, terms, h, seed): terms of every kind on an n-qubit register,
    n <= 6, zero rates included."""
    n = draw(st.integers(1, 6))
    kinds = KINDS if n > 1 else tuple(k for k in KINDS if k != "correlated")
    terms = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        qubits = tuple(draw(st.permutations(range(n)))[: 2 if kind == "correlated" else 1])
        rate = draw(st.just(0.0) | st.floats(0.0, 2.0))
        n_th = draw(st.floats(0.0, 2.0)) if kind == "thermal" else None
        terms.append(q.LindbladTerm(kind, qubits, rate, n_th))
    return n, tuple(terms), draw(st.floats(0.01, 1.0)), draw(st.integers(0, 2**32 - 1))


class TestGenerator:
    """`noise._generator`, h*L as the real matrices of its sectors, applied
    by a wide layer's take, matmul and put, against the full-register
    oracle on multi-row stacks."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_on_a_stack(self, kind):
        n, h = 3, 0.3
        term = one_term(kind, (2, 0) if kind == "correlated" else (1,))
        stack = random_stack(n, 4, KINDS.index(kind))
        got = apply_generator(stack, [term], n, h)
        assert np.max(np.abs(got - oracle_rhs(stack, [term], n, h))) < 1e-14

    @pytest.mark.parametrize("qubits", [(0, 1), (1, 2), (0, 2), (3, 0)])
    def test_term_qubits_in_both_orders(self, qubits):
        # (3, 0) is the ring's wrap-around term on four qubits
        n, h = 4, 0.25
        stack = random_stack(n, 3, sum(qubits))
        got = [
            apply_generator(stack, [one_term("correlated", tq)], n, h)
            for tq in (qubits, qubits[::-1])
        ]
        want = oracle_rhs(stack, [one_term("correlated", qubits)], n, h)
        assert np.max(np.abs(got[0] - want)) < 1e-14
        assert np.array_equal(got[0], got[1])

    @settings(max_examples=30, deadline=None)
    @given(generator_cases())
    @example((6, tuple(build_template_model("correlated", 6, 0.3).terms), 0.5, 0))
    def test_matches_dense_oracle(self, case):
        n, terms, h, seed = case
        stack = random_stack(n, 2, seed)
        got = apply_generator(stack, terms, n, h)
        assert np.max(np.abs(got - oracle_rhs(stack, terms, n, h))) < 1e-13

    @settings(max_examples=30, deadline=None)
    @given(generator_cases())
    @example((6, tuple(build_template_model("correlated", 6, 0.3).terms), 0.5, 0))
    def test_keeps_the_trace_by_construction(self, case):
        # each move's weight w leaves its source's diagonal twice, at w/2, as
        # it lands on its target's: each column of the all-population sector
        # sums to 0, so the paired identity row t has t h*L = 0, on each row
        # of a stack, with its own terms
        n, terms, h, seed = case
        stack = random_stack(n, 3, seed)
        bound = 1e-13 * (1 + h * sum(t.rate for t in terms)) * 2**n
        for row, own in enumerate((terms, terms[::-1], terms[:1])):
            k = len(noise._support(own))
            sums = noise._generator([own], h)[0, -(4**k) :].reshape(2**k, 2**k).sum(axis=0)
            assert np.max(np.abs(sums)) < bound
            (got,) = apply_generator(stack[row : row + 1], own, n, h)
            assert abs(PairedDensity(n, got).trace()) < bound


def test_wide_block_run_loads_no_scipy():
    # numpy is the package's only dependency; scipy is for tests alone
    code = (
        "import sys, qemsim as q\n"
        "model = q.build_template_model('correlated', 5, 0.1)\n"
        "q.evolve(q.new_pure_ground(5), model, q.PropagatorConfig(substeps=2))\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestEvolve:
    def test_amplitude_damping_closed_form(self):
        gamma, t = 0.25, 3.0
        rho = q.DensityMatrix(1, EXCITED.copy())
        out = q.evolve(rho, ad_model(gamma), q.PropagatorConfig(tau=t, substeps=192))
        assert out.data[1, 1].real == pytest.approx(math.exp(-gamma * t), abs=1e-9)

    def test_dephasing_closed_form(self):
        gamma, t = 0.4, 2.0
        model = q.NoiseModel((q.LindbladTerm("dephasing", (0,), gamma),))
        rho = q.DensityMatrix(1, PLUS.copy())
        out = q.evolve(rho, model, q.PropagatorConfig(tau=t, substeps=128))
        assert abs(out.data[0, 1] - 0.5 * math.exp(-0.5 * gamma * t)) < 1e-9
        # populations untouched by pure dephasing
        assert out.data[1, 1].real == pytest.approx(0.5, abs=1e-12)

    def test_thermal_steady_state(self):
        model = q.NoiseModel((q.LindbladTerm("thermal", (0,), 0.5, n_th=0.5),))
        rho = q.new_pure_ground(1)
        out = q.evolve(rho, model, q.PropagatorConfig(tau=60.0, substeps=960))
        assert out.data[1, 1].real == pytest.approx(0.25, abs=1e-6)

    def test_trace_preserved_without_renormalization(self):
        model = build_template_model("gamma1_gamma2", 2, 0.05)
        rho = q.apply_gate(q.new_pure_ground(2), q.BoundGate("H", (0,)))
        out = q.evolve(rho, model, q.PropagatorConfig())
        assert abs(out.trace() - 1.0) < 1e-9
        assert np.linalg.eigvalsh(out.data)[0] > -1e-7

    def test_semigroup_property(self):
        model = build_template_model("gamma1_gamma2", 2, 0.08)
        rho = q.apply_gate(q.new_pure_ground(2), q.BoundGate("H", (1,)))
        cfg = q.PropagatorConfig(tau=1.0, substeps=64)
        one_then_one = q.evolve(q.evolve(rho, model, cfg), model, cfg)
        both = q.evolve(rho, model, q.PropagatorConfig(tau=2.0, substeps=128))
        assert np.max(np.abs(one_then_one.data - both.data)) < 1e-8

    def test_fourth_order_convergence(self):
        gamma = 0.8
        exact = math.exp(-gamma)

        def error(substeps):
            rho = q.DensityMatrix(1, EXCITED.copy())
            out = q.evolve(rho, ad_model(gamma), q.PropagatorConfig(substeps=substeps))
            return abs(out.data[1, 1].real - exact)

        assert error(2) / error(4) > 8.0
        assert error(4) / error(8) > 8.0

    def test_tensor_path_matches_superoperator_path(self):
        # per-qubit blocks, each precomputed, against full-register RK4
        # on the dense oracle; splitting RK4 by block changes it only at
        # O((h * rate)^5), under 1e-15 here
        model = build_template_model("gamma1_gamma2", 2, 0.1)
        rho = q.apply_gate(q.new_pure_ground(2), q.BoundGate("H", (0,)))
        cfg = q.PropagatorConfig(tau=1.0, substeps=32)
        fast = q.evolve(rho, model, cfg)
        want = dense_rk4(dense_liouvillian(model, 2), rho.data, cfg.tau, cfg.substeps)
        assert np.max(np.abs(fast.data - want)) < 1e-12

    def test_correlated_ring_wide_block_matches_dense_oracle(self):
        # a 5-qubit ring is one block, so one layer steps rho by its
        # sectors' matrices
        n = 5
        model = build_template_model("correlated", n, 0.2)
        propagator = IntervalPropagator([model], n, q.PropagatorConfig(substeps=8))
        assert plan(model) == [(4, 3, 2, 1, 0)]
        assert propagator.stacks == [] and layer_rows(propagator, n) == [[0]]
        rho = random_density_matrix(n, np.random.default_rng(11))
        # populations alone would only see the exchange terms' diagonal
        rho = q.apply_gate(q.apply_gate(rho, q.BoundGate("X", (0,))), q.BoundGate("H", (4,)))
        (got,) = propagate_rows(propagator, [rho])
        want = dense_rk4(dense_liouvillian(model, n), rho.data, 1.0, 8)
        assert np.max(np.abs(got.data - want)) < 1e-12
        assert np.max(np.abs(got.data - rho.data)) > 1e-3

    def test_mixed_blocks_match_dense_oracle(self):
        # a 2-qubit correlated block, a 3-qubit chain and a lone qubit,
        # one zero-rate term bridging two of them
        n = 6
        model = q.NoiseModel(
            (
                q.LindbladTerm("correlated", (5, 1), 0.3),
                q.LindbladTerm("thermal", (0,), 0.2, n_th=0.4),
                q.LindbladTerm("correlated", (2, 4), 0.1),
                q.LindbladTerm("correlated", (1, 0), 0.0),
                q.LindbladTerm("amplitude_damping", (3,), 0.25),
                q.LindbladTerm("correlated", (4, 3), 0.15),
                q.LindbladTerm("dephasing", (5,), 0.05),
            )
        )
        cfg = q.PropagatorConfig(tau=1.0, substeps=16)
        propagator = IntervalPropagator([model], n, cfg)
        assert plan(model) == [(5, 1), (4, 3, 2), (0,)]
        # qubit 0 is the product pass; the wider blocks are two layers
        assert [qubits for qubits, _ in propagator.stacks] == [(5, 4), (3, 2), (1, 0)]
        assert layer_rows(propagator, n) == [[0], [0]]
        rho = random_density_matrix(n, np.random.default_rng(4))
        (got,) = propagate_rows(propagator, [rho])
        # the blocks commute, so one dense RK4 per block in any order is
        # the factorized channel; a single full-model RK4 differs at O(h^5)
        want = rho.data
        for terms in ([0, 6], [1], [2, 4, 5]):
            block = q.NoiseModel(tuple(model.terms[i] for i in terms))
            want = dense_rk4(dense_liouvillian(block, n), want, cfg.tau, cfg.substeps)
        assert np.max(np.abs(got.data - want)) < 1e-12

    BLOCKS = pytest.mark.parametrize(
        "terms, n, qubits",
        [
            ([("amplitude_damping", (1,))], 3, r"\[1\]"),
            ([("correlated", (2, 0))], 3, r"\[0, 2\]"),
            ([("correlated", (j, (j + 1) % 5)) for j in range(5)], 5, r"\[0, 1, 2, 3, 4\]"),
        ],
        ids=["product_pass", "dense_block", "wide_block"],
    )

    @BLOCKS
    @pytest.mark.parametrize("spoil", [1 + 1e-3, math.nan], ids=["scaled", "nan"])
    def test_a_block_that_changes_the_trace_is_refused_at_build(
        self, terms, n, qubits, spoil, monkeypatch
    ):
        # a block of every width is checked once, when it is built
        model = q.NoiseModel(tuple(q.LindbladTerm(kind, qs, 0.1) for kind, qs in terms))
        cfg = q.PropagatorConfig()
        power_step = noise._power_step
        monkeypatch.setattr(noise, "_power_step", lambda *args: power_step(*args) * spoil)
        message = rf"the channel on qubits {qubits} changes the trace by (0.001|nan);"
        with pytest.raises(IntegrationError, match=message):
            IntervalPropagator([model], n, cfg)
        monkeypatch.undo()
        IntervalPropagator([model], n, cfg)  # the true block passes

    @BLOCKS
    def test_one_column_off_the_trace_is_refused_at_build(self, terms, n, qubits, monkeypatch):
        # a weight into entry (0, 1) of the all-population sector of h*L with
        # none out of its column: column 1 alone sums past 1 after the step
        model = q.NoiseModel(tuple(q.LindbladTerm(kind, qs, 0.1) for kind, qs in terms))
        cfg = q.PropagatorConfig(substeps=1)
        generator = noise._generator

        def spoilt(blocks, h):
            out = generator(blocks, h)
            k = len(noise._support(blocks[0]))
            out[:, -(4**k) + 1] += 1e-3
            return out

        monkeypatch.setattr(noise, "_generator", spoilt)
        message = rf"the channel on qubits {qubits} changes the trace by 0.0009\d*;"
        with pytest.raises(IntegrationError, match=message):
            IntervalPropagator([model], n, cfg)

    def test_integrator_failure_raises(self):
        rho = q.DensityMatrix(1, EXCITED.copy())
        with pytest.raises(IntegrationError, match="substeps"):
            q.evolve(rho, ad_model(5e4), q.PropagatorConfig(tau=1.0, substeps=1))

    def test_drift_guard_reads_the_paired_diagonal(self):
        n = 3
        rho = random_density_matrix(n, np.random.default_rng(7))
        paired = PairedDensity(n, pair(rho).data[None])
        (trace,) = paired.trace()
        assert trace == pytest.approx(np.trace(rho.data), abs=1e-15)
        model = build_template_model("gamma1_gamma2", n, 0.05)
        circuit = q.BoundCircuit(n, (q.BoundGate("H", (0,)), q.BoundGate("CNOT", (0, 2))))
        out = q.run_noisy_circuit(rho, circuit, model)
        assert abs(out.trace() - 1.0) < 1e-12
        # the gates and the interval keep the trace, so a start 1e-3 off
        # ends 1e-3 off, and the run's one check, at its end, refuses it
        off = q.DensityMatrix(n, rho.data * (1 + 1e-3))
        with pytest.raises(IntegrationError, match="trace drifted by 0.001 over the run in row 0;"):
            q.run_noisy_circuit(off, circuit, model)
        propagator = IntervalPropagator([model, model], n, q.PropagatorConfig(), first_row=4)
        with pytest.raises(IntegrationError, match="in row 4;"):
            propagator.run(off, circuit)

    def test_evolve_refuses_an_off_trace_input(self):
        # one interval, then the same one check of the final trace
        message = "trace drifted by (0.001|nan) over the run in row 0;"
        for data in (PLUS * (1 + 1e-3), np.array([[1, 0], [0, math.nan]], dtype=complex)):
            with pytest.raises(IntegrationError, match=message):
                q.evolve(q.DensityMatrix(1, data), ad_model(0.1), q.PropagatorConfig())
        out = q.evolve(q.DensityMatrix(1, PLUS * (1 + 1e-7)), ad_model(0.1), q.PropagatorConfig())
        assert out.trace() == pytest.approx(1 + 1e-7, abs=1e-15)

    def test_unstable_step_raises(self):
        # h * 2 * gamma = 20 is far outside RK4's stability interval; the
        # integrator used to return population 291 with trace exactly 1
        rho = q.DensityMatrix(1, EXCITED.copy())
        with pytest.raises(IntegrationError, match="substeps"):
            q.evolve(rho, ad_model(10.0), q.PropagatorConfig(tau=1.0, substeps=1))
        out = q.evolve(rho, ad_model(10.0), q.PropagatorConfig(tau=1.0, substeps=64))
        assert out.data[1, 1].real == pytest.approx(math.exp(-10.0), abs=1e-6)

    @pytest.mark.parametrize(
        "terms, n, qubits",
        [
            ([("amplitude_damping", (1,))], 3, r"\[1\]"),
            ([("correlated", (2, 0))], 3, r"\[0, 2\]"),
            ([("correlated", (j, (j + 1) % 5)) for j in range(5)], 5, r"\[0, 1, 2, 3, 4\]"),
        ],
        ids=["product_pass", "dense_block", "wide_block"],
    )
    def test_an_unstable_block_of_any_width_is_refused(self, terms, n, qubits, monkeypatch):
        # h * radius is 20 on the 1-qubit channel and 40 on each other
        # block at rate 10; at the second rate it is 4, above the limit,
        # though h times the sum of the rates, 2, is below it; every block
        # is checked before any is built
        ops = sum(len(q.LindbladTerm(kind, qs, 1.0).collapse_ops()) for kind, qs in terms)
        monkeypatch.setattr(noise, "_blocks", lambda *args: pytest.fail("a block was built"))
        ansatz = q.build_ansatz(q.AnsatzSpec("Entangling", layers=1), n)
        theta = np.zeros(ansatz.n_params)
        psi = q.new_statevector(n)
        observable = q.PauliSum([(1.0, q.PauliString({0: "Z"}))], n)
        cfg = q.PropagatorConfig(tau=1.0, substeps=1)
        message = rf"on qubits {qubits} exceeds the RK4 stability limit 2.785; increase substeps"
        for rate in (10.0, 2.0 / ops):
            model = q.NoiseModel(tuple(q.LindbladTerm(kind, qs, rate) for kind, qs in terms))
            problem = q.VqeProblem(observable, ansatz, model, cfg)
            for run in (
                lambda: q.run_noisy_circuit(psi, q.bind(ansatz, theta), model, cfg),
                lambda: q.evolve(psi, model, cfg),
                lambda: q.energy_objective(problem, theta),
            ):
                with pytest.raises(IntegrationError, match=message):
                    run()

    def test_config_validation(self):
        for tau in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                q.PropagatorConfig(tau=tau)
        with pytest.raises(ValueError):
            q.PropagatorConfig(substeps=0)
        # a float used to reach numpy's matrix power ("exponent must be an
        # integer"), or to run unchecked on a model without noise
        for substeps in (2.5, 64.0, "64"):
            message = f"substeps must be an int >= 1 and <= {MAX_SUBSTEPS}, got {substeps!r}"
            with pytest.raises(ValueError, match=message):
                q.PropagatorConfig(substeps=substeps)
        rho = q.DensityMatrix(1, PLUS.copy())
        want = q.evolve(rho, ad_model(0.1), q.PropagatorConfig(substeps=8)).data
        got = q.evolve(rho, ad_model(0.1), q.PropagatorConfig(substeps=np.int64(8))).data
        assert np.array_equal(got, want)
        # at 10^20 each step rounds to the identity (MAX_SUBSTEPS caps the
        # count for round-off); a trace-drift error used to ask for still more
        with pytest.raises(ValueError, match=f"<= {MAX_SUBSTEPS}, got {10**20}") as exc:
            q.PropagatorConfig(substeps=10**20)
        assert "increase" not in str(exc.value)
        out = q.evolve(
            q.DensityMatrix(1, EXCITED.copy()),
            ad_model(1e-3),
            q.PropagatorConfig(substeps=MAX_SUBSTEPS),
        )
        assert out.data[1, 1].real == pytest.approx(math.exp(-1e-3), abs=1e-9)


class TestTermQubitOrder:
    """A correlated term on (a, b) is the same channel as on (b, a): its
    two collapse operators swap places, and the generator of every block
    takes each term's qubits in the order given."""

    @staticmethod
    def both_orders(model, n, substeps=8):
        """One interval on one rho under model, and under model with every
        correlated term's qubits reversed: (out, reversed out), each by the
        one layer of model's one block."""
        flipped = q.NoiseModel(
            tuple(
                q.LindbladTerm(t.kind, t.qubits[::-1], t.rate)
                if t.kind == "correlated"
                else t
                for t in model.terms
            )
        )
        cfg = q.PropagatorConfig(substeps=substeps)
        rho = random_density_matrix(n, np.random.default_rng(n))
        propagators = [IntervalPropagator([m], n, cfg) for m in (model, flipped)]
        out, reversed_out = (propagate_rows(p, [rho])[0].data for p in propagators)
        assert np.max(np.abs(out - rho.data)) > 1e-3
        assert [[type(layer) for layer in p.layers] for p in propagators] == [[noise._Layer]] * 2
        return out, reversed_out

    @staticmethod
    def pair_model(a, b):
        return q.NoiseModel(
            (
                q.LindbladTerm("correlated", (a, b), 0.2),
                q.LindbladTerm("amplitude_damping", (a,), 0.1),
                q.LindbladTerm("thermal", (b,), 0.05, n_th=0.3),
            )
        )

    @pytest.mark.parametrize(
        "model, n",
        [
            (pair_model(1, 2), 3),
            (pair_model(0, 2), 3),
            (
                q.NoiseModel(
                    tuple(q.LindbladTerm("correlated", (k, k + 1), 0.1 + 0.02 * k) for k in range(4))
                ),
                5,
            ),
            # (5, 0) sits on non-adjacent paired axes
            (build_template_model("correlated", 6, 0.2), 6),
        ],
        ids=["pair_adjacent", "pair_apart", "chain5", "ring6"],
    )
    def test_block_is_bit_identical(self, model, n):
        # reversing a term only swaps its two slice moves, which reach
        # disjoint entries
        out, flipped = self.both_orders(model, n)
        assert np.array_equal(out, flipped)


class TestRunNoisyCircuit:
    def test_empty_model_equals_sequential_gates(self):
        gates = (
            q.BoundGate("H", (0,)),
            q.BoundGate("CNOT", (0, 1)),
            q.BoundGate("Rz", (1,), 0.4),
        )
        circuit = q.BoundCircuit(2, gates)
        noisy = q.run_noisy_circuit(q.new_pure_ground(2), circuit, q.NoiseModel())
        rho = q.new_pure_ground(2)
        for g in gates:
            rho = q.apply_gate(rho, g)
        assert np.max(np.abs(noisy.data - rho.data)) < 1e-14

    def test_a_channel_free_propagator_leaves_the_gates_alone(self):
        # no product pass and no kernel: an interval is the identity, bit
        # for bit, and a DensityMatrix start ends where its gates put it
        n, circuit = 3, TestBatch.circuit()
        rho = random_density_matrix(n, np.random.default_rng(3))
        want = rho
        for gate in circuit.gates:
            want = q.apply_gate(want, gate)
        quiet = build_template_model("gamma1_gamma2", n, 0.0)  # zero rates drop out
        for model in (q.NoiseModel(), quiet):
            propagator = IntervalPropagator([model] * 2, n, q.PropagatorConfig())
            assert propagator.stacks == [] and propagator.layers == []
            for row in propagator.run(rho, circuit):
                assert np.array_equal(row.data, want.data)
            stack = PairedDensity(n, np.stack([pair(rho).data] * 2))
            assert np.array_equal(propagator.propagate(stack).data, stack.data)

    def test_single_gate_sees_no_noise(self):
        circuit = q.BoundCircuit(1, (q.BoundGate("X", (0,)),))
        out = q.run_noisy_circuit(q.new_pure_ground(1), circuit, ad_model(10.0))
        assert np.allclose(out.data, EXCITED)

    def test_two_x_gates_single_decay_interval(self):
        gamma = 0.3
        circuit = q.BoundCircuit(1, (q.BoundGate("X", (0,)),) * 2)
        out = q.run_noisy_circuit(q.new_pure_ground(1), circuit, ad_model(gamma))
        # X, decay for one interval, X: survival probability moves to |0>
        assert out.data[0, 0].real == pytest.approx(math.exp(-gamma), abs=1e-9)
        assert out.data[1, 1].real == pytest.approx(1 - math.exp(-gamma), abs=1e-9)

    def test_rates_to_zero_converges_linearly(self):
        circuit = q.BoundCircuit(
            2, (q.BoundGate("H", (0,)), q.BoundGate("CNOT", (0, 1)), q.BoundGate("H", (1,)))
        )
        ideal = q.run_noisy_circuit(q.new_pure_ground(2), circuit, q.NoiseModel())

        def gap(rate):
            model = build_template_model("gamma1_gamma2", 2, rate)
            out = q.run_noisy_circuit(q.new_pure_ground(2), circuit, model)
            return np.max(np.abs(out.data - ideal.data))

        g1, g2 = gap(1e-3), gap(5e-4)
        assert g1 / g2 == pytest.approx(2.0, rel=0.05)

    def test_qubit_count_mismatch(self):
        circuit = q.BoundCircuit(2, (q.BoundGate("H", (0,)),))
        with pytest.raises(ValueError):
            q.run_noisy_circuit(q.new_pure_ground(1), circuit, q.NoiseModel())

    def test_model_qubits_validated(self):
        circuit = q.BoundCircuit(1, (q.BoundGate("H", (0,)),))
        with pytest.raises(ValueError):
            q.run_noisy_circuit(q.new_pure_ground(1), circuit, ad_model(0.1, qubit=1))


class TestBatch:
    """Rows of one batched run: the chunk plan, the capacity check, the
    drift guard per row, and the call sites the benchmark traces."""

    @staticmethod
    def circuit():
        return q.BoundCircuit(
            3,
            (
                q.BoundGate("H", (0,)),
                q.BoundGate("CNOT", (0, 1)),
                q.BoundGate("Rx", (2,), 0.4),
                q.BoundGate("CNOT", (2, 0)),
                q.BoundGate("H", (1,)),
            ),
        )

    @staticmethod
    def observable():
        return q.PauliSum(
            [(1.0, q.PauliString({0: "Z", 2: "Z"})), (0.4, q.PauliString({1: "X"}))], 3
        )

    def test_chunk_plan(self):
        model = build_template_model("gamma1", 2, 0.01)
        # one 12-qubit row is 256 MiB, over the budget: each runs alone
        assert noise._chunks([model] * 13, 12) == [range(i, i + 1) for i in range(13)]
        # 16 MiB rows, four to a chunk; a block of two or more qubits adds
        # its sector matrices and its layer's gather index, 8 bytes an entry
        # of the row, so a row with one takes 24 MiB and 208 bytes, and two
        # of those fill a chunk
        assert noise._chunks([model] * 13, 10) == [
            range(0, 4), range(4, 8), range(8, 12), range(12, 13)
        ]
        assert noise._chunks([model] * 13, 4) == [range(13)]
        # rows with 1-qubit blocks alone, none (zero rates drop out), wider
        # blocks alone, both, and 1-qubit blocks alone again: each run of
        # rows alike is chunked on its own, and each run differs from the
        # next in one width of block only
        pair = q.NoiseModel((q.LindbladTerm("correlated", (0, 1), 0.01),))
        both = q.NoiseModel(pair.terms + (q.LindbladTerm("dephasing", (2,), 0.01),))
        quiet = [q.NoiseModel(), scale_terms(pair, [0], 0.0)]
        rows = [model] * 5 + quiet + [pair] * 5 + [both] * 5 + [model]
        assert noise._chunks(rows, 10) == [
            range(0, 4), range(4, 5), range(5, 7), range(7, 9), range(9, 11), range(11, 12),
            range(12, 14), range(14, 16), range(16, 17), range(17, 18),
        ]
        assert noise._chunks(rows, 4) == [
            range(0, 5), range(5, 7), range(7, 12), range(12, 17), range(17, 18)
        ]

    def test_chunks_count_each_wide_rows_sector_matrices(self, monkeypatch):
        # a 5-qubit ring's sectors take 4 (6^5 + 4^5) bytes and its layer's
        # gather index 8 4^5 beside a 5-qubit rho's 16 4^5: three such rows
        # fit a budget of three; a 4-qubit ring counts its 4 (6^4 + 4^4)
        # bytes and the same index, so five of its rows fit
        ring = build_template_model("correlated", 5, 0.01)
        row = 16 * 4**5 + 4 * (6**5 + 4**5) + 8 * 4**5
        assert noise._sector_bytes(ring.terms) == 4 * (6**5 + 4**5) == 35200
        monkeypatch.setattr(noise, "BATCH_BYTES", 3 * row)
        assert noise._chunks([ring] * 7, 5) == [range(0, 3), range(3, 6), range(6, 7)]
        small = q.NoiseModel(build_template_model("correlated", 4, 0.01).terms)
        assert noise._chunks([small] * 7, 5) == [range(0, 5), range(5, 7)]

    def test_a_wide_block_past_the_cap_is_refused_before_anything_is_built(self, monkeypatch):
        # a 12-qubit block's sectors, 8.8 GB, exceed a 14-qubit rho's 4 GiB,
        # an 11-qubit block's, 1.5 GB, do not; only the estimate is made
        def fail(*args):
            raise AssertionError("allocated")

        for name in ("_stack", "_blocks", "_generator", "_layout"):
            monkeypatch.setattr(noise, name, fail)
        monkeypatch.setattr(q.StateVector, "to_density_matrix", fail)
        assert noise._sector_bytes(build_template_model("correlated", 11, 0.01).terms) < 16 * 4**14
        ring = build_template_model("correlated", 12, 0.01)
        message = r"a noise block on 12 qubits needs \d+ bytes of sector matrices, more than a 14-qubit"
        circuit = q.BoundCircuit(12, (q.BoundGate("H", (0,)), q.BoundGate("X", (1,))))
        psi = q.new_statevector(12)
        for run in (
            lambda: noise._chunks([ring], 12),
            lambda: noise.run_noisy_batch(psi, circuit, [ring]),
            lambda: IntervalPropagator([ring], 12, q.PropagatorConfig()),
        ):
            with pytest.raises(q.CapacityError, match=message):
                run()

    @pytest.mark.parametrize("template", ["gamma1_gamma2", "correlated"])
    def test_chunked_mitigation_is_bit_identical(self, template, monkeypatch):
        circuit, obs = self.circuit(), self.observable()
        model = build_template_model(template, 3, 0.02)
        whole = q.run_mitigation(circuit, model, obs)
        scaled = q.scaled_noise_correction(circuit, model, obs, 2.0)
        monkeypatch.setattr(noise, "BATCH_BYTES", 16 * 4**3)
        assert noise._chunks([model] * 4, 3) == [range(i, i + 1) for i in range(4)]
        assert q.run_mitigation(circuit, model, obs).to_dict() == whole.to_dict()
        again = q.scaled_noise_correction(circuit, model, obs, 2.0)
        assert again.to_dict() == scaled.to_dict()

    @pytest.mark.parametrize("start", ["statevector", "density", "zero_rate"])
    def test_run_is_the_batch_of_one(self, start):
        model = build_template_model("gamma1_gamma2", 3, 0.02)
        state0 = q.new_statevector(3)
        if start == "density":
            state0 = state0.to_density_matrix()
        if start == "zero_rate":
            model = scale_terms(model, range(len(model)), 0.0)
        alone = q.run_noisy_circuit(state0, self.circuit(), model)
        (row,) = q.run_noisy_batch(state0, self.circuit(), [model])
        assert type(row) is type(alone)
        assert type(alone) is (q.StateVector if start == "zero_rate" else q.DensityMatrix)
        assert np.array_equal(row.data, alone.data)

    def test_chunking_keeps_each_rows_type_and_value(self, monkeypatch):
        # a zero-rate row in a noisy batch is a DensityMatrix even alone in
        # its chunk; without a noisy row, every row stays a StateVector
        model = build_template_model("thermal", 3, 0.02)
        quiet = scale_terms(model, range(len(model)), 0.0)
        psi = q.new_statevector(3)
        for rows in ([quiet, model, quiet, scale_terms(model, [1], 0.0)], [quiet, quiet]):
            whole = list(q.run_noisy_batch(psi, self.circuit(), rows))
            monkeypatch.setattr(noise, "BATCH_BYTES", 16 * 4**3)
            chunked = list(q.run_noisy_batch(psi, self.circuit(), rows))
            monkeypatch.undo()
            want = q.DensityMatrix if model in rows else q.StateVector
            assert [type(r) for r in whole] == [want] * len(rows)
            assert [type(r) for r in chunked] == [want] * len(rows)
            for got, row in zip(chunked, whole):
                assert np.array_equal(got.data, row.data)

    def test_batch_above_the_cap_raises_before_allocating(self, monkeypatch):
        psi = q.new_statevector(3)
        monkeypatch.setattr(state, "DEFAULT_QUBIT_CAP", 2)

        def no_stack(*args):
            raise AssertionError("a stack was allocated")

        monkeypatch.setattr(noise, "_stack", no_stack)
        model = build_template_model("gamma1", 3, 0.01)
        # raised by the call itself, not on the first row
        with pytest.raises(q.CapacityError, match="3 qubits exceeds the cap of 2"):
            noise.run_noisy_batch(psi, self.circuit(), [model, model])

    def test_one_drifting_row_among_good_ones_raises(self):
        n = 3
        models = [
            build_template_model("gamma1_gamma2", n, 0.05),
            build_template_model("gamma1", n, 0.05),
            build_template_model("correlated", n, 0.05),
        ]
        rho = random_density_matrix(n, np.random.default_rng(0))
        for first_row in (0, 4):
            propagator = IntervalPropagator(models, n, q.PropagatorConfig(), first_row=first_row)
            rows = propagator.run(rho, self.circuit())
            assert all(abs(row.trace() - 1) < 1e-12 for row in rows)
            # row 1's channel on the pair (1, 0), spoilt after its build
            # check: 1e-3 of trace gained per interval, over 4 intervals
            (_, pair_stack) = propagator.stacks[-1]
            pair_stack[1] *= 1 + 1e-3
            message = rf"trace drifted by 0.00401 over the run in row {first_row + 1};"
            with pytest.raises(IntegrationError, match=message):
                propagator.run(rho, self.circuit())

    def test_the_final_check_tests_each_row_alone(self):
        # three rows 5e-7 off are accepted, though their drifts sum past
        # TRACE_DRIFT_LIMIT; of two rows off the first is named, and a NaN
        # row is named too
        assert 3 * 5e-7 > noise.TRACE_DRIFT_LIMIT
        propagator = IntervalPropagator([ad_model(0.1)] * 3, 1, q.PropagatorConfig(), first_row=5)

        def stack(*scales):
            rows = [pair(q.DensityMatrix(1, PLUS * s)).data for s in scales]
            return PairedDensity(1, np.stack(rows))

        scales = (1 + 5e-7, 1 - 5e-7, 1 + 5e-7)
        rows = propagator.finish(stack(*scales))
        assert [row.trace() for row in rows] == pytest.approx(scales, abs=1e-15)
        message = r"trace drifted by 0.002 over the run in row 6;"
        with pytest.raises(IntegrationError, match=message):
            propagator.finish(stack(1.0, 1 + 2e-3, 1 - 1e-3))
        # a drift off the real axis alone counts as well
        with pytest.raises(IntegrationError, match=message):
            propagator.finish(stack(1.0, 1 + 2e-3j, 1.0))
        message = r"trace drifted by nan over the run in row 7; increase substeps \(currently 64\)"
        with pytest.raises(IntegrationError, match=message):
            propagator.finish(stack(1.0, 1 + 5e-7, math.nan))

    def test_a_nan_row_of_a_one_gate_run_raises(self):
        # no interval runs, so no check after an interval ever saw this row;
        # the H moves the start's NaN coherence onto the diagonal
        circuit = q.BoundCircuit(1, (q.BoundGate("H", (0,)),))
        rho = q.DensityMatrix(1, np.array([[1, math.nan], [math.nan, 0]], dtype=complex))
        with pytest.raises(IntegrationError, match="trace drifted by nan over the run in row 0;"):
            q.run_noisy_circuit(rho, circuit, ad_model(0.1))
        propagator = IntervalPropagator([ad_model(0.1)] * 2, 1, q.PropagatorConfig(), first_row=2)
        with pytest.raises(IntegrationError, match="trace drifted by nan over the run in row 2;"):
            propagator.run(rho, circuit)
        out = q.run_noisy_circuit(q.DensityMatrix(1, PLUS.copy()), circuit, ad_model(0.1))
        assert out.trace() == pytest.approx(1.0, abs=1e-15)

    def test_the_trace_is_read_once_per_noisy_run(self, monkeypatch):
        shapes = []
        trace = PairedDensity.trace

        def counted(rho):
            shapes.append(rho.data.shape)
            return trace(rho)

        monkeypatch.setattr(PairedDensity, "trace", counted)
        model = build_template_model("gamma1_gamma2", 3, 0.02)
        psi, circuit = q.new_statevector(3), self.circuit()  # 5 gates, 4 intervals
        q.run_noisy_circuit(psi, circuit, model)
        assert shapes == [(1, 64)]
        shapes.clear()
        # the noisy runs are the rows of one batch; the ideal run is a state vector
        q.run_mitigation(circuit, model, self.observable())
        assert len(shapes) == 1
        shapes.clear()
        monkeypatch.setattr(noise, "BATCH_BYTES", 2 * 16 * 4**3)
        list(q.run_noisy_batch(psi, circuit, [model] * 3))  # once per chunk
        assert shapes == [(2, 64), (1, 64)]
        shapes.clear()
        quiet = scale_terms(model, range(len(model)), 0.0)
        q.run_noisy_circuit(psi, circuit, quiet)
        IntervalPropagator([quiet] * 2, 3, q.PropagatorConfig()).run(psi, circuit)
        assert shapes == []
        q.evolve(q.DensityMatrix(1, PLUS.copy()), ad_model(0.1), q.PropagatorConfig())
        assert shapes == [(1, 4)]

    def test_distinct_blocks_are_built_once(self, monkeypatch):
        calls = []
        blocks = noise._blocks

        def counted_blocks(terms, *args):
            calls.append(list(terms))
            return blocks(terms, *args)

        monkeypatch.setattr(noise, "_blocks", counted_blocks)
        model = build_template_model("gamma1_gamma2", 3, 0.01)
        rows = [model] + [scale_terms(model, [k, k + 3], 0.0) for k in range(3)]
        propagator = IntervalPropagator(rows, 3, q.PropagatorConfig())
        # one component per qubit, each held by the full row and two
        # removals, and every 1-qubit block built in the same call
        (built,) = calls
        assert sorted([t.qubits for t in terms] for terms in built) == [
            [(0,), (0,)], [(1,), (1,)], [(2,), (2,)]
        ]
        block = dense_block
        # each row's entry is the kron of its own blocks, the identity on a
        # qubit it has none on, bit for bit: qubit 2 leads alone (odd n),
        # then the pair (1, 0)
        assert [plan(row) for row in rows] == [
            [(2,), (1,), (0,)], [(2,), (1,)], [(2,), (0,)], [(1,), (0,)]
        ]
        cfg = q.PropagatorConfig()
        eye = np.eye(4)
        channel = {min(qs): block(terms, cfg) for qs, terms in noise._components(model)}
        p2, p1, p0 = channel[2], channel[1], channel[0]
        assert [qubits for qubits, _ in propagator.stacks] == [(2,), (1, 0)]
        top, pair_stack = (m.transpose(0, 2, 1) for _, m in propagator.stacks)  # held transposed
        assert [np.array_equal(m, p2) for m in top] == [True, True, True, False]
        assert np.array_equal(top[3], eye)
        want = [np.kron(p1, p0), np.kron(p1, eye), np.kron(eye, p0), np.kron(p1, p0)]
        for got, entry in zip(pair_stack, want):
            assert np.array_equal(got, entry)
        assert propagator.layers == []

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_paired_kernel_is_its_two_blocks_in_turn(self, n):
        terms = []
        for k in range(n):
            terms += [
                q.LindbladTerm("amplitude_damping", (k,), 0.01 * (k + 1)),
                q.LindbladTerm("thermal", (k,), 0.004, n_th=0.1 * k),
            ]
        model = q.NoiseModel(tuple(terms))
        cfg = q.PropagatorConfig(substeps=8)
        propagator = IntervalPropagator([model], n, cfg)
        blocks = [dense_block(tuple(terms[2 * k : 2 * k + 2]), cfg) for k in range(n)]
        # top first: odd n leads with the top qubit alone, then the pairs
        want_qubits = [(n - 1,)] * (n % 2) + [(k + 1, k) for k in reversed(range(0, n - 1, 2))]
        assert [qubits for qubits, _ in propagator.stacks] == want_qubits
        assert propagator.layers == []
        for qubits, stack in propagator.stacks:
            assert np.array_equal(stack[0].T, reduce(np.kron, [blocks[k] for k in qubits]))
        rho = random_density_matrix(n, np.random.default_rng(n))
        (got,) = propagate_rows(propagator, [rho])
        want = pair(rho).data[None]
        for k in reversed(range(n)):
            want = LocalOp(blocks[k], paired_axes((k,), n), 2 * n)(want)
        want = unpair(PairedDensity(n, want[0])).data
        assert np.max(np.abs(got.data - want)) < 1e-14
        assert np.max(np.abs(got.data - rho.data)) > 1e-3

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_qubit_count_rows_match_alone_and_kron_oracle(self, n):
        # the lone top qubit takes a 4x4 step before the pairs; each row
        # of a mitigation's batch, a row mixing 1-qubit and wider blocks
        # included, is its run alone bit for bit
        model = build_template_model("thermal", n, 0.02, n_th=0.3)
        mixed = q.NoiseModel(
            model.terms[1:] + (q.LindbladTerm("correlated", (0, n - 1), 0.01),)
        )
        rows = [model, mixed] + [scale_terms(model, [k], 0.0) for k in range(n)]
        cfg = q.PropagatorConfig(substeps=8)
        rhos = [random_density_matrix(n, np.random.default_rng(s)) for s in range(len(rows))]
        batch = propagate_rows(IntervalPropagator(rows, n, cfg), rhos)
        eye = np.eye(4)
        for model, rho, got in zip(rows, rhos, batch):
            (alone,) = propagate_rows(IntervalPropagator([model], n, cfg), [rho])
            assert np.array_equal(got.data, alone.data)
            if model is mixed:
                continue
            # the kron oracle: the whole interval as one 4^n x 4^n matrix
            lone = {t.qubits[0]: t for t in model.terms}
            factors = [
                dense_block((lone[k],), cfg) if k in lone else eye
                for k in reversed(range(n))
            ]
            want = reduce(np.kron, factors) @ pair(rho).data
            want = unpair(PairedDensity(n, want)).data
            assert np.max(np.abs(got.data - want)) < 1e-14

    def test_two_layers_in_one_row(self):
        # layer 0 steps each row's top block, the full row's top chain, the
        # middle row's pair and the last row's chain, and layer 1 the full
        # row's low chain; the middle row has a 1-qubit block as well
        n = 6
        top = (
            q.LindbladTerm("correlated", (5, 4), 0.2),
            q.LindbladTerm("amplitude_damping", (4,), 0.05),
            q.LindbladTerm("correlated", (3, 4), 0.1),
        )
        low = (
            q.LindbladTerm("correlated", (1, 0), 0.25),
            q.LindbladTerm("dephasing", (0,), 0.1),
            q.LindbladTerm("correlated", (2, 1), 0.15),
        )
        middle = q.NoiseModel(
            (q.LindbladTerm("thermal", (3,), 0.1, n_th=0.2), q.LindbladTerm("correlated", (5, 4), 0.1))
        )
        rows = [q.NoiseModel(top + low), middle, q.NoiseModel(low)]
        cfg = q.PropagatorConfig(substeps=4)
        propagator = IntervalPropagator(rows, n, cfg)
        assert layer_rows(propagator, n) == [[0, 1, 2], [0]]
        assert [plan(row) for row in rows] == [[(5, 4, 3), (2, 1, 0)], [(5, 4), (3,)], [(2, 1, 0)]]
        alone = [IntervalPropagator([model], n, cfg) for model in rows]
        assert [len(p.layers) for p in alone] == [2, 1, 1]
        rhos = [random_density_matrix(n, np.random.default_rng(s)) for s in range(3)]
        batch = propagate_rows(propagator, rhos)
        for model, single, rho, got in zip(rows, alone, rhos, batch):
            assert np.array_equal(got.data, propagate_rows(single, [rho])[0].data)
            # the blocks commute: one dense RK4 per block, in any order
            want = rho.data
            for _, terms in noise._components(model):
                block = dense_liouvillian(q.NoiseModel(terms), n)
                want = dense_rk4(block, want, cfg.tau, cfg.substeps)
            assert np.max(np.abs(got.data - want)) < 1e-12
            assert np.max(np.abs(got.data - rho.data)) > 1e-3

    def test_entry_points_leave_the_callers_state_unchanged(self):
        # an interval may overwrite the stack it steps, so every entry point
        # hands it one of its own; the model holds a 1-qubit, a 2-qubit and
        # a 3-qubit block
        n = 6
        model = q.NoiseModel(
            (
                q.LindbladTerm("amplitude_damping", (0,), 0.1),
                q.LindbladTerm("correlated", (2, 1), 0.2),
                q.LindbladTerm("correlated", (3, 4), 0.15),
                q.LindbladTerm("correlated", (5, 4), 0.1),
            )
        )
        assert plan(model) == [(5, 4, 3), (2, 1), (0,)]
        propagator = IntervalPropagator([model], n, q.PropagatorConfig())
        assert len(propagator.stacks) == 3 and layer_rows(propagator, n) == [[0], [0]]
        cfg = q.PropagatorConfig(substeps=4)
        circuit = q.BoundCircuit(
            n, tuple(q.BoundGate("H", (k,)) for k in range(n)) + (q.BoundGate("CNOT", (0, 5)),)
        )
        models = [model, scale_terms(model, [1], 0.0), scale_terms(model, [3], 2.0)]
        rng = np.random.default_rng(6)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        starts = [q.StateVector(n, psi / np.linalg.norm(psi)), random_density_matrix(n, rng)]
        for start in starts:
            before = start.data.copy()
            rho = start.to_density_matrix() if isinstance(start, q.StateVector) else start
            for m in (model, q.NoiseModel(model.terms[2:])):  # the 3-qubit block alone too
                evolved = q.evolve(start, m, cfg)
                assert np.max(np.abs(evolved.data - rho.data)) > 1e-4
                assert np.array_equal(start.data, before)
            q.run_noisy_circuit(start, circuit, model, cfg)
            assert np.array_equal(start.data, before)
            assert len(list(noise.run_noisy_batch(start, circuit, models, cfg))) == 3
            assert np.array_equal(start.data, before)

    def test_trace_sites_see_one_batched_run_and_the_ideal_run(self, monkeypatch):
        calls = {"gate": 0, "build": 0, "propagate": 0}
        apply_gate = noise.apply_gate

        def counted_gate(state, gate):
            calls["gate"] += 1
            return apply_gate(state, gate)

        class Counted(IntervalPropagator):
            def __init__(self, *args, **kwargs):
                calls["build"] += 1
                super().__init__(*args, **kwargs)

            def propagate(self, *args, **kwargs):
                calls["propagate"] += 1
                return super().propagate(*args, **kwargs)

        monkeypatch.setattr(noise, "apply_gate", counted_gate)
        monkeypatch.setattr(noise, "IntervalPropagator", Counted)
        circuit = self.circuit()
        g = len(circuit.gates)
        model = build_template_model("thermal", 3, 0.01)
        q.run_mitigation(circuit, model, self.observable())
        # the ideal run builds its propagator but applies fused ops on the
        # state vector, so only the batched run passes the gate and interval
        # sites.  Its rows have 1-qubit blocks alone, so its passes compose:
        # H(0), CNOT(0, 1) on the pair (1, 0) and Rx(2) on the lone top
        # qubit fold into one pending pass, which is paid before CNOT(2, 0),
        # a gate of its own; the interval after it is paid before the last
        # H(1), a gate of its own
        assert g == 5
        assert calls == {"gate": 2, "build": 2, "propagate": 2}


class TestModelEditing:
    def test_remove_and_scale_terms(self):
        model = build_template_model("gamma1", 3, 0.1)
        scaled = scale_terms(model, [1], 3.0)
        assert scaled.terms[1].rate == pytest.approx(0.3)
        assert scaled.terms[0].rate == pytest.approx(0.1)
        assert scale_terms(model, [np.int64(1)], 3.0) == scaled

    # True and 1.0 each equal 1, and used to remove term 1
    @pytest.mark.parametrize("indices", [[3], [7], [-1], [0, 3], [True], [1.0], [0, "1"]])
    def test_index_outside_the_model_is_refused(self, indices):
        # such a "removal" used to return the full-noise model unchanged
        model = build_template_model("gamma1", 3, 0.1)
        with pytest.raises(ValueError, match="out of range for 3 terms"):
            scale_terms(model, indices, 0.0)


class TestConfigHelpers:
    def test_template_models(self):
        both = build_template_model("gamma1_gamma2", 4, 0.1)
        assert len(both) == 8
        corr = build_template_model("correlated", 4, 0.1)
        assert [t.qubits for t in corr.terms] == [(0, 1), (1, 2), (2, 3), (3, 0)]
        with pytest.raises(ValueError):
            build_template_model("nope", 4, 0.1)

    @pytest.mark.parametrize("n_qubits", [0, -1])
    def test_template_without_qubits_names_the_count(self, n_qubits):
        message = f"gamma1 template n_qubits must be an int >= 1, got {n_qubits}"
        with pytest.raises(ValueError, match=message):
            build_template_model("gamma1", n_qubits, 0.1)


class TestParallelSafety:
    def test_concurrent_runs_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        circuit = q.BoundCircuit(
            2, (q.BoundGate("H", (0,)), q.BoundGate("CNOT", (0, 1)), q.BoundGate("X", (1,)))
        )
        model = build_template_model("gamma1_gamma2", 2, 0.01)

        def run():
            return q.run_noisy_circuit(q.new_pure_ground(2), circuit, model)

        serial = run()
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: run(), range(4)))
        for r in results:
            assert np.array_equal(r.data, serial.data)

    @pytest.mark.parametrize("kernel", [False, True], ids=["gamma1_gamma2", "with_a_kernel"])
    def test_threads_may_replace_the_kept_plan(self, kernel):
        # threads run bindings of two Circuits on one propagator, so its one
        # kept plan is marked, kept and replaced under them; a run reads the
        # slot once and writes only into passes of its own, so each result
        # is a fresh propagator's bit for bit
        from concurrent.futures import ThreadPoolExecutor

        n = 4
        model = build_template_model("gamma1_gamma2", n, 0.02)
        model = q.NoiseModel(model.terms + (q.LindbladTerm("correlated", (1, 2), 0.02),) * kernel)
        cfg = q.PropagatorConfig(substeps=4)
        circuits = [q.build_ansatz(q.AnsatzSpec("Entangling", layers=k), n) for k in (1, 2)]
        rng = np.random.default_rng(5)
        jobs = [(c, rng.uniform(-3, 3, c.n_params)) for c in circuits for _ in range(3)]
        psi = q.new_statevector(n)
        want = [IntervalPropagator([model], n, cfg).run(psi, q.bind(c, t)) for c, t in jobs]
        propagator = IntervalPropagator([model], n, cfg)

        def run(job):
            circuit, theta = job
            return propagator.run(psi, q.bind(circuit, theta))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, jobs * 8, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for (got,), (expected,) in zip(results, want * 8):
            assert np.array_equal(got.data, expected.data)
        assert propagator.kept[0] in circuits

    def test_threads_share_a_propagator_with_a_wide_block(self):
        # each call makes its own work stacks, so threads may share the
        # propagator, as the evaluations of one noisy VQE problem do
        from concurrent.futures import ThreadPoolExecutor

        n = 5
        model = build_template_model("correlated", n, 0.05)
        rows = [model, scale_terms(model, [0], 0.0), scale_terms(model, [2], 2.0)]
        propagator = IntervalPropagator(rows, n, q.PropagatorConfig(substeps=2))
        assert layer_rows(propagator, n) == [[0, 1, 2]]
        circuit = q.BoundCircuit(
            n, tuple(q.BoundGate("H", (k,)) for k in range(n)) + (q.BoundGate("CNOT", (0, 3)),)
        )

        def run(_):
            return propagator.run(q.new_statevector(n), circuit)

        serial = run(None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(run, range(8), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 8
        for rows_out in results:
            for got, want in zip(rows_out, serial):
                assert np.array_equal(got.data, want.data)
        rhos = [random_density_matrix(n, np.random.default_rng(s)) for s in range(3)]
        stack = PairedDensity(n, np.stack([pair(rho).data for rho in rhos]))
        before = stack.data.copy()
        out = propagator.propagate(stack)
        assert np.max(np.abs(out.data - before)) > 1e-3
