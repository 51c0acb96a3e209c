import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qemsim as q
from qemsim.paulis import PauliParseError, dense_matrix

from conftest import pauli_sum_dense, random_density_matrix


def psum(terms, n):
    return q.PauliSum([(c, q.PauliString(ops)) for c, ops in terms], n)


# Sums whose strings fold together in the per-mask table: a string
# repeated, several strings on one X/Y mask, odd Y counts, the identity.
FOLDING_SUMS = [
    ([(0.5, {0: "X"}), (-1.5, {0: "X"}), (0.25, {})], 1),
    ([(1.0, {0: "X", 1: "Z"}), (0.3, {0: "Y"}), (-0.7, {0: "X", 2: "Y"}),
      (0.2, {0: "Y", 2: "X"})], 3),
    ([(0.9, {0: "Y", 1: "Y", 2: "Y"}), (0.4, {1: "Y"}), (-0.6, {1: "Y", 2: "Z"})], 3),
    ([(2.5, {})], 2),
]


@st.composite
def pauli_sums(draw):
    """A PauliSum on 1-4 qubits whose strings come from a pool of at most
    4, so that strings repeat and share masks."""
    n = draw(st.integers(1, 4))
    string = st.dictionaries(st.integers(0, n - 1), st.sampled_from("XYZ"), max_size=n)
    pool = draw(st.lists(string, min_size=1, max_size=4))
    term = st.tuples(st.floats(-2, 2), st.sampled_from(pool))
    terms = draw(st.lists(term, min_size=1, max_size=8))
    return psum(terms, n)


class TestParsing:
    def test_basic_two_term_file(self):
        h = q.parse_pauli_sum("qubits 2\n-0.5 I\n0.25 Z0 Z1\n")
        assert h.n_qubits == 2
        assert len(h) == 2
        assert h.terms[0][0] == -0.5
        assert h.terms[0][1].is_identity()
        assert str(h.terms[1][1]) == "Z0 Z1"

    def test_single_x_observable(self):
        h = q.parse_pauli_sum("qubits 1\n1.0 X0\n")
        assert len(h) == 1
        assert str(h.terms[0][1]) == "X0"

    def test_duplicate_qubit_in_string(self):
        with pytest.raises(PauliParseError):
            q.parse_pauli_sum("qubits 2\n1.0 Z0 Z0\n")

    def test_comments_and_blank_lines(self):
        text = "# header\n\nqubits 2\n# a term\n0.5 X1  # trailing\n"
        h = q.parse_pauli_sum(text)
        assert len(h) == 1

    def test_index_beyond_declared_count(self):
        with pytest.raises(PauliParseError):
            q.parse_pauli_sum("qubits 2\n1.0 Z2\n")

    def test_malformed_lines_carry_line_number(self):
        with pytest.raises(PauliParseError, match="line 2"):
            q.parse_pauli_sum("qubits 2\nnope Z0\n")
        with pytest.raises(PauliParseError):
            q.parse_pauli_sum("qubits 2\n1.0 Q0\n")
        with pytest.raises(PauliParseError):
            q.parse_pauli_sum("")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# none\nqubits 0\n0.5 I\n", "line 2: 'qubits' must be at least 1, got 0"),
            ("qubits two\n0.5 I\n", "line 1: expected 'qubits N' header, got 'qubits two'"),
            ("# only a comment\n", "expected 'qubits N' header, got end of file"),
        ],
        ids=["zero_qubits", "bad_count", "empty"],
    )
    def test_bad_header_carries_its_line(self, text, message):
        with pytest.raises(PauliParseError, match=message):
            q.parse_pauli_sum(text)

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(0)
        terms = [(float(rng.normal()), {0: "X", 2: "Z"}), (float(rng.normal()), {})]
        h = psum(terms, 3)
        # 17 significant digits name every double exactly
        text = "".join(f"{c:.17g} {p}\n" for c, p in h.terms)
        again = q.parse_pauli_sum(f"qubits {h.n_qubits}\n{text}")
        assert again.n_qubits == h.n_qubits
        for (c1, p1), (c2, p2) in zip(h.terms, again.terms):
            assert c1 == c2  # bit-exact
            assert p1 == p2


class TestExpectation:
    def test_z_on_ground(self):
        rho = q.new_pure_ground(1)
        assert q.expectation(rho, psum([(1.0, {0: "Z"})], 1)) == pytest.approx(1.0)

    def test_identity_returns_constant(self):
        rho = q.apply_gate(q.new_pure_ground(2), q.BoundGate("H", (0,)))
        assert q.expectation(rho, psum([(2.5, {})], 2)) == pytest.approx(2.5)

    def test_x_on_plus_state(self):
        rho = q.apply_gate(q.new_pure_ground(1), q.BoundGate("H", (0,)))
        assert q.expectation(rho, psum([(1.0, {0: "X"})], 1)) == pytest.approx(1.0)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            q.expectation(q.new_pure_ground(2), psum([(1.0, {0: "Z"})], 1))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        rho = random_density_matrix(2, rng)
        a = psum([(1.0, {0: "X"}), (0.5, {1: "Z"})], 2)
        b = psum([(1.0, {0: "Y", 1: "Y"})], 2)
        combo = q.PauliSum(
            [(0.7 * c, p) for c, p in a.terms] + [(-1.3 * c, p) for c, p in b.terms], 2
        )
        lhs = q.expectation(rho, combo)
        rhs = 0.7 * q.expectation(rho, a) - 1.3 * q.expectation(rho, b)
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_termwise_matches_dense_oracle(self, n):
        rng = np.random.default_rng(n + 10)
        letters = "XYZ"
        for trial in range(5):
            rho = random_density_matrix(n, rng)
            ops = {
                int(qb): letters[rng.integers(3)]
                for qb in rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            }
            a = psum([(float(rng.normal()), ops), (float(rng.normal()), {})], n)
            want = np.trace(rho.data @ pauli_sum_dense(a)).real
            assert abs(q.expectation(rho, a) - want) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(pauli_sums(), st.integers(0, 2**32 - 1))
    @example(psum(*FOLDING_SUMS[1]), 0)
    @example(psum(*FOLDING_SUMS[2]), 1)
    def test_both_layouts_match_the_dense_matrix(self, a, seed):
        rng = np.random.default_rng(seed)
        dense = dense_matrix(a)
        rho = random_density_matrix(a.n_qubits, rng)
        assert abs(q.expectation(rho, a) - np.trace(dense @ rho.data).real) < 1e-12
        psi = rng.normal(size=2**a.n_qubits) + 1j * rng.normal(size=2**a.n_qubits)
        psi /= np.linalg.norm(psi)
        want = np.vdot(psi, dense @ psi).real
        assert abs(q.expectation(q.StateVector(a.n_qubits, psi), a) - want) < 1e-12

    def test_nan_state_is_refused(self):
        # NaN fails every comparison, so the imaginary-part check alone let it through
        a = psum([(1.0, {0: "Z"}), (0.5, {0: "X"})], 1)
        psi = q.new_statevector(1)
        psi.data[1] = np.nan
        rho = q.new_pure_ground(1)
        rho.data[1, 1] = np.nan
        for state in (psi, rho):
            with pytest.raises(ValueError, match="expectation is not finite"):
                q.expectation(state, a)

    def test_table_is_built_once_per_sum(self, monkeypatch, h2_hamiltonian):
        a = q.PauliSum(h2_hamiltonian.terms, h2_hamiltonian.n_qubits)
        calls = []
        masks = q.PauliString.masks
        monkeypatch.setattr(q.PauliString, "masks", lambda ps: calls.append(ps) or masks(ps))
        assert "_by_flip" not in a.__dict__  # nothing is built before the first use
        rho = random_density_matrix(4, np.random.default_rng(7))
        first = q.expectation(rho, a)
        assert q.expectation(rho, a) == first
        dense_matrix(a)
        assert len(calls) == len(a)

    def test_pickled_sum_evaluates_alike(self, h2_hamiltonian):
        rho = random_density_matrix(4, np.random.default_rng(8))
        want = q.expectation(rho, h2_hamiltonian)
        again = pickle.loads(pickle.dumps(h2_hamiltonian))
        assert again == h2_hamiltonian
        assert q.expectation(rho, again) == want

    def test_h2_folds_into_two_masks(self, h2_hamiltonian):
        assert len(h2_hamiltonian) == 15
        assert len(h2_hamiltonian._by_flip) == 2


class TestGroundEnergy:
    def test_single_z(self):
        assert q.exact_ground_energy(psum([(1.0, {0: "Z"})], 1)) == pytest.approx(-1.0)

    def test_shifted_zz(self):
        h = psum([(0.5, {}), (1.0, {0: "Z", 1: "Z"})], 2)
        assert q.exact_ground_energy(h) == pytest.approx(-0.5)

    def test_dense_matrix_matches_oracle(self, h2_hamiltonian):
        for a in [h2_hamiltonian] + [psum(*case) for case in FOLDING_SUMS]:
            dense = dense_matrix(a)
            assert np.max(np.abs(dense - pauli_sum_dense(a))) < 1e-12

    def test_h2_ground_energy(self, h2_hamiltonian, h2_ground_energy):
        assert q.exact_ground_energy(h2_hamiltonian) == pytest.approx(
            h2_ground_energy, abs=1e-10
        )

    def test_variational_floor(self, h2_hamiltonian, h2_ground_energy):
        rng = np.random.default_rng(4)
        for _ in range(10):
            rho = random_density_matrix(4, rng)
            assert q.expectation(rho, h2_hamiltonian) >= h2_ground_energy - 1e-9


class TestValidation:
    def test_non_finite_coefficient(self):
        with pytest.raises(ValueError):
            psum([(float("nan"), {0: "Z"})], 1)

    def test_string_exceeding_n_qubits(self):
        with pytest.raises(ValueError):
            psum([(1.0, {3: "Z"})], 2)
