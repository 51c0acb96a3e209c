import numpy as np
import pytest

import qemsim as q
from qemsim.state import PairedDensity, apply_local, embed, pair, paired_axes, unpair

from conftest import PAULI, from_debug_json, kron_embed, kron_embed_multi, to_debug_json


def bound(kind, qubits, angle=None):
    return q.BoundGate(kind, tuple(qubits), angle)


def purity(rho):
    """tr(rho^2), which for a Hermitian rho is the sum of |rho_ij|^2."""
    return np.vdot(rho.data, rho.data).real


class TestNewPureGround:
    def test_single_qubit(self):
        rho = q.new_pure_ground(1)
        assert np.allclose(rho.data, [[1, 0], [0, 0]])

    def test_two_qubits(self):
        rho = q.new_pure_ground(2)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1
        assert np.allclose(rho.data, expected)

    def test_four_qubits_trace_and_purity(self):
        rho = q.new_pure_ground(4)
        assert abs(rho.trace() - 1) < 1e-12
        assert abs(purity(rho) - 1) < 1e-12

    def test_capacity_error(self):
        with pytest.raises(q.CapacityError):
            q.new_pure_ground(15)
        with pytest.raises(ValueError):
            q.new_pure_ground(0)

    def test_configurable_cap(self):
        with pytest.raises(q.CapacityError):
            q.new_pure_ground(5, cap=4)


class TestApplyGate:
    def test_x_flips_ground(self):
        rho = q.apply_gate(q.new_pure_ground(1), bound("X", [0]))
        assert np.allclose(rho.data, [[0, 0], [0, 1]])

    def test_hadamard_superposition(self):
        rho = q.apply_gate(q.new_pure_ground(1), bound("H", [0]))
        assert np.allclose(rho.data, [[0.5, 0.5], [0.5, 0.5]])

    def test_bell_state(self):
        rho = q.new_pure_ground(2)
        rho = q.apply_gate(rho, bound("H", [0]))
        rho = q.apply_gate(rho, bound("CNOT", [0, 1]))
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        assert np.allclose(rho.data, expected, atol=1e-12)

    def test_invalid_qubits(self):
        rho = q.new_pure_ground(2)
        with pytest.raises(ValueError):
            q.apply_gate(rho, bound("X", [2]))
        with pytest.raises(ValueError):
            q.apply_gate(rho, bound("CNOT", [1, 1]))

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_purity_and_inverse(self, seed):
        rng = np.random.default_rng(seed)
        rho0 = q.new_pure_ground(3)
        for kind in ("H", "X"):
            rho0 = q.apply_gate(rho0, bound(kind, [int(rng.integers(3))]))
        gate = bound("Rx", [int(rng.integers(3))], float(rng.uniform(-3, 3)))
        rho1 = q.apply_gate(rho0, gate)
        assert abs(rho1.trace() - rho0.trace()) < 1e-12
        assert abs(purity(rho1) - purity(rho0)) < 1e-9
        inverse = bound("Rx", gate.qubits, -gate.angle)
        back = q.apply_gate(rho1, inverse)
        assert np.max(np.abs(back.data - rho0.data)) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_single_qubit_kron_oracle(self, n):
        rng = np.random.default_rng(n)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(a)
        rho = q.new_pure_ground(n)
        for qb in range(n):
            rho = q.apply_gate(rho, bound("H", [qb]))
        for qb in range(n):
            gate = bound("Rz", [qb], 0.7 * (qb + 1))
            got = q.apply_gate(rho, gate)
            full = kron_embed(gate.matrix(), qb, n)
            want = full @ rho.data @ full.conj().T
            assert np.max(np.abs(got.data - want)) < 1e-12

    def test_cnot_kron_oracle(self):
        # CNOT(c, t) = P0_c + P1_c X_t, assembled independently
        n = 3
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho_data = a @ a.conj().T
        rho_data /= np.trace(rho_data)
        rho = q.DensityMatrix(n, rho_data)
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        for c, t in [(0, 1), (1, 0), (0, 2), (2, 1)]:
            full = kron_embed(p0, c, n) + kron_embed(p1, c, n) @ kron_embed(
                PAULI["X"], t, n
            )
            want = full @ rho.data @ full.conj().T
            got = q.apply_gate(rho, bound("CNOT", [c, t]))
            assert np.max(np.abs(got.data - want)) < 1e-12


class TestDiagnostics:
    def test_min_eigenvalue_of_pure_state(self):
        rho = q.new_pure_ground(2)
        rho = q.apply_gate(rho, bound("H", [0]))
        rho = q.apply_gate(rho, bound("CNOT", [0, 1]))
        assert abs(rho.min_eigenvalue()) < 1e-9

    def test_hermiticity_defect(self):
        rho = q.new_pure_ground(1)
        assert rho.hermiticity_defect() < 1e-15
        rho.data[0, 1] = 0.1j
        assert rho.hermiticity_defect() == pytest.approx(0.1)

    def test_debug_json_round_trip(self):
        rho = q.apply_gate(q.new_pure_ground(2), bound("H", [1]))
        back = from_debug_json(to_debug_json(rho))
        assert back.n_qubits == 2
        assert np.allclose(back.data, rho.data)


class TestKernels:
    def test_left_right_match_dense(self):
        # U on the row axes is U @ rho; M on the column axes is rho @ M^T
        n = 3
        rng = np.random.default_rng(9)
        rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        for qubits in [(0, 1), (2, 0), (1, 2), (2, 1)]:
            full = kron_embed_multi(m, qubits, n)
            left = apply_local(rho, m, [n - 1 - qb for qb in qubits])
            right = apply_local(rho, m, [2 * n - 1 - qb for qb in qubits])
            assert np.max(np.abs(left - full @ rho)) < 1e-12
            assert np.max(np.abs(right - rho @ full.T)) < 1e-12
            assert np.max(np.abs(embed(m, qubits, n) - full)) < 1e-12

    def test_superoperator_on_doubled_register(self):
        # kron(A, B^T) on the paired axes of a qubit is A rho B
        n = 3
        rng = np.random.default_rng(6)
        rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        paired = pair(q.DensityMatrix(n, rho)).data
        for qb in range(n):
            out = apply_local(paired, np.kron(a, b.T), paired_axes((qb,), n))
            got = unpair(PairedDensity(n, out)).data
            want = kron_embed(a, qb, n) @ rho @ kron_embed(b, qb, n)
            assert np.max(np.abs(got - want)) < 1e-12

    def test_embed_against_kron(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        for qb in range(3):
            assert np.max(np.abs(embed(m, (qb,), 3) - kron_embed(m, qb, 3))) < 1e-14
