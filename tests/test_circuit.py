import math

import numpy as np
import pytest
from scipy.linalg import expm

import qemsim as q
from qemsim.circuit import Param
from qemsim.experiments import dense_unitary

from conftest import pauli_string_dense


class TestBind:
    def test_prefactor_resolution(self):
        c = q.Circuit(1, (q.Gate("Rz", (0,), Param(0, 2.0)),), 1)
        bc = q.bind(c, [0.5])
        assert bc.gates[0].angle == pytest.approx(1.0)

    def test_zero_parameter_circuit(self):
        c = q.Circuit(1, (q.Gate("H", (0,)),), 0)
        bc = q.bind(c, [])
        assert len(bc) == 1
        assert bc.gates[0].kind == "H"

    @pytest.mark.parametrize(
        "n_qubits,gates,n_params,message",
        [
            (0, (), 0, "n_qubits must be an int >= 1, got 0"),
            (-2, (), 0, "n_qubits must be an int >= 1, got -2"),
            (2.5, (q.Gate("H", (0,)),), 0, "n_qubits must be an int >= 1, got 2.5"),
            (True, (), 0, "n_qubits must be an int >= 1, got True"),
            (2, (), -1, "n_params must be an int >= 0, got -1"),
            (2, (), 1.0, "n_params must be an int >= 0, got 1.0"),
        ],
    )
    def test_register_and_parameter_count_are_checked(self, n_qubits, gates, n_params, message):
        # Circuit(2, (), -1) used to be built, and its bind then failed with
        # "circuit expects -1"
        with pytest.raises(ValueError, match=message):
            q.Circuit(n_qubits, gates, n_params)

    @pytest.mark.parametrize("n_qubits", [0, -1, 2.5, True])
    def test_bound_circuit_register_is_checked_as_circuits_is(self, n_qubits):
        # BoundCircuit(0, ()) used to be built, with a 1x1 dense_unitary, and
        # -1 or 2.5 failed later with a TypeError
        with pytest.raises(ValueError, match=f"n_qubits must be an int >= 1, got {n_qubits!r}"):
            q.BoundCircuit(n_qubits, ())
        assert q.BoundCircuit(np.int64(1), ()).n_qubits == 1

    def test_length_mismatch(self):
        c = q.Circuit(1, (q.Gate("Rz", (0,), Param(0)),), 1)
        with pytest.raises(ValueError):
            q.bind(c, [0.1, 0.2])

    @pytest.mark.parametrize("angle", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_angle(self, angle):
        c = q.Circuit(1, (q.Gate("Rz", (0,), Param(0)), q.Gate("Rx", (0,), Param(1))), 2)
        with pytest.raises(ValueError):
            q.bind(c, [0.1, angle])

    def test_non_finite_prefactor_is_refused_in_bind(self):
        c = q.Circuit(1, (q.Gate("H", (0,)), q.Gate("Rz", (0,), Param(0, math.nan))), 1)
        with pytest.raises(ValueError, match="Rz needs a finite angle, got nan"):
            q.bind(c, [0.1])

    def test_literal_angles_pass_through(self):
        c = q.Circuit(1, (q.Gate("Rx", (0,), 0.75),), 0)
        assert q.bind(c, []).gates[0].angle == pytest.approx(0.75)


class TestGateValidation:
    def test_rotation_needs_param(self):
        with pytest.raises(ValueError):
            q.Gate("Rz", (0,))

    def test_fixed_gate_rejects_param(self):
        with pytest.raises(ValueError):
            q.Gate("H", (0,), 0.3)

    def test_cnot_needs_two_distinct(self):
        with pytest.raises(ValueError):
            q.Gate("CNOT", (1, 1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            q.Gate("T", (0,))

    @pytest.mark.parametrize(
        "kind, qubits, angle, message",
        [
            ("Foo", (0,), None, "unknown gate kind 'Foo'"),
            ("H", (0,), 0.5, "H takes no angle, got 0.5"),
            ("CNOT", (0, 1), 0.5, "CNOT takes no angle, got 0.5"),
            ("Rx", (0,), None, "Rx angle must be a finite real, got None"),
            ("Rz", (0,), math.nan, "Rz angle must be a finite real, got nan"),
            ("Ry", (0,), -math.inf, "Ry angle must be a finite real, got -inf"),
        ],
        ids=["unknown", "angle_on_h", "angle_on_cnot", "missing_angle", "nan_angle", "inf_angle"],
    )
    def test_bound_gate_matrix_refuses_what_gate_refuses(self, kind, qubits, angle, message):
        # one check serves both, when the gate is built
        for cls in (q.Gate, q.BoundGate):
            with pytest.raises(ValueError, match=message):
                cls(kind, qubits, angle)

    def test_bound_gate_refuses_a_symbolic_angle(self):
        with pytest.raises(ValueError, match=r"Rz angle must be a finite real, got Param\(index=0"):
            q.BoundGate("Rz", (0,), Param(0))

    @pytest.mark.parametrize("angle", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_literal_angle_is_refused_when_built(self, angle):
        with pytest.raises(ValueError, match="Rx angle must be a finite real"):
            q.Gate("Rx", (0,), float(angle))

    @pytest.mark.parametrize(
        "qubits",
        [(-1,), (0.0,), ("0",), (), (True,), (np.bool_(True),)],
        ids=["negative", "float", "str", "none", "bool", "numpy_bool"],
    )
    def test_qubits_must_be_non_negative_ints(self, qubits):
        # a bool used to be taken as qubit 0 or 1
        for cls in (q.Gate, q.BoundGate):
            with pytest.raises(ValueError, match=r"X needs 1 distinct non-negative qubit\(s\)"):
                cls("X", qubits)

    def test_qubits_become_a_tuple_of_ints(self):
        for cls in (q.Gate, q.BoundGate):
            gate = cls("CNOT", [np.int64(2), 0])
            assert gate.qubits == (2, 0)
            assert all(type(qb) is int for qb in gate.qubits)

    def test_gate_past_the_register_is_refused_by_the_oracle(self):
        circuit = q.BoundCircuit(3, (q.BoundGate("X", (3,)),))
        with pytest.raises(ValueError, match="qubit index 3 out of range for 3 qubits"):
            dense_unitary(circuit)

    def test_circuit_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            q.Circuit(1, (q.Gate("X", (1,)),), 0)
        with pytest.raises(ValueError):
            q.Circuit(1, (q.Gate("Rz", (0,), Param(2)),), 1)


class TestCompilePauliExponential:
    def test_single_z_is_one_rz(self):
        gates = q.compile_pauli_exponential(q.PauliString({0: "Z"}), Param(0), 1)
        assert [g.kind for g in gates] == ["Rz"]

    def test_single_x_is_h_rz_h(self):
        gates = q.compile_pauli_exponential(q.PauliString({0: "X"}), Param(0), 1)
        assert [g.kind for g in gates] == ["H", "Rz", "H"]

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            q.compile_pauli_exponential(q.PauliString({}), Param(0), 1)

    @pytest.mark.parametrize("theta", [0.3, -1.1, math.pi])
    def test_y0z1_matches_matrix_exponential(self, theta):
        ps = q.PauliString({0: "Y", 1: "Z"})
        gates = q.compile_pauli_exponential(ps, theta, 2)
        u = dense_unitary(q.bind(q.Circuit(2, tuple(gates), 0), []))
        want = expm(-0.5j * theta * pauli_string_dense(ps, 2))
        assert np.max(np.abs(u - want)) < 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_random_strings_match_expm(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        qubits = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        ps = q.PauliString({int(qb): "XYZ"[rng.integers(3)] for qb in qubits})
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        gates = q.compile_pauli_exponential(ps, theta, n)
        u = dense_unitary(q.bind(q.Circuit(n, tuple(gates), 0), []))
        want = expm(-0.5j * theta * pauli_string_dense(ps, n))
        assert np.max(np.abs(u - want)) < 1e-10

    def test_zero_angle_is_identity(self):
        ps = q.PauliString({0: "X", 1: "Y", 2: "Z"})
        gates = q.compile_pauli_exponential(ps, 0.0, 3)
        u = dense_unitary(q.bind(q.Circuit(3, tuple(gates), 0), []))
        assert np.max(np.abs(u - np.eye(8))) < 1e-12

    def test_gate_count_formula(self):
        ps = q.PauliString({0: "X", 1: "Z", 3: "Y"})
        gates = q.compile_pauli_exponential(ps, Param(0), 4)
        basis = 2  # X and Y need basis changes, Z does not
        ladder = 2  # three involved qubits
        assert len(gates) == 2 * basis + 2 * ladder + 1
        again = q.compile_pauli_exponential(ps, Param(0), 4)
        assert gates == again  # deterministic

    def test_ladder_targets_highest_qubit(self):
        ps = q.PauliString({0: "Z", 2: "Z", 3: "Z"})
        gates = q.compile_pauli_exponential(ps, Param(0), 4)
        rz = [g for g in gates if g.kind == "Rz"]
        assert len(rz) == 1 and rz[0].qubits == (3,)


class TestBuildAnsatz:
    def test_entangling_param_counts(self):
        c1 = q.build_ansatz(q.AnsatzSpec("Entangling", layers=1), 4)
        assert c1.n_params == 20
        c4 = q.build_ansatz(q.AnsatzSpec("Entangling", layers=4), 4)
        assert c4.n_params == 56

    def test_entangling_single_layer_structure(self):
        c = q.build_ansatz(q.AnsatzSpec("Entangling", layers=1), 4)
        kinds = [g.kind for g in c.gates]
        # initial rotations per qubit
        assert kinds[:8] == ["Rx", "Rz"] * 4
        # ring of H + CNOT
        ring = c.gates[8:16]
        assert [g.kind for g in ring] == ["H", "CNOT"] * 4
        cnots = [g for g in ring if g.kind == "CNOT"]
        assert [g.qubits for g in cnots] == [(0, 1), (1, 2), (2, 3), (3, 0)]
        # trailing Rz Rx Rz per qubit
        assert kinds[16:] == ["Rz", "Rx", "Rz"] * 4

    def test_entangling_needs_layers(self):
        with pytest.raises(ValueError):
            q.AnsatzSpec("Entangling", layers=0)

    @pytest.mark.parametrize("n", [0, 1])
    def test_entangling_needs_two_qubits(self, n):
        # one qubit used to fail inside its CNOT ring, and none gave an empty circuit
        message = f"Entangling ansatz n_qubits must be an int >= 2, got {n}"
        with pytest.raises(ValueError, match=message):
            q.build_ansatz(q.AnsatzSpec("Entangling", layers=1), n)

    def test_uccsd_like_single_generator(self):
        spec = q.AnsatzSpec(
            "UccsdLike", generators=((q.PauliString({0: "Z"}), 0, 1.0),)
        )
        c = q.build_ansatz(spec, 1)
        assert len(c.gates) == 1
        assert c.n_params == 1

    @pytest.mark.parametrize("n,layers", [(2, 1), (3, 2)])
    def test_ansatz_unitarity(self, n, layers):
        rng = np.random.default_rng(n * 7 + layers)
        c = q.build_ansatz(q.AnsatzSpec("Entangling", layers=layers), n)
        theta = rng.uniform(-math.pi, math.pi, size=c.n_params)
        u = dense_unitary(q.bind(c, theta))
        assert np.max(np.abs(u.conj().T @ u - np.eye(2**n))) < 1e-10


class TestAnsatzFile:
    def test_bundled_h2_file(self):
        spec, n = q.parse_ansatz_file(q.bundled_text("h2_uccsd"))
        assert n == 4
        assert spec.prep == (0, 1)
        assert spec.n_params == 3
        assert len(spec.generators) == 12

    def test_prep_gates_lead_the_circuit(self):
        spec, n = q.parse_ansatz_file(q.bundled_text("h2_uccsd"))
        c = q.build_ansatz(spec, n)
        assert c.gates[0] == q.Gate("X", (0,))
        assert c.gates[1] == q.Gate("X", (1,))

    def test_param_index_out_of_range(self):
        text = "qubits 2\nparams 1\n1 1.0 Z0\n"
        with pytest.raises(q.PauliParseError):
            q.parse_ansatz_file(text)

    def test_prep_after_generators_rejected(self):
        text = "qubits 2\nparams 1\n0 1.0 Z0\nx 0\n"
        with pytest.raises(q.PauliParseError):
            q.parse_ansatz_file(text)

    def test_prep_qubit_past_declared_count(self):
        text = "qubits 4\nparams 1\nx 9\n0 1.0 Z0\n"
        with pytest.raises(q.PauliParseError, match="qubit index exceeds declared count 4") as exc:
            q.parse_ansatz_file(text)
        assert exc.value.line_no == 3

    def test_missing_headers(self):
        with pytest.raises(q.PauliParseError):
            q.parse_ansatz_file("qubits 2\n0 1.0 Z0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("qubits 0\nparams 1\n0 1.0 Z0\n", "line 1: 'qubits' must be at least 1, got 0"),
            ("qubits 2\n", "expected 'params N' header, got end of file"),
            ("qubits 2\nparams x\n", "line 2: expected 'params N' header, got 'params x'"),
        ],
        ids=["zero_qubits", "no_params", "bad_params"],
    )
    def test_bad_header_carries_its_line(self, text, message):
        with pytest.raises(q.PauliParseError, match=message):
            q.parse_ansatz_file(text)

    @pytest.mark.parametrize("prefactor", ["nan", "inf", "-inf"])
    def test_non_finite_prefactor_carries_its_line(self, prefactor):
        text = f"qubits 2\nparams 1\n0 0.5 X0\n0 {prefactor} X0 Y1\n"
        message = f"line 4: prefactor must be finite, got '{prefactor}'"
        with pytest.raises(q.PauliParseError, match=message):
            q.parse_ansatz_file(text)

    def test_zero_params_is_a_prep_only_ansatz(self):
        spec, n = q.parse_ansatz_file("qubits 2\nparams 0\nx 1\n")
        assert (n, spec.n_params, spec.prep, spec.generators) == (2, 0, (1,), ())
