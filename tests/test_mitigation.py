import numpy as np
import pytest

import qemsim as q
from qemsim.mitigation import build_groups, corrected_value
from qemsim.noise import build_template_model


def term(kind, qubits, rate=0.1, n_th=None):
    return q.LindbladTerm(kind, tuple(qubits), rate, n_th=n_th)


def make_circuit():
    return q.BoundCircuit(
        2,
        (
            q.BoundGate("H", (0,)),
            q.BoundGate("CNOT", (0, 1)),
            q.BoundGate("Rz", (1,), 0.6),
            q.BoundGate("H", (1,)),
        ),
    )


def zz_observable():
    return q.PauliSum(
        [(1.0, q.PauliString({0: "Z"})), (0.5, q.PauliString({0: "Z", 1: "Z"}))], 2
    )


class TestBuildGroups:
    def test_independent_single_qubit_terms(self):
        model = q.NoiseModel(
            (term("amplitude_damping", [0]), term("amplitude_damping", [1]))
        )
        groups = build_groups(model)
        assert [g.label for g in groups] == ["q0", "q1"]
        assert [g.removed_terms for g in groups] == [(0,), (1,)]
        assert all(g.weight == 1.0 for g in groups)

    def test_correlated_term_halved(self):
        model = q.NoiseModel((term("correlated", [0, 1]),))
        groups = build_groups(model)
        assert len(groups) == 2
        assert all(g.removed_terms == (0,) for g in groups)
        assert all(g.weight == 0.5 for g in groups)

    def test_mixed_multiplicities_split(self):
        model = q.NoiseModel(
            (term("amplitude_damping", [0]), term("correlated", [0, 1]))
        )
        groups = build_groups(model)
        labels = {g.label: g for g in groups}
        assert set(labels) == {"q0/m1", "q0/m2", "q1"}
        assert labels["q0/m1"].removed_terms == (0,)
        assert labels["q0/m1"].weight == 1.0
        assert labels["q0/m2"].removed_terms == (1,)
        assert labels["q0/m2"].weight == 0.5
        assert labels["q1"].removed_terms == (1,)
        assert labels["q1"].weight == 0.5

    def test_empty_model(self):
        assert build_groups(q.NoiseModel()) == []

    @pytest.mark.parametrize("template", ["gamma1_gamma2", "correlated", "thermal"])
    def test_per_term_weights_sum_to_one(self, template):
        model = build_template_model(template, 4, 0.1, n_th=0.5)
        groups = build_groups(model)
        total = {i: 0.0 for i in range(len(model))}
        for g in groups:
            for i in g.removed_terms:
                total[i] += g.weight
        for i, s in total.items():
            assert s == pytest.approx(1.0, abs=1e-12)


class TestCorrectedValue:
    def test_worked_example(self):
        # <A> = -1.05; two groups both weight 1 with <A_1> = -1.08,
        # <A_2> = -1.09 gives A_tilde = -1.05 - (0.03 + 0.04) = -1.12
        got = corrected_value(-1.05, [(-1.08, 1.0), (-1.09, 1.0)])
        assert got == pytest.approx(-1.12)

    def test_no_groups_is_identity(self):
        assert corrected_value(0.7, []) == 0.7

    def test_halved_weights(self):
        got = corrected_value(-1.0, [(-1.1, 0.5), (-1.1, 0.5)])
        assert got == pytest.approx(-1.1)


class TestRunMitigation:
    def test_zero_noise_all_values_agree(self):
        model = build_template_model("gamma1", 2, 0.0)
        report = q.run_mitigation(make_circuit(), model, zz_observable())
        assert report.a_noisy == pytest.approx(report.a_ideal, abs=1e-12)
        assert report.a_corrected == pytest.approx(report.a_noisy, abs=1e-12)
        assert report.correction_magnitude < 1e-12

    def test_report_reconstruction_identity(self):
        model = build_template_model("gamma1_gamma2", 2, 0.01)
        report = q.run_mitigation(make_circuit(), model, zz_observable())
        rebuilt = corrected_value(
            report.a_noisy, [(v, w) for _, v, w in report.a_removed]
        )
        assert report.a_corrected == pytest.approx(rebuilt, abs=1e-15)

    def test_correction_reduces_error(self):
        model = build_template_model("gamma1_gamma2", 2, 5e-3)
        report = q.run_mitigation(make_circuit(), model, zz_observable())
        raw_error = abs(report.a_noisy - report.a_ideal)
        assert report.residual < raw_error

    def test_observable_size_mismatch(self):
        obs = q.PauliSum([(1.0, q.PauliString({0: "Z"}))], 1)
        with pytest.raises(ValueError):
            q.run_mitigation(make_circuit(), q.NoiseModel(), obs)
        with pytest.raises(ValueError):
            q.scaled_noise_correction(make_circuit(), q.NoiseModel(), obs, 2.0)

    @pytest.mark.parametrize(
        "kind, qubits, angle, message",
        [
            ("Rx", (0,), float("nan"), "Rx angle must be a finite real, got nan"),
            ("CNOT", (0,), None, r"CNOT needs 2 distinct non-negative qubit\(s\), got \(0,\)"),
        ],
        ids=["nan_angle", "cnot_on_one_qubit"],
    )
    def test_one_bad_gate_is_refused(self, kind, qubits, angle, message):
        # with one gate no interval runs; the run's final trace check would
        # now see a NaN row, but the gate is refused earlier, when it is built
        observable = q.PauliSum([(1.0, q.PauliString({0: "Z"}))], 1)
        with pytest.raises(ValueError, match=message):
            circuit = q.BoundCircuit(1, (q.BoundGate(kind, qubits, angle),))
            q.run_mitigation(circuit, build_template_model("gamma1", 1, 1e-3), observable)

    def test_json_round_trip_keys(self):
        import json

        model = build_template_model("gamma1", 2, 0.01)
        report = q.run_mitigation(make_circuit(), model, zz_observable())
        data = json.loads(report.to_json())
        assert set(data) == {
            "a_noisy",
            "a_ideal",
            "a_corrected",
            "correction_magnitude",
            "residual",
            "groups",
            "variant",
        }
        assert data["variant"] == "removal"
        assert len(data["groups"]) == 2
        assert data["groups"][0]["label"] == "q0"


class TestFirstOrderCancellation:
    # Three qubits: with only two, the cross-qubit second-order terms
    # vanish and the corrected residual sits at the floating-point floor,
    # which hides the slope being measured here.
    @staticmethod
    def three_qubit_circuit():
        return q.BoundCircuit(
            3,
            (
                q.BoundGate("H", (0,)),
                q.BoundGate("CNOT", (0, 1)),
                q.BoundGate("CNOT", (1, 2)),
                q.BoundGate("Rz", (2,), 0.6),
                q.BoundGate("H", (1,)),
                q.BoundGate("Rx", (0,), 0.9),
            ),
        )

    @staticmethod
    def three_qubit_observable():
        return q.PauliSum(
            [
                (1.0, q.PauliString({0: "Z"})),
                (0.5, q.PauliString({0: "Z", 1: "Z"})),
                (0.3, q.PauliString({1: "X", 2: "Z"})),
            ],
            3,
        )

    def slopes(self, template, rates, n_th=None):
        circuit = self.three_qubit_circuit()
        obs = self.three_qubit_observable()
        raw, corr = [], []
        for r in rates:
            kw = {} if n_th is None else {"n_th": n_th}
            model = build_template_model(template, 3, r, **kw)
            rep = q.run_mitigation(circuit, model, obs)
            raw.append(abs(rep.a_noisy - rep.a_ideal))
            corr.append(rep.residual)
        lr = np.log(rates)
        return (
            np.polyfit(lr, np.log(raw), 1)[0],
            np.polyfit(lr, np.log(corr), 1)[0],
        )

    @pytest.mark.parametrize(
        "template,n_th",
        [("gamma1_gamma2", None), ("thermal", 0.5), ("correlated", None)],
    )
    def test_residual_is_second_order(self, template, n_th):
        rates = np.logspace(-4, -3, 4)
        raw_slope, corr_slope = self.slopes(template, rates, n_th=n_th)
        assert raw_slope == pytest.approx(1.0, abs=0.15)
        assert corr_slope > 1.8


class TestScaledNoise:
    def test_factor_must_exceed_one(self):
        model = build_template_model("gamma1", 2, 0.01)
        for bad in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                q.scaled_noise_correction(
                    make_circuit(), model, zz_observable(), bad
                )

    def test_zero_rates_trivial(self):
        model = build_template_model("gamma1", 2, 0.0)
        report = q.scaled_noise_correction(
            make_circuit(), model, zz_observable(), 2.0
        )
        assert report.variant == "scaled"
        assert report.a_corrected == pytest.approx(report.a_ideal, abs=1e-12)

    def test_agrees_with_removal_to_first_order(self):
        circuit = make_circuit()
        obs = zz_observable()
        rates = np.logspace(-4, -3, 4)
        gaps = []
        for r in rates:
            model = build_template_model("gamma1_gamma2", 2, r)
            rem = q.run_mitigation(circuit, model, obs)
            sca = q.scaled_noise_correction(circuit, model, obs, 2.0)
            gaps.append(abs(rem.a_corrected - sca.a_corrected))
        slope = np.polyfit(np.log(rates), np.log(gaps), 1)[0]
        assert slope > 1.8  # variants differ only at second order

    def test_reconstruction_identity_holds(self):
        model = build_template_model("gamma1_gamma2", 2, 0.01)
        report = q.scaled_noise_correction(
            make_circuit(), model, zz_observable(), 3.0
        )
        rebuilt = corrected_value(
            report.a_noisy, [(v, w) for _, v, w in report.a_removed]
        )
        assert report.a_corrected == pytest.approx(rebuilt, abs=1e-15)


class TestGroupValidation:
    def test_empty_removed_terms(self):
        with pytest.raises(ValueError):
            q.RemovalGroup("g", ())

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            q.RemovalGroup("g", (0,), 0.0)

    def test_nan_weight(self):
        with pytest.raises(ValueError, match="weight must be a finite real > 0, got nan"):
            q.RemovalGroup("g", (0,), float("nan"))

    def test_infinite_weight(self):
        # inf used to be taken, and turned a correction into inf or NaN
        with pytest.raises(ValueError, match="weight must be a finite real > 0, got inf"):
            q.RemovalGroup("g", (0,), float("inf"))
