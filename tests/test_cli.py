import copy
import csv
import json

import pytest

from qemsim.cli import Section, _noise_model, main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_config(**extra):
    config = {
        "hamiltonian": "h2",
        "ansatz": {"kind": "uccsd", "path": "h2_uccsd"},
    }
    config.update(extra)
    return config


@pytest.fixture(scope="module")
def theta_file(tmp_path_factory):
    """Run the vqe subcommand once and reuse its output as theta_file."""
    tmp = tmp_path_factory.mktemp("vqe")
    cfg = tmp / "vqe.json"
    cfg.write_text(json.dumps(base_config(optimizer={"max_evals": 600, "seed": 3})))
    out = tmp / "vqe_out.json"
    code = main(["vqe", "--config", str(cfg), "--output", str(out)])
    assert code == 0
    return str(out)


class TestVqe:
    def test_output_document(self, theta_file, h2_ground_energy):
        with open(theta_file) as f:
            data = json.load(f)
        assert set(data) == {"theta_opt", "energy", "evals", "converged", "history"}
        assert len(data["theta_opt"]) == 3
        assert data["converged"] is True
        assert abs(data["energy"] - h2_ground_energy) < 1.6e-3

    def test_entangling_ansatz_runs(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "e.json",
            {
                "hamiltonian": "h2",
                "ansatz": {"kind": "entangling", "layers": 1},
                "optimizer": {"max_evals": 5},
            },
        )
        out = tmp_path / "out.json"
        assert main(["vqe", "--config", cfg, "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert len(data["theta_opt"]) == 20

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(
            tmp_path, "s.json", base_config(optimizer={"max_evals": 30, "seed": 0})
        )
        outs = []
        for seed in ("5", "5", "6"):
            out = tmp_path / f"out{len(outs)}.json"
            assert main(["vqe", "--config", cfg, "--seed", seed, "--output", str(out)]) == 0
            outs.append(json.loads(out.read_text())["theta_opt"])
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_negative_seed_is_a_config_error(self, tmp_path, capsys):
        # it used to reach numpy's generator: "failure: expected non-negative integer", exit 1
        cfg = write_config(tmp_path, "s.json", base_config(optimizer={"max_evals": 30}))
        assert main(["vqe", "--config", cfg, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: bad optimizer setting: seed must be an int >= 0, got -1\n"


class TestMitigate:
    def test_report_document(self, tmp_path, theta_file):
        cfg = write_config(
            tmp_path,
            "m.json",
            base_config(
                theta_file=theta_file,
                noise={"template": "gamma1_gamma2", "rate": 1e-3},
            ),
        )
        out = tmp_path / "report.json"
        assert main(["mitigate", "--config", cfg, "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["variant"] == "removal"
        assert len(data["groups"]) == 4
        assert abs(data["a_corrected"] - data["a_ideal"]) < abs(
            data["a_noisy"] - data["a_ideal"]
        )

    def test_scaled_variant(self, tmp_path, theta_file):
        cfg = write_config(
            tmp_path,
            "m2.json",
            base_config(
                theta_file=theta_file,
                noise={"template": "gamma1", "rate": 1e-3},
                scaled_noise_factor=2.0,
            ),
        )
        out = tmp_path / "report.json"
        assert main(["mitigate", "--config", cfg, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["variant"] == "scaled"

    def test_explicit_terms(self, tmp_path, theta_file):
        cfg = write_config(
            tmp_path,
            "m3.json",
            base_config(
                theta_file=theta_file,
                noise={
                    "terms": [
                        {"kind": "amplitude_damping", "qubits": [0], "rate": 1e-3},
                        {"kind": "correlated", "qubits": [0, 1], "rate": 1e-3},
                    ]
                },
            ),
        )
        out = tmp_path / "report.json"
        assert main(["mitigate", "--config", cfg, "--output", str(out)]) == 0
        labels = [g["label"] for g in json.loads(out.read_text())["groups"]]
        assert labels == ["q0/m1", "q0/m2", "q1"]

    @pytest.mark.parametrize(
        "extra",
        [
            {"noise": {"template": "gamma1", "rate": -1e-3}},
            {"noise": {"template": "gamma1", "rate": float("nan")}},
            {
                "theta": [float("nan"), 0.2, 0.3],
                "noise": {"template": "gamma1", "rate": 0},
            },
        ],
        ids=["negative", "nan", "nan_theta"],
    )
    def test_bad_rate_is_failure(self, tmp_path, capsys, theta_file, extra):
        config = base_config(theta_file=theta_file, **extra)
        cfg = write_config(tmp_path, "m5.json", config)
        assert main(["mitigate", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("failure:")

    def test_missing_theta_is_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path, "m4.json", base_config(noise={"template": "gamma1", "rate": 1e-3})
        )
        assert main(["mitigate", "--config", cfg]) == 2


class TestSweep:
    def sweep_config(self, tmp_path, theta_file, rates):
        return write_config(
            tmp_path,
            "sw.json",
            base_config(
                theta_file=theta_file,
                noise={"template": "gamma1_gamma2", "rates": rates},
            ),
        )

    def test_csv_shape_and_zero_rate_row(self, tmp_path, theta_file):
        cfg = self.sweep_config(tmp_path, theta_file, [0.0, 1e-3])
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "rate",
            "a_noisy",
            "a_ideal",
            "a_corrected",
            "correction_magnitude",
            "residual",
        ]
        assert len(rows) == 3
        zero = rows[1]
        assert float(zero[0]) == 0.0
        assert float(zero[1]) == pytest.approx(float(zero[2]), abs=1e-12)
        assert float(zero[5]) < 1e-12
        hot = rows[2]
        assert float(hot[5]) < abs(float(hot[1]) - float(hot[2]))

    def test_reruns_are_byte_identical(self, tmp_path, theta_file):
        cfg = self.sweep_config(tmp_path, theta_file, [1e-4, 1e-3])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--output", str(a)]) == 0
        assert main(["sweep", "--config", cfg, "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--config", cfg, "--workers", "4"])
        assert exc.value.code == 2

    def test_missing_rates_is_config_error(self, tmp_path, theta_file):
        cfg = write_config(
            tmp_path,
            "sw2.json",
            base_config(theta_file=theta_file, noise={"template": "gamma1"}),
        )
        assert main(["sweep", "--config", cfg]) == 2


class TestTauScaling:
    def test_slopes_in_output(self, tmp_path, theta_file):
        cfg = write_config(
            tmp_path,
            "t.json",
            base_config(
                theta_file=theta_file,
                noise={"template": "gamma1_gamma2", "rate": 3e-4},
                tau=1.0,
                tau_scaling={"points": 3},
            ),
        )
        out = tmp_path / "tau.csv"
        assert main(["tau-scaling", "--config", cfg, "--output", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:4] == ["scale", "tau", "uncorrected_error", "corrected_error"]
        assert len(rows) == 4
        raw_slope = float(rows[1][4])
        corr_slope = float(rows[1][5])
        assert raw_slope == pytest.approx(1.0, abs=0.15)
        assert corr_slope > 1.8

    @pytest.mark.parametrize("points", [0, 1])
    def test_too_few_points_is_failure(self, tmp_path, capsys, points):
        cfg = write_config(
            tmp_path,
            "t2.json",
            base_config(
                theta=[0.1, 0.2, 0.3],
                noise={"template": "gamma1", "rate": 1e-3},
                tau_scaling={"points": points},
            ),
        )
        assert main(["tau-scaling", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("failure:")


class TestValidate:
    def test_passes_and_prints_lines(self, tmp_path, capsys):
        assert main(["validate"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert lines
        assert all(l.startswith("PASS") for l in lines)

    def test_output_file(self, tmp_path):
        out = tmp_path / "validation.txt"
        assert main(["validate", "--output", str(out)]) == 0
        assert "PASS" in out.read_text()

    def test_reads_only_substeps(self, tmp_path):
        # tau is not a validate setting, so even an invalid one is ignored.
        cfg = write_config(tmp_path, "v.json", {"tau": 0, "substeps": 64})
        assert main(["validate", "--config", cfg]) == 0

    def test_refuses_substeps_past_its_own_limit(self, tmp_path, capsys):
        # the decay checks take 5 * substeps steps, so the limit is 10^6 / 5
        cfg = write_config(tmp_path, "v.json", {"substeps": 200001})
        assert main(["validate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("failure:")
        assert "200001" in err and "200000" in err
        assert "1000005" not in err


class TestErrorHandling:
    def test_missing_config_file(self):
        assert main(["vqe", "--config", "/nonexistent/config.json"]) == 2

    def test_config_flag_required(self):
        assert main(["vqe"]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["vqe", "--config", str(path)]) == 2

    def test_missing_hamiltonian_file(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "bad.json",
            {"hamiltonian": "/nope.txt", "ansatz": {"kind": "entangling", "layers": 1}},
        )
        assert main(["vqe", "--config", cfg]) == 2

    def test_mode_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "mm.json", base_config(mode="sweep"))
        assert main(["vqe", "--config", cfg]) == 2

    def test_malformed_hamiltonian(self, tmp_path):
        ham = tmp_path / "h.txt"
        ham.write_text("qubits 2\nnot a term\n")
        cfg = write_config(
            tmp_path,
            "mh.json",
            {"hamiltonian": str(ham), "ansatz": {"kind": "entangling", "layers": 1}},
        )
        assert main(["vqe", "--config", cfg]) == 2

    def test_non_finite_prefactor_in_ansatz_file(self, tmp_path, capsys):
        ansatz = tmp_path / "a.txt"
        ansatz.write_text("qubits 4\nparams 1\n0 nan X0 Y1\n")
        cfg = write_config(
            tmp_path, "nf.json", base_config(ansatz={"kind": "uccsd", "path": str(ansatz)})
        )
        assert main(["vqe", "--config", cfg]) == 2
        assert "line 3: prefactor must be finite, got 'nan'" in capsys.readouterr().err

    def test_large_guard(self, tmp_path):
        ham = tmp_path / "big.txt"
        terms = "\n".join(f"0.1 Z{i}" for i in range(9))
        ham.write_text("qubits 9\n" + terms + "\n")
        cfg = write_config(
            tmp_path,
            "big.json",
            {
                "hamiltonian": str(ham),
                "ansatz": {"kind": "entangling", "layers": 1},
                "optimizer": {"max_evals": 1},
            },
        )
        assert main(["vqe", "--config", cfg]) == 2
        out = tmp_path / "big_out.json"
        assert main(["vqe", "--config", cfg, "--large", "--output", str(out)]) == 0
        assert len(json.loads(out.read_text())["theta_opt"]) == 45

    @pytest.mark.parametrize(
        "mode, flags",
        [
            ("mitigate", "--seed 3"),
            ("sweep", "--seed 3"),
            ("tau-scaling", "--seed 3"),
            ("validate", "--seed 9"),
            ("validate", "--large"),
            ("validate", "--large --seed 9"),
        ],
        ids=["mitigate", "sweep", "tau_scaling", "validate_seed", "validate_large", "validate_both"],
    )
    def test_flag_the_mode_does_not_read_is_refused(self, capsys, mode, flags):
        # --seed is read by vqe alone and --large by every mode but validate;
        # elsewhere either flag used to be accepted and ignored
        with pytest.raises(SystemExit) as exc:
            main([mode, "--config", "c.json", *flags.split()])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags}" in capsys.readouterr().err

    def test_theta_length_mismatch(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "tl.json",
            base_config(theta=[0.1], noise={"template": "gamma1", "rate": 1e-3}),
        )
        assert main(["mitigate", "--config", cfg]) == 2

    @pytest.mark.parametrize(
        "config, message",
        [
            (base_config(ansatz={"kind": "entangling"}), "'layers'"),
            (base_config(ansatz={"kind": "uccsd"}), "'path'"),
            (base_config(optimizer={"max_evalz": 5}), "max_evalz"),
            (base_config(optimizer={"max_evals": "5"}), "optimizer"),
            (base_config(ansatz={"kind": "entangling", "layers": "x"}), "'layers'"),
        ],
        ids=[
            "entangling_without_layers",
            "uccsd_without_path",
            "unknown_optimizer_key",
            "string_max_evals",
            "string_layers",
        ],
    )
    def test_incomplete_config_is_config_error(self, tmp_path, capsys, config, message):
        cfg = write_config(tmp_path, "ic.json", config)
        assert main(["vqe", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err


THETA = [0.1, 0.2, 0.3]
VQE = base_config(optimizer={"max_evals": 1})
ENTANGLING = {
    "hamiltonian": "h2",
    "ansatz": {"kind": "entangling", "layers": 1},
    "optimizer": {"max_evals": 1},
}
MITIGATE = base_config(
    theta=THETA, noise={"template": "thermal", "rate": 1e-3, "n_th": 0.5}
)
THETA_FILE = base_config(
    theta_file="theta.json", noise={"template": "gamma1", "rate": 1e-3}
)
TERMS = base_config(
    theta=THETA,
    noise={
        "terms": [
            {"kind": "amplitude_damping", "qubits": [0], "rate": 1e-3},
            {"kind": "thermal", "qubits": [1], "rate": 1e-3, "n_th": 0.5},
        ]
    },
)
SWEEP = base_config(
    theta=THETA, noise={"template": "gamma1", "rates": [1e-3], "n_th": 0.5}
)
TAU = base_config(
    theta=THETA,
    noise={"template": "gamma1", "rate": 1e-3},
    tau_scaling={"points": 2},
)

# Every config key README lists: (subcommand, a valid config that reads
# the key, the key's path in it, the JSON types the key takes).
CONFIG_KEYS = [
    ("vqe", VQE, ("hamiltonian",), {"string"}),
    ("vqe", VQE, ("ansatz",), {"object"}),
    ("vqe", VQE, ("ansatz", "kind"), {"string"}),
    ("vqe", VQE, ("ansatz", "path"), {"string"}),
    ("vqe", ENTANGLING, ("ansatz", "layers"), {"integer"}),
    ("vqe", VQE, ("optimizer",), {"object"}),
    ("vqe", VQE, ("optimizer", "max_evals"), {"integer"}),
    ("vqe", VQE, ("optimizer", "f_tol"), {"number"}),
    ("vqe", VQE, ("optimizer", "x_tol"), {"number"}),
    ("vqe", VQE, ("optimizer", "initial_step"), {"number"}),
    ("vqe", VQE, ("optimizer", "seed"), {"integer"}),
    ("vqe", VQE, ("optimize_with_noise",), {"bool"}),
    ("vqe", VQE, ("tau",), {"number"}),
    ("vqe", VQE, ("substeps",), {"integer"}),
    ("vqe", VQE, ("output",), {"string"}),
    ("vqe", VQE, ("mode",), {"string"}),
    ("mitigate", MITIGATE, ("theta",), {"list"}),
    ("mitigate", THETA_FILE, ("theta_file",), {"string"}),
    ("mitigate", MITIGATE, ("noise",), {"object"}),
    ("mitigate", MITIGATE, ("noise", "template"), {"string"}),
    ("mitigate", MITIGATE, ("noise", "rate"), {"number"}),
    ("mitigate", MITIGATE, ("noise", "n_th"), {"number"}),
    ("mitigate", MITIGATE, ("scaled_noise_factor",), {"number"}),
    ("mitigate", TERMS, ("noise", "terms"), {"list"}),
    ("mitigate", TERMS, ("noise", "terms", 1), {"object"}),
    ("mitigate", TERMS, ("noise", "terms", 1, "kind"), {"string"}),
    ("mitigate", TERMS, ("noise", "terms", 1, "qubits"), {"list"}),
    ("mitigate", TERMS, ("noise", "terms", 1, "rate"), {"number"}),
    ("mitigate", TERMS, ("noise", "terms", 1, "n_th"), {"number"}),
    ("sweep", SWEEP, ("noise", "rates"), {"list"}),
    ("sweep", SWEEP, ("noise", "n_th"), {"number"}),
    ("tau-scaling", TAU, ("tau_scaling",), {"object"}),
    ("tau-scaling", TAU, ("tau_scaling", "points"), {"integer"}),
    ("validate", {}, ("substeps",), {"integer"}),
]
# Keys under a mode that does not read them: a value of the wrong type is
# refused all the same.
CROSS_MODE_KEYS = [
    ("vqe", VQE, ("theta",), {"list"}),
    ("vqe", VQE, ("theta_file",), {"string"}),
    ("vqe", VQE, ("scaled_noise_factor",), {"number"}),
    ("vqe", VQE, ("tau_scaling",), {"object"}),
    ("mitigate", MITIGATE, ("optimizer",), {"object"}),
    ("mitigate", MITIGATE, ("optimize_with_noise",), {"bool"}),
    ("mitigate", MITIGATE, ("noise", "rates"), {"list"}),
    ("sweep", SWEEP, ("noise", "rate"), {"number"}),
    ("validate", {}, ("tau",), {"number"}),
    ("validate", {}, ("noise",), {"object"}),
]
# Keys since deleted, with the types they once took: a value of any type is
# now refused as an unknown key. tau_scaling.tau0 repeated the top-level tau.
REMOVED_KEYS = [
    ("tau-scaling", TAU, ("tau_scaling", "tau0"), {"number"}),
]
WRONG_VALUES = {
    "string": "x",
    "number": 2.5,
    "bool": True,
    "null": None,
    "list": [1],
    "object": {"a": 1},
}
# Lists of the right type whose entries have the wrong one.
WRONG_ENTRIES = {
    ("theta",): ["x", 0.2, 0.3],
    ("noise", "terms"): [1, 2],
    ("noise", "terms", 1, "qubits"): [0.5],
    ("noise", "rates"): [1e-3, "x"],
}


def _key_cases():
    keys = [(k, "must be a JSON", "") for k in CONFIG_KEYS]
    keys += [(k, "must be a JSON", f"{k[0]}:") for k in CROSS_MODE_KEYS]
    keys += [(k, "unknown key", "") for k in REMOVED_KEYS]
    for (mode, config, path, takes), expect, prefix in keys:
        name = prefix + ".".join(map(str, path))
        wrong = {kind: v for kind, v in WRONG_VALUES.items() if kind not in takes}
        if path in WRONG_ENTRIES:
            wrong["entries"] = WRONG_ENTRIES[path]
        for kind, value in wrong.items():
            yield pytest.param(mode, config, path, value, expect, id=f"{name}-{kind}")


def _set(config, path, value):
    config = copy.deepcopy(config)
    parent = config
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return config


def _where(path):
    """How an error message names the key at `path`; a list entry of the
    wrong type is reported against its list."""
    *parents, key = path
    if isinstance(key, int):
        return _where(tuple(parents))
    where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in parents)
    return f"'{key}' in {where[1:]}" if where else f"'{key}'"


def _run(tmp_path, monkeypatch, mode, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "theta.json").write_text(json.dumps({"theta_opt": THETA}))
    return main([mode, "--config", write_config(tmp_path, "c.json", config)])


class TestConfigReader:
    def test_parse_noise_terms(self):
        terms = [
            {"kind": "amplitude_damping", "qubits": [0], "rate": 0.1},
            {"kind": "thermal", "qubits": [1], "rate": 0.2, "n_th": 0.5},
            {"kind": "correlated", "qubits": [0, 1], "rate": 0.05},
        ]
        model = _noise_model(Section({"noise": {"terms": terms}}), 2)
        assert len(model) == 3
        assert model.terms[1].n_th == 0.5

    @pytest.mark.parametrize(
        "mode, config",
        [
            ("vqe", VQE),
            ("vqe", ENTANGLING),
            ("mitigate", MITIGATE),
            ("mitigate", THETA_FILE),
            ("mitigate", TERMS),
            ("sweep", SWEEP),
            ("tau-scaling", TAU),
        ],
        ids=["vqe", "entangling", "mitigate", "theta_file", "terms", "sweep", "tau"],
    )
    def test_matrix_configs_run(self, tmp_path, monkeypatch, mode, config):
        assert _run(tmp_path, monkeypatch, mode, config) == 0

    @pytest.mark.parametrize("mode, config, path, value, expect", list(_key_cases()))
    def test_wrong_type_is_config_error(
        self, tmp_path, monkeypatch, capsys, mode, config, path, value, expect
    ):
        assert _run(tmp_path, monkeypatch, mode, _set(config, path, value)) == 2
        err = capsys.readouterr().err
        # a type error for a known key; an unknown-key error for a removed one
        assert err.startswith("error:") and expect in err
        assert _where(path) in err

    @pytest.mark.parametrize(
        "mode, config, message",
        [
            ("mitigate", _set(MITIGATE, ("tau",), "x"), "'tau'"),
            ("mitigate", _set(MITIGATE, ("theta",), "abc"), "'theta'"),
            (
                "mitigate",
                _set(TERMS, ("noise", "terms", 0, "rate"), "x"),
                "'rate' in noise.terms[0]",
            ),
            (
                "mitigate",
                _set(TERMS, ("noise", "terms", 1, "n_th"), "hot"),
                "'n_th' in noise.terms[1]",
            ),
            (
                "mitigate",
                _set(MITIGATE, ("scaled_noise_factor",), [2]),
                "'scaled_noise_factor'",
            ),
            (
                "mitigate",
                _set(TERMS, ("noise", "terms", 0), {"qubits": [0], "rate": 1e-3}),
                "'kind' in noise.terms[0]",
            ),
            (
                "mitigate",
                _set(TERMS, ("noise", "terms", 0, "qubits"), 0),
                "'qubits' in noise.terms[0]",
            ),
            ("mitigate", [1, 2], "JSON object"),
            ("mitigate", _set(MITIGATE, ("substeps",), 2.7), "'substeps'"),
            (
                "vqe",
                _set(_set(VQE, ("theta",), "abc"), ("scaled_noise_factor",), "x"),
                "'theta'",
            ),
            ("sweep", _set(SWEEP, ("noise", "rates"), "15"), "'rates' in noise"),
            (
                "vqe",
                _set(VQE, ("optimize_with_noise",), "false"),
                "'optimize_with_noise'",
            ),
            ("mitigate", _set(MITIGATE, ("substep",), 1), "unknown key 'substep'"),
            ("validate", {"substep": 1}, "unknown key 'substep'"),
            (
                "vqe",
                _set(ENTANGLING, ("ansatz", "layer"), 1),
                "unknown key 'layer' in ansatz",
            ),
            (
                "mitigate",
                _set(MITIGATE, ("noise", "ratee"), 1),
                "unknown key 'ratee' in noise",
            ),
            (
                "mitigate",
                _set(TERMS, ("noise", "terms", 1, "ratee"), 1),
                "unknown key 'ratee' in noise.terms[1]",
            ),
            (
                "vqe",
                _set(VQE, ("optimizer", "max_evalz"), 1),
                "unknown key 'max_evalz' in optimizer",
            ),
            (
                "tau-scaling",
                _set(TAU, ("tau_scaling", "point"), 2),
                "unknown key 'point' in tau_scaling",
            ),
            # the ladder starts at the top-level tau, which tau0 used to repeat
            (
                "tau-scaling",
                _set(TAU, ("tau_scaling", "tau0"), 1.0),
                "unknown key 'tau0' in tau_scaling",
            ),
        ],
        ids=[
            "tau_string",
            "theta_string",
            "term_rate_string",
            "term_n_th_string",
            "factor_list",
            "term_without_kind",
            "qubits_number",
            "top_level_list",
            "fractional_substeps",
            "unread_keys_of_wrong_type",
            "rates_string",
            "bool_as_string",
            "unknown_key",
            "unknown_key_in_validate",
            "unknown_ansatz_key",
            "unknown_noise_key",
            "unknown_term_key",
            "unknown_optimizer_key",
            "unknown_tau_scaling_key",
            "removed_tau0",
        ],
    )
    def test_known_bad_values_are_config_errors(
        self, tmp_path, monkeypatch, capsys, mode, config, message
    ):
        assert _run(tmp_path, monkeypatch, mode, config) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert message in err

    @pytest.mark.parametrize(
        "optimizer, message",
        [
            ({"initial_step": 0, "max_evals": 50}, "initial_step must be a finite real > 0, got 0"),
            ({"initial_step": float("nan")}, "initial_step must be a finite real > 0, got nan"),
            ({"f_tol": float("nan")}, "f_tol must be a finite real > 0, got nan"),
            ({"x_tol": 0}, "x_tol must be a finite real > 0, got 0"),
        ],
        ids=["zero_step", "nan_step", "nan_f_tol", "zero_x_tol"],
    )
    def test_optimizer_setting_that_cannot_work_is_a_config_error(
        self, tmp_path, monkeypatch, capsys, optimizer, message
    ):
        # a zero step used to stop after 4 evaluations and report convergence
        assert _run(tmp_path, monkeypatch, "vqe", base_config(optimizer=optimizer)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad optimizer setting:")
        assert message in err

    @pytest.mark.parametrize("mode", ["vqe", "mitigate"])
    def test_zero_qubit_hamiltonian_is_a_config_error(self, tmp_path, monkeypatch, capsys, mode):
        # it used to end in "failure: unknown noise template 'gamma1'", exit 1
        (tmp_path / "h0.txt").write_text("qubits 0\n0.5 I\n")
        config = {
            "hamiltonian": "h0.txt",
            "ansatz": {"kind": "entangling", "layers": 1},
            "noise": {"template": "gamma1", "rate": 1e-3},
        }
        assert _run(tmp_path, monkeypatch, mode, config) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 1: 'qubits' must be at least 1, got 0" in err

    def test_entangling_ansatz_on_one_qubit_is_refused_by_name(
        self, tmp_path, monkeypatch, capsys
    ):
        # it used to end in "failure: CNOT needs 2 distinct non-negative qubit(s), got (0, 0)"
        (tmp_path / "h1.txt").write_text("qubits 1\n0.5 Z0\n")
        config = {"hamiltonian": "h1.txt", "ansatz": {"kind": "entangling", "layers": 1}}
        assert _run(tmp_path, monkeypatch, "vqe", config) == 1
        err = capsys.readouterr().err
        assert err == "failure: Entangling ansatz n_qubits must be an int >= 2, got 1\n"

    def test_prep_qubit_past_declared_count_is_a_config_error(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "ansatz.txt").write_text("qubits 4\nparams 1\nx 9\n0 1.0 Z0\n")
        config = base_config(ansatz={"kind": "uccsd", "path": "ansatz.txt"})
        assert _run(tmp_path, monkeypatch, "vqe", config) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 3: qubit index exceeds declared count 4" in err
