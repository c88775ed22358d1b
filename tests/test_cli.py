import json
import math

import numpy as np
import pytest

from bosonsim.cli import main
from bosonsim.distinguishability import HomogeneousModel
from bosonsim.probability import ExperimentInstance
from bosonsim.randgen import haar_unitary


@pytest.fixture
def instance_file(tmp_path):
    u = haar_unitary(4, seed=9)
    inst = ExperimentInstance(u, (1, 1, 0, 0), (0, 0, 1, 1), HomogeneousModel(0.8))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst.to_dict()))
    return path


@pytest.fixture
def instance_without_output(tmp_path):
    u = haar_unitary(4, seed=9)
    inst = ExperimentInstance(u, (1, 1, 0, 0), (0, 0, 1, 1), HomogeneousModel(0.8))
    data = inst.to_dict()
    del data["output"]
    path = tmp_path / "instance_no_output.json"
    path.write_text(json.dumps(data))
    return path


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestBoundCommand:
    def test_zero_visibility(self, capsys):
        code, out = _run(capsys, ["bound", "--x", "0", "--k", "3"])
        assert code == 0
        assert json.loads(out)["l1_bound"] == 0.0

    def test_min_order(self, capsys):
        code, out = _run(capsys, ["bound", "--x", "0.9", "--epsilon", "0.05"])
        assert code == 0
        assert json.loads(out)["min_order"] == 36

    def test_divergence_exit_code(self, capsys):
        assert main(["bound", "--x", "1", "--k", "2"]) == 3

    def test_missing_parameter_exit_code(self, capsys):
        assert main(["bound", "--k", "2"]) == 2

    def test_conflicting_parameters(self, capsys):
        assert main(["bound", "--x", "0.5", "--m2-root", "0.3", "--k", "2"]) == 2


class TestCurvesCommand:
    def test_header_and_ordering(self, capsys):
        code, out = _run(capsys, ["curves", "--sigma", "0.02", "--epsilon", "0.01,0.05", "--mu", "0.5:0.6:0.01"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mu,epsilon,k_max_bound,k_m2_bound"
        for line in lines[1:]:
            mu, eps, k_max, k_m2 = line.split(",")
            assert int(k_m2) <= int(k_max)

    def test_reruns_are_byte_identical(self, capsys):
        argv = ["curves", "--sigma", "0.02", "--epsilon", "0.05", "--mu", "0.5:0.9:0.05"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert first == second

    def test_divergent_rows_are_flagged(self, capsys):
        code, out = _run(capsys, ["curves", "--sigma", "0.02", "--epsilon", "0.05", "--mu", "0.97"])
        assert code == 0
        assert "divergent" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "curves.csv"
        code, _ = _run(capsys, ["curves", "--sigma", "0", "--epsilon", "0.05", "--mu", "0.5,0.6", "--output", str(target)])
        assert code == 0
        assert target.read_text().startswith("mu,epsilon,")


class TestVerifyCommand:
    def test_report_round_trip(self, capsys):
        code, out = _run(capsys, ["verify", "--n", "3", "--m", "9", "--x", "0.6", "--k", "1", "--trials", "60", "--seed", "7"])
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 1
        assert report["bound_satisfied"] is True
        assert report["trials"] == 60

    def test_deterministic(self, capsys):
        argv = ["verify", "--n", "3", "--m", "9", "--x", "0.6", "--k", "1", "--trials", "50", "--seed", "3"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert first == second

    def test_threads_do_not_change_output(self, capsys):
        base = ["verify", "--n", "3", "--m", "9", "--x", "0.6", "--k", "1", "--trials", "50", "--seed", "3"]
        _, serial = _run(capsys, base)
        _, threaded = _run(capsys, base + ["--threads", "4"])
        assert serial == threaded
        assert main(base + ["--threads", "0"]) == 2

    def test_obb_vector(self, capsys):
        code, out = _run(capsys, ["verify", "--n", "3", "--m", "9", "--x-vec", "0.9,0.5,0.7", "--k", "1", "--trials", "50", "--seed", "3"])
        assert code == 0
        assert json.loads(out)["model"]["type"] == "obb"

    def test_rejects_both_visibility_forms(self, capsys):
        assert main(["verify", "--n", "3", "--m", "9", "--x", "0.5", "--x-vec", "0.5,0.5,0.5", "--k", "1", "--trials", "50"]) == 2

    def test_divergent_model_exit_code(self, capsys):
        assert main(["verify", "--n", "3", "--m", "9", "--x", "1", "--k", "1", "--trials", "50"]) == 3

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_uniform_reports_are_pinned(self, capsys, k):
        # A uniform visibility x gives the bound ratio x * x bit for bit, in either model form.
        argv = ["verify", "--n", "5", "--m", "25", "--k", str(k), "--trials", "50", "--seed", "7"]
        _, homogeneous = _run(capsys, argv + ["--x", "0.7"])
        _, uniform = _run(capsys, argv + ["--x-vec", "0.7,0.7,0.7,0.7,0.7"])
        report, other = json.loads(homogeneous), json.loads(uniform)
        y = 0.7 * 0.7
        tail = sum(y**j for j in range(k + 1, 6) if j != 1)
        assert report["predicted_variance"] == float(math.factorial(5)) ** 2 / 25.0**10 * tail
        assert report["predicted_l1_bound"] == math.sqrt(y ** (k + 1) / (1.0 - y))
        assert report.pop("model") == {"type": "homogeneous", "x": 0.7}
        assert other.pop("model") == {"type": "obb", "x": [0.7] * 5}
        assert other == report

    def test_eight_photons_within_the_work_budget(self, capsys):
        # 50 * 8 * C(16, 8) = 5.1e6 kernel operations, far within the work budget.
        code, out = _run(capsys, ["verify", "--n", "8", "--m", "64", "--x", "0.7", "--k", "2", "--trials", "50", "--seed", "7"])
        assert code == 0
        assert json.loads(out)["n"] == 8

    def test_over_budget_exit_code(self, capsys):
        assert main(["verify", "--n", "12", "--m", "144", "--x", "0.7", "--k", "2", "--trials", "1000"]) == 2
        assert "over the budget" in capsys.readouterr().err

    def test_reference_run_satisfies_bound(self, capsys):
        code, out = _run(capsys, ["verify", "--n", "5", "--m", "25", "--x", "0.7", "--k", "1", "--trials", "500", "--seed", "7"])
        assert code == 0
        report = json.loads(out)
        assert report["bound_satisfied"] is True
        assert report["mean_zero_consistent"] is True


class TestProbAndTruncate:
    def test_prob(self, capsys, instance_file):
        code, out = _run(capsys, ["prob", "--instance", str(instance_file)])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert 0.0 <= payload["probability"] <= 1.0

    def test_truncate_consistency(self, capsys, instance_file):
        code, out = _run(capsys, ["truncate", "--instance", str(instance_file), "--k", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 2
        assert payload["total"] == pytest.approx(sum(payload["per_order"]))
        assert payload["per_order"][1] == 0.0

    def test_truncate_full_order_matches_prob(self, capsys, instance_file):
        _, prob_out = _run(capsys, ["prob", "--instance", str(instance_file)])
        _, trunc_out = _run(capsys, ["truncate", "--instance", str(instance_file), "--k", "2", "--strategy", "laplace"])
        p = json.loads(prob_out)["probability"]
        assert json.loads(trunc_out)["total"] == pytest.approx(p, rel=1e-9)

    def test_missing_instance(self, capsys):
        assert main(["prob"]) == 2


class TestSampleCommand:
    def test_jsonl_stream(self, capsys, instance_without_output):
        code, out = _run(capsys, ["sample", "--instance", str(instance_without_output), "--k", "2", "--num-samples", "8", "--seed", "5"])
        assert code == 0
        rows = [json.loads(line) for line in out.strip().split("\n")]
        assert len(rows) == 8
        assert all(sum(row) == 2 for row in rows)

    def test_csv_stream(self, capsys, instance_without_output):
        code, out = _run(capsys, ["sample", "--instance", str(instance_without_output), "--k", "2", "--num-samples", "3", "--format", "csv", "--seed", "5"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "mode_0,mode_1,mode_2,mode_3"
        assert len(lines) == 4

    def test_seed_flag_reproducible(self, capsys, instance_without_output):
        argv = ["sample", "--instance", str(instance_without_output), "--k", "2", "--num-samples", "10", "--seed", "5"]
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert first == second

    def test_env_seed_fallback(self, capsys, instance_without_output, monkeypatch):
        argv = ["sample", "--instance", str(instance_without_output), "--k", "2", "--num-samples", "10"]
        monkeypatch.setenv("BOSONSIM_SEED", "5")
        _, via_env = _run(capsys, argv)
        monkeypatch.delenv("BOSONSIM_SEED")
        _, via_flag = _run(capsys, argv + ["--seed", "5"])
        assert via_env == via_flag

    def test_flag_overrides_env_seed(self, capsys, instance_without_output, monkeypatch):
        argv = ["sample", "--instance", str(instance_without_output), "--k", "2", "--num-samples", "10"]
        monkeypatch.setenv("BOSONSIM_SEED", "5")
        _, with_env = _run(capsys, argv)
        _, with_flag = _run(capsys, argv + ["--seed", "123"])
        assert with_env != with_flag

    def test_degenerate_target_exit_code(self, capsys, tmp_path):
        data = {
            "schema": 1,
            "unitary": {"re": np.zeros((4, 4)).tolist(), "im": np.zeros((4, 4)).tolist()},
            "input": [1, 1, 0, 0],
            "model": {"type": "homogeneous", "x": 0.5},
        }
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(data))
        assert main(["sample", "--instance", str(path), "--k", "0", "--num-samples", "2000"]) == 4


class TestConfigFiles:
    def test_config_supplies_defaults_and_flags_override(self, capsys, tmp_path):
        config = tmp_path / "bound.json"
        config.write_text(json.dumps({"schema": 1, "command": "bound", "x": 0.5, "k": 2}))
        _, from_config = _run(capsys, ["bound", "--config", str(config)])
        assert json.loads(from_config)["k"] == 2
        _, overridden = _run(capsys, ["bound", "--config", str(config), "--k", "4"])
        assert json.loads(overridden)["k"] == 4

    def test_unknown_config_field_rejected(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"schema": 1, "x": 0.5, "k": 2, "mode": "fast"}))
        assert main(["bound", "--config", str(config)]) == 2

    def test_command_mismatch_rejected(self, capsys, tmp_path):
        config = tmp_path / "other.json"
        config.write_text(json.dumps({"schema": 1, "command": "curves", "x": 0.5, "k": 2}))
        assert main(["bound", "--config", str(config)]) == 2

    def test_schema_version_checked(self, capsys, tmp_path):
        config = tmp_path / "v2.json"
        config.write_text(json.dumps({"schema": 2, "x": 0.5, "k": 2}))
        assert main(["bound", "--config", str(config)]) == 2

    def test_inline_instance_in_config(self, capsys, tmp_path):
        u = haar_unitary(4, seed=9)
        inst = ExperimentInstance(u, (1, 1, 0, 0), (0, 0, 1, 1), HomogeneousModel(0.8))
        config = tmp_path / "prob.json"
        config.write_text(json.dumps({"schema": 1, "command": "prob", "instance": inst.to_dict()}))
        code, out = _run(capsys, ["prob", "--config", str(config)])
        assert code == 0
        assert "probability" in json.loads(out)

    def test_missing_config_file(self, capsys):
        assert main(["bound", "--config", "/nonexistent/cfg.json", "--k", "1", "--x", "0.5"]) == 2


class TestExitCodes:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("model", None),
            ("model", {"type": "homogeneous"}),
            ("model", {"type": "homogeneous", "x": [0.5]}),
            ("unitary", [[1.0]]),
            ("input", 3),
        ],
    )
    def test_malformed_instance_is_config_error(self, capsys, tmp_path, instance_file, field, value):
        data = json.loads(instance_file.read_text())
        if value is None:
            del data[field]
        else:
            data[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        assert main(["prob", "--instance", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_finite_visibility_is_config_error(self, capsys, tmp_path, instance_file):
        data = json.loads(instance_file.read_text())
        data["model"] = {"type": "obb", "x": [math.nan, 0.5]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        for argv in (
            ["prob", "--instance", str(path)],
            ["truncate", "--instance", str(path), "--k", "2"],
            ["bound", "--x", "nan", "--k", "2"],
            ["verify", "--n", "3", "--m", "9", "--x-vec", "nan,0.5,0.6", "--k", "1", "--trials", "50"],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("fields", [{"k": [2]}, {"k": 2, "output": [1]}])
    def test_setting_of_wrong_type_is_config_error(self, capsys, tmp_path, fields):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"x": 0.5, **fields}))
        assert main(["bound", "--config", str(config)]) == 2

    def test_programming_error_propagates(self, capsys, instance_file, monkeypatch):
        def broken(inst):
            raise TypeError("a bug, not a config error")

        monkeypatch.setattr("bosonsim.cli.exact_probability", broken)
        with pytest.raises(TypeError):
            main(["prob", "--instance", str(instance_file)])
