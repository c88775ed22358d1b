import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import bosonsim
from bosonsim.cli import _COMMANDS, _COMMON, main
from bosonsim.distinguishability import HomogeneousModel
from bosonsim.fields import base
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

    @pytest.mark.parametrize("name, given", [("mu", ("--mu", "0.9:0.5:0.1")), ("epsilon", ("--epsilon", ",")),
                                             ("mu", {"mu": []})])
    def test_empty_grid_is_config_error(self, capsys, tmp_path, name, given):
        # A grid without a value would print the CSV header alone; the flag or config field is named instead.
        if isinstance(given, dict):
            config = tmp_path / "curves.json"
            config.write_text(json.dumps({"schema": 1, "command": "curves", "sigma": 0.02, "epsilon": [0.05], **given}))
            argv = ["curves", "--config", str(config)]
        else:
            flags = {"--sigma": "0.02", "--epsilon": "0.05", "--mu": "0.5"} | dict([given])
            argv = ["curves", *(part for flag in flags.items() for part in flag)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"setting {name!r} has no value" in err


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

    def test_short_visibility_vector_names_the_count(self, capsys):
        assert main(["verify", "--n", "2", "--m", "4", "--x-vec", "0.5", "--k", "0", "--trials", "50"]) == 2
        err = capsys.readouterr().err
        assert "model carries 1 visibilities, instance has n=2" in err
        assert "pairwise mean" not in err

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

    def test_fewer_modes_than_photons_exit_code(self, capsys):
        assert main(["verify", "--n", "3", "--m", "2", "--x", "0.5", "--k", "0", "--trials", "50"]) == 2
        assert "at least as many modes as photons" in capsys.readouterr().err

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

    def test_laplace_refused_over_the_work_budget(self, capsys, tmp_path):
        # At n = 18 the order-2 Laplace walk is priced 2.46e10 kernel operations, a usage error; the direct walk runs.
        u = haar_unitary(36, seed=18)
        inst = ExperimentInstance(u, (1,) * 18 + (0,) * 18, (0,) * 18 + (1,) * 18, HomogeneousModel(0.8))
        path = tmp_path / "instance18.json"
        path.write_text(json.dumps(inst.to_dict()))
        argv = ["truncate", "--instance", str(path), "--k", "2"]
        assert main(argv + ["--strategy", "laplace"]) == 2
        err = capsys.readouterr().err
        assert "would take 2.46e+10 kernel operations, over the budget" in err
        assert "Traceback" not in err
        code, out = _run(capsys, argv + ["--strategy", "direct"])
        assert code == 0
        assert json.loads(out)["n"] == 18


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

    def test_block_over_the_budget_exit_code(self, capsys, tmp_path):
        # An order-4 target at n = 12 sums 3,257 permanents of size 12, one per pair {tau, tau^-1} of its
        # 4,962 permutations (1.6e8 operations, within the budget), but a block of 256 targets takes
        # 4.1e10: the chain is refused at its first block.
        inst = ExperimentInstance(haar_unitary(24, seed=11), (1,) * 12 + (0,) * 12, (1,) * 12 + (0,) * 12, HomogeneousModel(0.8))
        data = inst.to_dict()
        del data["output"]
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        assert main(["sample", "--instance", str(path), "--k", "4", "--num-samples", "10", "--seed", "5"]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "4.1e+10 kernel operations, over the budget" in err
        assert "Traceback" not in err

    def test_swap_with_every_mode_occupied_exit_code(self, capsys, tmp_path):
        # Three photons in three modes leave the swap no empty mode; numpy's "high <= 0" was the message.
        path = tmp_path / "full.json"
        path.write_text(json.dumps({"ensemble": {"kind": "haar_unitary", "m": 3, "seed": 3}, "input": [1, 1, 1],
                                    "model": {"type": "homogeneous", "x": 0.5}}))
        argv = ["sample", "--instance", str(path), "--k", "2", "--num-samples", "5", "--seed", "1"]
        assert main(argv + ["--proposal", "single_mode_swap"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: proposal 'single_mode_swap' has no empty mode") and "Traceback" not in err
        assert main(argv) == 0

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
            ("model", {"type": "homogeneous", "x": True}),
            ("model", {"type": "obb", "x": [True, 0.5]}),
            ("input", [1, 1.9, 0, 0]),
            ("input", [True, 1, 0, 0]),
            ("ensemble", {"kind": "nonsense", "m": -3, "seed": "x"}),  # next to the instance's unitary
            # Matrix shapes: an imaginary part must have the real part's shape, and the rows one length.
            ("unitary", {"re": np.eye(4).tolist(), "im": [[0.5]]}),
            ("unitary", {"re": np.eye(4).tolist()[:3] + [[0.0, 0.0, 1.0]]}),
            ("model", {"type": "explicit", "s_real": np.eye(2).tolist(), "s_imag": [[0.0]]}),
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

    # A config number of the wrong kind is refused, not coerced: a fraction or a bool for an integer
    # setting, a bool or an integer beyond the float range for a real one.
    @pytest.mark.parametrize("fields", [{"k": [2]}, {"k": 2, "output": [1]}, {"k": 2.5}, {"k": True}, {"x": True, "k": 2},
                                        {"epsilon": 10**400}])
    def test_setting_of_wrong_type_is_config_error(self, capsys, tmp_path, fields):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"x": 0.5, **fields}))
        assert main(["bound", "--config", str(config)]) == 2
        assert "has the wrong type" in capsys.readouterr().err

    # A number outside its setting's or field's bounds exits 2 with a message naming the field and the bound.
    _VERIFY = ["verify", "--n", "3", "--m", "9", "--x", "0.5", "--k", "0", "--trials", "50"]
    _SAMPLE = ["sample", "--k", "1", "--num-samples", "2"]

    @pytest.mark.parametrize("argv, env, message", [
        (_VERIFY + ["--seed", "-1"], None, "setting field 'seed' must be at least 0, got -1"),
        (_SAMPLE + ["--seed", "-1"], None, "setting field 'seed' must be at least 0, got -1"),
        (["prob"], None, "ensemble field 'seed' must be at least 0, got -1"),
        (_SAMPLE + ["--burn-in", "-1"], None, "setting field 'burn_in' must be at least 0, got -1"),
        (_VERIFY + ["--threads", "0"], None, "setting field 'threads' must be at least 1, got 0"),
        (_VERIFY, "-1", "setting field 'seed' must be at least 0, got -1"),
        (_SAMPLE, "-1", "setting field 'seed' must be at least 0, got -1"),
    ])
    def test_out_of_range_is_config_error(self, capsys, tmp_path, monkeypatch, instance_without_output, argv, env,
                                          message):
        if env is not None:
            monkeypatch.setenv("BOSONSIM_SEED", env)
        if argv[0] == "prob":  # an instance whose ensemble seed is negative
            path = tmp_path / "ensemble.json"
            path.write_text(json.dumps({"ensemble": {"kind": "haar_unitary", "m": 2, "seed": -1},
                                        "model": {"type": "homogeneous", "x": 0.5}}))
            argv = argv + ["--instance", str(path)]
        elif argv[0] == "sample":
            argv = argv + ["--instance", str(instance_without_output)]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_programming_error_propagates(self, capsys, instance_file, monkeypatch):
        def broken(inst):
            raise TypeError("a bug, not a config error")

        monkeypatch.setattr("bosonsim.cli.exact_probability", broken)
        with pytest.raises(TypeError):
            main(["prob", "--instance", str(instance_file)])


def _settings(command):
    return {**_COMMON, **_COMMANDS[command][2]}


class TestSettingsTable:
    @pytest.mark.parametrize("command, name", [(c, name) for c in _COMMANDS for name in _settings(c)])
    def test_every_setting_is_a_config_field(self, capsys, tmp_path, instance_file, command, name):
        kind = _settings(command)[name][0]
        valid = {int: 1, float: 0.5, str: str(tmp_path / "out.txt")}  # the converters take a flag's text
        value = kind[0] if isinstance(kind, list) else valid.get(base(kind) or kind,
                                                                 str(instance_file) if name == "instance" else "0.5")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema": 1, "command": command, name: value}))
        main([command, "--config", str(config)])
        assert "unknown config fields" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_fields_of_other_commands_are_refused(self, capsys, tmp_path, command):
        foreign = {name for other in _COMMANDS for name in _settings(other)} - set(_settings(command))
        assert foreign
        for name in sorted(foreign):
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({name: 1}))
            assert main([command, "--config", str(config)]) == 2
            assert f"unknown config fields: [{name!r}]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_help_names_every_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        for flag in ["--config"] + ["--" + name.replace("_", "-") for name in _settings(command)]:
            assert flag in usage

    def test_choice_list_applies_to_config_values(self, capsys, tmp_path, instance_file):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"instance": str(instance_file), "k": 2, "strategy": "adaptive"}))
        assert main(["truncate", "--config", str(config)]) == 2
        assert "config field 'strategy' must be one of ['direct', 'laplace'], got 'adaptive'" in capsys.readouterr().err

    def test_many_subcommands_in_one_process(self, capsys, instance_file, instance_without_output):
        # The parser, the table and the resolver carry no state from one call to the next.
        argvs = [
            ["prob", "--instance", str(instance_file)],
            ["truncate", "--instance", str(instance_file), "--k", "2"],
            ["truncate", "--instance", str(instance_file), "--k", "2", "--strategy", "laplace"],
            ["verify", "--n", "3", "--m", "9", "--x", "0.6", "--k", "1", "--trials", "50", "--seed", "3"],
            ["sample", "--instance", str(instance_without_output), "--k", "2", "--num-samples", "5", "--seed", "5"],
            ["bound", "--x", "0.9", "--k", "3"],
            ["curves", "--sigma", "0.02", "--epsilon", "0.05", "--mu", "0.5:0.7:0.1"],
            ["truncate", "--instance", str(instance_file)],
            ["bound", "--x", "1", "--k", "2"],
            ["verify", "--n", "12", "--m", "144", "--x", "0.7", "--k", "2", "--trials", "1000"],
        ]

        def run(argv):
            code = main(argv)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        forwards = [run(argv) for argv in argvs]
        backwards = [run(argv) for argv in reversed(argvs)][::-1]
        assert [code for code, _, _ in forwards] == [0] * 7 + [2, 3, 2]
        assert forwards == backwards


class TestConsoleScript:
    """The module entry point (``entrypoint``, the installed ``bosonsim`` script's target) in a fresh process."""

    @pytest.mark.parametrize("argv, code", [
        (["bound", "--x", "0.9", "--k", "3"], 0),
        (["verify", "--n", "12", "--m", "144", "--x", "0.7", "--k", "2", "--trials", "1000"], 2),
        (["bound", "--x", "0.5", "--k", "2", "--seed", "9"], 2),
        (["prob", "--instance", [1, 0]], 0),
        (["prob", "--instance", [1.5, 0]], 2),
    ])
    def test_exit_codes(self, tmp_path, argv, code):
        # A list in place of the instance path is the input of a 2-mode identity instance, written to a file.
        if isinstance(argv[-1], list):
            path = tmp_path / "instance.json"
            path.write_text(json.dumps({"unitary": {"re": [[1, 0], [0, 1]]}, "input": argv[-1], "output": [1, 0],
                                        "model": {"type": "homogeneous", "x": 0.5}}))
            argv = argv[:-1] + [str(path)]
        source = os.path.dirname(os.path.dirname(bosonsim.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run([sys.executable, "-m", "bosonsim.cli", *argv], capture_output=True, text=True, env=env,
                                timeout=120)
        assert result.returncode == code, result.stderr
        assert "Traceback" not in result.stderr
        if code == 0:
            payload = json.loads(result.stdout)
            assert payload["k"] == 3 if argv[0] == "bound" else payload["probability"] == 1.0
        elif "--seed" in argv:  # argparse refuses a flag the subcommand does not have
            assert result.stderr.startswith("usage:") and "unrecognized arguments: --seed 9" in result.stderr
        else:
            message = "over the budget" if argv[0] == "verify" else "instance field 'input' has the wrong type: [1.5, 0]"
            assert result.stderr.startswith("error:") and message in result.stderr
