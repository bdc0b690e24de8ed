import builtins
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
import types
from importlib import resources

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nol import cli, evaluate, regret
from nol.cli import _parse_eta_grid, main
from nol.core import SparseExample
from nol.data import read_svmlight
from nol.errors import DataFormatError

SCHEMA = json.loads(
    resources.files("nol").joinpath("schema/report.schema.json").read_text())
_spec = importlib.util.spec_from_file_location(
    "report_snapshot", os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                                    "report_snapshot.py"))
report_snapshot = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_snapshot)


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(text, parse_constant=reject)


def run_report(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    report = strict_json(out)
    jsonschema.validate(report, SCHEMA)
    return report


class TestTrain:
    BASE = ["train", "--synth", "figure1:s=1,T=200", "--learner", "nag",
            "--loss", "hinge", "--eta", "0.5"]

    def test_report_shape(self, capsys):
        rep = run_report(capsys, self.BASE)
        assert rep["kind"] == "run"
        assert rep["schema_version"] == 1
        assert len(rep["trace"]) == 200
        assert rep["average_loss"] == pytest.approx(
            sum(rep["trace"]) / 200, rel=1e-12)
        assert rep["final_state"]["examples"] == 200

    def test_deterministic_modulo_timing(self, capsys):
        r1 = run_report(capsys, self.BASE)
        r2 = run_report(capsys, self.BASE)
        del r1["timing"], r2["timing"]
        assert r1 == r2

    def test_thinning(self, capsys):
        rep = run_report(capsys, self.BASE + ["--thin", "10"])
        assert len(rep["trace"]) == 20
        assert rep["trace_thinning"] == 10

    def test_report_file_and_quiet_stdout(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        code, out, err = run_cli(capsys, self.BASE + ["--report", str(path)])
        assert code == 0
        assert out == ""
        rep = strict_json(path.read_text())
        jsonschema.validate(rep, SCHEMA)

    @pytest.mark.parametrize("clip", ["0", "-1"])
    def test_nonpositive_clip_c_is_usage_error(self, capsys, clip):
        code, _, err = run_cli(capsys, self.BASE + ["--clip-c", clip])
        assert code == 1
        assert "--clip-c" in err

    def test_svmlight_file(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 0:1.0\n-1 0:-2.0\n1 1:0.5\n")
        rep = run_report(capsys, [
            "train", "--data", str(path), "--learner", "ng", "--loss",
            "squared", "--eta", "0.5"])
        assert rep["final_state"]["examples"] == 3
        assert len(rep["config"]["dataset_digest"]) == 64

    def test_svmlight_trailing_comment(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("# header\n1 0:1 # c\n-1 0:-2.0#\n")
        rep = run_report(capsys, [
            "train", "--data", str(path), "--learner", "ng", "--loss", "squared", "--eta", "0.5"])
        plain = tmp_path / "plain.txt"
        plain.write_text("1 0:1\n-1 0:-2.0\n")
        want = run_report(capsys, [
            "train", "--data", str(plain), "--learner", "ng", "--loss", "squared", "--eta", "0.5"])
        assert rep["final_state"] == want["final_state"]
        assert rep["config"]["dataset_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_csv_file_with_normalization(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1.0,200,1\n-0.5,100,0\n")
        rep = run_report(capsys, [
            "train", "--data", str(path), "--format", "csv", "--normalize",
            "maxnorm", "--learner", "sgd", "--loss", "hinge", "--eta", "0.1"])
        assert rep["final_state"]["examples"] == 2
        assert rep["config"]["normalize"] == "maxnorm"

    def test_csv_blank_line_is_skipped(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,y\n1,1\n\n2,0\n")
        rep = run_report(capsys, [
            "train", "--data", str(path), "--format", "csv", "--learner", "sgd",
            "--loss", "hinge", "--eta", "1"])
        assert rep["final_state"]["examples"] == 2
        assert len(rep["trace"]) == 2


class TestSweep:
    BASE = ["sweep", "--synth", "figure1:s=1,T=150", "--learners", "nag,sgd",
            "--loss", "hinge", "--eta-grid", "0.25..1.0"]

    def test_report_shape(self, capsys):
        rep = run_report(capsys, self.BASE)
        assert rep["kind"] == "sweep"
        assert len(rep["cells"]) == 6  # 2 learners x {0.25, 0.5, 1.0}
        assert set(rep["best"]) == {"nag", "sgd"}
        for k, b in rep["best"].items():
            losses = [c["loss"] for c in rep["cells"] if c["learner"] == k]
            assert b["loss"] == min(losses)

    def test_tied_etas(self, capsys):
        rep = run_report(capsys, self.BASE)
        assert rep["tie_failure_probability"] == 0.1
        assert rep["best"]["nag"]["tied_etas"] == [0.25, 1.0]
        for b in rep["best"].values():
            lo, hi = b["tied_etas"]
            assert lo <= b["eta"] <= hi
        rep["best"]["nag"]["tied_etas"] = [0.25]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(rep, SCHEMA)

    def test_regression_sweep_reports_no_ties(self, capsys):
        # its scaled squared error is not bounded in [0, 1]
        rep = run_report(capsys, ["sweep", "--synth", "figure1:s=1,T=150", "--learners",
                                  "nag,sgd", "--loss", "squared", "--task", "regression",
                                  "--eta-grid", "0.25..1.0"])
        assert rep["tie_failure_probability"] is None
        assert [b["tied_etas"] for b in rep["best"].values()] == [None, None]

    def test_kind_without_a_cell_has_no_ties(self, capsys, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("1 0:1e-300\n1 0:1e-300\n-1 0:1e-300\n")
        rep = run_report(capsys, ["sweep", "--data", str(path), "--learners", "ng,snag",
                                  "--loss", "hinge", "--eta-grid", "1..1"])
        assert rep["cells"][1]["error"] == "example 1: zero scale at coordinate 0"
        assert rep["best"] == {"ng": {"eta": 1.0, "loss": rep["cells"][0]["loss"],
                                      "tied_etas": [1.0, 1.0]}}
        assert rep["tie_failure_probability"] == 0.1

    def test_plot_csv(self, capsys, tmp_path):
        path = tmp_path / "plot.csv"
        run_report(capsys, self.BASE + ["--plot-data", str(path)])
        lines = path.read_text().splitlines()
        assert lines[0] == "learner,eta,loss"
        assert len(lines) == 7

    def test_deterministic(self, capsys):
        r1 = run_report(capsys, self.BASE)
        r2 = run_report(capsys, self.BASE)
        assert r1["cells"] == r2["cells"]

    def test_overflowing_cells_are_strict_json(self, capsys):
        code, out, err = run_cli(capsys, [
            "sweep", "--synth", "figure1:s=1,T=150", "--seed", "3", "--learners", "ng,sgd",
            "--loss", "squared", "--task", "regression", "--eta-grid", "8..64"])
        assert code == 0, err
        rep = strict_json(out)
        jsonschema.validate(rep, SCHEMA)
        failed = [c for c in rep["cells"] if c["error"] is not None]
        assert {(c["learner"], c["eta"]): c["error"] for c in failed} == {
            ("ng", 16.0): "example 148: non-finite loss inf",
            ("ng", 32.0): "example 117: non-finite loss inf",
            ("ng", 64.0): "example 98: non-finite loss inf",
            ("sgd", 32.0): "example 135: non-finite loss inf",
            ("sgd", 64.0): "example 108: non-finite loss inf"}
        for c in failed:
            assert c["loss"] is None and c["training_loss"] is None
        assert rep["best"]["ng"]["loss"] is not None

    def test_overflowing_gradient_sum_fails_its_cells(self, capsys, tmp_path):
        # the first loss, 1e150 squared, is finite; the gradient -2e160 squared is not
        path = tmp_path / "d.txt"
        path.write_text("1e150 0:1e10\n-1 0:1\n")
        code, out, err = run_cli(capsys, [
            "sweep", "--data", str(path), "--learners", "nag,snag,adagrad", "--loss", "squared",
            "--task", "regression", "--eta-grid", "0.5..1"])
        assert code == 0, err
        rep = strict_json(out)
        jsonschema.validate(rep, SCHEMA)
        assert [c["error"] for c in rep["cells"]] == \
               ["example 1: non-finite gradient sum inf at coordinate 0"] * 6

    def test_invalid_label_is_data_error_naming_the_example(self, capsys, tmp_path):
        # nol train exits 2 on this file with the same words
        path = tmp_path / "d.txt"
        path.write_text("1 0:1\n2 0:1\n")
        assert run_cli(capsys, ["sweep", "--data", str(path), "--learners", "nag",
                                "--loss", "hinge", "--eta-grid", "1..1"]) == \
               (2, "", "data error: example 2: classification label must be -1 or +1, got 2.0\n")

    def test_unknown_learner_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "sweep", "--synth", "figure1:T=10", "--learners", "nag,bogus",
            "--loss", "hinge"])
        assert code == 1
        assert "bogus" in err

    @pytest.mark.parametrize("grid", ["nan..1", "1..nan", "inf..inf", "a..1"])
    def test_unusable_eta_grid_is_usage_error(self, capsys, grid):
        code, _, err = run_cli(capsys, [
            "sweep", "--synth", "figure1:T=10", "--learners", "sgd",
            "--loss", "hinge", "--eta-grid", grid])
        assert code == 1
        assert err.count("\n") == 1 and "argument --eta-grid:" in err

    def test_eta_grid_stops_at_largest_float(self):
        grid = _parse_eta_grid("1..1.7976931348623157e308")
        assert grid == [2.0 ** k for k in range(1024)]


class TestRegret:
    def test_lemma1_suite(self, capsys):
        rep = run_report(capsys, [
            "regret", "--check", "lemma1", "--instances", "3", "--T", "60",
            "--loss", "hinge"])
        assert rep["kind"] == "regret" and rep["check"] == "lemma1"
        assert rep["summary"]["instances"] == 3
        assert rep["summary"]["failures"] == 0
        assert rep["summary"]["min_slack"] >= -1e-6
        assert len(rep["reports"]) == 3

    @pytest.mark.parametrize("check,loss,method", [("thm1", "hinge", "lp"),
                                                   ("thm2", "logistic", "fista")])
    def test_theorem_items_carry_oracle_certificate(self, capsys, check, loss, method):
        rep = run_report(capsys, [
            "regret", "--check", check, "--instances", "2", "--T", "60",
            "--loss", loss])
        assert rep["summary"]["failures"] == 0
        for item in rep["reports"]:
            oracle = item["oracle"]
            assert oracle["method"] == method
            assert 0.0 <= oracle["gap"] < 1e-6
            assert isinstance(oracle["iterations"], int) and oracle["iterations"] >= 0

    def test_cor1_summary_tau(self, capsys):
        rep = run_report(capsys, [
            "regret", "--check", "cor1", "--d", "10", "--delta", "0.1",
            "--nu", "0.5", "--T", "120", "--instances", "50"])
        assert rep["summary"]["tau"] == 10
        assert rep["summary"]["failures"] == 0

    def test_deterministic(self, capsys):
        argv = ["regret", "--check", "lemma1", "--instances", "2", "--T",
                "40", "--loss", "squared"]
        r1 = run_report(capsys, argv)
        r2 = run_report(capsys, argv)
        del r1["timing"], r2["timing"]
        assert r1 == r2


class TestConfigRecordsEveryFlag:
    """A report's config tells apart runs whose flags differ; the regret
    digest tells apart instances drawn at another shape or label kind."""

    LEMMA1 = ["regret", "--check", "lemma1", "--loss", "squared", "--instances", "1",
              "--T", "20"]
    COR1 = ["regret", "--check", "cor1", "--instances", "20", "--T", "20"]

    @staticmethod
    def configs(capsys, base, extra):
        return run_report(capsys, base)["config"], run_report(capsys, base + extra)["config"]

    @pytest.mark.parametrize("base,extra", [
        (TestTrain.BASE, ["--eta-decay"]),
        (TestTrain.BASE, ["--format", "csv"]),
        (TestTrain.BASE, ["--task", "regression"]),
        (TestSweep.BASE, ["--format", "csv"]),
        (TestSweep.BASE, ["--task", "regression"]),
        (LEMMA1, ["-C", "2"]),
        (LEMMA1, ["--d", "2"]),
        (LEMMA1, ["--T", "30"]),
        (LEMMA1, ["--instances", "2"]),
        (COR1, ["--delta", "0.2"]),
        (COR1, ["--nu", "0.25"]),
    ])
    def test_each_flag_changes_the_config(self, capsys, base, extra):
        before, after = self.configs(capsys, base, extra)
        del before["dataset_digest"], after["dataset_digest"]
        assert after != before

    @pytest.mark.parametrize("extra", [["--d", "2"], ["--T", "30"], ["--instances", "2"],
                                       ["--loss", "hinge"]])
    def test_instance_shape_changes_the_regret_digest(self, capsys, extra):
        before, after = self.configs(capsys, self.LEMMA1, extra)
        assert after["dataset_digest"] != before["dataset_digest"]

    def test_C_keeps_the_regret_digest(self, capsys):
        before, after = self.configs(capsys, self.LEMMA1, ["-C", "2"])
        assert after["dataset_digest"] == before["dataset_digest"]


class TestExitCodes:
    @pytest.mark.parametrize("argv,flag", [
        (TestTrain.BASE[:-1] + ["nan"], "--eta"),
        (TestTrain.BASE[:-1] + ["-1"], "--eta"),
        (["train", "--synth", "figure1:s=0", "--learner", "nag", "--loss", "hinge",
          "--eta", "0.5"], "--synth"),
        (["regret", "--check", "thm1", "--loss", "hinge", "-C", "nan"], "-C"),
        (["regret", "--check", "thm1", "--loss", "hinge", "-C", "inf"], "-C"),
        (["regret", "--check", "thm1", "--loss", "hinge", "-C", "-1"], "-C"),
        (["regret", "--check", "thm1", "--loss", "hinge", "--T", "0"], "--T"),
        (["regret", "--check", "thm1", "--loss", "hinge", "--d", "0"], "--d"),
        (["regret", "--check", "thm1", "--loss", "hinge", "--instances", "0"], "--instances"),
        (["regret", "--check", "cor1", "--instances", "0"], "--instances"),
        (TestTrain.BASE + ["--clip-c", "inf"], "--clip-c"),
        (TestSweep.BASE + ["--clip-c", "inf"], "--clip-c"),
        (TestTrain.BASE + ["--thin", "-3"], "--thin"),
        (TestTrain.BASE + ["--thin", "0"], "--thin"),
        (["regret", "--check", "cor1", "--delta", "0"], "--delta"),
        (["regret", "--check", "cor1", "--delta", "inf"], "--delta"),
        (["regret", "--check", "cor1", "--delta", "nan"], "--delta"),
        (["regret", "--check", "cor1", "--delta", "1"], "--delta"),
        (["regret", "--check", "cor1", "--nu", "1"], "--nu"),
        (["regret", "--check", "cor1", "--nu", "0"], "--nu"),
        (["regret", "--check", "cor1", "--nu", "nan"], "--nu"),
        *[(["sweep", "--synth", "figure1:T=10", "--learners", kinds, "--loss", "hinge"],
           "--learners") for kinds in ("", ",", "ng,ng")],
    ], ids=["eta-nan", "eta-negative", "synth-s0", "C-nan", "C-inf", "C-negative",
            "T0", "d0", "instances0", "cor1-instances0", "train-clip-inf", "sweep-clip-inf",
            "thin-negative", "thin0",
            "delta0", "delta-inf", "delta-nan", "delta1", "nu1", "nu0", "nu-nan",
            "learners-empty", "learners-comma", "learners-repeated"])
    def test_bad_argument_value_is_one_line_usage_error(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert f"argument {flag}:" in err

    @pytest.mark.parametrize("row", report_snapshot.FAILURES, ids=lambda row: row.id)
    def test_failure_case(self, capsys, tmp_path, row):
        argv = report_snapshot.write_failure(row, str(tmp_path))
        assert run_cli(capsys, argv) == (row.code, "", row.stderr.replace("{tmp}", str(tmp_path)))

    def test_import_loads_no_scipy(self):
        probe = "import sys, nol.cli; print('scipy' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_usage_error(self, capsys):
        assert run_cli(capsys, ["train"])[0] == 1
        assert run_cli(capsys, ["frobnicate"])[0] == 1
        assert run_cli(capsys, [
            "train", "--synth", "figure1:T=10", "--learner", "bogus",
            "--loss", "hinge", "--eta", "0.5"])[0] == 1

    @pytest.mark.parametrize("command", [
        ["train", "--learner", "sgd", "--loss", "hinge", "--eta", "0.5"],
        ["sweep", "--learners", "ng,nag", "--loss", "hinge", "--eta-grid", "1..1"]])
    def test_directory_as_data_is_data_error(self, capsys, tmp_path, command):
        code, out, err = run_cli(capsys, command + ["--data", str(tmp_path)])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("data error: ") and str(tmp_path) in err

    @pytest.mark.parametrize("argv,flag", [
        (["regret", "--check", "lemma1", "--instances", "1", "--T", "20"], "--report"),
        (TestSweep.BASE, "--plot-data")], ids=["regret-report", "sweep-plot-data"])
    def test_unwritable_output_path_is_usage_error(self, capsys, tmp_path, argv, flag):
        path = str(tmp_path / "missing" / "out.json")
        code, out, err = run_cli(capsys, argv + [flag, path])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert f"argument {flag}: cannot write {path!r}" in err

    def test_empty_dataset_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        code, _, _ = run_cli(capsys, [
            "train", "--data", str(path), "--learner", "sgd", "--loss",
            "hinge", "--eta", "0.5"])
        assert code == 2

    def test_empty_synth_dataset_is_data_error(self, capsys):
        assert run_cli(capsys, [
            "train", "--synth", "figure1:T=0", "--learner", "sgd", "--loss", "hinge",
            "--eta", "1"]) == (2, "", "data error: dataset is empty\n")

    def test_blank_csv_header_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("\n1,2\n")
        assert run_cli(capsys, [
            "train", "--data", str(path), "--format", "csv", "--learner", "sgd",
            "--loss", "hinge", "--eta", "1"]) == (2, "", "data error: line 1: empty header\n")

    def test_train_and_sweep_name_the_same_prediction_fault(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 0:1\n1 0:1e10\n-1 0:1\n")
        reason = "example 2: non-finite prediction inf"
        assert run_cli(capsys, [
            "train", "--data", str(path), "--learner", "sgd", "--loss", "hinge", "--eta", "1e300",
        ]) == (3, "", f"numeric fault: {reason}\n")
        rep = run_report(capsys, [
            "sweep", "--data", str(path), "--learners", "sgd", "--loss", "hinge",
            "--eta-grid", "1e300..1e300"])
        assert [c["error"] for c in rep["cells"]] == [reason]

    @pytest.mark.parametrize("lines,kind,extra,code,reason", [
        (["1 0:1e154 1:1e154"] * 2, "sgd", [], 3, "example 2: non-finite prediction inf"),
        (["1 0:1e154 1:1e154"] * 2, "sgd", ["--clip-c", "1"], 0, None),
        (["1 0:1e-300"] * 3, "snag", [], 3, "example 1: zero scale at coordinate 0"),
        (["1 0:1", "2 0:1"], "nag", [], 2,
         "example 2: classification label must be -1 or +1, got 2.0"),
    ], ids=["sum-overflows", "sum-overflows-clipped", "snag-zero-scale", "invalid-label"])
    def test_train_and_sweep_fail_alike(self, capsys, tmp_path, lines, kind, extra, code,
                                        reason):
        # a numeric fault ends train (exit 3) and fails the sweep's cell with
        # the same words; a data error ends both (exit 2)
        path = tmp_path / "d.txt"
        path.write_text("".join(line + "\n" for line in lines))
        flags = ["--data", str(path), "--loss", "hinge", *extra]
        train = run_cli(capsys, ["train", *flags, "--learner", kind, "--eta", "1"])
        sweep = run_cli(capsys, ["sweep", *flags, "--learners", kind, "--eta-grid", "1..1"])
        if code == 2:
            assert train == sweep == (2, "", f"data error: {reason}\n")
            return
        fault = "" if reason is None else f"numeric fault: {reason}\n"
        assert (train[0], train[2]) == (code, fault)
        assert sweep[0] == 0, sweep[2]
        [cell] = strict_json(sweep[1])["cells"]
        assert cell["error"] == reason
        if reason is None:
            assert cell["training_loss"] == strict_json(train[1])["average_loss"]

    def test_overflowing_update_names_example_coordinate_and_value(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 0:1e300\n-1 0:1e300\n")
        code, _, err = run_cli(capsys, [
            "train", "--data", str(path), "--learner", "sgd", "--loss",
            "squared", "--eta", "1e10"])
        assert code == 3
        assert err == "numeric fault: example 1: non-finite weight inf at coordinate 0\n"

    @pytest.mark.parametrize("text,reason", [
        ("1 0:1.5e154 1:1.5e154\n" * 2, "non-finite prediction inf"),
    ], ids=["product-overflows"])
    def test_overflowing_prediction_is_numeric_fault(self, capsys, tmp_path, text, reason):
        path = tmp_path / "d.txt"
        path.write_text(text)
        assert run_cli(capsys, [
            "train", "--data", str(path), "--learner", "sgd", "--loss", "hinge", "--eta", "1",
        ]) == (3, "", f"numeric fault: example 2: {reason}\n")

    @pytest.mark.parametrize("kind,loss,text", [
        ("snag", "squared", "1e150 0:1e10\n"),
        ("adagrad", "squared", "1e150 0:1e10\n"),
        ("adagrad", "hinge", "1 0:1.5e154 1:1.5e154\n"),
    ])
    def test_overflowing_gradient_sum_is_numeric_fault(self, capsys, tmp_path, kind, loss, text):
        path = tmp_path / "d.txt"
        path.write_text(text)
        assert run_cli(capsys, [
            "train", "--data", str(path), "--learner", kind, "--loss", loss, "--eta", "1",
        ]) == (3, "", "numeric fault: example 1: non-finite gradient sum inf at coordinate 0\n")

    def test_statistics_fault_in_a_sweep_names_the_example(self, capsys, tmp_path):
        # snag's sum of squares overflows on example 2; the sgd cell goes on
        path = tmp_path / "d.txt"
        path.write_text("1 0:1e154\n" * 2)
        reason = "example 2: non-finite sum of squares inf at coordinate 0"
        code, out, err = run_cli(capsys, [
            "sweep", "--data", str(path), "--learners", "snag,sgd", "--loss", "hinge",
            "--eta-grid", "1..1"])
        assert code == 0, err
        snag, sgd = strict_json(out)["cells"]
        assert snag["error"] == reason
        assert sgd["error"] is None and sgd["training_loss"] is not None
        assert run_cli(capsys, [
            "train", "--data", str(path), "--learner", "snag", "--loss", "hinge", "--eta", "1",
        ]) == (3, "", f"numeric fault: {reason}\n")

    def test_non_finite_regression_eval_loss_fails_its_cell(self, capsys, tmp_path):
        # hinge loss 1 + 1e156 is finite; the eval loss (1e156 + 1)^2 / 4 is not
        path = tmp_path / "d.txt"
        path.write_text("1 0:1e78\n-1 0:1e78\n1 0:1\n")
        rep = run_report(capsys, [
            "sweep", "--data", str(path), "--task", "regression", "--loss", "hinge",
            "--learners", "sgd", "--eta-grid", "1..1"])
        assert [c["error"] for c in rep["cells"]] == \
               ["example 2: non-finite eval loss inf"]
        assert rep["best"] == {}

    def test_train_and_sweep_check_the_clipped_prediction(self, capsys, tmp_path):
        # the raw second prediction overflows, the clipped one is 1
        path = tmp_path / "d.txt"
        path.write_text("1 0:1.5e154 1:1.5e154\n" * 2)
        train = run_report(capsys, [
            "train", "--data", str(path), "--learner", "sgd", "--loss", "hinge", "--eta", "1",
            "--clip-c", "1"])
        sweep = run_report(capsys, [
            "sweep", "--data", str(path), "--learners", "sgd", "--loss", "hinge",
            "--eta-grid", "1..1", "--clip-c", "1"])
        [cell] = sweep["cells"]
        assert cell["error"] is None
        assert cell["training_loss"] == train["average_loss"] == 0.5

    @pytest.mark.parametrize("value", ["1e-300", "1.5e154"])
    def test_ng_runs_at_extreme_feature_scales(self, capsys, tmp_path, value):
        path = tmp_path / "d.txt"
        path.write_text(f"1 0:{value}\n-1 0:{value}\n")
        train = run_report(capsys, [
            "train", "--data", str(path), "--learner", "ng", "--loss", "hinge", "--eta", "1"])
        sweep = run_report(capsys, [
            "sweep", "--data", str(path), "--learners", "ng", "--loss", "hinge",
            "--eta-grid", "1..1"])
        assert sweep["cells"][0]["training_loss"] == train["average_loss"] == 1.5

    def test_overflowing_regression_loss_scale_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1e200 0:1\n-1 0:1\n")
        assert run_cli(capsys, [
            "sweep", "--data", str(path), "--learners", "sgd", "--loss", "squared",
            "--task", "regression",
        ]) == (2, "", "data error: labels from -1.0 to 1e+200: regression loss scale overflows\n")

    def test_overflowing_loss_sum_fails_its_cell(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1.3e154 0:1\n1.2e154 0:1\n")
        code, out, err = run_cli(capsys, [
            "sweep", "--data", str(path), "--learners", "sgd", "--loss", "squared",
            "--eta-grid", "1e-300..1e-300", "--task", "regression"])
        assert code == 0, err
        rep = strict_json(out)
        jsonschema.validate(rep, SCHEMA)
        assert [(c["error"], c["loss"], c["training_loss"]) for c in rep["cells"]] == \
               [("example 2: non-finite loss sum inf", None, None)]

    @pytest.mark.parametrize("check", ["lemma1", "thm1", "thm2"])
    def test_overflowing_conditioned_run_is_numeric_fault(self, capsys, check):
        code, out, err = run_cli(capsys, ["regret", "--check", check, "--loss", "squared",
                                          "-C", "1e300", "--instances", "1", "--T", "12"])
        assert (code, out) == (3, "")
        assert err == "numeric fault: example 2: non-finite loss inf\n"

    def test_report_that_is_not_strict_json_is_numeric_fault(self, capsys, tmp_path):
        # the bounds and slacks overflow; the report would hold Infinity
        path = tmp_path / "r.json"
        reason = "numeric fault: report field reports[2].bound_value: non-finite value inf\n"
        for report in ([], ["--report", str(path)]):
            assert run_cli(capsys, ["regret", "--check", "thm2", "--loss", "squared",
                                    "-C", "1e152", "--instances", "3", *report]) == (3, "", reason)
        assert not path.exists()

    def test_lp_without_optimum_is_numeric_fault(self, capsys, monkeypatch):
        monkeypatch.setattr(regret, "LP_MAX_PIVOTS", 5)
        assert run_cli(capsys, ["regret", "--check", "thm1", "--loss", "hinge",
                                "-C", "1e20", "--instances", "1"]) == \
               (3, "", "numeric fault: LP oracle: no optimum after 5 pivots\n")

    @pytest.mark.parametrize("loss", ["logistic"])
    def test_invalid_label_is_data_error_naming_the_example(self, capsys, tmp_path, loss):
        path = tmp_path / "f"
        path.write_text("-1 0:1\n2 0:1\n")
        code, out, err = run_cli(capsys, [
            "train", "--data", str(path), "--learner", "ng", "--loss", loss, "--eta", "1"])
        assert (code, out) == (2, "")
        assert err == "data error: example 2: classification label must be -1 or +1, got 2.0\n"

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_empty_file_with_sqnorm_is_data_error(self, capsys, tmp_path, command):
        path = tmp_path / "empty.txt"
        path.write_text("")
        argv = ([command, "--data", str(path), "--normalize", "sqnorm", "--loss", "hinge"]
                + (["--learner", "sgd", "--eta", "0.5"] if command == "train"
                   else ["--learners", "sgd"]))
        assert run_cli(capsys, argv) == (2, "", "data error: dataset is empty\n")

    def test_sweep_malformed_line_after_every_cell_failed_is_data_error(self, capsys, tmp_path):
        # the sweep reads line 4 with the block before it checks line 1's label
        path = tmp_path / "d.txt"
        path.write_text("2 0:1\n1 0:1\n-1 1:2\n1 0:oops\n-1 0:1\n")
        code, out, err = run_cli(capsys, [
            "sweep", "--data", str(path), "--learners", "ng,nag", "--loss", "hinge",
            "--eta-grid", "0.5..1"])
        assert (code, out) == (2, "")
        assert err == "data error: line 4: malformed token '0:oops'\n"

    def test_numeric_fault(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 0:10\n" * 200)
        code, _, err = run_cli(capsys, [
            "train", "--data", str(path), "--learner", "sgd", "--loss",
            "squared", "--eta", "1e150"])
        assert code == 3
        assert "numeric fault" in err


class TestStreaming:
    """train and sweep read --data one line at a time."""

    @staticmethod
    def train_argv(path, *extra):
        return ["train", "--data", str(path), "--learner", "nag", "--loss", "logistic",
                "--eta", "0.5", *extra]

    @staticmethod
    def assert_peak_is_flat(capsys, tmp_path, argv_of):
        """argv_of(path)'s traced peak grows by less than a quarter of the
        growth of the file from one copy of 250 lines to four."""
        # the same 40 features on every line, so per-feature state is fixed
        lines = "".join(
            " ".join([str(1 - 2 * (k % 2))]
                     + [f"{i}:{1 + (7 * k + i) % 101 / 101!r}" for i in range(40)]) + "\n"
            for k in range(250))
        peaks, sizes = [], []
        for copies in (1, 4):
            path = tmp_path / f"x{copies}.svm"
            path.write_text(lines * copies)
            sizes.append(path.stat().st_size)
            tracemalloc.start()
            try:
                code = main(argv_of(path))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0, capsys.readouterr().err
        assert peaks[1] - peaks[0] < (sizes[1] - sizes[0]) / 4, (peaks, sizes)

    @pytest.mark.parametrize("normalize", ["none", "maxnorm"])
    def test_traced_peak_does_not_grow_with_the_file(self, capsys, tmp_path, normalize):
        self.assert_peak_is_flat(capsys, tmp_path, lambda path: self.train_argv(
            path, "--normalize", normalize, "--thin", "1000000",
            "--report", str(tmp_path / "r.json")))

    def test_sweep_traced_peak_does_not_grow_with_the_file(self, capsys, tmp_path, monkeypatch):
        # the sweep holds one block of examples and its buffers at a time.
        # Blocks of 50 lines make both files whole blocks: a file shorter
        # than one block also holds smaller per-block buffers, and CPython's
        # tuple free list, filled before tracing starts, serves most of the
        # first block's (index, value) pairs untraced
        monkeypatch.setattr(evaluate, "BLOCK", 50)
        self.assert_peak_is_flat(capsys, tmp_path, lambda path: [
            "sweep", "--data", str(path), "--learners", "ng,nag,snag", "--loss", "logistic",
            "--report", str(tmp_path / "r.json")])

    def test_sweep_drops_a_block_before_reading_the_next(self, monkeypatch):
        # one held block does not grow the traced peak with the file: no list
        # but the test's own may hold a block's examples once the next is read
        monkeypatch.setattr(evaluate, "BLOCK", 4)
        examples = [SparseExample(((0, 1.0 + k),), 1.0 - 2 * (k % 2)) for k in range(12)]
        holders = []

        def stream():
            for k, x in enumerate(examples):
                if k and k % 4 == 0:   # the first example of the next block
                    holders.extend(r for r in gc.get_referrers(examples[k - 4])
                                   if isinstance(r, list) and r is not examples)
                yield x

        evaluate.sweep(["ng", "nag"], "hinge", stream())
        assert holders == []

    BREAKS = "1 0:1\r\n-1 1:2\r1 0:3\x0c-1 0:0.5 2:4\u2028# note\n\n1 1:-5\x0b-1 0:2\n"

    def test_line_breaks_are_those_of_splitlines(self, capsys, tmp_path):
        mixed, plain = tmp_path / "mixed.svm", tmp_path / "plain.svm"
        mixed.write_bytes(self.BREAKS.encode())
        plain.write_text("\n".join(self.BREAKS.splitlines()) + "\n")
        got, want = (run_report(capsys, self.train_argv(p)) for p in (mixed, plain))
        assert got["final_state"]["examples"] == len(list(read_svmlight(self.BREAKS.splitlines())))
        for rep in (got, want):
            del rep["timing"], rep["config"]["dataset_digest"]
        assert got == want

    @pytest.mark.parametrize("bad_after", [0, 1, 2, 3, 4, 6])
    def test_error_line_numbers_are_those_of_splitlines(self, capsys, tmp_path, bad_after):
        lines = self.BREAKS.splitlines(keepends=True)
        text = "".join(lines[:bad_after]) + "1 0:oops\n" + "".join(lines[bad_after:])
        with pytest.raises(DataFormatError) as want:
            list(read_svmlight(text.splitlines()))
        path = tmp_path / "bad.svm"
        path.write_bytes(text.encode())
        assert run_cli(capsys, self.train_argv(path)) == (2, "", f"data error: {want.value}\n")

    @pytest.mark.parametrize("text,line", [(b"1 0:1\r-1 0:\xff 1:2\n1 0:3\n", 2)],
                             ids=["carriage-return"])
    def test_non_utf8_bytes_name_the_file_and_the_line(self, capsys, tmp_path, text, line):
        path = tmp_path / "d.svm"
        path.write_bytes(text)
        assert run_cli(capsys, self.train_argv(path)) == (
            2, "", f"data error: {path}: line {line}: not UTF-8 (invalid start byte)\n")

    @pytest.mark.parametrize("command,normalize", [("train", "none"), ("train", "sqnorm"),
                                                   ("sweep", "none"), ("sweep", "maxnorm")])
    def test_digest_is_sha256_of_the_file(self, capsys, tmp_path, command, normalize):
        path = tmp_path / "d.svm"
        path.write_bytes(self.BREAKS.encode() + b"1 3:7\n" * 50)
        argv = (self.train_argv(path) if command == "train" else
                ["sweep", "--data", str(path), "--learners", "ng,sgd", "--loss", "logistic",
                 "--eta-grid", "0.5..1"])
        rep = run_report(capsys, argv + ["--normalize", normalize])
        assert rep["config"]["dataset_digest"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_file_rewritten_between_passes_is_data_error(self, tmp_path):
        path = tmp_path / "d.svm"
        path.write_text("1 0:1\n")
        data = cli._DataFile(str(path), read_svmlight)
        with data:
            assert len(list(data)) == 1
            path.write_text("1 0:2\n")
            with pytest.raises(DataFormatError, match="changed between passes"):
                list(data)
        assert data.digest == hashlib.sha256(b"1 0:1\n").hexdigest()

    @pytest.mark.parametrize("argv,text,code", [
        (["train", "--learner", "sgd", "--loss", "hinge", "--eta", "0.5"],
         "1 0:1\n-1 0:2\n1 0:x\n-1 0:1\n", 2),
        (["train", "--learner", "sgd", "--loss", "hinge", "--eta", "0.5",
          "--normalize", "sqnorm"], "1 0:1\n-1 0:2\n1 0:x\n-1 0:1\n", 2),
        (["train", "--learner", "sgd", "--loss", "squared", "--eta", "1e10"],
         "1 0:1\n1 0:1e300\n-1 0:1e300\n1 0:1\n", 3),
        (["train", "--learner", "sgd", "--loss", "squared", "--eta", "1e308",
          "--normalize", "maxnorm"], "1 0:1\n1 0:1e300\n-1 0:1e300\n1 0:1\n", 3),
        (["sweep", "--learners", "ng,nag", "--loss", "hinge"],
         "1 0:1\n-1 0:2\n1 0:x\n-1 0:1\n", 2),
        (["sweep", "--learners", "ng", "--loss", "hinge", "--normalize", "maxnorm"],
         "1 0:1\n-1 0:2\n1 0:x\n-1 0:1\n", 2),
    ], ids=["train-parse", "train-sqnorm-parse", "train-numeric", "train-maxnorm-numeric",
            "sweep-parse", "sweep-maxnorm-parse"])
    def test_aborted_run_leaves_no_file_open(self, capsys, tmp_path, monkeypatch,
                                             argv, text, code):
        path = tmp_path / "d.svm"
        path.write_text(text)
        handles = []

        def recording_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            handles.append(fh)
            return fh

        real_open = builtins.open
        monkeypatch.setattr(builtins, "open", recording_open)
        got, out, _ = run_cli(capsys, argv[:1] + ["--data", str(path)] + argv[1:])
        assert (got, out) == (code, "")
        assert handles and all(fh.closed for fh in handles)


class TestReportFormat:
    @pytest.mark.parametrize("argv", [
        TestTrain.BASE,
        TestSweep.BASE,
        ["regret", "--check", "lemma1", "--instances", "2", "--T", "40"],
    ], ids=["train", "sweep", "regret"])
    def test_one_line_of_sorted_json_on_stdout_and_in_file(
            self, capsys, tmp_path, monkeypatch, argv):
        # a fixed clock, so both runs report the same timing
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        code, out, err = run_cli(capsys, argv)
        assert code == 0, err
        path = tmp_path / "r.json"
        code, quiet, err = run_cli(capsys, argv + ["--report", str(path)])
        assert code == 0, err
        assert quiet == ""
        assert path.read_bytes() == out.encode()
        assert out.endswith("\n") and out.count("\n") == 1
        assert out[:-1] == json.dumps(strict_json(out), sort_keys=True)


class TestFuzz:
    """main on generated argv ends in an exit code, with at most one stderr
    line and strict JSON on success, whatever the flags and data."""

    FILES = {
        "product-overflow.svm": "1 0:1.5e154 1:1.5e154\n" * 2,
        "sum-overflow.svm": "1 0:1e154 1:1e154\n" * 2,
        "mixed.svm": "0 0:1e-300\n1 0:1.5e154 1:1.5e154\n-1 1:2 5:-3\n2 0:1\n",
        "wide-labels.svm": "1e150 0:1e10\n-1 0:1\n1e200 1:3\n",
        "small.svm": "1 0:1 2:0.5\n-1 1:2\n1 0:-3 1:1e3\n-1 2:7\n",
        "bad.svm": "1 0:1\n-1 0:oops\n",
        "empty.svm": "",
        "small.csv": "a,b,y\n1.0,200,1\n-0.5,100,0\n3,1e300,1\n",
    }
    # mostly usable values, so that most draws get past argument parsing
    FLOATS = ["1e-300", "0.5", "1", "16", "1e300"] * 4 + ["0", "-1", "nan", "inf", "x"]

    @pytest.fixture(scope="class")
    def data_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("fuzz")
        for name, text in self.FILES.items():
            (root / name).write_text(text)
        return root

    @staticmethod
    def flag(name, values, optional=True):
        """The flag with one of the values, or no flag when optional."""
        given_flag = st.sampled_from(values).map(lambda v: [name, v])
        return st.one_of(st.just([]), given_flag) if optional else given_flag

    @staticmethod
    def command(*parts):
        """The argv of one draw of each part, each a list of arguments."""
        return st.tuples(*parts).map(lambda drawn: [arg for part in drawn for arg in part])

    def argv(self, data_dir):
        flag, command, floats = self.flag, self.command, self.FLOATS
        losses = ["squared", "hinge", "logistic"]
        data = command(
            st.one_of(
                st.sampled_from(sorted(self.FILES)).map(lambda f: ["--data", str(data_dir / f)]),
                st.sampled_from(["figure1:s=1,T=12", "figure1:s=1000,T=8", "scaled:d=2,T=6",
                                 "figure1:s=0", "bogus"]).map(lambda v: ["--synth", v])),
            flag("--format", ["svmlight", "csv"]),
            flag("--task", ["classification", "regression"]),
            flag("--normalize", ["none", "maxnorm", "sqnorm"]),
            flag("--loss", losses, optional=False),
            flag("--clip-c", floats))
        train = command(st.just(["train"]), data,
                        flag("--learner", ["ng", "nag", "snag", "adagrad", "sgd"], optional=False),
                        flag("--eta", floats, optional=False),
                        st.sampled_from([[], ["--eta-decay"]]), flag("--thin", ["1", "3", "0"]))
        sweep = command(st.just(["sweep"]), data,
                        flag("--learners", ["ng", "nag,snag", "adagrad,sgd", "ng,bogus", "",
                                            "ng,ng"], optional=False),
                        flag("--eta-grid", ["0.5..2", "1..1", "1e-300..1e-299",
                                            "1e307..1e308", "2..1", "nan..1", "x"]))
        regret = command(st.just(["regret"]),
                         flag("--check", ["lemma1", "thm1", "thm2", "cor1"], optional=False),
                         flag("--loss", losses), flag("--instances", ["1", "2", "0"]),
                         flag("--T", ["1", "3", "12", "0"]), flag("--d", ["1", "3", "0"]),
                         flag("-C", floats), flag("--delta", ["0.1", "0.5", "1", "16"]),
                         flag("--nu", ["0.1", "0.5", "1"]), flag("--seed", ["0", "7"]))
        return st.one_of(train, sweep, regret)

    def test_every_run_exits_cleanly(self, data_dir):
        @settings(max_examples=300, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(self.argv(data_dir))
        def run(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, code)
            assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())
            if code == 0:
                strict_json(out.getvalue())

        run()
