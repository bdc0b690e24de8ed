import json
from importlib import resources

import jsonschema
import pytest

from nol.cli import main

SCHEMA = json.loads(
    resources.files("nol").joinpath("schema/report.schema.json").read_text())


def run_cli(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_report(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    report = json.loads(out)
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
        rep = json.loads(path.read_text())
        jsonschema.validate(rep, SCHEMA)

    def test_svmlight_file(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 0:1.0\n-1 0:-2.0\n1 1:0.5\n")
        rep = run_report(capsys, [
            "train", "--data", str(path), "--learner", "ng", "--loss",
            "squared", "--eta", "0.5"])
        assert rep["final_state"]["examples"] == 3
        assert len(rep["config"]["dataset_digest"]) == 64

    def test_csv_file_with_normalization(self, capsys, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n1.0,200,1\n-0.5,100,0\n")
        rep = run_report(capsys, [
            "train", "--data", str(path), "--format", "csv", "--normalize",
            "maxnorm", "--learner", "sgd", "--loss", "hinge", "--eta", "0.1"])
        assert rep["final_state"]["examples"] == 2
        assert rep["config"]["normalize"] == "maxnorm"


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

        def reject(name):
            raise ValueError(f"{name} is not strict JSON")

        rep = json.loads(out, parse_constant=reject)
        jsonschema.validate(rep, SCHEMA)
        failed = [c for c in rep["cells"] if c["error"] is not None]
        assert {(c["learner"], c["eta"]) for c in failed} == {
            ("ng", 16.0), ("ng", 32.0), ("ng", 64.0), ("sgd", 32.0), ("sgd", 64.0)}
        for c in failed:
            assert c["loss"] is None and c["training_loss"] is None
            assert c["error"].startswith("example ")
            assert ": non-finite loss inf at prediction " in c["error"]
        assert rep["best"]["ng"]["loss"] is not None

    def test_unknown_learner_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "sweep", "--synth", "figure1:T=10", "--learners", "nag,bogus",
            "--loss", "hinge"])
        assert code == 1
        assert "bogus" in err

    def test_bad_eta_grid(self, capsys):
        code, _, err = run_cli(capsys, [
            "sweep", "--synth", "figure1:T=10", "--learners", "sgd",
            "--loss", "hinge", "--eta-grid", "nope"])
        assert code == 2
        assert "data error" in err


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


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run_cli(capsys, ["train"])[0] == 1
        assert run_cli(capsys, ["frobnicate"])[0] == 1
        assert run_cli(capsys, [
            "train", "--synth", "figure1:T=10", "--learner", "bogus",
            "--loss", "hinge", "--eta", "0.5"])[0] == 1

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "train", "--data", "/nonexistent/file", "--learner", "sgd",
            "--loss", "hinge", "--eta", "0.5"])
        assert code == 2
        assert "data error" in err

    def test_malformed_file_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0:oops\n")
        code, _, err = run_cli(capsys, [
            "train", "--data", str(path), "--learner", "sgd", "--loss",
            "hinge", "--eta", "0.5"])
        assert code == 2
        assert "line 1" in err

    def test_empty_dataset_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        code, _, _ = run_cli(capsys, [
            "train", "--data", str(path), "--learner", "sgd", "--loss",
            "hinge", "--eta", "0.5"])
        assert code == 2

    def test_numeric_fault(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 0:10\n" * 200)
        code, _, err = run_cli(capsys, [
            "train", "--data", str(path), "--learner", "sgd", "--loss",
            "squared", "--eta", "1e150"])
        assert code == 3
        assert "numeric fault" in err
