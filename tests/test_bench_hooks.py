"""The traced benchmark still attaches to nol.

bench/spans.py wraps names in nol's modules from outside. This runs one
traced benchmark sample (bench/child.py) over tiny commands and checks that
every command succeeds and that each layer's span was recorded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SPANS = {
    "learners.run_stream", "learners.state_dump", "evaluate.sweep",
    "data.read_svmlight", "data.prenormalize",
    "regret.theorem1_check", "regret.theorem2_check", "regret.lemma1_check",
    "regret.conditioned_run", "regret.best_in_hindsight",
    "conditioners.project", "conditioners.step",
}


def test_traced_sample_records_every_layer(tmp_path):
    data = tmp_path / "d.svm"
    data.write_text("1 0:1.5 3:-2\n-1 1:0.25\n1 0:-3 1:4 2:0.5\n-1 2:8\n")

    def report(label):
        return str(tmp_path / f"{label}.json")

    commands = [
        ["train", ["train", "--data", str(data), "--learner", "nag", "--loss", "logistic",
                   "--eta", "0.5", "--normalize", "maxnorm", "--report", report("train")]],
        ["sweep", ["sweep", "--data", str(data), "--learners", "ng,nag,snag",
                   "--loss", "logistic", "--eta-grid", "0.5..2", "--report", report("sweep")]],
        *[[f"regret-{check}", ["regret", "--check", check, "--loss", loss, "--instances", "1",
                               "--T", "40", "--report", report(f"regret-{check}")]]
          for check, loss in (("thm1", "hinge"), ("thm2", "logistic"), ("lemma1", "squared"))],
    ]
    spec, result = tmp_path / "spec.json", tmp_path / "result.json"
    spec.write_text(json.dumps({"commands": commands, "trace": True}))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), str(spec),
                           str(result)], env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr

    out = json.loads(result.read_text())
    assert out["nol_file"].startswith(str(ROOT / "src"))
    for cmd in out["commands"]:
        assert (cmd["code"], cmd["error"]) == (0, None), cmd
        assert cmd["report_bytes"] > 0, cmd["label"]
    recorded = {s["name"] for s in out["trace"]["spans"]}
    assert SPANS <= recorded, sorted(SPANS - recorded)
