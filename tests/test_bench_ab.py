"""The statistics of tools/bench_ab.py on fixed numbers; no bench runs."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_ab.py")
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]   # quartiles 1.225, 1.45, 1.675


def test_quartiles():
    assert bench_ab.quartiles(PARENT) == pytest.approx((1.225, 1.45, 1.675))
    assert bench_ab.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_gain_needs_nine_wins_and_medians_apart_by_the_parents_iqr():
    # every pair 0.5 lower: 10 wins, medians 0.5 apart > IQR 0.45
    r = bench_ab.compare(PARENT, [p - 0.5 for p in PARENT], "lower", 0.25)
    assert (r["wins"], r["pairs"], r["gain"], r["regressed"]) == (10, 10, True, False)
    assert r["change"] == pytest.approx((0.95, 0.725, 1.175))
    assert r["worse_by"] == pytest.approx(-0.5 / 1.45)
    # 0.4 lower: 10 wins, but 0.4 is within the parent's IQR
    assert not bench_ab.compare(PARENT, [p - 0.4 for p in PARENT], "lower", 0.25)["gain"]
    # 0.5 lower in 8 pairs, equal in 2: ties count for neither, 8 of 10 wins
    change = [p - 0.5 for p in PARENT[:8]] + PARENT[8:]
    r = bench_ab.compare(PARENT, change, "lower", 0.25)
    assert (r["wins"], r["gain"]) == (8, False)


def test_direction_and_bound():
    # higher is better: a change 0.5 higher wins every pair
    r = bench_ab.compare(PARENT, [p + 0.5 for p in PARENT], "higher", 0.25)
    assert (r["wins"], r["gain"], r["regressed"]) == (10, True, False)
    # 0.4 lower on a higher-better metric: 0.4 / 1.45 = 0.276 worse > 0.25
    r = bench_ab.compare(PARENT, [p - 0.4 for p in PARENT], "higher", 0.25)
    assert (r["wins"], r["regressed"]) == (0, True)
    assert r["worse_by"] == pytest.approx(0.4 / 1.45)
    # 0.3 lower: 0.207 worse, within the bound
    assert not bench_ab.compare(PARENT, [p - 0.3 for p in PARENT], "higher", 0.25)["regressed"]


def test_comparison_holds_every_metric_and_the_failed_commands():
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25},
               {"name": "throughput", "better": "higher", "bound": 0.25}]
    change = [p - 0.5 for p in PARENT]
    values = {"parent": {"wall_s": PARENT, "throughput": PARENT},
              "change": {"wall_s": change, "throughput": change}}
    out = bench_ab.comparison("w", metrics, values, {"parent": 0, "change": 1})
    assert json.loads(json.dumps(out)) == out
    assert (out["workload"], out["pairs"], out["failed"]) == ("w", 10, {"parent": 0, "change": 1})
    assert list(out["metrics"]) == ["wall_s", "throughput"]
    wall = out["metrics"]["wall_s"]
    assert wall["parent"]["values"] == PARENT and wall["change"]["values"] == change
    assert wall["parent"]["median"] == pytest.approx(1.45)
    assert wall["parent"]["quartiles"] == pytest.approx([1.225, 1.675])
    assert wall["change"]["median"] == pytest.approx(0.95)
    assert wall["change"]["quartiles"] == pytest.approx([0.725, 1.175])
    assert (wall["wins"], wall["gain"], wall["bound"], wall["regressed"]) == (10, True, 0.25, False)
    assert wall["worse_by"] == pytest.approx(-0.5 / 1.45)
    tput = out["metrics"]["throughput"]
    assert (tput["wins"], tput["gain"], tput["regressed"]) == (0, False, True)
    assert tput["worse_by"] == pytest.approx(0.5 / 1.45)


def test_last_line_is_the_comparison(monkeypatch, capsys, tmp_path):
    spec = {"run_seconds": 1, "end_to_end": [{"name": "wall_s", "better": "lower",
                                              "bound": 0.25}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = iter([1.0, 0.9, 0.8, 1.2])   # pair 0: parent, change; pair 1: change, parent

    def run_bench(checkout, workload, seed, seconds):
        return {"failed": 0, "metrics": {"wall_s": {"value": next(runs)}}}

    monkeypatch.setattr(bench_ab, "run_bench", run_bench)
    bench_ab.main(["P", str(tmp_path), "--workload", "w", "--pairs", "2"])
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    wall = out["metrics"]["wall_s"]
    assert (wall["parent"]["values"], wall["change"]["values"]) == ([1.0, 1.2], [0.9, 0.8])
    assert (out["pairs"], wall["wins"], out["failed"]) == (2, 2, {"parent": 0, "change": 0})
