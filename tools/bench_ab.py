"""Compare the benchmark's end-to-end metrics between two checkouts.

    python3 tools/bench_ab.py PARENT CHANGE --workload W --pairs N [--seed S]

Pair k runs ``python3 bench/run.py --workload W --seed S+k --trace 0`` once
in each checkout, from its root, for BENCHMARK.json's ``run_seconds``: the
parent first in even pairs, the change first in odd ones, so a drifting
host weighs on both alike. Each run's metrics are printed as it ends.

Then, for each end-to-end metric of CHANGE's BENCHMARK.json, one row: each
side's median and quartiles; the change's wins (ties count for neither, and
"better" is the metric's direction); whether a gain could be claimed (wins
in at least nine tenths of the pairs, and medians further apart, in the
better direction, than the parent's quartile distance); and how much worse
the change's median is than the parent's, as a share of the parent's,
against the metric's bound. Then each side's failed commands. The last
line is one JSON object that holds the same comparison: per metric, each
side's values, median and quartiles, the wins, gain, worse_by and bound;
and each side's failed commands.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent, change, better, bound):
    """The comparison of one metric over paired runs: parent[k] and
    change[k] come from pair k; better is "lower" or "higher"."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    worse_by = sign * (cm - pm) / pm
    return {
        "parent": (pm, p1, p3),
        "change": (cm, c1, c3),
        "wins": wins,
        "pairs": len(parent),
        "gain": 10 * wins >= 9 * len(parent) and sign * (pm - cm) > p3 - p1,
        "worse_by": worse_by,
        "regressed": worse_by > bound,
    }


def comparison(workload, metrics, values, failed):
    """The JSON object of a whole comparison: metrics are BENCHMARK.json's
    end-to-end entries, values[side][name] each side's series, failed[side]
    its failed commands."""
    out = {"workload": workload, "pairs": len(values["parent"][metrics[0]["name"]]),
           "metrics": {}, "failed": dict(failed)}
    for m in metrics:
        name = m["name"]
        r = compare(values["parent"][name], values["change"][name], m["better"], m["bound"])
        out["metrics"][name] = {
            **{side: {"values": values[side][name], "median": r[side][0],
                      "quartiles": [r[side][1], r[side][2]]} for side in ("parent", "change")},
            "better": m["better"], "wins": r["wins"], "gain": r["gain"],
            "worse_by": r["worse_by"], "bound": m["bound"], "regressed": r["regressed"],
        }
    return out


def run_bench(checkout, workload, seed, seconds):
    """The last stdout line of bench/run.py in checkout, as parsed JSON."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0, help="seed of the first pair")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sides = {"parent": args.parent, "change": args.change}
    values = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in sides}
    failed = dict.fromkeys(sides, 0)
    for k in range(args.pairs):
        seed = args.seed + k
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            result = run_bench(sides[side], args.workload, seed, spec["run_seconds"])
            failed[side] += result["failed"]
            for name, series in values[side].items():
                series.append(result["metrics"][name]["value"])
            print(f"pair {k} seed {seed} {side}: " + " ".join(
                f"{name}={series[-1]:.6g}" for name, series in values[side].items()),
                flush=True)
    result = comparison(args.workload, spec["end_to_end"], values, failed)
    print(f"\n{args.workload}, {args.pairs} pairs: median [quartiles]")
    print(f"{'metric':12s} {'parent':>30s} {'change':>30s}  wins  gain  worse_by  bound")
    for name, r in result["metrics"].items():
        cells = ["{:.4g} [{:.4g}, {:.4g}]".format(r[side]["median"], *r[side]["quartiles"])
                 for side in sides]
        print(f"{name:12s} {cells[0]:>30s} {cells[1]:>30s}  {r['wins']:2d}/{args.pairs:<2d}"
              f"  {'yes' if r['gain'] else 'no':4s}  {r['worse_by']:+8.3f}  {r['bound']}"
              f"{'  REGRESSED' if r['regressed'] else ''}")
    print(f"failed commands: parent {failed['parent']}, change {failed['change']}")
    print(json.dumps(result, sort_keys=True))

if __name__ == "__main__":
    main()
