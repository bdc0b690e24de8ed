"""The nol benchmark: end-to-end and per-layer metrics of three CLI workloads.

    python3 bench/run.py --workload train-wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The inputs are generated from
--seed before anything is timed. Then, for --seconds, samples run one after
another: each sample is a fresh child process (bench/child.py) that imports
nol.cli and calls nol.cli.main in-process for the workload's command list
(single client, closed loop, no threads). Every command's report is checked
(bench/checks.py). With --trace 1, traced samples alternate with untraced
ones and the per-layer metrics are printed instead of the end-to-end ones.

stdout: one line per metric, then, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}. The full record (machine,
run conditions, inputs with sha256, every sample, spans) is written to
bench/.work/result-<workload>-seed<seed>-trace<0|1>.json. Exits 2 without a
result when the checkout holds no nol sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import checks
import inputs
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, ".work")
WORKLOADS = ("train-wide", "sweep-narrow", "regret-bounds")
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "throughput": "1/s", "peak_rss_mb": "MB"}
THROUGHPUT_ITEMS = {"train-wide": "examples", "sweep-narrow": "sweep cells",
                    "regret-bounds": "bound-check instances"}


def summarize(values):
    """Median, and the highest percentile with at least ten samples beyond it
    (the median itself below 20 samples), with the sample count."""
    s = sorted(values)
    n = len(s)
    pct = 100 * (n - 10) // n if n >= 20 else 50
    return {"median": statistics.median(s), "percentile": pct,
            "percentile_value": s[max(1, math.ceil(pct * n / 100)) - 1], "samples": n}


def git_sha():
    """HEAD of the checkout, read from .git without running git; None when the
    checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """sha256 over the paths and bytes of every file under src/nol."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "nol")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_and_conditions(child_env):
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": version("numpy"),
            "scipy": version("scipy"),
            "jsonschema": version("jsonschema"),
        },
        "conditions": {
            "shape": "single client, closed loop: each command starts when the previous "
                     "one returns; one fresh process per sample; samples run back to back",
            "NOL_THREADS": "unset in every sample process",
            "NOL_THREADS_in_caller_env": os.environ.get("NOL_THREADS"),
            "blas_threads": {k: child_env[k] for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }


def run_child(env, commands, trace, spec_path, result_path):
    """One sample process; returns (exit code, stderr, result or None)."""
    with open(spec_path, "w") as fh:
        json.dump({"commands": commands, "trace": trace}, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), spec_path, result_path],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(result_path):
        return proc.returncode, proc.stderr, None
    with open(result_path) as fh:
        result = json.load(fh)
    if os.path.dirname(os.path.abspath(result["nol_file"])) != os.path.join(SRC, "nol"):
        raise SystemExit(f"nol imported from {result['nol_file']}, not from {SRC}")
    return 0, proc.stderr, result


def child_env():
    env = dict(os.environ)
    env.pop("NOL_THREADS", None)
    env["PYTHONPATH"] = SRC
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[k] = "1"
    return env


class Workload:
    def __init__(self, name, seed):
        self.name = name
        self.data_seed = seed % inputs.VARIANTS
        self.dir = os.path.join(WORK, f"{name}-seed{seed}")
        self.run = inputs.make(name, self.data_seed, self.dir, ROOT)
        self.schema = checks.load_schema(ROOT)
        with open(os.path.join(BENCH, "references.json")) as fh:
            refs = json.load(fh)
        if refs["params"] != json.loads(json.dumps(inputs.PARAMS)):
            raise SystemExit("bench/references.json was recorded for other input "
                             "parameters; rerun bench/record.py")
        self.reference = refs[name][str(self.data_seed)]
        self.env = child_env()
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def sample(self, trace):
        """Run the command list once in a fresh process; check every report."""
        n = len(self.samples)
        for _, argv in self.run["commands"]:
            report = argv[argv.index("--report") + 1]
            if os.path.exists(report):
                os.remove(report)
        code, stderr, result = run_child(self.env, self.run["commands"], trace,
                                         os.path.join(self.dir, "spec.json"),
                                         os.path.join(self.dir, "sample.json"))
        self.attempted += len(self.run["commands"])
        if result is None:
            self.failed += len(self.run["commands"])
            self.failures.append({"sample": n, "command": None,
                                  "reason": f"sample process exit {code}: {stderr[-2000:]}"})
            self.samples.append(None)
            return
        result["traced"] = trace
        result["failed"] = 0
        for cmd, (_, argv) in zip(result["commands"], self.run["commands"]):
            reason = checks.check_command(self.name, cmd, argv[argv.index("--report") + 1],
                                          self.schema, self.reference, self.run["lines"])
            cmd["check"] = reason
            if reason is not None:
                result["failed"] += 1
                self.failed += 1
                self.failures.append({"sample": n, "command": cmd["label"], "reason": reason})
        self.samples.append(result)


def warm_up(w: Workload):
    """One import-only process, so byte-compilation is not timed as set-up."""
    code, stderr, result = run_child(w.env, [], False, os.path.join(w.dir, "spec.json"),
                                     os.path.join(w.dir, "sample.json"))
    if result is None:
        sys.stderr.write(f"nol.cli does not import from {SRC} (exit {code}):\n{stderr}")
        raise SystemExit(2)


def end_to_end(w: Workload):
    ok = [s for s in w.samples if s is not None and not s["traced"]]
    series = {
        "setup_s": [s["setup_s"] for s in ok],
        "wall_s": [s["wall_s"] for s in ok],
        "throughput": [w.run["work"] / s["wall_s"] for s in ok],
        "peak_rss_mb": [s["peak_rss_mb"] for s in ok],
    }
    return {name: dict(summarize(v), unit=END_TO_END_UNITS[name]) for name, v in series.items()}


def per_layer(w: Workload):
    traced = [s for s in w.samples if s is not None and s["traced"]]
    untraced = [s for s in w.samples if s is not None and not s["traced"]]
    per_sample = [spans.layer_metrics(s["trace"], sum(c["report_bytes"] for c in s["commands"]))
                  for s in traced]
    out = {name: dict(summarize([m[name] for m in per_sample]), unit=unit)
           for name, unit in spans.PER_LAYER_UNITS.items() if name != "trace.overhead_ratio"}
    ratio = (statistics.median(s["wall_s"] for s in traced)
             / statistics.median(s["wall_s"] for s in untraced))
    out["trace.overhead_ratio"] = {"median": ratio, "samples": min(len(traced), len(untraced)),
                                   "unit": "ratio"}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "nol", "cli.py")):
        sys.stderr.write(f"no nol sources under {SRC}; run from the root of a nol checkout\n")
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)

    w = Workload(args.workload, args.seed)
    warm_up(w)
    trace = bool(args.trace)
    min_samples = 2 * MIN_SAMPLES if trace else MIN_SAMPLES
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds or len(w.samples) < min_samples:
        # traced runs alternate with untraced ones, so drift hits both alike
        w.sample(trace and len(w.samples) % 2 == 1)
    measured_s = time.perf_counter() - t0
    shutil.rmtree(w.dir)  # inputs and reports; the record keeps their sha256 and checks

    failed = w.failed
    done = {s["traced"] for s in w.samples if s is not None}
    if not done >= {False, trace}:
        for f in w.failures:
            sys.stderr.write(f"FAILED sample {f['sample']}: {f['reason']}\n")
        sys.stderr.write("no sample process completed; nothing to report\n")
        return 1
    metrics = per_layer(w) if trace else end_to_end(w)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "data_variant": w.data_seed,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "trace": trace,
        **machine_and_conditions(w.env),
        "inputs": w.run["inputs"],
        "commands": w.run["commands"],
        "throughput_items": THROUGHPUT_ITEMS[args.workload],
        "work_per_sample": w.run["work"],
        "attempted": w.attempted,
        "failed": failed,
        "error_rate": failed / w.attempted,
        "failures": w.failures,
        "metrics": metrics,
        "samples": w.samples,
    }
    record_path = os.path.join(WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh)

    for f in w.failures:
        sys.stderr.write(f"FAILED sample {f['sample']} {f['command']}: {f['reason']}\n")
    machine = record["machine"]
    print(f"{args.workload} seed={args.seed} git={record['git_sha']} nproc={machine['nproc']} "
          f"python={machine['python']} numpy={machine['numpy']} scipy={machine['scipy']} "
          f"NOL_THREADS=unset single-client closed-loop samples={len(w.samples)} "
          f"in {measured_s:.1f}s")
    for name, m in metrics.items():
        extra = (f"  p{m['percentile']}={m['percentile_value']:.6g}" if "percentile" in m else "")
        print(f"{name:34s} {m['median']:.6g} {m['unit']}  (median of {m['samples']}{extra})")
    print(f"error_rate {record['error_rate']:.6g} ({failed}/{w.attempted} commands)  "
          f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": w.attempted,
        "failed": failed,
        "metrics": {name: {"value": m["median"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
