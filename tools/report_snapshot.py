"""Snapshot the reports of a fixed list of nol commands, to diff two checkouts.

    python3 tools/report_snapshot.py CHECKOUT OUT_DIR
    diff -r OUT_A OUT_B

Runs ``nol.cli.main`` from CHECKOUT's ``src/`` in this process over:

* ``nol regret`` thm1, thm2 and lemma1 x 3 losses x ``--d`` 1, 2, 3, 5, 20
  x ``-C`` 0.1, 1, 30, at ``--T 60 --instances 3``;
* ``nol regret --check cor1`` x 3 losses x seeds 0-3, at ``--instances 50``;
* the benchmark's ``train-wide`` commands for input variants 0-2, and its
  ``sweep-narrow`` and ``regret-bounds`` commands for variants 0-15, their
  inputs written by CHECKOUT's ``bench/inputs.make`` into a temporary
  directory (``bench/`` itself is left as it is);
* two ``nol sweep --eta-grid`` values that are not a grid;
* ``nol train`` and ``nol sweep`` on a CSV file with a numeric and a one-hot
  column and 0/1 labels, a regression ``nol sweep --normalize sqnorm`` of
  every learner on an svmlight file with real labels, and a regression
  sweep whose eval loss overflows in one cell, their inputs written into
  the temporary directory;
* the data flags on every path from ``--data`` or ``--synth`` to the
  report: ``train`` and ``sweep`` on ``--synth`` specs, ``train`` with
  ``--clip-c``, ``--eta-decay`` and ``--thin``, ``sweep`` with ``--clip-c``,
  ``--eta-grid`` and ``--plot-data``, ``train --normalize sqnorm`` on an
  svmlight file, reports to stdout and to ``--report``, a data error, and a
  file whose prediction overflows under ``train`` and ``sweep``;
* sweeps that read many blocks of examples: all five learners over 1,500
  lines of the ``train-wide`` generator's sparse file, a squared-loss sweep
  whose cells overflow inside a block, and one whose sNAG statistics
  overflow in its second block;
* the failure contract: ``nol train`` and ``nol sweep`` on a file whose
  dot product overflows only in its sum (with and without ``--clip-c``),
  one whose sNAG scale is zero and one with an invalid label, and
  ``nol regret --check thm1 --loss hinge -C 1e8``;
* every error message of the data and the learners: svmlight lines with a
  malformed token, a negative, a repeated index, a non-finite value, a bad
  and a non-finite label; bytes that are not UTF-8, a ``--data`` path that
  cannot be read, a CSV line with a field too many, constant regression
  labels; ``nol train`` overflowing nag's gradient sum, sgd's weight and
  sNAG's sum of squares; a ``--report`` path that cannot be written; a
  sweep whose gradient-sum rows are not contiguous (snag, ng, nag); and a
  ``nol train`` and a ``nol sweep`` whose losses are finite but whose loss
  sum overflows;
* regret reports whose numbers leave the float range (``lemma1`` and
  ``thm2`` on squared loss at ``-C 1e152``), a hinge LP that runs out of
  pivots (``thm1`` at ``-C 1e20``), a ``--seed`` of -1 for each command,
  a regression sweep whose loss scale underflows to 0, and ``nol train`` on
  ``--synth`` specs with a key the generator does not take or a repeated
  key;
* ``nol.data.prenormalize`` of a one-shot iterator, in both modes,
  ``nol.regret.corollary1_montecarlo`` on features scaled by 1e-13, and the
  regret lab's ``theorem1_check``, ``theorem2_check`` and ``lemma1_check``
  (against w = 0, on a run without projection) of each loss at C = 1, on
  ``random_instance(0, d=3, T=200)`` scaled by 1e-200, where the squared
  gradients underflow.

OUT_DIR gets one sorted-keys JSON file per command: its argv (the temporary
directory written as ``$TMP``), exit code, stderr and report, the report
without its ``timing``, and the text of the ``--plot-data`` file when the
command names one. An exception that escapes ``main`` is recorded as its
type and message instead of the exit code. A library call gets its
description and its result or exception. Two checkouts that give the same
results give snapshots that ``diff -r`` finds equal.
"""

import contextlib
import dataclasses
import io
import json
import os
import random
import sys
import tempfile

LOSSES = ("squared", "hinge", "logistic")


def _regret_commands():
    for check in ("thm1", "thm2", "lemma1"):
        for loss in LOSSES:
            for d in (1, 2, 3, 5, 20):
                for C in ("0.1", "1", "30"):
                    yield (f"regret-{check}-{loss}-d{d}-C{C}",
                           ["regret", "--check", check, "--loss", loss, "--d", str(d),
                            "-C", C, "--T", "60", "--instances", "3"])
    for loss in LOSSES:
        for seed in range(4):
            yield (f"regret-cor1-{loss}-seed{seed}",
                   ["regret", "--check", "cor1", "--loss", loss, "--seed", str(seed),
                    "--instances", "50"])
    for grid in ("nope", "1..inf"):
        yield (f"sweep-eta-grid-{grid}",
               ["sweep", "--synth", "figure1:T=10", "--learners", "sgd", "--loss", "hinge",
                "--eta-grid", grid])


def _write(tmp, name, lines):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return path


def _file_commands(tmp):
    rng = random.Random(14)
    colors = ("red", "green", "blue")
    rows = []
    for _ in range(60):
        x, color = rng.uniform(-3.0, 3.0), rng.choice(colors)
        rows.append(f"{x!r},{color},{int(x + colors.index(color) - 1.0 > 0)}")
    csv = _write(tmp, "onehot.csv", ["x,color,y", *rows])
    yield ("csv-train", ["train", "--data", csv, "--format", "csv", "--learner", "nag",
                         "--loss", "logistic", "--eta", "0.5"])
    yield ("csv-sweep", ["sweep", "--data", csv, "--format", "csv", "--learners", "ng,nag,sgd",
                         "--loss", "hinge"])
    lines = []
    for _ in range(80):
        x = [rng.gauss(0.0, 1.0) * 10.0 ** e for e in (-4, 0, 5)]
        y = 3.0 * x[0] * 1e4 - x[1] + 2e-5 * x[2] + rng.gauss(0.0, 0.1)
        lines.append(f"{y!r} " + " ".join(f"{i}:{v!r}" for i, v in enumerate(x)))
    reg = _write(tmp, "regression.svm", lines)
    yield ("regression-sweep-sqnorm",
           ["sweep", "--data", reg, "--task", "regression", "--loss", "squared",
            "--learners", "ng,nag,snag,adagrad,sgd", "--normalize", "sqnorm"])
    fault = _write(tmp, "eval-loss-fault.svm", ["1 0:1e78", "-1 0:1e78", "1 0:1"])
    yield ("sweep-eval-loss-fault",
           ["sweep", "--data", fault, "--task", "regression", "--loss", "hinge",
            "--learners", "sgd", "--eta-grid", "1..1"])
    yield from _data_flag_commands(tmp, rng)


def _data_flag_commands(tmp, rng):
    lines = []
    for _ in range(120):
        x = [rng.gauss(0.0, 1.0) * 10.0 ** e for e in (-3, 0, 2)]
        y = 1 if x[0] * 1e3 - x[1] + 0.01 * x[2] > 0 else -1
        kept = [f"{i}:{v!r}" for i, v in enumerate(x) if rng.random() < 0.8]
        lines.append(" ".join([str(y), *kept]))
    svm = _write(tmp, "binary.svm", lines)
    yield ("synth-train-figure1", ["train", "--synth", "figure1:s=1000,T=300", "--learner", "ng",
                                   "--loss", "hinge", "--eta", "0.5", "--seed", "3"])
    yield ("synth-sweep-scaled", ["sweep", "--synth", "scaled:d=5,T=300", "--learners", "nag,snag",
                                  "--loss", "logistic", "--report", os.path.join(tmp, "s.json")])
    yield ("train-clip-decay-thin",
           ["train", "--data", svm, "--learner", "sgd", "--loss", "logistic", "--eta", "0.3",
            "--clip-c", "1", "--eta-decay", "--thin", "7", "--report", os.path.join(tmp, "t.json")])
    yield ("sweep-clip-grid-plot",
           ["sweep", "--data", svm, "--learners", "ng,adagrad", "--loss", "hinge", "--clip-c", "1",
            "--eta-grid", "0.01..4", "--plot-data", os.path.join(tmp, "plot.csv")])
    yield ("train-sqnorm", ["train", "--data", svm, "--learner", "adagrad", "--loss", "hinge",
                            "--eta", "1", "--normalize", "sqnorm"])
    csv = _write(tmp, "inf.csv", ["a,y", "inf,1"])
    yield ("csv-non-finite-data-error", ["train", "--data", csv, "--format", "csv",
                                         "--learner", "sgd", "--loss", "hinge", "--eta", "1"])
    fault = _write(tmp, "prediction-fault.svm", ["1 0:1", "1 0:1e10", "-1 0:1"])
    yield ("train-prediction-fault", ["train", "--data", fault, "--learner", "sgd",
                                      "--loss", "hinge", "--eta", "1e300"])
    yield ("sweep-prediction-fault", ["sweep", "--data", fault, "--learners", "sgd",
                                      "--loss", "hinge", "--eta-grid", "1e300..1e300"])


def _block_commands(inputs, tmp, rng):
    wide = os.path.join(tmp, "wide-1500.svm")
    inputs.write_wide(wide, 7, dict(inputs.WIDE, lines=1500))
    yield ("sweep-wide-five-kinds", ["sweep", "--data", wide, "--learners",
                                     "ng,nag,snag,adagrad,sgd", "--loss", "logistic"])
    yield ("sweep-squared-faults", ["sweep", "--synth", "figure1:s=1,T=900", "--task",
                                    "regression", "--loss", "squared", "--learners",
                                    "ng,nag,snag,adagrad,sgd", "--seed", "3"])
    lines = []
    for k in range(600):
        x = {0: rng.gauss(0.0, 1.0), 1 + k % 7: rng.uniform(0.5, 2.0)}
        if k in (299, 300):
            x[9] = 1e154
        lines.append(f"{1 - 2 * (k % 3 == 0)} " + " ".join(f"{i}:{v!r}" for i, v in sorted(x.items())))
    overflow = _write(tmp, "snag-overflow.svm", lines)
    yield ("sweep-snag-overflow-block-2", ["sweep", "--data", overflow, "--learners",
                                           "ng,snag,sgd", "--loss", "hinge"])


def _contract_commands(tmp):
    cases = (("sum-overflow", ["1 0:1e154 1:1e154"] * 2, "sgd", "hinge", []),
             ("sum-overflow-clip", ["1 0:1e154 1:1e154"] * 2, "sgd", "hinge", ["--clip-c", "1"]),
             ("snag-zero-scale", ["1 0:1e-300"] * 3, "snag", "hinge", []),
             ("invalid-label", ["1 0:1", "2 0:1"], "nag", "hinge", []))
    for name, lines, kind, loss, extra in cases:
        path = _write(tmp, name + ".svm", lines)
        yield (f"train-{name}", ["train", "--data", path, "--learner", kind, "--loss", loss,
                                 "--eta", "1", *extra])
        yield (f"sweep-{name}", ["sweep", "--data", path, "--learners", kind, "--loss", loss,
                                 "--eta-grid", "1..1", *extra])
    yield ("regret-thm1-hinge-C1e8", ["regret", "--check", "thm1", "--loss", "hinge", "-C", "1e8"])


def _error_commands(tmp):
    train = ["--learner", "sgd", "--loss", "hinge", "--eta", "1"]
    for name, line in (("malformed-token", "1 0:x"), ("negative-index", "1 -1:1"),
                       ("repeated-index", "1 0:1 0:2"), ("non-finite-value", "1 0:inf"),
                       ("bad-label", "y 0:1"), ("non-finite-label", "nan 0:1")):
        path = _write(tmp, name + ".svm", ["1 0:1", line])
        yield f"train-svmlight-{name}", ["train", "--data", path, *train]
    path = os.path.join(tmp, "latin1.svm")
    with open(path, "wb") as fh:
        fh.write(b"1 0:1\n-1 0:\xff\n")
    yield "train-non-utf8", ["train", "--data", path, *train]
    yield "train-unreadable-data", ["train", "--data", os.path.join(tmp, "missing.svm"), *train]
    csv = _write(tmp, "fields.csv", ["a,y", "1,1", "2,3,-1"])
    yield "train-csv-field-count", ["train", "--data", csv, "--format", "csv", *train]
    const = _write(tmp, "constant.svm", ["2 0:1", "2 0:3"])
    yield ("sweep-constant-regression-labels",
           ["sweep", "--data", const, "--task", "regression", "--loss", "squared",
            "--learners", "sgd", "--eta-grid", "1..1"])
    for name, lines, kind, loss, eta in (
            ("nag-gradient-sum", ["1e150 0:1e10"], "nag", "squared", "1"),
            ("sgd-weight", ["1 0:1e200"], "sgd", "hinge", "1e300"),
            ("snag-sum-of-squares", ["1 0:1e154"] * 2, "snag", "logistic", "1e-300")):
        path = _write(tmp, name + ".svm", lines)
        yield (f"train-overflow-{name}",
               ["train", "--data", path, "--learner", kind, "--loss", loss, "--eta", eta,
                *(["--task", "regression"] if loss == "squared" else [])])
    yield ("train-unwritable-report",
           ["train", "--synth", "figure1:T=10", *train,
            "--report", os.path.join(tmp, "missing-dir", "r.json")])
    yield ("sweep-sums-not-contiguous",
           ["sweep", "--synth", "scaled:d=5,T=300", "--learners", "snag,ng,nag",
            "--loss", "squared", "--task", "regression", "--eta-grid", "0.01..64"])
    # each loss is finite, only their sum overflows
    big = _write(tmp, "loss-sum-train.svm", ["1.3e154 0:1"] * 2)
    yield ("train-loss-sum-overflow",
           ["train", "--data", big, "--learner", "sgd", "--loss", "squared", "--eta", "0",
            "--task", "regression"])
    big = _write(tmp, "loss-sum-sweep.svm", ["1.3e154 0:1", "1.2e154 0:1"])
    yield ("sweep-loss-sum-overflow",
           ["sweep", "--data", big, "--learners", "sgd", "--loss", "squared",
            "--eta-grid", "1e-300..1e-300", "--task", "regression"])


def _repro_commands(tmp):
    for check in ("lemma1", "thm2"):
        yield (f"regret-{check}-squared-C1e152",
               ["regret", "--check", check, "--loss", "squared", "-C", "1e152", "--instances", "3"])
    yield ("regret-thm1-hinge-C1e20",
           ["regret", "--check", "thm1", "--loss", "hinge", "-C", "1e20", "--instances", "1"])
    yield "regret-seed-negative", ["regret", "--check", "thm1", "--seed", "-1", "--instances", "1"]
    train = ["--learner", "sgd", "--loss", "hinge", "--eta", "1", "--seed", "-1"]
    yield "train-synth-seed-negative", ["train", "--synth", "figure1:T=10", *train]
    yield ("sweep-synth-seed-negative",
           ["sweep", "--synth", "figure1:T=10", "--learners", "sgd", "--loss", "hinge",
            "--seed", "-1"])
    path = _write(tmp, "seed.svm", ["1 0:1", "-1 0:2"])
    yield "train-data-seed-negative", ["train", "--data", path, *train]
    path = _write(tmp, "scale-underflow.svm", ["0 0:1", "1e-200 0:1"])
    yield ("sweep-regression-scale-underflow",
           ["sweep", "--data", path, "--learners", "sgd", "--eta-grid", "1..1", "--loss",
            "squared", "--task", "regression"])
    for name, spec in (("lowercase-key", "figure1:t=10"), ("unknown-key", "figure1:T=10,bogus=1"),
                       ("repeated-key", "figure1:T=10,T=20")):
        yield (f"train-synth-{name}", ["train", "--synth", spec, "--learner", "ng",
                                       "--loss", "hinge", "--eta", "1"])


def _call_snapshots():
    """(label, description, call) of the library calls snapshotted."""
    from nol.core import SparseExample, get_loss
    from nol.data import prenormalize
    from nol.regret import (apply_scaling, conditioned_run, corollary1_montecarlo,
                            lemma1_check, random_instance, theorem1_check, theorem2_check)

    examples = [SparseExample(((0, 2.0), (1, -4.0)), 1.0), SparseExample(((0, -1.0),), -1.0)]
    for mode in ("maxnorm", "sqnorm"):
        def call(mode=mode):
            scale, view = prenormalize(iter(examples), mode)
            return {"scale": sorted(scale.items()),
                    "examples": [[list(ex.features), ex.label] for ex in view]}
        yield (f"prenormalize-one-shot-{mode}",
               f"prenormalize(iter(examples), {mode!r}) over {examples!r}", call)
    for scale in (1.0, 1e-13):
        def call(scale=scale):
            stream = apply_scaling(random_instance(0, d=10, T=400), dict.fromkeys(range(10), scale))
            return corollary1_montecarlo(list(stream), 10, 0.1, 0.5)
        yield (f"cor1-scaled-{scale}", "corollary1_montecarlo(random_instance(0, d=10, T=400) "
               f"scaled by {scale}, 10, 0.1, 0.5)", call)

    def lemma1(stream, loss, C):
        return lemma1_check(conditioned_run(stream, loss, C, projection=False), loss, {})

    for loss in LOSSES:
        for name, check in (("thm1", theorem1_check), ("thm2", theorem2_check),
                            ("lemma1", lemma1)):
            def call(loss=loss, check=check):
                stream = list(apply_scaling(random_instance(0, d=3, T=200),
                                            dict.fromkeys(range(3), 1e-200)))
                return dataclasses.asdict(check(stream, get_loss(loss), 1.0))
            yield (f"regret-{name}-{loss}-scaled-1e-200", f"{name} of random_instance(0, d=3, "
                   f"T=200) scaled by 1e-200, {loss}, C = 1", call)


def _bench_commands(inputs, tmp, root):
    for workload, variants in (("train-wide", 3), ("sweep-narrow", 16), ("regret-bounds", 16)):
        for variant in range(variants):
            work = os.path.join(tmp, f"{workload}-{variant}")
            for label, argv in inputs.make(workload, variant, work, root)["commands"]:
                yield f"{workload}-{variant}-{label.replace(':', '-')}", argv


def _escaped(e):
    return f"{type(e).__name__}: {e}"


def _run(main, argv, tmp):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as e:   # recorded, so that a traceback shows in the diff
            code = {"exception": _escaped(e)}
    text = out.getvalue()
    if "--report" in argv:
        path = argv[argv.index("--report") + 1]
        if os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
    report = json.loads(text) if text else None
    if isinstance(report, dict):
        report.pop("timing", None)
    snap = {"argv": [a.replace(tmp, "$TMP") for a in argv], "code": code,
            "stderr": err.getvalue().replace(tmp, "$TMP"), "report": report}
    if "--plot-data" in argv:
        with open(argv[argv.index("--plot-data") + 1]) as fh:
            snap["plot_data"] = fh.read()
    return snap


def main(args):
    if len(args) != 2:
        raise SystemExit(__doc__)
    checkout, out_dir = (os.path.abspath(a) for a in args)
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "bench")]
    import inputs
    import nol.cli

    if not nol.cli.__file__.startswith(os.path.join(checkout, "src")):
        raise SystemExit(f"imported nol from {nol.cli.__file__}, not from {checkout}")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        commands = [*_regret_commands(), *_file_commands(tmp),
                    *_block_commands(inputs, tmp, random.Random(16)),
                    *_contract_commands(tmp), *_error_commands(tmp), *_repro_commands(tmp),
                    *_bench_commands(inputs, tmp, checkout)]

        def write(label, snap):
            with open(os.path.join(out_dir, label + ".json"), "w") as fh:
                json.dump(snap, fh, sort_keys=True, indent=1)
                fh.write("\n")

        for label, argv in commands:
            write(label, _run(nol.cli.main, argv, tmp))
        calls = list(_call_snapshots())
        for label, description, call in calls:
            try:
                write(label, {"call": description, "result": call()})
            except Exception as e:
                write(label, {"call": description, "exception": _escaped(e)})
    print(f"{len(commands) + len(calls)} reports in {out_dir}", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
