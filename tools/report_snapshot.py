"""Snapshot the reports of a fixed list of nol commands, to diff two checkouts.

    python3 tools/report_snapshot.py CHECKOUT OUT_DIR
    diff -r OUT_A OUT_B

Runs ``nol.cli.main`` from CHECKOUT's ``src/`` in this process over:

* ``FAILURES``, the table of the commands that exit nonzero: every data
  error and numeric fault of the failure contract, and the usage errors of
  nol's own checks. A row holds its snapshot label, its input files, its
  argv with ``{tmp}`` for the directory the files are written into, and its
  exit code and exact stderr. ``tests/test_cli.py`` asserts each row;
* ``nol regret`` thm1, thm2 and lemma1 x 3 losses x ``--d`` 1, 2, 3, 5, 20
  x ``-C`` 0.1, 1, 30, at ``--T 60 --instances 3``;
* ``nol regret --check cor1`` x 3 losses x seeds 0-3, at ``--instances 50``;
* the benchmark's ``train-wide`` commands for input variants 0-2, and its
  ``sweep-narrow`` and ``regret-bounds`` commands for variants 0-15, their
  inputs written by CHECKOUT's ``bench/inputs.make`` into a temporary
  directory (``bench/`` itself is left as it is);
* ``nol train`` and ``nol sweep`` on a CSV file with a numeric and a one-hot
  column and 0/1 labels, a regression ``nol sweep --normalize sqnorm`` of
  every learner on an svmlight file with real labels, and a regression
  sweep whose eval loss overflows in one cell, their inputs written into
  the temporary directory;
* the data flags on every path from ``--data`` or ``--synth`` to the
  report: ``train`` and ``sweep`` on ``--synth`` specs, ``train`` with
  ``--clip-c``, ``--eta-decay`` and ``--thin``, ``sweep`` with ``--clip-c``,
  ``--eta-grid`` and ``--plot-data``, ``train --normalize sqnorm`` on an
  svmlight file, and reports to stdout and to ``--report``;
* sweeps that read many blocks of examples: all five learners over 1,500
  lines of the ``train-wide`` generator's sparse file, a squared-loss sweep
  whose cells overflow inside a block, and one whose sNAG statistics
  overflow in its second block;
* the sweeps whose cells fail where a table row's ``nol train`` ends (a
  prediction that overflows, in its product and in its sum, with and
  without ``--clip-c``, and a zero sNAG scale), a sweep whose gradient-sum
  rows are not contiguous (snag, ng, nag), a sweep whose losses are finite
  but whose loss sum overflows, ``nol regret --check thm1 --loss hinge -C
  1e8``, and a hinge LP that runs out of pivots (``thm1`` at ``-C 1e20``);
* ``nol.data.prenormalize`` of a one-shot iterator, in both modes,
  ``nol.regret.corollary1_montecarlo`` on features scaled by 1e-13, and the
  regret lab's ``theorem1_check``, ``theorem2_check`` and ``lemma1_check``
  (against w = 0, on a run without projection) of each loss at C = 1, on
  ``random_instance(0, d=3, T=200)`` scaled by 1e-200, where the squared
  gradients underflow, and the first two checks of each loss at scales
  1e153, 1e154, 1e155 and 1e160, where the gradient sums overflow, and of
  logistic loss at 5e153, where m_i^2 overflows before the gradient sums do;
* library calls with arguments out of range: ``sweep`` and
  ``progressive_validation`` of a misspelt task, ``corollary1_montecarlo``
  of no permutations, and ``corollary1_tau`` at d = 0 and at delta = 0.

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
from typing import Dict, NamedTuple, Optional

LOSSES = ("squared", "hinge", "logistic")


class Failure(NamedTuple):
    """A command that exits nonzero, with one line of stderr and nothing on
    stdout. argv is split on spaces. In argv and stderr, {tmp} stands for
    the directory that files, each name's bytes, are written into."""

    id: str            # the command's snapshot label
    code: int
    argv: str
    stderr: str
    files: Optional[Dict[str, bytes]] = None


SGD = "--learner sgd --loss hinge --eta 1"
SEED = "argument --seed: must be a nonnegative integer, got -1"
SYNTH = "argument --synth: bad synth spec"
LABEL = "data error: example 2: classification label must be -1 or +1, got 2.0\n"
ZERO_ONE = "data error: example 1: classification label must be -1 or +1, got 0.0\n"

FAILURES = (
    # usage errors: exit 1
    Failure("sweep-eta-grid-nope", 1,
            "sweep --synth figure1:T=10 --learners sgd --loss hinge --eta-grid nope",
            "nol sweep: error: argument --eta-grid: bad eta grid 'nope'; expected LO..HI "
            "(see nol sweep -h)\n"),
    Failure("sweep-eta-grid-1..inf", 1,
            "sweep --synth figure1:T=10 --learners sgd --loss hinge --eta-grid 1..inf",
            "nol sweep: error: argument --eta-grid: eta grid bounds must be finite and satisfy "
            "0 < LO <= HI, got 1..inf (see nol sweep -h)\n"),
    Failure("regret-seed-negative", 1, "regret --check thm1 --seed -1 --instances 1",
            f"nol regret: error: {SEED} (see nol regret -h)\n"),
    Failure("train-synth-seed-negative", 1, "train --synth figure1:T=10 " + SGD + " --seed -1",
            f"nol train: error: {SEED} (see nol train -h)\n"),
    Failure("sweep-synth-seed-negative", 1,
            "sweep --synth figure1:T=10 --learners sgd --loss hinge --seed -1",
            f"nol sweep: error: {SEED} (see nol sweep -h)\n"),
    Failure("train-data-seed-negative", 1, "train --data {tmp}/seed.svm " + SGD + " --seed -1",
            f"nol train: error: {SEED} (see nol train -h)\n", {"seed.svm": b"1 0:1\n-1 0:2\n"}),
    *(Failure(f"train-synth-{name}", 1, f"train --synth {spec} --learner ng --loss hinge --eta 1",
              f"nol train: error: {SYNTH} {spec!r}: {words}; figure1 takes s, T "
              "(see nol train -h)\n")
      for name, spec, words in (("lowercase-key", "figure1:t=10", "unknown key 't'"),
                                ("unknown-key", "figure1:T=10,bogus=1", "unknown key 'bogus'"),
                                ("repeated-key", "figure1:T=10,T=20", "repeated key 'T'"))),
    Failure("train-unwritable-report", 1,
            "train --synth figure1:T=10 " + SGD + " --report {tmp}/missing-dir/r.json",
            "nol train: error: argument --report: cannot write '{tmp}/missing-dir/r.json': "
            "No such file or directory\n"),
    # data errors: exit 2
    *(Failure(f"train-svmlight-{name}", 2, f"train --data {{tmp}}/{name}.svm " + SGD,
              f"data error: line 2: {words}\n", {f"{name}.svm": b"1 0:1\n" + line + b"\n"})
      for name, line, words in (
          ("malformed-token", b"1 0:x", "malformed token '0:x'"),
          ("negative-index", b"1 -1:1", "negative index -1"),
          ("repeated-index", b"1 0:1 0:2", "indices must be strictly increasing, got 0 after 0"),
          ("non-finite-value", b"1 0:inf", "non-finite value in '0:inf'"),
          ("bad-label", b"y 0:1", "bad label 'y'"),
          ("non-finite-label", b"nan 0:1", "non-finite label 'nan'"))),
    Failure("train-non-utf8", 2, "train --data {tmp}/latin1.svm " + SGD,
            "data error: {tmp}/latin1.svm: line 2: not UTF-8 (invalid start byte)\n",
            {"latin1.svm": b"1 0:1\n-1 0:\xff\n"}),
    Failure("train-unreadable-data", 2, "train --data {tmp}/missing.svm " + SGD,
            "data error: cannot read '{tmp}/missing.svm': No such file or directory\n"),
    Failure("train-csv-field-count", 2, "train --data {tmp}/fields.csv --format csv " + SGD,
            "data error: line 3: expected 2 fields, got 3\n",
            {"fields.csv": b"a,y\n1,1\n2,3,-1\n"}),
    Failure("csv-non-finite-data-error", 2, "train --data {tmp}/inf.csv --format csv " + SGD,
            "data error: line 2: non-finite value 'inf'\n", {"inf.csv": b"a,y\ninf,1\n"}),
    Failure("train-invalid-label", 2,
            "train --data {tmp}/invalid-label.svm --learner nag --loss hinge --eta 1", LABEL,
            {"invalid-label.svm": b"1 0:1\n2 0:1\n"}),
    Failure("sweep-invalid-label", 2,
            "sweep --data {tmp}/invalid-label.svm --learners nag --loss hinge --eta-grid 1..1",
            LABEL, {"invalid-label.svm": b"1 0:1\n2 0:1\n"}),
    # the 0/1 labels of many svmlight files
    Failure("train-zero-one-labels", 2,
            "train --data {tmp}/zero-one.svm --learner nag --loss hinge --eta 1", ZERO_ONE,
            {"zero-one.svm": b"0 0:1\n1 0:2\n"}),
    Failure("sweep-zero-one-labels", 2,
            "sweep --data {tmp}/zero-one.svm --learners nag --loss hinge --eta-grid 1..1",
            ZERO_ONE, {"zero-one.svm": b"0 0:1\n1 0:2\n"}),
    Failure("sweep-constant-regression-labels", 2, "sweep --data {tmp}/constant.svm --task "
            "regression --loss squared --learners sgd --eta-grid 1..1",
            "data error: constant labels: regression loss scale undefined\n",
            {"constant.svm": b"2 0:1\n2 0:3\n"}),
    Failure("sweep-regression-scale-underflow", 2, "sweep --data {tmp}/scale-underflow.svm "
            "--learners sgd --eta-grid 1..1 --loss squared --task regression",
            "data error: labels from 0.0 to 1e-200: regression loss scale underflows\n",
            {"scale-underflow.svm": b"0 0:1\n1e-200 0:1\n"}),
    # numeric faults: exit 3
    Failure("train-prediction-fault", 3,
            "train --data {tmp}/prediction-fault.svm --learner sgd --loss hinge --eta 1e300",
            "numeric fault: example 2: non-finite prediction inf\n",
            {"prediction-fault.svm": b"1 0:1\n1 0:1e10\n-1 0:1\n"}),
    Failure("train-sum-overflow", 3, "train --data {tmp}/sum-overflow.svm " + SGD,
            "numeric fault: example 2: non-finite prediction inf\n",
            {"sum-overflow.svm": b"1 0:1e154 1:1e154\n" * 2}),
    Failure("train-snag-zero-scale", 3,
            "train --data {tmp}/snag-zero-scale.svm --learner snag --loss hinge --eta 1",
            "numeric fault: example 1: zero scale at coordinate 0\n",
            {"snag-zero-scale.svm": b"1 0:1e-300\n" * 3}),
    Failure("train-overflow-nag-gradient-sum", 3, "train --data {tmp}/nag-gradient-sum.svm "
            "--learner nag --loss squared --eta 1 --task regression",
            "numeric fault: example 1: non-finite gradient sum inf at coordinate 0\n",
            {"nag-gradient-sum.svm": b"1e150 0:1e10\n"}),
    Failure("train-overflow-sgd-weight", 3,
            "train --data {tmp}/sgd-weight.svm --learner sgd --loss hinge --eta 1e300",
            "numeric fault: example 1: non-finite weight inf at coordinate 0\n",
            {"sgd-weight.svm": b"1 0:1e200\n"}),
    Failure("train-overflow-snag-sum-of-squares", 3, "train --data {tmp}/snag-sum-of-squares.svm "
            "--learner snag --loss logistic --eta 1e-300",
            "numeric fault: example 2: non-finite sum of squares inf at coordinate 0\n",
            {"snag-sum-of-squares.svm": b"1 0:1e154\n" * 2}),
    # each loss is finite, only their sum overflows
    Failure("train-loss-sum-overflow", 3, "train --data {tmp}/loss-sum-train.svm --learner sgd "
            "--loss squared --eta 0 --task regression",
            "numeric fault: example 2: non-finite loss sum inf\n",
            {"loss-sum-train.svm": b"1.3e154 0:1\n" * 2}),
    Failure("regret-lemma1-squared-C1e152", 3,
            "regret --check lemma1 --loss squared -C 1e152 --instances 3",
            "numeric fault: example 9: non-finite gradient sum inf at coordinate 1\n"),
    Failure("regret-thm2-squared-C1e152", 3,
            "regret --check thm2 --loss squared -C 1e152 --instances 3",
            "numeric fault: report field reports[2].bound_value: non-finite value inf\n"),
)


def _write(tmp, name, lines):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        fh.write("".join(line + "\n" for line in lines))
    return path


def _argv(command, tmp):
    """command split on spaces, with the directory tmp for {tmp}."""
    return [arg.replace("{tmp}", tmp) for arg in command.split(" ")]


def write_failure(row, tmp):
    """Write row's input files into the directory tmp; return its argv."""
    for name, content in (row.files or {}).items():
        with open(os.path.join(tmp, name), "wb") as fh:
            fh.write(content)
    return _argv(row.argv, tmp)


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


def _fault_commands(tmp):
    """Commands that exit 0 or run out of LP pivots, some on the inputs of
    table rows, which main writes first."""
    _write(tmp, "sum-overflow-clip.svm", ["1 0:1e154 1:1e154"] * 2)
    # each loss is finite, only their sum overflows
    _write(tmp, "loss-sum-sweep.svm", ["1.3e154 0:1", "1.2e154 0:1"])
    at_1 = " --loss hinge --eta-grid 1..1"
    for label, command in (
            ("sweep-prediction-fault", "sweep --data {tmp}/prediction-fault.svm --learners sgd "
             "--loss hinge --eta-grid 1e300..1e300"),
            ("sweep-sum-overflow", "sweep --data {tmp}/sum-overflow.svm --learners sgd" + at_1),
            ("train-sum-overflow-clip", "train --data {tmp}/sum-overflow-clip.svm " + SGD
             + " --clip-c 1"),
            ("sweep-sum-overflow-clip", "sweep --data {tmp}/sum-overflow-clip.svm --learners sgd"
             + at_1 + " --clip-c 1"),
            ("sweep-snag-zero-scale",
             "sweep --data {tmp}/snag-zero-scale.svm --learners snag" + at_1),
            ("sweep-sums-not-contiguous", "sweep --synth scaled:d=5,T=300 --learners snag,ng,nag "
             "--loss squared --task regression --eta-grid 0.01..64"),
            ("sweep-loss-sum-overflow", "sweep --data {tmp}/loss-sum-sweep.svm --learners sgd "
             "--loss squared --eta-grid 1e-300..1e-300 --task regression"),
            ("regret-thm1-hinge-C1e8", "regret --check thm1 --loss hinge -C 1e8"),
            ("regret-thm1-hinge-C1e20", "regret --check thm1 --loss hinge -C 1e20 --instances 1")):
        yield label, _argv(command, tmp)


def _call_snapshots():
    """(label, description, call) of the library calls snapshotted."""
    from nol.core import SparseExample, get_loss
    from nol.data import prenormalize
    from nol.evaluate import progressive_validation, sweep
    from nol.learners import LearnerConfig
    from nol.regret import (apply_scaling, conditioned_run, corollary1_montecarlo,
                            corollary1_tau, lemma1_check, random_instance, theorem1_check,
                            theorem2_check)

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

    checks = {"thm1": theorem1_check, "thm2": theorem2_check, "lemma1": lemma1}
    for scale, losses in (("1e-200", LOSSES), ("1e153", LOSSES), ("5e153", ("logistic",)),
                          ("1e154", LOSSES), ("1e155", LOSSES), ("1e160", LOSSES)):
        for loss in losses:
            for name in checks if scale == "1e-200" else ("thm1", "thm2"):
                def call(scale=scale, loss=loss, check=checks[name]):
                    stream = list(apply_scaling(random_instance(0, d=3, T=200),
                                                dict.fromkeys(range(3), float(scale))))
                    return dataclasses.asdict(check(stream, get_loss(loss), 1.0))
                yield (f"regret-{name}-{loss}-scaled-{scale}", f"{name} of random_instance(0, "
                       f"d=3, T=200) scaled by {scale}, {loss}, C = 1", call)

    pair = [SparseExample(((0, 1.0),), 1.0), SparseExample(((0, 2.0),), -1.0)]
    yield ("sweep-unknown-task", f"sweep(['ng'], 'hinge', {pair!r}, [1.0], task='regresion')",
           lambda: dataclasses.asdict(sweep(["ng"], "hinge", pair, [1.0], task="regresion")))
    yield ("progressive-validation-unknown-task",
           f"progressive_validation(LearnerConfig('ng', 1.0), hinge, {pair!r}, task='Regression')",
           lambda: dataclasses.asdict(progressive_validation(
               LearnerConfig("ng", 1.0), get_loss("hinge"), pair, task="Regression")))
    yield ("cor1-no-permutations", "corollary1_montecarlo(random_instance(0, d=3, T=20), 3, 0.1, "
           "0.5, n_permutations=0)", lambda: corollary1_montecarlo(
               random_instance(0, d=3, T=20), 3, 0.1, 0.5, n_permutations=0))
    yield "cor1-tau-d-0", "corollary1_tau(0, 0.1, 0.5)", lambda: corollary1_tau(0, 0.1, 0.5)
    yield ("cor1-tau-delta-0", "corollary1_tau(10, 0.0, 0.5)",
           lambda: corollary1_tau(10, 0.0, 0.5))


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
        commands = [*((row.id, write_failure(row, tmp)) for row in FAILURES),
                    *_regret_commands(), *_file_commands(tmp),
                    *_block_commands(inputs, tmp, random.Random(16)), *_fault_commands(tmp),
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
