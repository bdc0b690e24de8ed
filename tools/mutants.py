"""Run the mutation table: each row's defect, put into a fresh copy of the
source, must make the row's pytest selection fail.

    python3 tools/mutants.py [--rev REV] [NAME ...]

``git archive REV`` (default HEAD) is unpacked once into a temporary
directory. For each row, or only the rows named, a copy of it gets the row's
edit: its exact old text in its file, which must occur there exactly once
(otherwise the row is an error, not a pass, so that a refactor which moves
the code has to update the row), is replaced by the new text. Then
``python -m pytest -x -q -p no:cacheprovider`` runs the row's selection in
the copy, with the copy's ``src`` first on ``PYTHONPATH`` and no bytecode
written. The row is killed when the selection fails (pytest exit 1),
survived when it passes (exit 0), and an error otherwise.

One line per row as it ends; the last stdout line is one JSON object: per
row its name, file, claim, outcome, pytest's summary line and seconds,
then killed, total and seconds. The exit code is 0 when every row is
killed. The method is mutation analysis: DeMillo, Lipton & Sayward, "Hints
on test data selection", IEEE Computer 11(4), 1978.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple, Tuple


class Mutant(NamedTuple):
    name: str
    file: str                 # relative to the repository root
    old: str                  # must occur exactly once in file
    new: str
    select: Tuple[str, ...]   # pytest arguments: node ids, -k expressions
    claim: str                # what the selection is said to catch


ACCEPTANCE = "tests/test_acceptance.py::TestAcceptance::"
FAILURE = "tests/test_cli.py::TestExitCodes::test_failure_case["

TABLE = (
    # the North star's three executable gates
    Mutant("normalize-without-scale", "src/nol/learners.py",
           "r = [v / q for (_, v), q in zip(supp, scale)]",
           "r = [v for (_, v), q in zip(supp, scale)]",
           (ACCEPTANCE + "test_criterion_1_scale_invariance",),
           "criterion 1: N sums (x_i / scale_i)^2, so traces do not depend on feature scale"),
    Mutant("theorem1-bound-x0.1", "src/nol/regret.py",
           "bound = 2.0 * SQRT2 * lemma2_bound(",
           "bound = 0.1 * 2.0 * SQRT2 * lemma2_bound(",
           (ACCEPTANCE + "test_criterion_3_bound_suites",),
           "criterion 3: Theorem 1's bound holds with nonnegative slack, not a tenth of it"),
    Mutant("lemma1-without-gradient-sum", "src/nol/regret.py",
           "bound = first_term + increment_sum + grad_sum",
           "bound = first_term + increment_sum",
           (ACCEPTANCE + "test_criterion_3_bound_suites",),
           "criterion 3: Lemma 1 needs its gradient term"),
    Mutant("theorem2-factor-1+D", "src/nol/regret.py",
           "factor = (1.0 + 6.0 * D + D * D) / (2.0 * SQRT2)",
           "factor = (1.0 + D) / (2.0 * SQRT2)",
           (ACCEPTANCE + "test_criterion_3_bound_suites",),
           "criterion 3: Theorem 2's factor is (1 + 6D + D^2) / (2 sqrt 2)"),
    Mutant("theorem1-constant-halved", "src/nol/regret.py",
           "bound = 2.0 * SQRT2 * lemma2_bound(",
           "bound = SQRT2 * lemma2_bound(",
           ("tests/test_regret.py::TestTheorem1",),
           "Theorem 1's bound_value is 2 sqrt 2 C sum_i sqrt(S_ii sum g^2) on a worked stream"),
    Mutant("soft-threshold-without-half", "src/nol/conditioners.py",
           "mag = abs(ui) - lam / (2.0 * d[i])",
           "mag = abs(ui) - lam / d[i]",
           (ACCEPTANCE + "test_criterion_5_projection_oracle",),
           "criterion 5: the weighted L1 projection matches the grid oracle"),
    Mutant("l2-projection-keeps-points-within-2C", "src/nol/conditioners.py",
           "if math.sqrt(sum(v * v for v in u.values())) <= C:",
           "if math.sqrt(sum(v * v for v in u.values())) <= 2.0 * C:",
           (ACCEPTANCE + "test_criterion_5_projection_oracle",),
           "criterion 5: the weighted L2 projection is feasible and matches the grid oracle"),
    # the other criteria, each against a defect that a unit test of the same
    # check on other draws also catches
    Mutant("nag-step-without-scale", "src/nol/learners.py",
           "den *= math.sqrt(Gi)", "den = math.sqrt(Gi)",
           (ACCEPTANCE + "test_criterion_1_scale_invariance",),
           "criterion 1: nag's and snag's step divides by scale_i sqrt(G_i)"),
    Mutant("sgd-runs-ng", "src/nol/learners.py",
           '"sgd": _Stage(None, None, _rate_one, False, False),',
           '"sgd": _Stage(_track_max, _squash_ng, _rate_ng, False, True),',
           (ACCEPTANCE + "test_criterion_1_scale_invariance",),
           "criterion 1: the sgd baseline is not scale invariant"),
    Mutant("cor1-warmup-halved", "src/nol/regret.py",
           "prefix = M[perm[: min(tau, T)]].max(axis=0)",
           "prefix = M[perm[: min(tau, T) // 2]].max(axis=0)",
           (ACCEPTANCE + "test_criterion_4_quantile_bound",),
           "criterion 4: Corollary 1's warm-up of tau examples bounds every Delta_i"),
    Mutant("hindsight-conditioner-without-C", "src/nol/conditioners.py",
           "out[i] = math.sqrt(s / box.s_ii(i)) / C", "out[i] = math.sqrt(s / box.s_ii(i))",
           (ACCEPTANCE + "test_criterion_6_hindsight_optimality",),
           "criterion 6: no +-10% perturbation of the hindsight conditioner improves it"),
    Mutant("squared-derivative-halved", "src/nol/core.py",
           "return d * d, 2.0 * d", "return d * d, d",
           (ACCEPTANCE + "test_criterion_7_gradient_checks",),
           "criterion 7: the squared loss's derivative matches finite differences"),
    Mutant("hinge-derivative-from-margin-0", "src/nol/core.py",
           "return max(0.0, 1.0 - m), (-y if m < 1.0 else 0.0)",
           "return max(0.0, 1.0 - m), (-y if m < 0.0 else 0.0)",
           (ACCEPTANCE + "test_criterion_7_gradient_checks",),
           "criterion 7: the hinge loss's derivative matches finite differences"),
    Mutant("logistic-derivative-branches-swapped", "src/nol/core.py",
           "-y * ((e if m >= 0.0 else 1.0) / (1.0 + e))",
           "-y * ((1.0 if m >= 0.0 else e) / (1.0 + e))",
           (ACCEPTANCE + "test_criterion_7_gradient_checks",),
           "criterion 7: the logistic loss's derivative matches finite differences"),
    # the learners' numerics
    Mutant("nag-rate-x(1+1e-6)", "src/nol/learners.py",
           "def _rate_nag(t, N):\n    return math.sqrt(t / N)",
           "def _rate_nag(t, N):\n    return math.sqrt(t / N) * (1.0 + 1e-6)",
           ("tests/test_reference.py",),
           "the reference learner pins nag's float error: a 1e-6 change to its rate fails it"),
    Mutant("zero-gradient-sum-steps", "src/nol/learners.py",
           "            if Gi == 0.0:\n                continue\n", "",
           ("tests/test_learners.py",),
           "a zero gradient sum makes no step"),
    Mutant("hinge-steps-at-margin-1", "src/nol/core.py",
           "return max(0.0, 1.0 - m), (-y if m < 1.0 else 0.0)",
           "return max(0.0, 1.0 - m), (-y if m <= 1.0 else 0.0)",
           ("tests/test_core.py", "tests/test_learners.py"),
           "hinge loss takes no step at margin exactly 1"),
    Mutant("scan-without-accumulate", "src/nol/learners.py",
           "            op.accumulate(ext[a + 1:b], out=ext[a + 1:b])",
           "            pass",
           ("tests/test_learners.py",),
           "the grid's block statistics equal the scalar stages'"),
    Mutant("step-division-reassociated", "src/nol/learners.py",
           "(lr * g / den if den else lr * g * math.inf)",
           "(lr * (g / den) if den else lr * g * math.inf)",
           ("tests/test_learners.py::TestGridLearner::test_first_step_is_the_grid_step",),
           "Learner's step is the grid's, in the same order of operations"),
    Mutant("step-plain-division", "src/nol/learners.py",
           "(lr * g / den if den else lr * g * math.inf)", "lr * g / den",
           ("tests/test_learners.py::TestStepFaults",),
           "a step whose denominator underflows to 0 is a weight fault, as the grid's"),
    Mutant("eta-decay-on-every-kind", "src/nol/learners.py",
           "if cfg.eta_decay and not stage.sums else", "if cfg.eta_decay else",
           ("tests/test_learners.py::TestEtaDecay",),
           "eta_decay leaves the kinds with gradient sums as they are"),
    Mutant("eta-decay-sqrt-t-plus-1", "src/nol/learners.py",
           "math.sqrt(l.t)", "math.sqrt(l.t + 1)",
           ("tests/test_learners.py::TestEtaDecay",),
           "eta_decay's second step takes eta / sqrt 2"),
    Mutant("no-squash", "src/nol/learners.py",
           "w[i] *= squash(si, av)", "pass",
           ("tests/test_learners.py::TestInvariants::test_squash_conservation",),
           "a growing max squashes the weight: w_i s_i^power is conserved"),
    Mutant("snag-without-zero-scale-check", "src/nol/learners.py",
           "if sig_new == 0.0:", "if False:",
           ("tests/test_learners.py::TestStatisticsOverflow",),
           "a snag scale of 0 is a fault naming its coordinate"),
    Mutant("grid-ignores-snag-fault", "src/nol/learners.py",
           "if len(fails):", "if False:",
           ("tests/test_learners.py::TestStackedGrid",),
           "a snag statistics fault in the grid fails the snag rows only"),
    Mutant("predict-overflow-path-raises", "src/nol/core.py",
           "return math.fsum([t * 2.0 ** -64 for t in terms]) * 2.0 ** 64", "raise",
           ("tests/test_core.py::TestPredict",),
           "a partial sum that overflows leaves predict the exact sum, whatever the order"),
    # the regret lab's adversary and ledger
    Mutant("scaling-adversary-divides", "src/nol/regret.py",
           "v * D.get(i, 1.0)", "v / D.get(i, 1.0)",
           ("tests/test_regret.py::TestScalingAdversary",),
           "apply_scaling multiplies feature i by D_i"),
    Mutant("lemma1-comparator-skips-first-round", "src/nol/regret.py",
           "    for r in rounds:\n        comparator_loss +=",
           "    for r in rounds[1:]:\n        comparator_loss +=",
           ("tests/test_regret.py::TestLemma1",),
           "lemma1_check's regret counts the comparator's loss on every round"),
    # the hindsight oracle
    Mutant("fista-without-restart", "src/nol/regret.py",
           "if (v - u_new) @ (u_new - u) > 0.0:", "if False:",
           ("tests/test_regret.py::TestBestInHindsight",),
           "FISTA's gradient restart keeps its steps within the certificate test's cap"),
    Mutant("logistic-smoothness-doubled", "src/nol/core.py",
           "smoothness = 0.25", "smoothness = 0.5",
           ("tests/test_core.py::TestLosses",),
           "logistic's smoothness, FISTA's step bound, is the least bound on its slope's change"),
    Mutant("lp-u-flipped", "src/nol/regret.py",
           "mu[d:] - mu[:d]", "mu[:d] - mu[d:]",
           ("tests/test_regret.py::TestBestInHindsight",),
           "the hinge LP reads u off its row duals with the right sign"),
    Mutant("conditioner-underflow-unchecked", "src/nol/conditioners.py",
           "if gi != 0.0 and A[i] == 0.0:", "if False:",
           ("tests/test_regret.py::TestConditionedRun",),
           "a conditioner entry that underflows to 0 faults, naming its coordinate"),
    Mutant("conditioner-sum-unchecked", "src/nol/conditioners.py",
           "                if not math.isfinite(s):\n", "                if False:\n",
           ("tests/test_regret.py::TestConditionedRun",
            FAILURE + "regret-lemma1-squared-C1e152]"),
           "a conditioner's gradient sum that overflows faults, naming its coordinate"),
    Mutant("projection-zero-weight-unchecked", "src/nol/conditioners.py",
           "    if zero is not None:", "    if False:",
           ("tests/test_regret.py::TestConditionedRun",),
           "a projection weight that m_i^2's overflow makes 0 faults, naming its coordinate"),
    Mutant("oracle-accepts-l2-ball", "src/nol/regret.py",
           "    if ball.q != 1:\n        raise NolError(", "    if ball.q > 2:\n        raise NolError(",
           ("tests/test_regret.py::TestBestInHindsight",),
           "the oracle minimizes over the L1 ball only; a q = 2 ball is an error for every loss"),
    Mutant("projected-run-keeps-rounds", "src/nol/regret.py",
           "        if not projection:\n            ledger.rounds.append(",
           "        if True:\n            ledger.rounds.append(",
           ("tests/test_regret.py::TestLemma1",),
           "lemma1_check refuses a projected run, whose ledger holds no rounds"),
    Mutant("l1-projection-without-break", "src/nol/conditioners.py",
           "        if lam >= next_b and lam <= b:\n            break",
           "        if lam >= next_b and lam <= b:\n            pass",
           ("tests/test_conditioners.py",),
           "the L1 projection's threshold is the first lambda_k that falls in its bracket"),
    Mutant("grid-fault-weight-before-gradient-sum", "src/nol/learners.py",
           "cols = [Gx[:, g[0]], Wx[:, r]] if len(g) else [Wx[:, r]]",
           "cols = [Wx[:, r], Gx[:, g[0]]] if len(g) else [Wx[:, r]]",
           ("tests/test_evaluate.py",),
           "a sweep cell fails in progressive_validation's words, gradient sum before weight"),
    # the sweep
    Mutant("sweep-cell-names-the-wrong-example", "src/nol/evaluate.py",
           'errors[r] = f"example {n + j + 1}: {reason}"',
           'errors[r] = f"example {n + j}: {reason}"',
           ("tests/test_evaluate.py::TestSweepMatchesScalar",),
           "a failed sweep cell names the example progressive_validation names"),
    Mutant("sweep-loss-sum-reassociated", "src/nol/evaluate.py",
           "S = np.add.accumulate(np.concatenate([sums[:, None], np.stack([L, E])], axis=1),\n"
           "                                  axis=1)[:, 1:]",
           "S = sums[:, None] + np.add.accumulate(np.stack([L, E]), axis=1)",
           ("tests/test_evaluate.py::TestSweepBlocks",),
           "the sweep adds losses one example at a time: cells do not depend on the block size"),
    Mutant("sweep-label-check-passes-0", "src/nol/evaluate.py",
           "np.abs(y) != 1.0", "np.abs(y) > 1.0",
           (FAILURE + "sweep-zero-one-labels]",),
           "a sweep names the first label that is not -1 or +1, 0 included"),
    Mutant("tie-split-over-one-tail", "src/nol/evaluate.py",
           "alpha = TIE_FAILURE_PROBABILITY / (2 * len(cells))",
           "alpha = TIE_FAILURE_PROBABILITY / len(cells)",
           ("tests/test_evaluate.py::TestTiedEtas",),
           "a sweep's tie tests split their failure probability over both tails of every cell"),
    Mutant("tie-against-the-best-lower-end", "src/nol/evaluate.py",
           "hi = kl_confidence_interval(least, n, alpha)[1]",
           "hi = kl_confidence_interval(least, n, alpha)[0]",
           ("tests/test_evaluate.py::TestTiedEtas",),
           "a cell ties when its interval meets the best cell's upper end"),
    Mutant("sweep-holds-a-block", "src/nol/evaluate.py",
           "            del block   # not held while the next one is read\n", "",
           ("tests/test_cli.py::TestStreaming",),
           "the sweep holds one block of examples at a time"),
    # the data readers and the Corollary 1 check
    Mutant("cor1-absolute-floor", "src/nol/regret.py",
           "total_max / prefix, np.inf)", "total_max / np.maximum(prefix, eps), np.inf)",
           ("tests/test_regret.py::TestCorollary1",),
           "corollary1_montecarlo's violation fraction does not depend on feature scale"),
    Mutant("synth-spec-takes-any-key", "src/nol/data.py",
           "if k in args or k not in _SYNTH_KEYS[name]:", "if False:",
           ("tests/test_data.py::TestSynthSpec",),
           "a --synth key the generator does not take, or a repeated one, is an error"),
    Mutant("synth-spec-lo-above-hi", "src/nol/data.py", "        if lo > hi:\n",
           "        if False:\n", (FAILURE + "train-synth-lo-above-hi]",),
           "a --synth scaled spec with lo above hi is a usage error, not numpy's"),
    Mutant("synth-spec-scale-overflows", "src/nol/data.py",
           "        if hi >= math.log10(np.finfo(float).max):\n", "        if False:\n",
           (FAILURE + "train-synth-scale-overflows]",),
           "a --synth scaled spec whose largest scale is not a finite float is a usage error"),
    Mutant("checked-pairs-drop-the-rest", "src/nol/data.py",
           "_validated_example(tuple(feats), label)", "_validated_example(tuple(feats[:1]), label)",
           ("tests/test_data.py::TestSvmlight",),
           "every nonzero pair of a line is kept"),
    Mutant("svmlight-negative-index-unchecked", "src/nol/data.py",
           "        if idx < 0:\n", "        if False:\n",
           ("tests/test_data.py::TestSvmlight",),
           "a negative index is named as such, not as an index that does not increase"),
    Mutant("delimited-empty-cell-is-a-category", "src/nol/data.py",
           '            if cell == "":\n                continue\n', "",
           ("tests/test_data.py::TestDelimited",),
           "an empty CSV cell drops its feature"),
    # the library's argument checks
    Mutant("unknown-task-runs-as-classification", "src/nol/evaluate.py",
           '    raise ValueError(f"unknown task {task!r}")', "    return None",
           ("tests/test_evaluate.py::TestUnknownTask",),
           "sweep and progressive_validation reject a task that they do not know"),
    Mutant("cor1-tau-accepts-d-0", "src/nol/regret.py", "    if d < 1:\n", "    if False:\n",
           ("tests/test_regret.py::TestCorollary1::test_tau_bad_args",),
           "corollary1_tau rejects d < 1, naming it, before taking its log"),
    Mutant("cor1-accepts-no-permutations", "src/nol/regret.py",
           "    if n_permutations < 1:\n", "    if False:\n",
           ("tests/test_regret.py::TestCorollary1::test_montecarlo_without_permutations",),
           "corollary1_montecarlo rejects n_permutations < 1, naming it, before dividing by it"),
    Mutant("cor1-tau-bare-message", "src/nol/regret.py",
           'raise ValueError(f"require {name} in (0, 1), got {value!r}")',
           'raise ValueError("require delta and nu in (0, 1)")',
           ("tests/test_regret.py::TestCorollary1::test_tau_bad_args",),
           "corollary1_tau names delta or nu, whichever is out of (0, 1), and its value"),
    # messages that only the failure table of tools/report_snapshot.py pins
    Mutant("csv-field-count-names-the-header", "src/nol/data.py",
           "fields, got {len(row)}", "fields, got {len(columns)}",
           (FAILURE + "train-csv-field-count]",),
           "a CSV line with a field too many names the count of its fields"),
    Mutant("constant-labels-read-as-underflow", "src/nol/evaluate.py",
           "    if lo == hi:\n", "    if False:\n",
           (FAILURE + "sweep-constant-regression-labels]",),
           "constant regression labels are named as such, not as a loss scale that underflows"),
    Mutant("unreadable-data-quotes-the-oserror", "src/nol/cli.py",
           "cannot read {self.path!r}: {e.strerror}", "cannot read {self.path!r}: {e}",
           (FAILURE + "train-unreadable-data]",),
           "an unreadable --data path is named once, with the reason the OS gives"),
)


def export(repo: str, rev: str, dest: str):
    """Unpack ``git archive rev`` of repo into dest."""
    archive = subprocess.run(["git", "-C", repo, "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def apply(tree: str, mutant: Mutant):
    """Replace mutant.old by mutant.new in its file under tree; ValueError
    unless old occurs exactly once."""
    path = os.path.join(tree, mutant.file)
    with open(path) as fh:
        text = fh.read()
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    with open(path, "w") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def run(source: str, mutant: Mutant) -> dict:
    """The outcome of one row on a copy of the tree source."""
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        shutil.copytree(source, tree)
        try:
            apply(tree, mutant)
        except ValueError as e:
            outcome, detail = "error", str(e)
        else:
            path = os.pathsep.join(["src", *filter(None, [os.environ.get("PYTHONPATH")])])
            env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *mutant.select], cwd=tree, env=env, capture_output=True, text=True)
            outcome = {0: "survived", 1: "killed"}.get(done.returncode, "error")
            lines = done.stdout.strip().splitlines()
            detail = lines[-1] if lines else done.stderr.strip()[-200:]
    return {"name": mutant.name, "file": mutant.file, "claim": mutant.claim,
            "outcome": outcome, "detail": detail,
            "seconds": round(time.perf_counter() - t0, 2)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="rows to run (default: all)")
    parser.add_argument("--rev", default="HEAD", help="the revision to mutate")
    args = parser.parse_args(argv)
    known = {m.name for m in TABLE}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown rows {unknown}")
    rows = [m for m in TABLE if not args.names or m.name in args.names]
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    t0 = time.perf_counter()
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        source = os.path.join(tmp, "source")
        export(repo, args.rev, source)
        for mutant in rows:
            results.append(run(source, mutant))
            r = results[-1]
            print(f"{r['outcome']:8s} {r['seconds']:7.2f} s  {r['name']}: {r['detail']}",
                  flush=True)
    killed = sum(r["outcome"] == "killed" for r in results)
    print(json.dumps({"rev": args.rev, "rows": results, "killed": killed, "total": len(results),
                      "seconds": round(time.perf_counter() - t0, 2)}, sort_keys=True))
    return 0 if killed == len(results) else 1


if __name__ == "__main__":
    sys.exit(main())
