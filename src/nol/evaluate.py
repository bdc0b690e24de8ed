"""Progressive validation, learning-rate sweeps, and the significance test.

Progressive validation measures each example's loss before its update, so the
running average estimates generalization without a holdout set. Sweeps search
a geometric learning-rate grid for every learner in one pass over the stream;
significance between two loss sequences is decided by disjointness
of relative-entropy Chernoff confidence intervals on the means.

A non-finite prediction, loss, weight or sum is a ``NumericFault`` naming the
example: it ends a progressive run, and it fails only its own cell of a sweep.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import Loss, SparseExample, _finite, _validated_example, get_loss
from .data import regression_loss_scale
from .errors import NolError
from .learners import GridLearner, Learner, LearnerConfig, progressive


def default_eta_grid() -> List[float]:
    """Geometric grid 2^-20 .. 2^6, wide enough to cover the optimal rates
    seen anywhere between ~1e-7 and 16."""
    return [2.0 ** e for e in range(-20, 7)]


@dataclass
class ProgressiveResult:
    """Per-example progressive losses for one run."""

    training_losses: List[float]
    eval_losses: List[float]      # 0-1 loss (classification) or scaled squared
    average_training_loss: float
    average_eval_loss: float
    n_examples: int


def progressive_validation(config: LearnerConfig, loss: Loss,
                           examples: Sequence[SparseExample],
                           task: str = "classification",
                           loss_scale: Optional[float] = None) -> ProgressiveResult:
    """Run a learner over the stream, scoring each example before updating.

    Classification reports 0-1 loss on sign(yhat) alongside the training
    loss; ties (yhat == 0) count as errors. Regression divides squared loss
    by the worst-possible-loss scale (max - min)^2.
    """
    if task == "regression" and loss_scale is None:
        loss_scale = regression_loss_scale(ex.label for ex in examples)
    learner = Learner(config, loss)

    def step(ex):
        yhat, lval = learner.observe(ex)
        if task == "classification":
            pred_label = 1.0 if yhat > 0 else (-1.0 if yhat < 0 else 0.0)
            return lval, 0.0 if pred_label == ex.label else 1.0
        d = yhat - ex.label
        return lval, _finite("eval loss", d * d / loss_scale, yhat)

    return _result(progressive(examples, step))


def _result(rounds) -> ProgressiveResult:
    """The ProgressiveResult of (training loss, eval loss) rounds."""
    train, ev = [], []
    for lval, e in rounds:
        train.append(lval)
        ev.append(e)
    n = len(train)
    return ProgressiveResult(train, ev, sum(train) / n, sum(ev) / n, n)


# ---------------------------------------------------------------------------
# One-against-all multiclass reduction
#
# The reduction used for multiclass 0-1 loss: one binary learner per class
# sharing the same learning rate, predicting the argmax of the raw scores.

def multiclass_progressive(config: LearnerConfig, loss: Loss,
                           examples: Sequence[SparseExample]) -> ProgressiveResult:
    learners: Dict[float, Learner] = {}
    classes: List[float] = []

    def step(ex):
        if ex.label not in learners:
            learners[ex.label] = Learner(config, loss)
            classes.append(ex.label)
        scores = {c: _finite("prediction", learners[c].predict(ex)) for c in classes}
        pred = max(classes, key=lambda c: scores[c])
        round_train = 0.0
        for c in classes:
            binary = SparseExample(ex.features, 1.0 if c == ex.label else -1.0)
            round_train += learners[c].observe(binary)[1]
        return round_train, 0.0 if pred == ex.label else 1.0

    return _result(progressive(examples, step))


# ---------------------------------------------------------------------------
# Learning-rate sweeps

@dataclass
class SweepSpec:
    kinds: List[str]
    loss: str
    eta_grid: List[float] = field(default_factory=default_eta_grid)
    task: str = "classification"
    multiclass: bool = False
    clip_c: Optional[float] = None

    def __post_init__(self):
        if not self.kinds:
            raise ValueError("learner kinds must be nonempty")
        if len(set(self.kinds)) < len(self.kinds):
            raise ValueError(f"learner kinds must not repeat, got {self.kinds}")
        if not self.eta_grid:
            raise ValueError("eta grid must be nonempty")
        if any(b <= a for a, b in zip(self.eta_grid, self.eta_grid[1:])):
            raise ValueError("eta grid must be strictly increasing")


@dataclass
class SweepCell:
    kind: str
    eta: float
    eval_loss: Optional[float]
    training_loss: Optional[float]
    error: Optional[str] = None


@dataclass
class ComparisonReport:
    spec: SweepSpec
    cells: List[SweepCell]
    best: Dict[str, Tuple[float, float]]   # kind -> (eta*, best eval loss)


def _record(errors: List[Optional[str]], n: int, faults: Dict[int, str]):
    for r, reason in faults.items():
        if errors[r] is None:
            errors[r] = f"example {n}: {reason}"


class _Run:
    """The rows of a sweep, kind-major, fed one example at a time: summed
    training and eval losses, per-row errors, and ``failure``, set when an
    error ends the whole pass."""

    def __init__(self, spec: SweepSpec, loss: Loss, loss_scale: Optional[float]):
        rows = len(spec.kinds) * len(spec.eta_grid)
        self.spec, self.loss, self.loss_scale = spec, loss, loss_scale
        self.train, self.ev = np.zeros(rows), np.zeros(rows)
        self.errors: List[Optional[str]] = [None] * rows
        self.failure: Optional[str] = None

    def grid_learner(self) -> GridLearner:
        spec = self.spec
        return GridLearner(spec.kinds, spec.eta_grid, self.loss, spec.clip_c)


class _GridRun(_Run):
    """progressive_validation for every row of one grid learner."""

    def __init__(self, *args):
        super().__init__(*args)
        self.learner = self.grid_learner()

    def observe(self, n: int, ex: SparseExample):
        yhat, lval, faults = self.learner.observe(ex)
        _record(self.errors, n, faults)
        self.train += lval
        if self.spec.task == "classification":
            self.ev += np.sign(yhat) != ex.label
        else:
            d = yhat - ex.label
            e = d * d / self.loss_scale
            self.ev += e
            if not np.isfinite(e).all():
                _record(self.errors, n, {int(r): f"non-finite eval loss {float(e[r])!r} "
                                                 f"at prediction {float(yhat[r])!r}"
                                         for r in np.flatnonzero(~np.isfinite(e))})


class _MulticlassRun(_Run):
    """multiclass_progressive for every row: one grid learner per class, each
    with its own columns, fed the example relabelled as that class's +-1
    without validating its features again."""

    def __init__(self, *args):
        super().__init__(*args)
        self.learners: Dict[float, GridLearner] = {}
        self.classes: List[float] = []

    def observe(self, n: int, ex: SparseExample):
        learners, classes = self.learners, self.classes
        if ex.label not in learners:
            learners[ex.label] = self.grid_learner()
            classes.append(ex.label)
        scores = np.array([learners[c].predict(ex) for c in classes])
        if not np.isfinite(scores).all():
            _record(self.errors, n, {int(r): f"non-finite prediction {float(scores[k, r])!r}"
                                     for k, r in zip(*np.nonzero(~np.isfinite(scores)))})
        # argmax takes the first of tied classes, as max() over classes does
        self.ev += scores.argmax(axis=0) != classes.index(ex.label)
        round_train = 0.0
        for c in classes:
            binary = _validated_example(ex.features, 1.0 if c == ex.label else -1.0)
            _, lval, faults = learners[c].observe(binary)
            _record(self.errors, n, faults)
            round_train = round_train + lval
        self.train += round_train


def sweep(spec: SweepSpec, examples: Iterable[SparseExample]) -> ComparisonReport:
    """Progressive validation of every (kind, eta) pair in one pass over the
    stream: each example advances one GridLearner whose rows are every cell
    (one per class when multiclass). Regression reads the labels in a pass
    of their own first, for the loss scale.

    A row whose prediction, loss or weights turn non-finite becomes an error
    cell with the NumericFault message, and so do all rows of a kind whose
    statistics fail; the other rows go on. An error that concerns the whole
    pass (an invalid label, say) marks every cell, naming the example.
    Errors raised by the stream itself (a malformed line) end the sweep.
    """
    loss = get_loss(spec.loss)
    loss_scale = None
    if spec.task == "regression":
        loss_scale = regression_loss_scale(ex.label for ex in examples)

    run = (_MulticlassRun if spec.multiclass else _GridRun)(spec, loss, loss_scale)
    n = 0
    with np.errstate(all="ignore"):
        for n, ex in enumerate(examples, start=1):
            if run.failure is None:
                try:
                    run.observe(n, ex)
                except (NolError, ArithmeticError) as e:   # failed cells are reported, not fatal
                    run.failure = f"example {n}: {e}"
    if n == 0:
        raise ValueError("no examples")

    errors = run.errors if run.failure is None else [run.failure] * len(run.errors)
    train, ev = run.train / n, run.ev / n
    cells: List[SweepCell] = []
    for r, (kind, eta) in enumerate(itertools.product(spec.kinds, spec.eta_grid)):
        if errors[r] is None:
            cells.append(SweepCell(kind, eta, float(ev[r]), float(train[r])))
        else:
            cells.append(SweepCell(kind, eta, None, None, error=errors[r]))

    best: Dict[str, Tuple[float, float]] = {}
    for cell in cells:
        if cell.eval_loss is None:
            continue
        cur = best.get(cell.kind)
        if cur is None or cell.eval_loss < cur[1]:
            best[cell.kind] = (cell.eta, cell.eval_loss)
    return ComparisonReport(spec, cells, best)


def plot_csv_rows(report: ComparisonReport) -> List[str]:
    """CSV lines "learner,eta,loss" for external plotting."""
    rows = ["learner,eta,loss"]
    for cell in report.cells:
        loss_s = "" if cell.eval_loss is None else repr(cell.eval_loss)
        rows.append(f"{cell.kind},{cell.eta!r},{loss_s}")
    return rows


# ---------------------------------------------------------------------------
# Relative-entropy Chernoff significance test

def _kl_bernoulli(p: float, q: float) -> float:
    eps = 1e-15
    q = min(max(q, eps), 1.0 - eps)
    out = 0.0
    if p > 0.0:
        out += p * math.log(p / q)
    if p < 1.0:
        out += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return out


def kl_confidence_interval(mean: float, n: int, alpha: float) -> Tuple[float, float]:
    """Two-sided interval on the true mean of [0,1]-bounded variables by
    inverting the KL Chernoff bound at failure probability alpha per tail."""
    if not 0.0 <= mean <= 1.0:
        raise ValueError("mean of bounded losses must lie in [0, 1]")
    target = math.log(1.0 / alpha) / n
    if mean >= 1.0 or _kl_bernoulli(mean, 1.0 - 1e-15) <= target:
        hi = 1.0
    else:
        hi = _bisect_kl(mean, target, mean, 1.0 - 1e-15)
    if mean <= 0.0 or _kl_bernoulli(mean, 1e-15) <= target:
        lo = 0.0
    else:
        lo = _bisect_kl(mean, target, mean, 1e-15)
    return lo, hi


def _bisect_kl(mean: float, target: float, inside: float, outside: float) -> float:
    """The q between inside (KL below target) and outside (KL above it) with
    KL(mean, q) = target, by bisection to 2e-12; KL is monotone on either
    side of the mean."""
    while abs(outside - inside) > 2e-12:
        mid = 0.5 * (inside + outside)
        if _kl_bernoulli(mean, mid) <= target:
            inside = mid
        else:
            outside = mid
    return 0.5 * (inside + outside)


@dataclass
class SignificanceVerdict:
    significant: bool
    interval_a: Tuple[float, float]
    interval_b: Tuple[float, float]
    mean_a: float
    mean_b: float


def significance(losses_a: Sequence[float], losses_b: Sequence[float],
                 failure_probability: float = 0.1) -> SignificanceVerdict:
    """Compare two per-example loss sequences bounded in [0, 1].

    The total failure budget is split over two sequences and two tails
    (alpha/4 per tail per sequence); the verdict is significant iff the two
    confidence intervals are disjoint.
    """
    if len(losses_a) != len(losses_b):
        raise ValueError("loss sequences must have equal length")
    if not losses_a:
        raise ValueError("empty loss sequences")
    for seq in (losses_a, losses_b):
        for v in seq:
            if not 0.0 <= v <= 1.0:
                raise ValueError("losses must be bounded in [0, 1]")
    n = len(losses_a)
    alpha = failure_probability / 4.0
    ma = sum(losses_a) / n
    mb = sum(losses_b) / n
    ia = kl_confidence_interval(ma, n, alpha)
    ib = kl_confidence_interval(mb, n, alpha)
    disjoint = ia[1] < ib[0] or ib[1] < ia[0]
    return SignificanceVerdict(disjoint, ia, ib, ma, mb)
