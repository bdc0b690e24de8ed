"""Progressive validation, learning-rate sweeps, and the significance test.

Progressive validation measures each example's loss before its update, so the
running average estimates generalization without a holdout set. Sweeps search
a geometric learning-rate grid per learner in one pass over the stream per
learner; significance between two loss sequences is decided by disjointness
of relative-entropy Chernoff confidence intervals on the means.

A non-finite prediction, loss or weight is a ``NumericFault`` naming the
example: it ends a progressive run, and it fails only its own cell of a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from .core import Loss, SparseExample, get_loss
from .data import regression_loss_scale
from .errors import NolError, NumericFault
from .learners import GridLearner, Learner, LearnerConfig


def default_eta_grid(lo_exp: int = -20, hi_exp: int = 6, base: float = 2.0) -> List[float]:
    """Geometric grid base^lo .. base^hi, wide enough to cover the optimal
    rates seen anywhere between ~1e-7 and 16."""
    return [base ** e for e in range(lo_exp, hi_exp + 1)]


@dataclass
class ProgressiveResult:
    """Per-example progressive losses for one run."""

    training_losses: List[float]
    eval_losses: List[float]      # 0-1 loss (classification) or scaled squared
    average_training_loss: float
    average_eval_loss: float
    n_examples: int


def _numeric(n: int, fn, ex: SparseExample):
    """fn(ex), its numeric faults and overflows a NumericFault naming example n."""
    try:
        return fn(ex)
    except NumericFault as e:
        raise NumericFault(f"example {n}: {e}") from e
    except (OverflowError, ValueError) as e:   # math.fsum over overflowing terms
        raise NumericFault(f"example {n}: non-finite sum ({e})") from e


def _finite(n: int, what: str, value: float, yhat: Optional[float] = None) -> float:
    """value, or a NumericFault naming example n if it is not finite."""
    if not math.isfinite(value):
        at = "" if yhat is None else f" at prediction {yhat!r}"
        raise NumericFault(f"example {n}: non-finite {what} {value!r}{at}")
    return value


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
    train, ev = [], []
    for n, ex in enumerate(examples, start=1):
        yhat, lval = _numeric(n, learner.observe, ex)
        _finite(n, "prediction", yhat)
        train.append(_finite(n, "loss", lval, yhat))
        if task == "classification":
            pred_label = 1.0 if yhat > 0 else (-1.0 if yhat < 0 else 0.0)
            ev.append(0.0 if pred_label == ex.label else 1.0)
        else:
            d = yhat - ex.label
            ev.append(_finite(n, "eval loss", d * d / loss_scale, yhat))
    n = len(train)
    if n == 0:
        raise ValueError("no examples")
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
    train, ev = [], []
    for n, ex in enumerate(examples, start=1):
        if ex.label not in learners:
            learners[ex.label] = Learner(config, loss)
            classes.append(ex.label)
        scores = {c: _finite(n, "prediction", _numeric(n, learners[c].predict, ex))
                  for c in classes}
        pred = max(classes, key=lambda c: scores[c])
        ev.append(0.0 if pred == ex.label else 1.0)
        round_train = 0.0
        for c in classes:
            binary = SparseExample(ex.features, 1.0 if c == ex.label else -1.0)
            yhat, lval = _numeric(n, learners[c].observe, binary)
            _finite(n, "prediction", yhat)
            round_train += _finite(n, "loss", lval, yhat)
        train.append(round_train)
    n = len(train)
    return ProgressiveResult(train, ev, sum(train) / n, sum(ev) / n, n)


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


def _grid_progressive(learner: GridLearner, examples: Sequence[SparseExample],
                      task: str, loss_scale: Optional[float]):
    """progressive_validation for every row of the grid learner: (average
    training losses, average eval losses, per-row error or None)."""
    rows = len(learner.etas)
    train, ev = np.zeros(rows), np.zeros(rows)
    errors: List[Optional[str]] = [None] * rows
    n = 0
    for n, ex in enumerate(examples, start=1):
        yhat, lval, faults = learner.observe(ex)
        _record(errors, n, faults)
        train += lval
        if task == "classification":
            ev += np.sign(yhat) != ex.label
        else:
            d = yhat - ex.label
            e = d * d / loss_scale
            ev += e
            if not np.isfinite(e).all():
                _record(errors, n, {int(r): f"non-finite eval loss {float(e[r])!r} "
                                            f"at prediction {float(yhat[r])!r}"
                                    for r in np.flatnonzero(~np.isfinite(e))})
    if n == 0:
        raise ValueError("no examples")
    return train / n, ev / n, errors


def _grid_multiclass(kind: str, spec: SweepSpec, loss: Loss,
                     examples: Sequence[SparseExample]):
    """multiclass_progressive for every eta of the grid: one grid learner per
    class, so k classes x n_eta rows."""
    rows = len(spec.eta_grid)
    learners: Dict[float, GridLearner] = {}
    classes: List[float] = []
    train, ev = np.zeros(rows), np.zeros(rows)
    errors: List[Optional[str]] = [None] * rows
    n = 0
    for n, ex in enumerate(examples, start=1):
        if ex.label not in learners:
            learners[ex.label] = GridLearner(kind, spec.eta_grid, loss, spec.clip_c)
            classes.append(ex.label)
        scores = np.array([learners[c].predict(ex) for c in classes])
        if not np.isfinite(scores).all():
            _record(errors, n, {int(r): f"non-finite prediction {float(scores[k, r])!r}"
                                for k, r in zip(*np.nonzero(~np.isfinite(scores)))})
        # argmax takes the first of tied classes, as max() over classes does
        ev += scores.argmax(axis=0) != classes.index(ex.label)
        round_train = 0.0
        for c in classes:
            binary = SparseExample(ex.features, 1.0 if c == ex.label else -1.0)
            _, lval, faults = learners[c].observe(binary)
            _record(errors, n, faults)
            round_train = round_train + lval
        train += round_train
    if n == 0:
        raise ValueError("no examples")
    return train / n, ev / n, errors


def sweep(spec: SweepSpec, examples: Sequence[SparseExample]) -> ComparisonReport:
    """Progressive validation of every (kind, eta) pair, one pass over the
    stream per kind through a GridLearner (one per class when multiclass).

    A row whose prediction, loss or weights turn non-finite becomes an error
    cell with the NumericFault message; an error that concerns the whole pass
    (an invalid label, say) marks every cell of that kind.
    """
    loss = get_loss(spec.loss)
    loss_scale = None
    if spec.task == "regression":
        loss_scale = regression_loss_scale(ex.label for ex in examples)

    cells: List[SweepCell] = []
    for kind in spec.kinds:
        try:
            with np.errstate(all="ignore"):
                if spec.multiclass:
                    train, ev, errors = _grid_multiclass(kind, spec, loss, examples)
                else:
                    learner = GridLearner(kind, spec.eta_grid, loss, spec.clip_c)
                    train, ev, errors = _grid_progressive(learner, examples, spec.task,
                                                          loss_scale)
        except (NolError, ArithmeticError) as e:   # failed cells are reported, not fatal
            errors = [str(e)] * len(spec.eta_grid)
        for r, eta in enumerate(spec.eta_grid):
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
        hi = brentq(lambda q: _kl_bernoulli(mean, q) - target, mean, 1.0 - 1e-15)
    if mean <= 0.0 or _kl_bernoulli(mean, 1e-15) <= target:
        lo = 0.0
    else:
        lo = brentq(lambda q: _kl_bernoulli(mean, q) - target, 1e-15, mean)
    return lo, hi


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
