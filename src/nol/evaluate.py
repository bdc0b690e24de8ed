"""Progressive validation, and learning-rate sweeps with each kind's tied etas.

Progressive validation measures each example's loss before its update, so the
running average estimates generalization without a holdout set; a regression
eval loss is divided by the labels' (max - min)^2, read in a pass of their
own. Sweeps search a geometric learning-rate grid for every learner in one
pass over the stream, a block of examples at a time: the block's labels are
read once, to check and to score, and its losses join the cells' sums one
example at a time, as progressive validation adds them. A classification
sweep also gives each kind's tied learning rates: those whose relative-entropy
Chernoff confidence interval on the mean 0-1 loss meets the best cell's.

A non-finite prediction, loss, eval loss, weight or sum is a ``NumericFault``
naming the example: it ends a progressive run, and it fails only its own cell
of a sweep, in the same words; an invalid label ends either. Sweeps are binary
or regression; multiclass one-against-all runs through ``multiclass_progressive``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .core import (Loss, SparseExample, _check_binary_label, _finite, _nonfinite_reason,
                   _two_passes, get_loss, predict)
from .errors import DataFormatError, InvalidLabel
from .learners import GridLearner, Learner, LearnerConfig, progressive

BLOCK = 256   # examples per GridLearner.observe_block in a sweep
TIE_FAILURE_PROBABILITY = 0.1   # of a sweep's tie tests, split over its cells and both tails


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
                           task: str = "classification") -> ProgressiveResult:
    """Run a learner over the stream, scoring each example before updating.

    Classification reports 0-1 loss on sign(yhat) alongside the training
    loss; ties (yhat == 0) count as errors. Regression divides squared loss
    by the worst-possible-loss scale (max - min)^2 of the labels.
    """
    loss_scale = _loss_scale(examples, task)
    learner = Learner(config, loss)

    def step(ex):
        yhat, lval = learner.observe(ex)
        return lval, _finite("eval loss", float(_eval_loss(yhat, ex.label, loss_scale)))

    return _result(examples, step)


def _eval_loss(yhat, y, loss_scale: Optional[float]):
    """The eval loss of predictions yhat against labels y, floats or numpy
    arrays alike: 0-1 loss on sign(yhat), a tie (yhat == 0) counting as an
    error, or, with a loss scale, the squared error divided by it."""
    if loss_scale is None:
        return np.sign(yhat) != y
    d = yhat - y
    return d * d / loss_scale


def _loss_scale(examples: Iterable[SparseExample], task: str) -> Optional[float]:
    """The eval loss scale of a task: None for classification, whose eval
    loss is 0-1, and for regression the labels' (max - min)^2, the worst
    possible squared loss, read in a pass of its own over examples: it
    scales regression eval losses into [0, 1]."""
    if task == "classification":
        return None
    if task != "regression":
        raise ValueError(f"unknown task {task!r}")
    _two_passes(examples, "a regression run", "the labels for the loss scale")
    labels = [ex.label for ex in examples]
    if not labels:
        raise DataFormatError("no labels")
    lo, hi = min(labels), max(labels)
    if lo == hi:
        raise DataFormatError("constant labels: regression loss scale undefined")
    scale = (hi - lo) * (hi - lo)
    if scale == math.inf:
        raise DataFormatError(f"labels from {lo!r} to {hi!r}: regression loss scale overflows")
    if scale == 0.0:
        raise DataFormatError(f"labels from {lo!r} to {hi!r}: regression loss scale underflows")
    return scale


def _result(examples, step) -> ProgressiveResult:
    """The ProgressiveResult of step's (training loss, eval loss) on each example."""
    (train, ev), (train_sum, ev_sum) = progressive(examples, step)
    n = len(train)
    return ProgressiveResult(train, ev, train_sum / n, ev_sum / n, n)


# ---------------------------------------------------------------------------
# One-against-all multiclass reduction

def multiclass_progressive(config: LearnerConfig, loss: Loss,
                           examples: Sequence[SparseExample]) -> ProgressiveResult:
    """Progressive multiclass 0-1 loss of one binary learner per class, all
    at the same learning rate, predicting the argmax of the raw scores.
    Nothing in nol calls it yet: acceptance criterion 9 (Shuttle, 7 classes)
    needs it, and waits until that dataset is in the repository."""
    learners: Dict[float, Learner] = {}
    classes: List[float] = []

    def step(ex):
        if ex.label not in learners:
            learners[ex.label] = Learner(config, loss)
            classes.append(ex.label)
        scores = {c: _finite("prediction", predict(learners[c].w, ex)) for c in classes}
        pred = max(classes, key=lambda c: scores[c])
        round_train = 0.0
        for c in classes:
            binary = SparseExample(ex.features, 1.0 if c == ex.label else -1.0)
            round_train += learners[c].observe(binary)[1]
        return round_train, 0.0 if pred == ex.label else 1.0

    return _result(examples, step)


# ---------------------------------------------------------------------------
# Learning-rate sweeps

@dataclass
class SweepCell:
    kind: str
    eta: float
    eval_loss: Optional[float]
    training_loss: Optional[float]
    error: Optional[str] = None


@dataclass
class ComparisonReport:
    cells: List[SweepCell]
    best: Dict[str, Tuple[float, float]]   # kind -> (eta*, best eval loss)
    # kind -> (least, greatest) eta tied with eta*; None for a regression sweep
    tied: Optional[Dict[str, Tuple[float, float]]]


def sweep(kinds: Sequence[str], loss: str, examples: Iterable[SparseExample],
          eta_grid: Optional[Sequence[float]] = None, task: str = "classification",
          clip_c: Optional[float] = None) -> ComparisonReport:
    """Progressive validation of every (kind, eta) pair in one pass over the
    stream: BLOCK examples at a time advance one GridLearner whose rows are
    the cells, kind-major. The grid defaults to default_eta_grid().
    Regression reads the labels in a pass of their own first, for the loss
    scale, so it needs a re-iterable stream.

    A row whose prediction, loss, eval loss, weights or loss sums turn
    non-finite becomes an error cell with progressive_validation's
    NumericFault message, and so do all rows of a kind whose statistics
    fail; the other rows go on. An invalid label (InvalidLabel, naming the
    example) or an error of the stream itself (a malformed line) ends the
    sweep, which reads up to BLOCK examples ahead of the ones it learns.
    A classification sweep gives each kind's tied etas (``_tied_etas``).
    """
    if not kinds:
        raise ValueError("learner kinds must be nonempty")
    if len(set(kinds)) < len(kinds):
        raise ValueError(f"learner kinds must not repeat, got {kinds}")
    eta_grid = default_eta_grid() if eta_grid is None else eta_grid
    if not eta_grid:
        raise ValueError("eta grid must be nonempty")
    if any(b <= a for a, b in zip(eta_grid, eta_grid[1:])):
        raise ValueError("eta grid must be strictly increasing")
    loss_scale = _loss_scale(examples, task)
    learner = GridLearner(kinds, eta_grid, get_loss(loss), clip_c)
    rows = len(learner.etas)
    sums = np.zeros((2, rows))   # the rows' running training and eval loss sums
    errors: List[Optional[str]] = [None] * rows
    n = 0
    stream = iter(examples)
    with np.errstate(all="ignore"):
        for block in iter(lambda: list(itertools.islice(stream, BLOCK)), []):
            y = np.array([ex.label for ex in block])
            bad = np.flatnonzero(np.abs(y) != 1.0) if learner.loss.classification else ()
            if len(bad):
                j = int(bad[0])
                try:
                    _check_binary_label(block[j].label)
                except InvalidLabel as e:
                    raise InvalidLabel(f"example {n + j + 1}: {e}") from e
            Y, L, faults = learner.observe_block(block)
            E = _eval_loss(Y, y[:, None], loss_scale)
            # added one example at a time, as progressive_validation adds them
            S = np.add.accumulate(np.concatenate([sums[:, None], np.stack([L, E])], axis=1),
                                  axis=1)[:, 1:]
            unset = np.array([e is None for e in errors])
            # in the order progressive_validation meets them at one example, after the learner's
            for what, values in (("eval loss", E), ("loss sum", S[0]), ("eval loss sum", S[1])):
                for j, r in zip(*np.nonzero(~np.isfinite(values) & unset)):
                    j, r = int(j), int(r)
                    if j < faults.get(r, (len(block),))[0]:
                        faults[r] = (j, _nonfinite_reason(what, values[j, r]))
            for r, (j, reason) in faults.items():
                if errors[r] is None:
                    errors[r] = f"example {n + j + 1}: {reason}"
            sums = S[:, -1].copy()
            n += len(block)
            del block   # not held while the next one is read
    if n == 0:
        raise ValueError("no examples")

    train, ev = sums / n
    cells: List[SweepCell] = []
    best: Dict[str, Tuple[float, float]] = {}
    for r, (kind, eta) in enumerate(itertools.product(kinds, eta_grid)):
        if errors[r] is not None:
            cells.append(SweepCell(kind, eta, None, None, error=errors[r]))
            continue
        cells.append(SweepCell(kind, eta, float(ev[r]), float(train[r])))
        if kind not in best or ev[r] < best[kind][1]:
            best[kind] = (eta, float(ev[r]))
    tied = _tied_etas(cells, best, n) if task == "classification" else None
    return ComparisonReport(cells, best, tied)


def _tied_etas(cells: Sequence[SweepCell], best: Dict[str, Tuple[float, float]],
               n: int) -> Dict[str, Tuple[float, float]]:
    """Each kind's least and greatest eta whose cell ties with its best: their
    KL confidence intervals on the mean 0-1 loss over n examples meet, at
    TIE_FAILURE_PROBABILITY split over every cell and both tails. The best
    cell has its kind's least mean, so its interval meets a cell's exactly
    when the cell's mean is at most the best's upper end, or the cell's
    lower end reaches that far down: KL(mean, upper end) <= log(1/alpha)/n."""
    alpha = TIE_FAILURE_PROBABILITY / (2 * len(cells))
    target = math.log(1.0 / alpha) / n
    tied = {}
    for kind, (_, least) in best.items():
        hi = kl_confidence_interval(least, n, alpha)[1]
        etas = [c.eta for c in cells if c.kind == kind and c.eval_loss is not None
                and (c.eval_loss <= hi or _kl_bernoulli(c.eval_loss, hi) <= target)]
        tied[kind] = (etas[0], etas[-1])
    return tied


def plot_csv_rows(report: ComparisonReport) -> List[str]:
    """CSV lines "learner,eta,loss" for external plotting."""
    rows = ["learner,eta,loss"]
    for cell in report.cells:
        loss_s = "" if cell.eval_loss is None else repr(cell.eval_loss)
        rows.append(f"{cell.kind},{cell.eta!r},{loss_s}")
    return rows


# ---------------------------------------------------------------------------
# Relative-entropy Chernoff confidence intervals

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
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if not n >= 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
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
