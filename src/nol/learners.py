"""Online update rules behind a single observe-predict-update interface.

Five learners share the interface:

* ``ng``      -- normalized gradient descent with per-feature max-scale
                 trackers, weight squashing on scale growth, and the global
                 normalizer N.
* ``nag``     -- normalized adaptive gradient: like ng but with per-feature
                 squared-gradient accumulators and first-power scale factors.
* ``snag``    -- nag variant tracking the root second moment of each feature
                 instead of the running max (more robust to outliers).
* ``adagrad`` -- diagonal adaptive gradient baseline (not scale invariant).
* ``sgd``     -- plain stochastic gradient descent baseline.

``Learner`` runs one learning rate and keeps all per-coordinate state in
dicts keyed by feature index, so the index space is unbounded and grows on
demand. ``GridLearner`` runs a whole grid of learning rates in one pass: the
stream statistics (t, the scale trackers, N) stay scalar dicts and floats
shared by every rate, and the weights and gradient accumulators are
(n_eta, capacity) numpy arrays whose columns are features in order of first
appearance, the capacity doubling on demand. Grid learners over the same
stream can share one ``ColumnMap``, so each example is gathered once.

Each kind is one row of ``_STAGES``: a statistics function, which both
learners call, and two step functions with the same arithmetic, one over
the scalar learner's dicts and one over the grid's arrays.

``progressive`` folds a step over a stream and names the example in any
numeric fault; ``run_stream`` and the scalar evaluations in
``nol.evaluate`` are built on it. A non-finite prediction, loss, weight,
gradient sum or normalizer is a ``NumericFault``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Loss, SparseExample, _check_binary_label, _finite, clip_prediction, predict
from .errors import InvalidLabel, NumericFault

KINDS = ("ng", "nag", "snag", "adagrad", "sgd")


@dataclass(frozen=True)
class LearnerConfig:
    """Which update rule to run and its knobs.

    clip_c, when set, truncates predictions to [-clip_c, clip_c]; the clipped
    value feeds the loss and its derivative. eta_decay switches ng/sgd from a
    constant learning rate to eta/sqrt(t) (nag/snag/adagrad already decay
    through their gradient accumulators).
    """

    kind: str
    eta: float
    clip_c: Optional[float] = None
    eta_decay: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}; expected one of {KINDS}")
        if not (self.eta >= 0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta!r}")
        if self.clip_c is not None and not self.clip_c > 0:
            raise ValueError(f"clip_c must be strictly positive, got {self.clip_c!r}")


class Learner:
    """Mutable per-run state: weights w, scale trackers s, gradient
    accumulators G, global normalizer N, and the example counter t."""

    def __init__(self, config: LearnerConfig, loss: Loss):
        self.config = config
        self.loss = loss
        self.w: dict = {}
        self.s: dict = {}      # running max |x_i| (ng/nag) or running sum x_i^2 (snag)
        self.sigma: dict = {}  # snag only: last computed sqrt(s_i / t)
        self.G: dict = {}      # sum of squared per-coordinate gradients
        self.N = 0.0
        self.t = 0
        self._stats, self._update, _ = _STAGES[config.kind]

    def predict(self, ex: SparseExample) -> float:
        return predict(self.w, ex)

    def observe(self, ex: SparseExample):
        """Process one example: squash scales, accumulate N, predict, update.

        Returns (prediction, progressive loss). The loss is measured before
        the update, so averaging it over a stream is progressive validation.
        """
        self.t += 1
        supp = ex.features
        factors, scale = self._stats(self, supp)
        w = self.w
        if factors is not None:
            for i, f in factors.items():
                if i in w:
                    w[i] *= f
        yhat = predict(w, ex)
        clip_c = self.config.clip_c
        if clip_c is not None:
            yhat = clip_prediction(yhat, clip_c)
        lval, gp = self.loss.value_and_derivative(yhat, ex.label)
        if supp and gp != 0.0:
            self._update(self, supp, gp, scale)
        return _finite("prediction", yhat), _finite("loss", lval, yhat)

    def state_dump(self) -> dict:
        """Flat serialization for warm restarts: (index, w, s, G) plus scalars."""
        w, s, G = self.w, self.s, self.G
        w_at, s_at, G_at = w.get, s.get, G.get
        return {
            "coordinates": [
                [i, w_at(i, 0.0), s_at(i, 0.0), G_at(i, 0.0)]
                for i in sorted(w.keys() | s.keys() | G.keys())
            ],
            "N": self.N,
            "t": self.t,
        }


# ---------------------------------------------------------------------------
# The update rules, one row of _STAGES per kind
#
# A stats stage updates the stream statistics of a Learner or GridLearner
# (s, sigma, N and t are the same plain dicts and floats in both) and
# returns (feature -> squash factor, or None when nothing squashes; the
# per-coordinate scale of the step). A scalar step updates a Learner's
# weight dict in place; a grid step returns the updated weight block, or
# None for no update, with the gradient sums it accumulated. Both steps
# follow the same operation order, so a grid row matches the scalar learner
# up to the summation order of the prediction.

def _track_max(g, supp, squash):
    """ng/nag: running max |x_i|, squash(old max, new max) on growth."""
    s = g.s
    factors = None
    scale = []
    for i, v in supp:
        av = abs(v)
        si = s.get(i, 0.0)
        if av > si:
            if si > 0.0:
                if factors is None:
                    factors = {}
                factors[i] = squash(si, av)
            s[i] = si = av
        scale.append(si)
    return factors, _normalize(g, supp, scale)


def _normalize(g, supp, scale):
    """Add sum_i (x_i / scale_i)^2 to N; returns scale."""
    N = g.N + math.fsum((v * v) / (q * q) for (_, v), q in zip(supp, scale))
    if not math.isfinite(N):   # x_i^2 and scale_i^2 both overflow
        raise NumericFault(f"non-finite normalizer {N!r}")
    g.N = N
    return scale


def _stats_ng(g, supp):
    return _track_max(g, supp, lambda si, av: (si * si) / (av * av))


def _stats_nag(g, supp):
    return _track_max(g, supp, lambda si, av: si / av)


def _stats_snag(g, supp):
    s, sigma, t = g.s, g.sigma, g.t
    factors = None
    scale = []
    for i, v in supp:
        si = s[i] = s.get(i, 0.0) + v * v
        if si == math.inf:
            raise NumericFault(f"non-finite sum of squares inf at coordinate {i}")
        sig_new = math.sqrt(si / t)
        sig_old = sigma.get(i, 0.0)
        if sig_new > sig_old and sig_old > 0.0:
            if factors is None:
                factors = {}
            factors[i] = sig_old / sig_new
        sigma[i] = sig_new
        scale.append(sig_new)
    return factors, _normalize(g, supp, scale)


def _no_stats(g, supp):
    return None, None


def _update_ng(l: Learner, supp, gp, scale):
    if l.N == 0.0:
        return
    cfg, t, w = l.config, l.t, l.w
    eta_t = cfg.eta / math.sqrt(t) if cfg.eta_decay else cfg.eta
    factor = eta_t * (t / l.N)
    for (i, v), q in zip(supp, scale):
        wi = w.get(i, 0.0) - factor * (gp * v) / (q * q)
        if not math.isfinite(wi):
            raise NumericFault(f"non-finite weight {wi!r} at coordinate {i}")
        w[i] = wi


def _update_nag(l: Learner, supp, gp, scale):
    if l.N == 0.0:
        return
    w, G = l.w, l.G
    rate = l.config.eta * math.sqrt(l.t / l.N)
    for (i, v), q in zip(supp, scale):
        g = gp * v
        Gi = G.get(i, 0.0) + g * g
        if not math.isfinite(Gi):
            raise NumericFault(f"non-finite gradient sum {Gi!r} at coordinate {i}")
        G[i] = Gi
        if Gi == 0.0:
            continue
        wi = w.get(i, 0.0) - rate * g / (q * math.sqrt(Gi))
        if not math.isfinite(wi):
            raise NumericFault(f"non-finite weight {wi!r} at coordinate {i}")
        w[i] = wi


def _update_adagrad(l: Learner, supp, gp, scale):
    w, G, eta = l.w, l.G, l.config.eta
    for i, v in supp:
        g = gp * v
        Gi = G.get(i, 0.0) + g * g
        if not math.isfinite(Gi):
            raise NumericFault(f"non-finite gradient sum {Gi!r} at coordinate {i}")
        G[i] = Gi
        if Gi == 0.0:
            continue
        wi = w.get(i, 0.0) - eta * g / math.sqrt(Gi)
        if not math.isfinite(wi):
            raise NumericFault(f"non-finite weight {wi!r} at coordinate {i}")
        w[i] = wi


def _update_sgd(l: Learner, supp, gp, scale):
    cfg, w = l.config, l.w
    eta_t = cfg.eta / math.sqrt(l.t) if cfg.eta_decay else cfg.eta
    for i, v in supp:
        wi = w.get(i, 0.0) - eta_t * gp * v
        if not math.isfinite(wi):
            raise NumericFault(f"non-finite weight {wi!r} at coordinate {i}")
        w[i] = wi


def _accumulate(g: "GridLearner", cols, grad):
    Gb = g.G[:, cols] + grad * grad
    g.G[:, cols] = Gb
    return Gb


def _step_ng(g: "GridLearner", Wx, x, gp, cols, scale):
    if g.N == 0.0:
        return None, None
    factor = g.etas * (g.t / g.N)
    scale = np.array(scale)
    return Wx - (factor[:, None] * (gp[:, None] * x)) / (scale * scale), None


def _step_nag(g: "GridLearner", Wx, x, gp, cols, scale):
    if g.N == 0.0:
        return None, None
    grad = gp[:, None] * x
    Gb = _accumulate(g, cols, grad)
    num = (g.etas * math.sqrt(g.t / g.N))[:, None] * grad
    return (Wx - np.divide(num, scale * np.sqrt(Gb), out=np.zeros_like(num), where=Gb != 0.0),
            Gb)


def _step_adagrad(g: "GridLearner", Wx, x, gp, cols, scale):
    grad = gp[:, None] * x
    Gb = _accumulate(g, cols, grad)
    num = g.etas[:, None] * grad
    return Wx - np.divide(num, np.sqrt(Gb), out=np.zeros_like(num), where=Gb != 0.0), Gb


def _step_sgd(g: "GridLearner", Wx, x, gp, cols, scale):
    return Wx - (g.etas * gp)[:, None] * x, None


# kind -> (stats, scalar step, grid step)
_STAGES = {
    "ng": (_stats_ng, _update_ng, _step_ng),
    "nag": (_stats_nag, _update_nag, _step_nag),
    "snag": (_stats_snag, _update_nag, _step_nag),
    "adagrad": (_no_stats, _update_adagrad, _step_adagrad),
    "sgd": (_no_stats, _update_sgd, _step_sgd),
}


class ColumnMap(dict):
    """Feature index -> dense column, in order of first appearance.

    Grid learners that share one map over a stream gather each example once:
    ``gather`` hands back its last result when given the same support tuple
    again, which is exact because a feature's column never changes.
    """

    def __init__(self):
        super().__init__()
        self._last = (None, None)

    def gather(self, supp):
        """(column indices, values) of the support as read-only arrays,
        assigning columns to new features."""
        last_supp, last = self._last
        if supp is last_supp:
            return last
        get = self.get
        cols = []
        for i, _ in supp:
            c = get(i)
            if c is None:
                c = self[i] = len(self)
            cols.append(c)
        out = (np.array(cols, dtype=np.intp), np.array([v for _, v in supp]))
        for a in out:
            a.flags.writeable = False
        self._last = (supp, out)
        return out


class GridLearner:
    """One learner kind and loss at every learning rate of a grid.

    Row r follows Learner(LearnerConfig(kind, etas[r], clip_c), loss) up to
    the summation order of the prediction. A row whose raw prediction, loss,
    weights or gradient sums turn non-finite is reported by ``observe`` and
    reset to zero so that it stays finite; its later results mean nothing.
    Run it under ``np.errstate``, since such rows overflow by design.
    """

    def __init__(self, kind: str, etas: Sequence[float], loss: Loss,
                 clip_c: Optional[float] = None, columns: Optional[ColumnMap] = None):
        for eta in etas:
            LearnerConfig(kind, eta, clip_c)   # the scalar path's validation
        self.loss = loss
        self.clip_c = clip_c
        self.etas = np.array(etas, dtype=float)
        self.s: dict = {}
        self.sigma: dict = {}
        self.N = 0.0
        self.t = 0
        # feature index -> column of W and G, possibly shared with other
        # grid learners over the same stream
        self.columns = ColumnMap() if columns is None else columns
        self.W = np.zeros((len(etas), 16))
        self.G = np.zeros_like(self.W) if kind in ("nag", "snag", "adagrad") else None
        self._stats, _, self._step = _STAGES[kind]

    def _gather(self, supp):
        """(column indices, values) of the support, growing W and G to hold
        every column of the map."""
        cols, x = self.columns.gather(supp)
        while len(self.columns) > self.W.shape[1]:
            self.W = np.concatenate([self.W, np.zeros_like(self.W)], axis=1)
            if self.G is not None:
                self.G = np.concatenate([self.G, np.zeros_like(self.G)], axis=1)
        return cols, x

    def predict(self, ex: SparseExample) -> np.ndarray:
        """Raw predictions of every row, without observing the example."""
        cols, x = self._gather(ex.features)
        return self.W[:, cols] @ x

    def observe(self, ex: SparseExample):
        """Learner.observe for every row at once.

        Returns (predictions, progressive losses, faults), the first two
        (n_eta,) arrays and faults a dict row -> reason for the rows that
        turned non-finite on this example.
        """
        self.t += 1
        supp = ex.features
        factors, scale = self._stats(self, supp)
        cols, x = self._gather(supp)
        Wx = self.W[:, cols]
        if factors is not None:
            Wx *= [factors.get(i, 1.0) for i, _ in supp]
        raw = Wx @ x
        yhat = raw if self.clip_c is None else np.clip(raw, -self.clip_c, self.clip_c)
        if self.loss.classification:
            _check_binary_label(ex.label)
        lval, gp = self.loss.values_and_derivatives(yhat, ex.label)

        new, Gb = self._step(self, Wx, x, gp, cols, scale) if supp and gp.any() else (None, None)
        if new is None:
            new = Wx
        if new is not Wx or factors is not None:
            self.W[:, cols] = new

        faults = {}
        if Gb is not None:
            _block_faults(faults, "gradient sum", Gb, supp)
        _block_faults(faults, "weight", new, supp)
        if not math.isfinite(raw.sum() + lval.sum()):
            for r in np.flatnonzero(~np.isfinite(raw)):
                faults.setdefault(int(r), f"non-finite prediction {float(raw[r])!r}")
            for r in np.flatnonzero(~np.isfinite(lval)):
                faults.setdefault(int(r), f"non-finite loss {float(lval[r])!r} "
                                          f"at prediction {float(yhat[r])!r}")
        if faults:
            rows = list(faults)
            self.W[rows] = 0.0
            if self.G is not None:
                self.G[rows] = 0.0
        return yhat, lval, faults


def _block_faults(faults: dict, what: str, block: np.ndarray, supp):
    """Add to faults, for each row of a (rows, support) block without a
    fault yet, its first non-finite entry."""
    if not math.isfinite(block.sum()):   # a cheap test first: inf and nan propagate
        for r, k in zip(*np.nonzero(~np.isfinite(block))):
            faults.setdefault(int(r), f"non-finite {what} {float(block[r, k])!r} "
                                      f"at coordinate {supp[k][0]}")


# ---------------------------------------------------------------------------
# The progressive fold

def progressive(stream: Iterable[SparseExample], step):
    """Yield step(ex) for each example of the stream in turn.

    A NumericFault or InvalidLabel that step raises is re-raised naming the
    example, and so is an overflowing math.fsum or a division by zero in
    it, as a NumericFault; errors of the stream itself pass through. A
    stream without examples is a ValueError.
    """
    n = 0
    for n, ex in enumerate(stream, start=1):
        try:
            out = step(ex)
        except (NumericFault, InvalidLabel) as e:
            raise type(e)(f"example {n}: {e}") from e
        except (OverflowError, ValueError) as e:   # math.fsum over overflowing terms
            raise NumericFault(f"example {n}: non-finite sum ({e})") from e
        except ZeroDivisionError as e:   # a scale whose square underflows to 0
            raise NumericFault(f"example {n}: {e}") from e
        yield out
    if n == 0:
        raise ValueError("stream yielded no examples")


@dataclass
class RunReport:
    """Progressive-validation trace and final state of one run."""

    losses: list
    predictions: list
    average_loss: float
    n_examples: int
    nonzero_weights: int
    normalizer: float
    state: Optional[dict] = None


def run_stream(config: LearnerConfig, loss: Loss, stream: Iterable[SparseExample],
               keep_predictions: bool = False, keep_state: bool = False) -> RunReport:
    """Fold observe over a stream and collect the progressive trace."""
    learner = Learner(config, loss)
    losses, preds = [], []
    for yhat, lval in progressive(stream, learner.observe):
        losses.append(lval)
        if keep_predictions:
            preds.append(yhat)
    n = len(losses)
    return RunReport(
        losses=losses,
        predictions=preds,
        average_loss=sum(losses) / n,
        n_examples=n,
        nonzero_weights=sum(1 for v in learner.w.values() if v != 0.0),
        normalizer=learner.N,
        state=learner.state_dump() if keep_state else None,
    )
