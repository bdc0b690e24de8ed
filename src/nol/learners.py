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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Loss, SparseExample, _check_binary_label, clip_prediction
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

    def predict(self, ex: SparseExample) -> float:
        # fsum keeps predictions exactly invariant under feature-index
        # permutations of the stream
        w = self.w
        return math.fsum(w[i] * v for i, v in ex.features if i in w)

    def observe(self, ex: SparseExample):
        """Process one example: squash scales, predict, accumulate N, update.

        Returns (prediction, progressive loss). The loss is measured before
        the update, so averaging it over a stream is progressive validation.
        """
        cfg = self.config
        kind = cfg.kind
        self.t += 1
        t = self.t
        supp = ex.features
        w, s, G = self.w, self.s, self.G

        if kind == "ng":
            for i, v in supp:
                av = abs(v)
                si = s.get(i, 0.0)
                if av > si:
                    if si > 0.0 and i in w:
                        w[i] *= (si * si) / (av * av)
                    s[i] = av
        elif kind == "nag":
            for i, v in supp:
                av = abs(v)
                si = s.get(i, 0.0)
                if av > si:
                    if si > 0.0 and i in w:
                        w[i] *= si / av
                    s[i] = av
        elif kind == "snag":
            sigma = self.sigma
            for i, v in supp:
                s[i] = s.get(i, 0.0) + v * v
                sig_new = math.sqrt(s[i] / t)
                sig_old = sigma.get(i, 0.0)
                if sig_new > sig_old and sig_old > 0.0 and i in w:
                    w[i] *= sig_old / sig_new
                sigma[i] = sig_new

        yhat = self.predict(ex)
        if cfg.clip_c is not None:
            yhat = clip_prediction(yhat, cfg.clip_c)
        lval, gp = self.loss.value_and_derivative(yhat, ex.label)

        if kind in ("ng", "nag"):
            self.N += math.fsum((v * v) / (s[i] * s[i]) for i, v in supp)
        elif kind == "snag":
            sigma = self.sigma
            self.N += math.fsum((v * v) / (sigma[i] * sigma[i]) for i, v in supp)

        if supp and gp != 0.0:
            self._update(supp, gp)
        return yhat, lval

    def _update(self, supp, gp):
        cfg = self.config
        kind = cfg.kind
        w, s, G = self.w, self.s, self.G
        t, N = self.t, self.N

        if kind == "ng":
            if N == 0.0:
                return
            eta_t = cfg.eta / math.sqrt(t) if cfg.eta_decay else cfg.eta
            factor = eta_t * (t / N)
            for i, v in supp:
                si = s[i]
                wi = w.get(i, 0.0) - factor * (gp * v) / (si * si)
                if not math.isfinite(wi):
                    raise NumericFault(f"non-finite weight {wi!r} at coordinate {i}")
                w[i] = wi
        elif kind in ("nag", "snag"):
            if N == 0.0:
                return
            scale = s if kind == "nag" else self.sigma
            root_tn = math.sqrt(t / N)
            for i, v in supp:
                g = gp * v
                Gi = G.get(i, 0.0) + g * g
                G[i] = Gi
                if Gi == 0.0:
                    continue
                wi = w.get(i, 0.0) - cfg.eta * root_tn * g / (scale[i] * math.sqrt(Gi))
                if not math.isfinite(wi):
                    raise NumericFault(f"non-finite weight {wi!r} at coordinate {i}")
                w[i] = wi
        elif kind == "adagrad":
            for i, v in supp:
                g = gp * v
                Gi = G.get(i, 0.0) + g * g
                G[i] = Gi
                if Gi == 0.0:
                    continue
                wi = w.get(i, 0.0) - cfg.eta * g / math.sqrt(Gi)
                if not math.isfinite(wi):
                    raise NumericFault(f"non-finite weight {wi!r} at coordinate {i}")
                w[i] = wi
        else:  # sgd
            eta_t = cfg.eta / math.sqrt(t) if cfg.eta_decay else cfg.eta
            for i, v in supp:
                wi = w.get(i, 0.0) - eta_t * gp * v
                if not math.isfinite(wi):
                    raise NumericFault(f"non-finite weight {wi!r} at coordinate {i}")
                w[i] = wi

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
# Every learning rate of a grid at once
#
# A stats stage updates the shared statistics with the same expressions as
# Learner.observe and returns (squash factors, or None when nothing
# squashes; the per-coordinate denominator of the step). A step stage
# returns the updated weight block, or None for no update. The elementwise
# arithmetic follows Learner's operation order; only the prediction's dot
# product is summed differently.

def _track_max(g: "GridLearner", supp, squash):
    """ng/nag: running max |x_i|, squash(old max, new max) on growth, and N."""
    s = g.s
    factors = None
    for k, (i, v) in enumerate(supp):
        av = abs(v)
        si = s.get(i, 0.0)
        if av > si:
            if si > 0.0:
                if factors is None:
                    factors = [1.0] * len(supp)
                factors[k] = squash(si, av)
            s[i] = av
    g.N += math.fsum((v * v) / (s[i] * s[i]) for i, v in supp)
    return factors


def _stats_ng(g: "GridLearner", supp):
    factors = _track_max(g, supp, lambda si, av: (si * si) / (av * av))
    return factors, [g.s[i] * g.s[i] for i, _ in supp]


def _stats_nag(g: "GridLearner", supp):
    return _track_max(g, supp, lambda si, av: si / av), [g.s[i] for i, _ in supp]


def _stats_snag(g: "GridLearner", supp):
    s, sigma, t = g.s, g.sigma, g.t
    factors = None
    for k, (i, v) in enumerate(supp):
        s[i] = s.get(i, 0.0) + v * v
        sig_new = math.sqrt(s[i] / t)
        sig_old = sigma.get(i, 0.0)
        if sig_new > sig_old and sig_old > 0.0:
            if factors is None:
                factors = [1.0] * len(supp)
            factors[k] = sig_old / sig_new
        sigma[i] = sig_new
    scale = [sigma[i] for i, _ in supp]
    g.N += math.fsum((v * v) / (q * q) for (_, v), q in zip(supp, scale))
    return factors, scale


def _no_stats(g: "GridLearner", supp):
    return None, None


def _accumulate(g: "GridLearner", cols, grad):
    Gb = g.G[:, cols] + grad * grad
    g.G[:, cols] = Gb
    return Gb


def _step_ng(g: "GridLearner", Wx, x, gp, cols, scale):
    if g.N == 0.0:
        return None
    factor = g.etas * (g.t / g.N)
    return Wx - (factor[:, None] * (gp[:, None] * x)) / scale


def _step_nag(g: "GridLearner", Wx, x, gp, cols, scale):
    if g.N == 0.0:
        return None
    grad = gp[:, None] * x
    Gb = _accumulate(g, cols, grad)
    num = (g.etas * math.sqrt(g.t / g.N))[:, None] * grad
    return Wx - np.divide(num, scale * np.sqrt(Gb), out=np.zeros_like(num), where=Gb != 0.0)


def _step_adagrad(g: "GridLearner", Wx, x, gp, cols, scale):
    grad = gp[:, None] * x
    Gb = _accumulate(g, cols, grad)
    num = g.etas[:, None] * grad
    return Wx - np.divide(num, np.sqrt(Gb), out=np.zeros_like(num), where=Gb != 0.0)


def _step_sgd(g: "GridLearner", Wx, x, gp, cols, scale):
    return Wx - (g.etas * gp)[:, None] * x


_STAGES = {
    "ng": (_stats_ng, _step_ng),
    "nag": (_stats_nag, _step_nag),
    "snag": (_stats_snag, _step_nag),
    "adagrad": (_no_stats, _step_adagrad),
    "sgd": (_no_stats, _step_sgd),
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
    the summation order of the prediction. A row whose raw prediction, loss
    or weights turn non-finite is reported by ``observe`` and reset to zero
    so that it stays finite; its later results mean nothing. Run it under
    ``np.errstate``, since such rows overflow by design.
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
        self._stats, self._step = _STAGES[kind]

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
            Wx *= factors
        raw = Wx @ x
        yhat = raw if self.clip_c is None else np.clip(raw, -self.clip_c, self.clip_c)
        if self.loss.classification:
            _check_binary_label(ex.label)
        lval, gp = self.loss.values_and_derivatives(yhat, ex.label)

        new = self._step(self, Wx, x, gp, cols, scale) if supp and gp.any() else None
        if new is None:
            new = Wx
        if new is not Wx or factors is not None:
            self.W[:, cols] = new

        faults = {}
        if not np.isfinite(new).all():
            for r, k in zip(*np.nonzero(~np.isfinite(new))):
                faults.setdefault(int(r), f"non-finite weight {float(new[r, k])!r} "
                                          f"at coordinate {supp[k][0]}")
        if not (np.isfinite(raw).all() and np.isfinite(lval).all()):
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


@dataclass
class RunReport:
    """Progressive-validation trace plus configuration for one run."""

    kind: str
    loss: str
    eta: float
    losses: list = field(default_factory=list)
    predictions: list = field(default_factory=list)
    average_loss: float = 0.0
    n_examples: int = 0
    nonzero_weights: int = 0
    normalizer: float = 0.0
    clip_c: Optional[float] = None
    eta_decay: bool = False
    state: Optional[dict] = None


def run_stream(config: LearnerConfig, loss: Loss, stream: Iterable[SparseExample],
               keep_predictions: bool = False, keep_state: bool = False) -> RunReport:
    """Fold observe over a stream and collect the progressive trace."""
    learner = Learner(config, loss)
    losses = []
    preds = [] if keep_predictions else None
    n = 0
    for ex in stream:
        n += 1
        try:
            yhat, lval = learner.observe(ex)
        except (NumericFault, InvalidLabel) as e:
            raise type(e)(f"example {n}: {e}") from e
        losses.append(lval)
        if preds is not None:
            preds.append(yhat)
    if n == 0:
        raise ValueError("stream yielded no examples")
    return RunReport(
        kind=config.kind,
        loss=loss.kind,
        eta=config.eta,
        losses=losses,
        predictions=preds or [],
        average_loss=sum(losses) / n,
        n_examples=n,
        nonzero_weights=sum(1 for v in learner.w.values() if v != 0.0),
        normalizer=learner.N,
        clip_c=config.clip_c,
        eta_decay=config.eta_decay,
        state=learner.state_dump() if keep_state else None,
    )
