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
demand. ``GridLearner`` runs several kinds at every learning rate of a grid
in one pass, as the rows of one (n_kinds * n_eta, capacity) weight matrix W,
kind-major, with one matrix G of gradient sums for the rows of nag, snag
and adagrad. Each kind keeps its stream statistics (t, the scale trackers,
N) in the scalar dicts and floats a Learner has, shared by its rows. The
columns are features in order of first appearance, the capacity doubling on
demand; each grid learner keeps its own. Each example is gathered,
predicted, scored, stepped, scattered and scanned for faults once for all
rows. For one learning rate, ``Learner`` is the faster of the two.

Each kind is one row of ``_STAGES``: a statistics function and the terms
of the one step w_i -= (eta * rate) * (gp * u_i) / den_i, which both
learners read, ``Learner`` over its dicts and ``GridLearner`` over all its
rows at once.

``progressive`` folds a step over a stream and names the example in any
numeric fault; ``run_stream`` and the scalar evaluations in
``nol.evaluate`` are built on it. A non-finite prediction, loss, weight,
gradient sum or snag sum of squares is a ``NumericFault``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .core import Loss, SparseExample, _check_binary_label, _finite, clip_prediction, predict
from .errors import InvalidLabel, NumericFault


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
        self._stage = _STAGES[config.kind]

    def predict(self, ex: SparseExample) -> float:
        return predict(self.w, ex)

    def observe(self, ex: SparseExample):
        """Process one example: squash scales, accumulate N, predict, update.

        Returns (prediction, progressive loss). The loss is measured before
        the update, so averaging it over a stream is progressive validation.
        """
        self.t += 1
        supp = ex.features
        factors, scale = self._stage.stats(self, supp)
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
            _step(self, supp, gp, scale)
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
# A stats stage updates the stream statistics of a Learner or of one kind of
# a GridLearner (s, sigma, N and t are the same plain dicts and floats in
# both) and returns (feature -> squash factor, or None when nothing
# squashes; the per-coordinate scale of the step). Both learners then step
# every coordinate of the support by
#
#     w_i -= (eta * rate) * (gp * u_i) / den_i
#
# where rate is the kind's factor of eta, u_i is x_i / scale_i for ng and
# x_i otherwise, and den_i is scale_i (ng), scale_i * sqrt(G_i) (nag,
# snag), sqrt(G_i) (adagrad) or 1 (sgd), a zero G_i making no step:
# ``_step`` over a Learner's dicts, GridLearner.observe over all its rows at
# once, in the same order of operations. So a grid row matches the scalar
# learner up to the summation order of the prediction and, on logistic
# loss, numpy's exp and log1p, which can round otherwise than libm's.

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
    """Add sum_i (x_i / scale_i)^2 to N; returns scale. The ratio is taken
    before squaring, so no feature scale overflows or underflows it."""
    r = [v / q for (_, v), q in zip(supp, scale)]
    g.N += math.fsum([ri * ri for ri in r])
    return scale


def _squash_ng(si, av):
    r = si / av
    return r * r


def _stats_ng(g, supp):
    return _track_max(g, supp, _squash_ng)


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


# N > 0 at a step: the support is nonempty, N never falls, a first value adds 1 (snag: t)
def _rate_ng(g):
    return g.t / g.N


def _rate_nag(g):
    return math.sqrt(g.t / g.N)


def _rate_one(g):
    return 1.0


class _Stage(NamedTuple):
    stats: Callable     # the stream statistics
    rate: Callable      # the factor of eta in the step
    sums: bool          # keeps gradient sums G
    over_scale: bool    # the step takes x_i / scale_i for x_i


# kind -> (stats, rate, keeps G, steps in x / scale)
_STAGES = {
    "ng": _Stage(_stats_ng, _rate_ng, False, True),
    "nag": _Stage(_stats_nag, _rate_nag, True, False),
    "snag": _Stage(_stats_snag, _rate_nag, True, False),
    "adagrad": _Stage(_no_stats, _rate_one, True, False),
    "sgd": _Stage(_no_stats, _rate_one, False, False),
}
KINDS = tuple(_STAGES)


def _step(l: Learner, supp, gp, scale):
    """The step of a Learner over its dicts, the grid's one step in the
    grid's order of operations. eta_decay divides eta by sqrt(t) for the
    kinds without gradient sums, which decay through G."""
    stage, cfg = l._stage, l.config
    eta = cfg.eta / math.sqrt(l.t) if cfg.eta_decay and not stage.sums else cfg.eta
    lr = eta * stage.rate(l)
    w, G, sums, over_scale = l.w, l.G, stage.sums, stage.over_scale
    for (i, v), den in zip(supp, repeat(1.0) if scale is None else scale):
        if over_scale:
            v /= den
        g = gp * v
        if sums:
            Gi = G.get(i, 0.0) + g * g
            if not math.isfinite(Gi):
                raise NumericFault(f"non-finite gradient sum {Gi!r} at coordinate {i}")
            G[i] = Gi
            if Gi == 0.0:
                continue
            den *= math.sqrt(Gi)
        wi = w.get(i, 0.0) - lr * g / den
        if not math.isfinite(wi):
            raise NumericFault(f"non-finite weight {wi!r} at coordinate {i}")
        w[i] = wi


class _GridKind:
    """One kind's rows of a GridLearner: the slice ``rows`` of W and its
    stream statistics, which are a Learner's (t, s, sigma, N). ``fault`` is
    set when the statistics themselves fail; the rows then stay at zero."""

    def __init__(self, kind: str, rows: slice):
        self.kind, self.rows = kind, rows
        self.stage = _STAGES[kind]
        self.s: dict = {}
        self.sigma: dict = {}
        self.N = 0.0
        self.t = 0
        self.fault: Optional[str] = None


class GridLearner:
    """Learner kinds and one loss at every learning rate of a grid, as the
    rows of one weight matrix.

    Rows are kind-major: row k * len(etas) + j follows
    Learner(LearnerConfig(kinds[k], etas[j], clip_c), loss) up to the
    summation order of the prediction. W holds every row and G the rows of
    the kinds that keep gradient sums. A row whose prediction, loss, weights
    or gradient sums turn non-finite is reported by ``observe`` and reset to
    zero so that it stays finite; its later results mean nothing. A kind
    whose statistics fail faults all its rows, and the other kinds go on.
    Run it under ``np.errstate``, since such rows overflow by design.
    """

    def __init__(self, kinds: Sequence[str], etas: Sequence[float], loss: Loss,
                 clip_c: Optional[float] = None):
        for kind in kinds:
            for eta in etas:
                LearnerConfig(kind, eta, clip_c)   # the scalar path's validation
        n = len(etas)
        self.kinds = [_GridKind(kind, slice(k * n, (k + 1) * n)) for k, kind in enumerate(kinds)]
        self.loss = loss
        self.clip_c = clip_c
        self.etas = np.tile(np.array(etas, dtype=float), len(kinds))
        # feature index -> column of W and G, in order of first appearance
        self.columns: dict = {}
        self.W = np.zeros((len(self.etas), 16))
        # G holds the rows of the kinds that keep gradient sums: G row j is
        # W row _g_ids[j], and W[_g_rows] selects them, by a slice (so a
        # view) when they are contiguous
        g = self._g_ids = np.array([r for k in self.kinds if k.stage.sums
                                    for r in range(k.rows.start, k.rows.stop)], dtype=np.intp)
        contiguous = len(g) > 0 and g[-1] - g[0] == len(g) - 1
        self._g_rows = slice(g[0], g[-1] + 1) if contiguous else g
        self.G = np.zeros((len(g), 16)) if len(g) else None

    def _gather(self, supp):
        """(column indices, values) of the support, assigning columns to new
        features and growing W and G to hold them."""
        columns = self.columns
        cols = [columns.setdefault(i, len(columns)) for i, _ in supp]
        while len(columns) > self.W.shape[1]:
            self.W = np.concatenate([self.W, np.zeros_like(self.W)], axis=1)
            if self.G is not None:
                self.G = np.concatenate([self.G, np.zeros_like(self.G)], axis=1)
        return np.array(cols, dtype=np.intp), np.array([v for _, v in supp])

    def _dot(self, Wx, x):
        """Wx @ x, one product per kind: BLAS sums a row in an order that
        depends on the number of rows."""
        return np.concatenate([Wx[k.rows] @ x for k in self.kinds])

    def observe(self, ex: SparseExample):
        """Learner.observe for every row at once.

        Returns (predictions, progressive losses, faults), the first two
        arrays over the rows and faults a dict row -> reason for the rows
        that turned non-finite on this example.
        """
        if self.loss.classification:
            _check_binary_label(ex.label)
        supp = ex.features
        cols, x = self._gather(supp)
        Wx = self.W[:, cols]
        # the step's u_i, den_i and rate per row; u = 0 where a kind takes no step
        u = np.zeros(Wx.shape)
        den = np.ones(Wx.shape)
        rates = np.zeros(len(Wx))
        faults = {}
        for k in self.kinds:
            if k.fault is not None:
                continue
            k.t += 1
            try:
                factors, scale = k.stage.stats(k, supp)
            except _NUMERIC_ERRORS as e:
                k.fault = _fault_reason(e)
                faults.update(dict.fromkeys(range(k.rows.start, k.rows.stop), k.fault))
                continue
            if factors is not None:
                Wx[k.rows] *= [factors.get(i, 1.0) for i, _ in supp]
            if not supp:   # no column to step
                continue
            rates[k.rows] = k.stage.rate(k)
            if scale is None:
                u[k.rows] = x
            else:
                q = den[k.rows] = np.array(scale)
                u[k.rows] = x / q if k.stage.over_scale else x

        raw = self._dot(Wx, x)
        yhat = raw if self.clip_c is None else np.clip(raw, -self.clip_c, self.clip_c)
        lval, gp = self.loss.values_and_derivatives(yhat, ex.label)

        new, Gb = Wx, None
        if supp and gp.any():
            grad = gp[:, None] * u
            step = (self.etas * rates)[:, None] * grad
            if self.G is not None:
                g = grad[self._g_rows]
                Gb = self.G[:, cols] + g * g
                self.G[:, cols] = Gb
                den[self._g_rows] *= np.sqrt(Gb)
                if not Gb.all():   # a zero gradient sum makes no step
                    r, c = np.nonzero(Gb == 0.0)
                    r = self._g_ids[r]
                    step[r, c], den[r, c] = 0.0, 1.0
            step /= den
            new = Wx - step
        self.W[:, cols] = new

        checked = new.sum() + yhat.sum() + lval.sum()
        if Gb is not None:
            checked += Gb.sum()
        if not math.isfinite(checked):   # a cheap test first: inf and nan propagate
            if Gb is not None:
                _block_faults(faults, "gradient sum", Gb, supp, self._g_ids)
            _block_faults(faults, "weight", new, supp)
            for r in np.flatnonzero(~np.isfinite(yhat)):
                faults.setdefault(int(r), f"non-finite prediction {float(yhat[r])!r}")
            for r in np.flatnonzero(~np.isfinite(lval)):
                faults.setdefault(int(r), f"non-finite loss {float(lval[r])!r} "
                                          f"at prediction {float(yhat[r])!r}")
        if faults:
            rows = list(faults)
            self.W[rows] = 0.0
            if self.G is not None:
                self.G[np.isin(self._g_ids, rows)] = 0.0
        return yhat, lval, faults


def _block_faults(faults: dict, what: str, block: np.ndarray, supp, rows=None):
    """Add to faults, for each row of a (rows, support) block without a
    fault yet, its first non-finite entry; rows maps the block's rows to
    grid rows."""
    for r, k in zip(*np.nonzero(~np.isfinite(block))):
        row = int(r if rows is None else rows[r])
        faults.setdefault(row, f"non-finite {what} {float(block[r, k])!r} "
                               f"at coordinate {supp[k][0]}")


# the errors of an update that a NumericFault reports: math.fsum raises
# OverflowError or ValueError on overflowing terms, a zero scale
# ZeroDivisionError
_NUMERIC_ERRORS = (NumericFault, ArithmeticError, ValueError)


def _fault_reason(e: Exception) -> str:
    """What a NumericFault says of a numeric error raised by an update."""
    if isinstance(e, (OverflowError, ValueError)):   # math.fsum over overflowing terms
        return f"non-finite sum ({e})"
    return str(e)


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
        except InvalidLabel as e:
            raise InvalidLabel(f"example {n}: {e}") from e
        except _NUMERIC_ERRORS as e:
            raise NumericFault(f"example {n}: {_fault_reason(e)}") from e
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
