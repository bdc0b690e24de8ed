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
and adagrad. The columns are features in order of first appearance, the
capacity doubling on demand; each grid learner keeps its own. It takes a
block of examples at a time: it gathers the block's columns once and
computes each kind's stream statistics (t, the scale trackers, N, the
squash factors and the rate) for the whole block with numpy, once for ng
and nag, whose statistics are equal. Each example then only reads and
steps W and G, for all rows at once. For one learning rate, ``Learner`` is
the faster of the two.

Each kind is one row of ``_STAGES``: a statistics function and the terms
of the one step w_i -= (eta * rate) * (gp * u_i) / den_i, which both
learners read, ``Learner`` over its dicts and ``GridLearner`` over all its
rows at once.

``progressive`` folds a step over a stream, keeping each loss's list and
running sum, and names the example in a numeric fault or an invalid label;
``run_stream``, ``nol.evaluate``'s scalar evaluations and
``nol.regret.conditioned_run`` are built on it. A non-finite prediction,
loss, weight, gradient sum, snag sum of squares or loss sum, or a snag
scale of 0, is a ``NumericFault``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .core import Loss, SparseExample, _finite, _nonfinite_reason, clip_prediction, predict
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

    def observe(self, ex: SparseExample):
        """Process one example: squash scales, accumulate N, predict, update.

        Returns (prediction, progressive loss). The loss is measured before
        the update, so averaging it over a stream is progressive validation.
        """
        self.t += 1
        supp = ex.features
        stats = self._stage.stats
        scale = None if stats is None else stats(self, supp)
        yhat = predict(self.w, ex)
        clip_c = self.config.clip_c
        if clip_c is not None:
            yhat = clip_prediction(yhat, clip_c)
        lval, gp = self.loss.value_and_derivative(yhat, ex.label)
        if supp and gp != 0.0:
            _step(self, supp, gp, scale)
        return _finite("prediction", yhat), _finite("loss", lval)

    def state_dump(self) -> dict:
        """What ``nol train`` reports: [index, w, s, G] per feature, N and t.
        Not a restart point: nothing loads it, and snag's sigma is not in it
        (ROADMAP.md, "Learner state as a file")."""
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
# A stats stage updates the stream statistics of a Learner (s, sigma and N;
# observe counts t) and returns the per-coordinate scale of the step. Where
# a feature's scale grows from a nonzero old one, the stage squashes the
# feature's weight, if it has one, by the kind's factor of the old and the
# new scale. A GridLearner computes the same statistics and factors a block
# of examples at a time. Both learners then step every coordinate of the
# support by
#
#     w_i -= (eta * rate) * (gp * u_i) / den_i
#
# where rate is the kind's factor of eta, u_i is x_i / scale_i for ng and
# x_i otherwise, and den_i is scale_i (ng), scale_i * sqrt(G_i) (nag,
# snag), sqrt(G_i) (adagrad) or 1 (sgd), a zero G_i making no step:
# ``_step`` over a Learner's dicts, GridLearner._steps over all its rows at
# once, in the same order of operations. So a grid row matches the scalar
# learner up to the summation order of the prediction and, on logistic
# loss, numpy's exp and log1p, which can round otherwise than libm's.

def _track_max(g, supp):
    """ng/nag: running max |x_i|, w_i times squash(old max, new max) on growth."""
    s, w, squash = g.s, g.w, g._stage.squash
    scale = []
    for i, v in supp:
        av = abs(v)
        si = s.get(i, 0.0)
        if av > si:
            if si > 0.0 and i in w:
                w[i] *= squash(si, av)
            s[i] = si = av
        scale.append(si)
    return _normalize(g, supp, scale)


def _normalize(g, supp, scale):
    """Add sum_i (x_i / scale_i)^2 to N; returns scale. The ratio is taken
    before squaring, so no feature scale overflows or underflows it."""
    r = [v / q for (_, v), q in zip(supp, scale)]
    g.N += math.fsum([ri * ri for ri in r])
    return scale


def _stats_snag(g, supp):
    """snag: running sum s_i of x_i^2 and sigma_i = sqrt(s_i / t), w_i times
    squash(old sigma, new sigma) on growth; a sum of inf or a sigma of 0 faults."""
    s, sigma, t, w, squash = g.s, g.sigma, g.t, g.w, g._stage.squash
    scale = []
    for i, v in supp:
        si = s[i] = s.get(i, 0.0) + v * v
        if si == math.inf:
            raise NumericFault(_nonfinite_reason("sum of squares", si, i))
        sig_new = math.sqrt(si / t)
        if sig_new == 0.0:
            raise NumericFault(f"zero scale at coordinate {i}")
        sig_old = sigma.get(i, 0.0)
        if sig_new > sig_old and sig_old > 0.0 and i in w:
            w[i] *= squash(sig_old, sig_new)
        sigma[i] = sig_new
        scale.append(sig_new)
    return _normalize(g, supp, scale)


# the squash factors of old and new scale, on floats or numpy arrays alike
def _squash_ng(old, new):
    r = old / new
    return r * r


def _ratio(old, new):
    return old / new


# N > 0 at a step: the support is nonempty, N never falls, a first value adds 1 (snag: t)
def _rate_ng(t, N):
    return t / N


def _rate_nag(t, N):
    return math.sqrt(t / N)


def _rate_one(t, N):
    return 1.0


class _Stage(NamedTuple):
    stats: Optional[Callable]    # the stream statistics, None for none
    squash: Optional[Callable]   # the weights' factor from the old and new scale
    rate: Callable               # the factor of eta, from t and N
    sums: bool                   # keeps gradient sums G
    over_scale: bool             # the step takes x_i / scale_i for x_i


# kind -> (stats, squash, rate, keeps G, steps in x / scale)
_STAGES = {
    "ng": _Stage(_track_max, _squash_ng, _rate_ng, False, True),
    "nag": _Stage(_track_max, _ratio, _rate_nag, True, False),
    "snag": _Stage(_stats_snag, _ratio, _rate_nag, True, False),
    "adagrad": _Stage(None, None, _rate_one, True, False),
    "sgd": _Stage(None, None, _rate_one, False, False),
}
KINDS = tuple(_STAGES)


def _step(l: Learner, supp, gp, scale):
    """The step of a Learner over its dicts, the grid's one step in the
    grid's order of operations. eta_decay divides eta by sqrt(t) for the
    kinds without gradient sums, which decay through G."""
    stage, cfg = l._stage, l.config
    eta = cfg.eta / math.sqrt(l.t) if cfg.eta_decay and not stage.sums else cfg.eta
    lr = eta * stage.rate(l.t, l.N)
    w, G, sums, over_scale = l.w, l.G, stage.sums, stage.over_scale
    for (i, v), den in zip(supp, repeat(1.0) if scale is None else scale):
        if over_scale:
            v /= den
        g = gp * v
        if sums:
            Gi = G.get(i, 0.0) + g * g
            if not math.isfinite(Gi):
                raise NumericFault(_nonfinite_reason("gradient sum", Gi, i))
            G[i] = Gi
            if Gi == 0.0:
                continue
            den *= math.sqrt(Gi)   # may underflow to 0: then IEEE 754's lr * g / +0
        wi = w.get(i, 0.0) - (lr * g / den if den else lr * g * math.inf)
        if not math.isfinite(wi):
            raise NumericFault(_nonfinite_reason("weight", wi, i))
        w[i] = wi


# ---------------------------------------------------------------------------
# The grid: stream statistics a block of examples at a time
#
# The statistics read only the stream, so a GridLearner computes them for a
# whole block with numpy before it steps through the block, bitwise as the
# scalar stages do: the running max and the running sum of squares in
# stream order per column (``_scan``), N as one math.fsum per example,
# folded in order, and each rate by the scalar function.

class _Tracker:
    """The stream statistics of one stats stage in a GridLearner, shared by
    its kinds (ng and nag share the running max): t, N and, per column, s
    and (snag) sigma. ``fault`` is set when they fail; the kinds' rows then
    take no step."""

    def __init__(self, stats):
        self.stats = stats
        self.t = 0
        self.N = 0.0
        self.s = None if stats is None else np.zeros(0)
        self.sigma = np.zeros(0) if stats is _stats_snag else None
        self.fault: Optional[str] = None


# A block of examples as GridLearner steps it. Per nonzero, example after
# example: its value x, its place ``local`` in the block's sorted columns
# ``seen`` and, per (nonzero, kind), the squash factor F, the step's u and
# its scale S. Per example: where its nonzeros end (ends[j + 1]), whether it
# holds every column of the block in order (``whole``), and eta's factor per
# kind (``rates``), 0 where the kind takes no step. ``faults`` maps a kind
# whose statistics fail on the block to (example, reason).
_Block = namedtuple("_Block", "examples x ends seen local whole F U S rates faults")


class _GridKind(NamedTuple):
    rows: slice       # its rows of W
    stage: _Stage
    tracker: _Tracker


def _runs(cols):
    """How ``_scan`` visits a block's nonzeros (their columns, in stream
    order) column by column.

    Returns (order, pos, heads, tails, columns). A scan array holds one run
    per column: the value carried into the block at heads[c], then the
    column's nonzeros in stream order, the k-th nonzero of the stable sort
    ``order`` at pos[k]; the run ends before tails[c]. ``columns`` are the
    block's distinct columns, in the order of the runs."""
    order = np.argsort(cols, kind="stable")
    c = cols[order]
    first = np.ones(len(c), dtype=bool)
    np.not_equal(c[1:], c[:-1], out=first[1:])
    pos = np.arange(len(c)) + np.cumsum(first)
    heads = pos[first] - 1
    return order, pos, heads, np.append(heads, len(pos) + len(heads))[1:], c[first]


def _scan(op, runs, state, v):
    """The running op (np.maximum or np.add) of each column's values v in
    stream order, from state[column]: per nonzero, the running value before
    it and after it. With op None each nonzero keeps its own value, so
    before is the column's previous one. state takes each column's last."""
    order, pos, heads, tails, columns = runs
    ext = np.empty(len(pos) + len(heads))
    ext[heads] = state[columns]
    ext[pos] = v[order]
    if op is not None:
        ext[heads + 1] = op(ext[heads], ext[heads + 1])
        longer = tails - heads > 2
        for a, b in zip(heads[longer].tolist(), tails[longer].tolist()):
            op.accumulate(ext[a + 1:b], out=ext[a + 1:b])
    state[columns] = ext[tails - 1]
    before, after = np.empty_like(v), np.empty_like(v)
    before[order] = ext[pos - 1]
    after[order] = ext[pos]
    return before, after


class GridLearner:
    """Learner kinds and one loss at every learning rate of a grid, as the
    rows of one weight matrix, a block of examples at a time.

    Rows are kind-major: row k * len(etas) + j follows
    Learner(LearnerConfig(kinds[k], etas[j], clip_c), loss) up to the
    summation order of the prediction. W holds every row and G the rows of
    the kinds that keep gradient sums; the columns are features in order of
    first appearance, the capacity doubling on demand. A row whose
    prediction, loss, weights or gradient sums turn non-finite is reported
    once, at that example, and retired: reset to zero, and no longer
    checked, so that its later results mean nothing. A kind whose
    statistics fail faults all its rows, and the other kinds go on.
    """

    def __init__(self, kinds: Sequence[str], etas: Sequence[float], loss: Loss,
                 clip_c: Optional[float] = None):
        for kind in kinds:
            for eta in etas:
                LearnerConfig(kind, eta, clip_c)   # the scalar path's validation
        n = len(etas)
        trackers: dict = {}
        self.kinds = []
        for k, kind in enumerate(kinds):
            stage = _STAGES[kind]
            tracker = trackers.setdefault(stage.stats, _Tracker(stage.stats))
            self.kinds.append(_GridKind(slice(k * n, (k + 1) * n), stage, tracker))
        self._trackers = list(trackers.values())
        self.loss = loss
        self.clip_c = clip_c
        self.etas = np.tile(np.array(etas, dtype=float), len(kinds))
        self._live = np.ones(len(self.etas), dtype=bool)   # rows not yet retired
        # feature index -> column of W and G, in order of first appearance
        self.columns: dict = {}
        self.W = np.zeros((len(self.etas), 0))
        # G holds the rows of the kinds that keep gradient sums, none if no
        # kind does: G row j is W row _g_ids[j], and W[_g_rows] selects
        # them, by a slice (so a view) when they are contiguous
        g = self._g_ids = np.array([r for k in self.kinds if k.stage.sums
                                    for r in range(k.rows.start, k.rows.stop)], dtype=np.intp)
        contiguous = len(g) > 0 and g[-1] - g[0] == len(g) - 1
        self._g_rows = slice(g[0], g[-1] + 1) if contiguous else g
        self.G = np.zeros((len(g), 0))
        self._grow(16)

    def _grow(self, capacity: int):
        """Widen W, G and the trackers' columns to capacity."""
        def wide(a):
            return np.concatenate([a, np.zeros(a.shape[:-1] + (capacity - a.shape[-1],))], axis=-1)
        self.W, self.G = wide(self.W), wide(self.G)
        for tr in self._trackers:
            if tr.s is not None:
                tr.s = wide(tr.s)
            if tr.sigma is not None:
                tr.sigma = wide(tr.sigma)

    def observe_block(self, examples: Sequence[SparseExample]):
        """Learner.observe for every row at once, example after example.

        Returns (predictions, progressive losses, faults): the first two
        (examples, rows) arrays, and faults a dict row -> (offset of the
        example in the block, reason) for the rows that turned non-finite.
        The block's columns are gathered and its statistics computed once.
        Non-finite values persist in the block's weights, gradient sums and
        the returned arrays, so they are looked for once, at the end; a
        block that holds one is stepped again from W and G, checking each
        example. Labels are the caller's to check, as in
        ``Loss.values_and_derivatives``.
        """
        block = self._block(examples)
        with np.errstate(all="ignore"):
            Y, L, faults, WT, GT = self._steps(block, checked=bool(block.faults))
            if not block.faults and len(self._nonfinite_rows(Y, L, WT, GT)):
                Y, L, faults, WT, GT = self._steps(block, checked=True)
        self.W[:, block.seen] = WT.T
        self.G[:, block.seen] = GT.T
        return Y, L, faults

    def _block(self, examples) -> _Block:
        """Gather a block's columns, growing W, G and the trackers to hold
        them, and advance the stream statistics over it."""
        columns = self.columns
        feats = [i for ex in examples for i, _ in ex.features]
        cols = np.array([columns.setdefault(i, len(columns)) for i in feats], dtype=np.intp)
        x = np.array([v for ex in examples for _, v in ex.features], dtype=float)
        ends = [0, *accumulate(len(ex.features) for ex in examples)]
        capacity = self.W.shape[1]
        while capacity < len(columns):
            capacity *= 2
        if capacity > self.W.shape[1]:
            self._grow(capacity)
        runs = _runs(cols)
        seen = runs[4]   # sorted, so each nonzero's place in it is a searchsorted
        local = np.searchsorted(seen, cols)
        sizes = np.diff(ends)
        out_of_place = np.cumsum(local != np.arange(len(x)) - np.repeat(ends[:-1], sizes))
        out_of_place = np.append(0, out_of_place)[ends]
        whole = ((sizes == len(seen)) & (out_of_place[1:] == out_of_place[:-1])).tolist()

        K, B = len(self.kinds), len(examples)
        F, U, S = np.ones((len(x), K)), np.zeros((len(x), K)), np.ones((len(x), K))
        rates = np.zeros((B, K))
        faults = {}
        with np.errstate(all="ignore"):
            tracked = {tr: self._track(tr, x, ends, feats, runs)
                       for tr in self._trackers if tr.fault is None}
            for k, gk in enumerate(self.kinds):
                tr = gk.tracker
                if tr not in tracked:   # failed on an earlier block
                    continue
                t0, scale, old, new, Ns = tracked[tr]
                stop = len(Ns)
                a = ends[stop]   # nonzeros from a failing example on take no step
                if scale is not None:
                    grow = np.flatnonzero((new[:a] > old[:a]) & (old[:a] > 0.0))
                    F[grow, k] = gk.stage.squash(old[grow], new[grow])
                    S[:a, k] = scale[:a]
                U[:a, k] = x[:a] / scale[:a] if gk.stage.over_scale else x[:a]
                rate = gk.stage.rate
                rates[:stop, k] = [rate(t0 + j + 1, N) if ends[j] < ends[j + 1] else 0.0
                                   for j, N in enumerate(Ns)]
                if stop < B:
                    faults[k] = (stop, tr.fault)
        return _Block(examples, x, ends, seen, local, whole, F, U, S, rates, faults)

    def _track(self, tr, x, ends, feats, runs):
        """Advance a tracker over the block: (t before it, scale, old and
        new scale per nonzero, N after each example up to the one its
        statistics fail on)."""
        B, t0 = len(ends) - 1, tr.t
        tr.t += B
        if tr.stats is None:
            return t0, None, None, None, [tr.N] * B
        if tr.stats is _track_max:
            new = np.abs(x)
            old, scale = _scan(np.maximum, runs, tr.s, new)
            bad = B
        else:
            _, s = _scan(np.add, runs, tr.s, x * x)
            t = np.repeat(np.arange(t0 + 1, t0 + B + 1, dtype=float), np.diff(ends))  # per nonzero
            scale = new = np.sqrt(s / t)
            old, _ = _scan(None, runs, tr.sigma, new)
            fails = np.flatnonzero((s == math.inf) | (new == 0.0))
            bad = B
            if len(fails):   # the scalar stage's error, at the first failing coordinate
                k = int(fails[0])
                bad = bisect_right(ends, k) - 1
                tr.fault = (_nonfinite_reason("sum of squares", s[k], feats[k])
                            if s[k] == math.inf else f"zero scale at coordinate {feats[k]}")
        r = x / scale
        r2 = (r * r).tolist()
        N, Ns = tr.N, []
        for j in range(bad):
            N += math.fsum(r2[ends[j]:ends[j + 1]])
            Ns.append(N)
        tr.N = N
        return t0, scale, old, new, Ns

    def _steps(self, block: _Block, checked: bool):
        """Predict, score and step every row on each example of the block in
        turn, on a copy of the block's columns of W and G, transposed;
        returns (predictions, losses, faults, the copies). When checked, the
        live rows that an example turns non-finite are retired, each with the
        first fault that Learner.observe meets: in its kind's statistics, then
        coordinate by coordinate in the gradient sum and the weight, then in
        the prediction and the loss."""
        K, R = len(self.kinds), len(self.etas)
        n = R // K
        g_ids, g_rows, clip_c = self._g_ids, self._g_rows, self.clip_c
        x, ends, local, whole, F, U, S = (block.x, block.ends, block.local, block.whole,
                                          block.F, block.U, block.S)
        lrs = (block.rates[:, :, None] * self.etas.reshape(K, n)).reshape(-1, R)
        WT = self.W[:, block.seen].T   # C-ordered: (column, row)
        GT = self.G[:, block.seen].T
        Y, L = np.empty((len(block.examples), R)), np.empty((len(block.examples), R))
        faults = {}
        for j, ex in enumerate(block.examples):
            a, b = ends[j], ends[j + 1]
            m, c = b - a, slice(None) if whole[j] else local[a:b]
            Wx = WT[c]
            Wk = Wx.reshape(m, K, n)
            Wk *= F[a:b, :, None]
            yhat = Y[j]
            # one product per kind, with W's layout: BLAS sums a row in an
            # order that depends on the number of rows and on the layout
            np.matmul(Wk.transpose(1, 2, 0), x[a:b], out=yhat.reshape(K, n))
            if clip_c is not None:
                np.clip(yhat, -clip_c, clip_c, out=yhat)
            lval, gp = self.loss.values_and_derivatives(yhat, ex.label)
            L[j] = lval
            if m and gp.any():
                grad = (gp.reshape(K, n) * U[a:b, :, None]).reshape(m, R)
                step = grad * lrs[j]
                den = np.repeat(S[a:b], n, axis=1)
                g = grad[:, g_rows]
                Gb = GT[c] + g * g
                GT[c] = Gb
                den[:, g_rows] *= np.sqrt(Gb)
                if not Gb.all():   # a zero gradient sum makes no step
                    q, r = np.nonzero(Gb == 0.0)
                    r = g_ids[r]
                    step[q, r], den[q, r] = 0.0, 1.0
                step /= den
                Wx = Wx - step
            WT[c] = Wx
            if checked:
                found = {}   # row -> its first fault
                for k, (at, reason) in block.faults.items():
                    if at == j:
                        rows = self.kinds[k].rows
                        found.update(dict.fromkeys(range(rows.start, rows.stop), reason))
                Gx = GT[c]
                for r in self._nonfinite_rows(yhat[None], lval[None], Wx, Gx).tolist():
                    if r in found:
                        continue
                    g = np.flatnonzero(g_ids == r)
                    cols = [Gx[:, g[0]], Wx[:, r]] if len(g) else [Wx[:, r]]
                    what = ("gradient sum", "weight")[-len(cols):]
                    values = np.column_stack(cols)
                    bad = np.flatnonzero(~np.isfinite(values))  # row-major: by coordinate
                    if len(bad):
                        k, col = divmod(int(bad[0]), len(cols))
                        found[r] = _nonfinite_reason(what[col], values[k, col], ex.features[k][0])
                    elif not math.isfinite(yhat[r]):
                        found[r] = _nonfinite_reason("prediction", yhat[r])
                    else:
                        found[r] = _nonfinite_reason("loss", lval[r])
                rows = [r for r in found if self._live[r]]
                if rows:
                    faults.update((r, (j, found[r])) for r in rows)
                    self._live[rows] = False
                    self.W[rows] = WT[:, rows] = 0.0
                    g = np.isin(g_ids, rows)
                    self.G[g] = GT[:, g] = 0.0
        return Y, L, faults, WT, GT

    def _nonfinite_rows(self, Y, L, WT, GT):
        """The live rows that hold a non-finite value: in Y, L or WT, each
        (..., rows), or in GT, (..., the rows of G)."""
        ok = np.isfinite(Y).all(axis=0) & np.isfinite(L).all(axis=0) & np.isfinite(WT).all(axis=0)
        ok[self._g_ids] &= np.isfinite(GT).all(axis=0)
        return np.flatnonzero(self._live & ~ok)


# ---------------------------------------------------------------------------
# The progressive fold

_SUMS = ("loss sum", "eval loss sum")


def progressive(stream: Iterable[SparseExample], step):
    """Fold step over the stream: step(ex) returns the example's losses, the
    training loss and, in a validation, the eval loss. Returns each loss's
    list and running sum. A sum beyond the float range is a NumericFault, and
    so is an ArithmeticError of step's (the regret lab's float code might
    raise one); it and an InvalidLabel are re-raised naming the example.
    Errors of the stream pass through; an empty one is a ValueError.
    """
    lists, sums = ([], []), [0.0, 0.0]
    n = 0
    for n, ex in enumerate(stream, start=1):
        try:
            losses = step(ex)
            for k, v in enumerate(losses):
                sums[k] = _finite(_SUMS[k], sums[k] + v)
                lists[k].append(v)
        except InvalidLabel as e:
            raise InvalidLabel(f"example {n}: {e}") from e
        except (NumericFault, ArithmeticError) as e:
            raise NumericFault(f"example {n}: {e}") from e
    if n == 0:
        raise ValueError("stream yielded no examples")
    return lists[:len(losses)], sums[:len(losses)]


@dataclass
class RunReport:
    """Progressive-validation trace and final state of one run."""

    losses: list
    predictions: list
    average_loss: float
    n_examples: int
    nonzero_weights: int
    normalizer: float
    state: dict


def run_stream(config: LearnerConfig, loss: Loss, stream: Iterable[SparseExample]) -> RunReport:
    """Fold observe over a stream: the progressive trace and the final state.
    A loss sum beyond the float range is a NumericFault."""
    learner = Learner(config, loss)
    preds = []

    def step(ex):
        yhat, lval = learner.observe(ex)
        preds.append(yhat)
        return (lval,)

    (losses,), (total,) = progressive(stream, step)
    n = len(losses)
    return RunReport(
        losses=losses,
        predictions=preds,
        average_loss=total / n,
        n_examples=n,
        nonzero_weights=sum(1 for v in learner.w.values() if v != 0.0),
        normalizer=learner.N,
        state=learner.state_dump(),
    )
