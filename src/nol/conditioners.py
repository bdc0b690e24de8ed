"""Diagonal conditioners for the update w_{t+1} = w_t - A_t^{-1} g_t.

Three recipes produce the diagonal A_t:

* hindsight    -- the minimax-optimal fixed diagonal, computable only after
                  the full gradient log is known;
* transductive -- two-pass: the enclosing box S is learned on a first pass,
                  gradients accumulate online on the second;
* streaming    -- one-pass: both the box and the gradient sums are running
                  estimates.

``DiagonalConditioner`` runs the last two, given the first pass's box or an
empty one.

The module also provides the metric projection onto the comparator ball
{w : ||S^{-1/2} w||_q <= C} for q in {1, 2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping

from .core import SparseExample, _nonfinite_reason
from .errors import NumericFault

SQRT2 = math.sqrt(2.0)


@dataclass
class EnclosingBox:
    """Per-coordinate running max |x_i|; the minimum-volume axis-aligned box.

    S_ii = 1 / m_i^2 on the support; coordinates never seen nonzero have no
    S entry and are excluded from conditioning and projection.
    """

    m: Dict[int, float] = field(default_factory=dict)

    def update(self, x: SparseExample):
        m = self.m
        for i, v in x.features:
            av = abs(v)
            if av > m.get(i, 0.0):
                m[i] = av

    def s_ii(self, i: int) -> float:
        return 1.0 / (self.m[i] * self.m[i])

    @classmethod
    def from_stream(cls, stream) -> "EnclosingBox":
        box = cls()
        for ex in stream:
            box.update(ex)
        return box


@dataclass
class ComparatorBall:
    """The bounded-output comparator class {w : ||S^{-1/2} w||_q <= C}.

    Coordinates outside the box support require w_i = 0.
    """

    box: EnclosingBox
    C: float
    q: int = 1

    def __post_init__(self):
        if not 0 < self.C < math.inf:
            raise ValueError("C must be finite and strictly positive")
        if self.q not in (1, 2):
            raise ValueError("q must be 1 or 2")

    def norm(self, w: Mapping[int, float]) -> float:
        """||S^{-1/2} w||_q over the box support; infinite if w is nonzero
        off-support."""
        m = self.box.m
        total = 0.0
        for i, wi in w.items():
            if wi == 0.0:
                continue
            if i not in m:
                return math.inf
            u = abs(wi) * m[i]
            total += u if self.q == 1 else u * u
        return total if self.q == 1 else math.sqrt(total)

    def contains(self, w: Mapping[int, float]) -> bool:
        return self.norm(w) <= self.C + 1e-9


@dataclass
class DiagonalConditioner:
    """Running state of the transductive and streaming conditioner recipes,
    which differ only in the box they start from: the full pass's for
    transductive, an empty one for streaming. Each step folds its input into
    the box, a no-op for the transductive box, which already holds every
    example's max. A_t is returned as a dict over the coordinates with
    nonzero gradient mass, at the step size eta = sqrt(2) that the
    Theorem 1 and 2 bounds are written for. A gradient sum that overflows,
    or a nonzero gradient whose entry underflows to 0, is a NumericFault:
    the update divides by the entry."""

    C: float
    box: EnclosingBox = field(default_factory=EnclosingBox)
    sum_g2: Dict[int, float] = field(default_factory=dict)

    def step(self, g: Mapping[int, float], x: SparseExample) -> Dict[int, float]:
        """Fold in the round-t gradient and input and return the current
        diagonal A_t."""
        self.box.update(x)
        for i, gi in g.items():
            if gi != 0.0:
                s = self.sum_g2[i] = self.sum_g2.get(i, 0.0) + gi * gi
                if not math.isfinite(s):
                    raise NumericFault(_nonfinite_reason("gradient sum", s, i))
        inv_ceta = 1.0 / (self.C * SQRT2)
        m = self.box.m
        A = {i: inv_ceta * math.sqrt(s) * m[i] for i, s in self.sum_g2.items()}
        for i, gi in g.items():
            if gi != 0.0 and A[i] == 0.0:
                raise NumericFault(f"conditioner entry underflows to 0 at coordinate {i}")
        return A


def hindsight_conditioner(sum_g2: Mapping[int, float], box: EnclosingBox,
                          C: float) -> Dict[int, float]:
    """Minimax-optimal fixed diagonal for a completed gradient log:
    A*_ii = (1/C) sqrt(sum_t g_ti^2 / S_ii) = (1/C) sqrt(sum g^2) * m_i.

    Coordinates with zero gradient mass or never observed are excluded.
    """
    out = {}
    for i, s in sum_g2.items():
        if s > 0.0 and i in box.m:
            out[i] = math.sqrt(s / box.s_ii(i)) / C
    return out


def lemma2_bound(sum_g2: Mapping[int, float], box: EnclosingBox, C: float) -> float:
    """Regret bound at the hindsight conditioner:
    C * sum_i sqrt(S_ii * sum_t g_ti^2).

    Invariant under per-coordinate rescaling of the logged run.
    """
    total = 0.0
    for i, s in sum_g2.items():
        if s > 0.0 and i in box.m:
            total += math.sqrt(box.s_ii(i) * s)
    return C * total


def _project_weighted_l1(u: Dict[int, float], d: Dict[int, float], C: float) -> Dict[int, float]:
    """min sum d_i (v_i - u_i)^2 s.t. sum |v_i| <= C, by exact sort-based
    thresholding of the KKT conditions (soft threshold lambda/(2 d_i)). A
    feasible u is returned itself."""
    if sum(abs(v) for v in u.values()) <= C:
        return u
    items = []
    for i, ui in u.items():
        a = abs(ui)
        theta = 1.0 / (2.0 * d[i])
        items.append((a / theta, i, a, theta))
    items.sort(reverse=True)
    cum_a = 0.0
    cum_theta = 0.0
    n = len(items)
    for k, (b, i, a, theta) in enumerate(items):
        cum_a += a
        cum_theta += theta
        lam = (cum_a - C) / cum_theta
        next_b = items[k + 1][0] if k + 1 < n else -math.inf
        if lam >= next_b and lam <= b:
            break
    out = {}
    for i, ui in u.items():
        mag = abs(ui) - lam / (2.0 * d[i])
        out[i] = math.copysign(mag, ui) if mag > 0.0 else 0.0
    return out


def _project_weighted_l2(u: Dict[int, float], d: Dict[int, float], C: float) -> Dict[int, float]:
    """min sum d_i (v_i - u_i)^2 s.t. ||v||_2 <= C: v_i = d_i u_i / (d_i + lam),
    with lam the root of the secular equation sum v_i(lam)^2 = C^2 (the
    trust-region subproblem's; More & Sorensen, 1983). Its left side is convex
    and decreasing in lam, so Newton's iterates from lam = 0 rise
    monotonically to the root, with no bracket; they stop once roundoff ends
    the rise. A feasible u is returned itself."""
    if math.sqrt(sum(v * v for v in u.values())) <= C:
        return u

    keys = list(u)
    lam = 0.0
    while True:
        v = [d[i] * u[i] / (d[i] + lam) for i in keys]
        excess = sum(vi * vi for vi in v) - C * C
        slope = 2.0 * sum(vi * vi / (d[i] + lam) for vi, i in zip(v, keys))
        if not (excess > 0.0 and slope > 0.0):
            break
        nxt = lam + excess / slope
        if not nxt > lam:
            break
        lam = nxt
    return {i: d[i] * u[i] / (d[i] + lam) for i in keys}


def project(w: Mapping[int, float], A: Mapping[int, float], ball: ComparatorBall) -> Dict[int, float]:
    """Metric projection argmin_{||S^{-1/2} v||_q <= C} (v - w)^T A (v - w).

    Solved in the variables u = S^{-1/2} w (u_i = m_i w_i) where the metric
    becomes diag(A_ii S_ii) and the constraint a plain q-norm ball.
    Coordinates with A_ii = 0 or outside the box support pass through
    unchanged; already-feasible inputs are returned exactly. A metric entry
    A_ii S_ii that is 0 (m_i^2 overflows) is a NumericFault naming i.
    """
    m = ball.box.m
    active = {}
    passthrough = {}
    for i, wi in w.items():
        if A.get(i, 0.0) > 0.0 and i in m:
            active[i] = wi
        else:
            passthrough[i] = wi

    u = {i: active[i] * m[i] for i in active}
    d = {i: A[i] / (m[i] * m[i]) for i in active}
    zero = next((i for i, di in d.items() if di == 0.0), None)
    if zero is not None:   # m_i^2 overflowed: the solvers divide by d_i
        raise NumericFault(f"zero projection weight at coordinate {zero}")
    solve = _project_weighted_l1 if ball.q == 1 else _project_weighted_l2
    proj = solve(u, d, ball.C)
    if proj is u:   # feasible: w itself, not (w_i m_i) / m_i, which can be off by an ulp
        return dict(w)
    out = dict(passthrough)
    for i, ui in proj.items():
        out[i] = ui / m[i]
    return out
