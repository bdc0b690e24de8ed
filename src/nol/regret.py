"""Empirical verification of the regret guarantees.

The pieces:

* a scaling adversary (``apply_scaling``, ``random_instance``) that hides a
  fixed positive diagonal rescaling of feature space;
* conditioned runs (``conditioned_run``) executing w_{t+1} = w_t - A_t^{-1} g_t
  with the transductive or streaming conditioner, optional per-step projection
  onto the comparator ball, and a ledger (rounds only without projection);
* a certified regret oracle over the L1 ball (``best_in_hindsight``): an
  exact LP for hinge loss and restarted FISTA for the smooth losses, each
  bounding its own suboptimality (the tests cross-check it against a refined
  grid search); both project onto the ball with ``nol.conditioners``' solver;
* numeric evaluators for the telescoping inequality (``lemma1_check``), the
  two-pass bound (``theorem1_check``), the one-pass bound (``theorem2_check``)
  and the warmup quantile bound over random permutations
  (``corollary1_montecarlo``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

import numpy as np
import numpy.random  # numpy 2 imports it lazily: pay at import, not in the first check

from .conditioners import (
    ComparatorBall,
    DiagonalConditioner,
    EnclosingBox,
    SQRT2,
    _project_weighted_l1,
    lemma2_bound,
    project,
)
from .core import Loss, SparseExample, _finite, predict
from .errors import NolError, NumericFault
from .learners import progressive

SLACK_TOL = 1e-6        # bound-check tolerance, after adding the oracle's certified gap
FISTA_GAP_TOL = 1e-9    # FISTA stops at a Frank-Wolfe gap <= this * max(1, |f|)
FISTA_MAX_ITER = 10_000
LP_MAX_PIVOTS = 50_000  # the simplex raises NumericFault past this many pivots
LP_BLAND_AFTER = 50     # pivots in a row without progress before Bland's rule
LP_REFACTOR_EVERY = 100  # pivots between re-inversions of the simplex basis
LP_PIVOT_TOL = 1e-11    # smaller pivots, reduced costs and steps count as zero


# ---------------------------------------------------------------------------
# Scaling adversary

def apply_scaling(stream: Iterable[SparseExample], D: Dict[int, float]):
    """Rescale each feature i by D.get(i, 1); labels unchanged."""
    for d in D.values():
        if not d > 0:
            raise ValueError("scaling diagonal must be strictly positive")
    for ex in stream:
        yield ex.scaled(D)


def random_instance(seed: int, d: int = 3, T: int = 200,
                    classification: bool = True) -> List[SparseExample]:
    """A seeded dense stream with per-coordinate scales spanning 10^{+-2},
    labels from a hidden linear predictor with 10% flips (classification) or
    additive noise (regression)."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-2.0, 2.0, size=d)
    X = rng.uniform(-1.0, 1.0, size=(T, d)) * scales
    w_true = rng.normal(size=d) / scales
    raw = X @ w_true
    if classification:
        y = np.where(raw >= 0, 1.0, -1.0)
        flips = rng.random(T) < 0.1
        y[flips] *= -1.0
    else:
        y = raw + 0.1 * rng.normal(size=T)
    return [
        SparseExample(tuple((j, X[t, j]) for j in range(d) if X[t, j] != 0.0), y[t])
        for t in range(T)
    ]


# ---------------------------------------------------------------------------
# Conditioned runs and the ledger

@dataclass
class LedgerRound:
    x: SparseExample
    gprime: float
    A: Dict[int, float]
    w: Dict[int, float]  # weights *before* this round's update


@dataclass
class RegretLedger:
    """Everything the bound evaluators need from one conditioned run;
    total_loss is the progressive fold's loss sum, and rounds are recorded
    only for a run without projection, the one lemma1_check reads."""

    C: float
    rounds: List[LedgerRound] = field(default_factory=list)
    sum_g2: Dict[int, float] = field(default_factory=dict)
    box: EnclosingBox = field(default_factory=EnclosingBox)
    first_abs: Dict[int, float] = field(default_factory=dict)
    total_loss: float = 0.0

    def comparator_loss(self, loss: Loss, w: Dict[int, float]) -> float:
        total = 0.0
        for r in self.rounds:
            total += loss.value(predict(w, r.x), r.x.label)
        return total

    def delta_ratios(self) -> Dict[int, float]:
        """Per coordinate: max |x_i| over the run / first nonzero |x_i|."""
        return {i: self.box.m[i] / f for i, f in self.first_abs.items()}


def conditioned_run(examples: Sequence[SparseExample], loss: Loss, C: float,
                    recipe: str = "streaming", q: int = 1,
                    projection: bool = True) -> RegretLedger:
    """Run the conditioned update over the stream, filling a ledger.

    transductive: the enclosing box is computed in a first full pass and held
    fixed (Eq.-2 style conditioner; projection ball uses the fixed box).
    streaming: the box is a running estimate updated with each example before
    its conditioner is formed (Eq.-3 style; projection ball tracks the box).
    The conditioner, the ledger and the ball share one box.
    """
    if recipe not in ("transductive", "streaming"):
        raise ValueError(f"unknown conditioner recipe {recipe!r}")
    box = EnclosingBox.from_stream(examples) if recipe == "transductive" else EnclosingBox()
    cond = DiagonalConditioner(C, box=box)
    ledger = RegretLedger(C, sum_g2=cond.sum_g2, box=box)
    ball = ComparatorBall(box, C, q)
    w: Dict[int, float] = {}

    def play(ex):
        nonlocal w
        for i, v in ex.features:
            ledger.first_abs.setdefault(i, abs(v))
        yhat = predict(w, ex)
        lval, gp = loss.value_and_derivative(yhat, ex.label)
        _finite("prediction", yhat)
        _finite("loss", lval)
        g = {i: gp * v for i, v in ex.features}
        A = cond.step(g, ex)
        if not projection:
            ledger.rounds.append(LedgerRound(ex, gp, A, dict(w)))
        for i, gi in g.items():
            if gi != 0.0:
                w[i] = w.get(i, 0.0) - gi / A[i]
        if projection:
            w = project(w, A, ball)
        return (lval,)

    _, (ledger.total_loss,) = progressive(examples, play)
    return ledger


# ---------------------------------------------------------------------------
# Regret oracles

def _dense_in_ball_coords(examples, ball: ComparatorBall):
    """Feature matrix in the u = S^{-1/2} w coordinates (entries in [-1,1])."""
    coords = sorted(ball.box.m)
    index = {i: j for j, i in enumerate(coords)}
    T = len(examples)
    Xu = np.zeros((T, len(coords)))
    y = np.zeros(T)
    for t, ex in enumerate(examples):
        y[t] = ex.label
        for i, v in ex.features:
            j = index.get(i)
            if j is not None:
                Xu[t, j] = v / ball.box.m[i]
    return coords, Xu, y


def _project_ball(u: np.ndarray, C: float) -> np.ndarray:
    """Euclidean projection of u onto the L1 ball of radius C: the
    conditioners' solver at unit weights (a plain dict loop beats numpy at
    the oracle's few coordinates)."""
    v = dict(enumerate(u.tolist()))
    v = _project_weighted_l1(v, dict.fromkeys(v, 1.0), C)
    return np.fromiter(v.values(), float, len(v))


class OracleCertificate(NamedTuple):
    """How a hindsight comparator was found, and how far from optimal it is."""

    method: str       # "lp" (hinge) or "fista" (squared, logistic)
    gap: float        # upper bound on (returned loss - minimum loss)
    iterations: int   # simplex pivots (bound flips included) or FISTA steps


def _bounded_simplex(A: np.ndarray, cost: np.ndarray, upper: np.ndarray,
                     x: np.ndarray, at_upper: np.ndarray, basis: np.ndarray):
    """min cost.x s.t. A x = 0, 0 <= x <= upper, from the feasible basis
    ``basis`` with every other x_j at 0 or, where ``at_upper``, at upper_j
    (x holds those values and the basic ones).

    A dense bounded-variable primal simplex (the upper-bounded simplex of
    Chvatal, Linear Programming, 1983) on an explicit basis inverse:
    Dantzig pricing, a ratio test that also takes the entering variable's own
    bound flip, and Bland's smallest-index rule once LP_BLAND_AFTER pivots in
    a row make no progress, which rules out cycling. Updates x, at_upper and
    basis in place; returns (row duals, pivots).
    """
    Binv = np.linalg.inv(A[:, basis])
    stalled = pivots = 0
    while True:
        rc = cost - (cost[basis] @ Binv) @ A
        gain = np.where(at_upper, rc, -rc)
        gain[basis] = 0.0
        bland = stalled >= LP_BLAND_AFTER
        q = int(np.argmax(gain > LP_PIVOT_TOL) if bland else np.argmax(gain))
        if gain[q] <= LP_PIVOT_TOL:
            break
        if pivots == LP_MAX_PIVOTS:
            raise NumericFault(f"LP oracle: no optimum after {pivots} pivots")
        pivots += 1
        step = -1.0 if at_upper[q] else 1.0
        alpha = Binv @ A[:, q]
        rate = -step * alpha             # d x[basis] / d theta
        xb = np.clip(x[basis], 0.0, upper[basis])
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(rate < -LP_PIVOT_TOL, xb / -rate,
                            np.where(rate > LP_PIVOT_TOL, (upper[basis] - xb) / rate,
                                     np.inf))
        r = int(np.argmin(room))
        theta = room[r]
        if bland:
            ties = np.flatnonzero(room <= theta + LP_PIVOT_TOL)
            r = int(ties[np.argmin(basis[ties])])
        if upper[q] <= theta:            # bound flip: the basis stays
            theta = upper[q]
            x[basis] += rate * theta
            x[q] = 0.0 if at_upper[q] else theta
            at_upper[q] = not at_upper[q]
        elif theta == np.inf:
            raise NumericFault("LP oracle: unbounded")
        else:                            # basis[r] leaves at the bound it reached
            x[basis] += rate * theta
            x[q] += step * theta
            leave = basis[r]
            at_upper[leave] = rate[r] > 0.0
            x[leave] = upper[leave] if at_upper[leave] else 0.0
            at_upper[q] = False
            basis[r] = q
            row = Binv[r] / alpha[r]
            Binv -= np.outer(alpha, row)
            Binv[r] = row
            if pivots % LP_REFACTOR_EVERY == 0:  # shed the updates' roundoff
                Binv = np.linalg.inv(A[:, basis])
                x[basis] = 0.0
                x[basis] = Binv @ -(A @ x)
        stalled = stalled + 1 if theta <= LP_PIVOT_TOL else 0
    return np.linalg.solve(A[:, basis].T, cost[basis]), pivots


def _hinge_lp(loss: Loss, Xu: np.ndarray, y: np.ndarray, C: float):
    """Total hinge loss over the L1 ball, solved exactly as the dual LP

        max sum_t a_t - C s  s.t.  |sum_t a_t y_t x_tj| <= s,  0 <= a <= 1,  s >= 0

    (2d rows with their slacks, T+1 columns) by ``_bounded_simplex``. It
    starts from a = 1, s = ||Z 1||_inf, with s and every slack but the tight
    row's basic; that vertex is already optimal when C max|z_tj| <= 1. u is
    read off the row duals. The gap is the primal loss at u minus the dual
    objective recomputed at the clipped a, so it holds whatever the solver's
    roundoff; the basic solution is refined once first, as C times Za's
    roundoff enters that objective. Returns (u, loss, certificate).
    """
    T, d = Xu.shape
    m = 2 * d
    Z = (y[:, None] * Xu).T
    A = np.zeros((m, T + 1 + m))         # columns: a, s, slacks
    A[:d, :T] = Z
    A[d:, :T] = -Z
    A[:, T] = -1.0
    A[:, T + 1:] = np.eye(m)
    cost = np.zeros(T + 1 + m)
    cost[:T] = -1.0
    cost[T] = C
    upper = np.full(T + 1 + m, np.inf)
    upper[:T] = 1.0

    z = Z.sum(axis=1)
    k = int(np.argmax(np.abs(z)))
    tight = k if z[k] >= 0.0 else d + k
    s = abs(z[k])
    x = np.concatenate([np.ones(T), [s], s - z, s + z])
    x[T + 1 + tight] = 0.0
    at_upper = np.zeros(T + 1 + m, dtype=bool)
    at_upper[:T] = True
    basis = np.array([T] + [T + 1 + i for i in range(m) if i != tight])

    mu, pivots = _bounded_simplex(A, cost, upper, x, at_upper, basis)
    u = _project_ball(mu[d:] - mu[:d], C)
    x[basis] -= np.linalg.solve(A[:, basis], A @ x)
    a = np.clip(x[:T], 0.0, 1.0)
    dual = float(a.sum() - C * np.abs(Z @ a).max())
    f = float(loss.values(Xu @ u, y).sum())
    return u, f, OracleCertificate("lp", max(0.0, f - dual), pivots)


def _fista(loss: Loss, Xu: np.ndarray, y: np.ndarray, C: float):
    """Accelerated projected gradient (Beck & Teboulle) for a smooth loss,
    step 1/L with L = smoothness * ||Xu||_F^2, momentum restarted whenever
    it points against the last step (O'Donoghue & Candes).
    Stops on the Frank-Wolfe gap g.u + C ||g||_inf (the dual norm of the
    L1 ball's), an upper bound on f(u) - min f. Returns (u, loss, certificate).
    """
    L = float((Xu * Xu).sum()) * loss.smoothness
    u = v = np.zeros(Xu.shape[1])
    t = 1.0
    for k in range(FISTA_MAX_ITER + 1):
        lvals, dl = loss.values_and_derivatives(Xu @ u, y)
        f = float(lvals.sum())
        g = Xu.T @ dl
        gap = max(0.0, float(g @ u) + C * float(np.abs(g).max()))
        if gap <= FISTA_GAP_TOL * max(1.0, abs(f)) or k == FISTA_MAX_ITER:
            break
        gv = g if v is u else Xu.T @ loss.values_and_derivatives(Xu @ v, y)[1]
        u_new = _project_ball(v - gv / L, C)
        if (v - u_new) @ (u_new - u) > 0.0:  # momentum against the step: restart
            t, v = 1.0, u_new
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            v = u_new + ((t - 1.0) / t_next) * (u_new - u)
            t = t_next
        u = u_new
    return u, f, OracleCertificate("fista", gap, k)


def best_in_hindsight(examples: Sequence[SparseExample], loss: Loss,
                      ball: ComparatorBall):
    """Minimizer of the total loss over the comparator ball, an L1 ball: an
    exact LP for hinge loss, which is not smooth, and FISTA for the others. The
    certificate's gap bounds how far the returned loss is above the minimum.
    Returns (w* as dict, total loss at w*, OracleCertificate).
    """
    if ball.q != 1:
        raise NolError("the hindsight oracle minimizes over the L1 ball only")
    coords, Xu, y = _dense_in_ball_coords(examples, ball)
    if not coords:
        raise NolError("empty comparator ball: no coordinate ever observed nonzero")
    if loss.smoothness is None:
        u_best, f_best, cert = _hinge_lp(loss, Xu, y, ball.C)
    else:
        u_best, f_best, cert = _fista(loss, Xu, y, ball.C)
    # w_i = u_i / m_i  (u lives in the S^{-1/2} coordinates)
    w_star = {i: float(u_best[j]) / ball.box.m[i] for j, i in enumerate(coords)}
    return w_star, f_best, cert


# ---------------------------------------------------------------------------
# Bound reports

@dataclass
class BoundReport:
    check: str
    empirical_regret: float
    bound_value: float
    slack: float                 # bound - (regret + the oracle's certified gap)
    passed: bool
    components: Dict[str, float] = field(default_factory=dict)
    oracle: Optional[OracleCertificate] = None


def lemma1_check(ledger: RegretLedger, loss: Loss, w: Dict[int, float]) -> BoundReport:
    """Evaluate 2 R_T <= ||w_1 - w||^2_{A_1} + sum_t ||w_t - w||^2_{A_t - A_{t-1}}
    + sum_t g_t^T A_t^{-1} g_t against an arbitrary comparator w.

    Requires a no-projection run; regret here is measured against the
    supplied w, not the constrained minimizer. The conditioner-increment sum
    applies each diagonal increment at the iterate holding when the larger
    conditioner first acts, which is the telescoping that the conditioned
    update satisfies round by round.
    """
    rounds = ledger.rounds
    if not rounds:
        raise NolError("lemma1_check requires a no-projection ledger")

    regret = ledger.total_loss - ledger.comparator_loss(loss, w)

    # w_1 = 0, as conditioned_run starts from {}; and the support of A only
    # grows, so each round's increments lie on its own A's keys
    A1 = rounds[0].A
    first_term = sum(A1.get(i, 0.0) * wi * wi for i, wi in w.items())

    increment_sum = 0.0
    for prev, cur in zip(rounds, rounds[1:]):
        for i, Ai in cur.A.items():
            dA = Ai - prev.A.get(i, 0.0)
            if dA != 0.0:
                diff = cur.w.get(i, 0.0) - w.get(i, 0.0)
                increment_sum += dA * diff * diff

    grad_sum = 0.0
    for r in rounds:
        for i, v in r.x.features:
            gi = r.gprime * v
            if gi != 0.0:
                grad_sum += gi * gi / r.A[i]

    bound = first_term + increment_sum + grad_sum
    slack = bound - 2.0 * regret
    return BoundReport(
        check="lemma1",
        empirical_regret=regret,
        bound_value=bound,
        slack=slack,
        passed=slack >= -SLACK_TOL,
        components={
            "initial_distance": first_term,
            "conditioner_increments": increment_sum,
            "gradient_sum": grad_sum,
        },
    )


def _against_hindsight(check: str, examples: Sequence[SparseExample], loss: Loss,
                       ledger: RegretLedger, bound: float,
                       components: Dict[str, float]) -> BoundReport:
    """The report of a projected run's regret against the best comparator in
    hindsight over its L1 ball. The oracle's loss is at most cert.gap above
    the true minimum, so the true regret is at most regret + cert.gap, and
    the slack counts that."""
    ball = ComparatorBall(ledger.box, ledger.C, q=1)
    _, wstar_loss, cert = best_in_hindsight(examples, loss, ball)
    regret = ledger.total_loss - wstar_loss
    slack = bound - (regret + cert.gap)
    return BoundReport(
        check=check,
        empirical_regret=regret,
        bound_value=bound,
        slack=slack,
        passed=slack >= -SLACK_TOL,
        components=components,
        oracle=cert,
    )


def theorem1_check(examples: Sequence[SparseExample], loss: Loss, C: float) -> BoundReport:
    """Two-pass conditioner with per-step projection:
    R_T <= 2 sqrt(2) C sum_i sqrt(S_ii sum_j g_ji^2)."""
    ledger = conditioned_run(examples, loss, C, recipe="transductive")
    bound = 2.0 * SQRT2 * lemma2_bound(ledger.sum_g2, ledger.box, C)
    return _against_hindsight("theorem1", examples, loss, ledger, bound,
                              {"lemma2_bound": bound / (2.0 * SQRT2)})


def theorem2_components(ledger: RegretLedger) -> Dict[int, float]:
    """Per-coordinate terms C * (sqrt(sum g^2)/max|x_i|) * (1+6D+D^2)/(2 sqrt 2)."""
    deltas = ledger.delta_ratios()
    out = {}
    for i, s in ledger.sum_g2.items():
        D = deltas[i]
        factor = (1.0 + 6.0 * D + D * D) / (2.0 * SQRT2)
        out[i] = ledger.C * (math.sqrt(s) / ledger.box.m[i]) * factor
    return out


def theorem2_check(examples: Sequence[SparseExample], loss: Loss, C: float) -> BoundReport:
    """One-pass conditioner with projection onto the running box's ball:
    R_T <= C sum_i (sqrt(sum g^2)/max|x_i|) (1 + 6 Delta_i + Delta_i^2)/(2 sqrt 2)."""
    ledger = conditioned_run(examples, loss, C, recipe="streaming")
    per_coord = theorem2_components(ledger)
    return _against_hindsight("theorem2", examples, loss, ledger, sum(per_coord.values()),
                              {str(i): v for i, v in per_coord.items()})


# ---------------------------------------------------------------------------
# Corollary 1

def corollary1_tau(d: int, delta: float, nu: float) -> int:
    """tau = ceil(ln(d / delta) / nu), natural log."""
    for name, value in (("delta", delta), ("nu", nu)):
        if not 0 < value < 1:
            raise ValueError(f"require {name} in (0, 1), got {value!r}")
    if d < 1:
        raise ValueError(f"require d >= 1, got {d!r}")
    return math.ceil(math.log(d / delta) / nu)


def corollary1_montecarlo(examples: Sequence[SparseExample], d: int, delta: float,
                          nu: float, n_permutations: int = 500, seed: int = 0) -> dict:
    """Fraction of random permutations for which some Delta_i exceeds its
    quantile bound; the high-probability claim puts this at <= delta, checked
    here against delta + 3 sigma binomial slack. Delta_i is max_t |x_ti| over
    max_{t<=tau} |x_ti|, and its bound max_t |x_ti| / Quantile(|x_i|, 1-nu)."""
    if n_permutations < 1:
        raise ValueError(f"require n_permutations >= 1, got {n_permutations!r}")
    tau = corollary1_tau(d, delta, nu)
    T = len(examples)
    M = np.zeros((T, d))  # |x_ti|
    for t, ex in enumerate(examples):
        for i, v in ex.features:
            if i < d:
                M[t, i] = abs(v)
    total_max = M.max(axis=0)
    active = np.flatnonzero(total_max > 0.0)
    # the smallest value with >= ceil((1 - nu) T) values <= it; a zero one bounds by inf
    quantiles = np.quantile(M[:, active], 1.0 - nu, axis=0, method="inverted_cdf")
    with np.errstate(divide="ignore"):
        bound = total_max[active] / quantiles

    rng = np.random.default_rng(seed)
    violations = 0
    eps = 1e-12
    for _ in range(n_permutations):
        perm = rng.permutation(T)
        prefix = M[perm[: min(tau, T)]].max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            deltas = np.where(prefix > 0.0, total_max / prefix, np.inf)
        if np.any(deltas[active] > bound + eps):
            violations += 1
    frac = violations / n_permutations
    sigma = math.sqrt(delta * (1.0 - delta) / n_permutations)
    return {
        "tau": tau,
        "violation_fraction": frac,
        "threshold": delta + 3.0 * sigma,
        "passed": frac <= delta + 3.0 * sigma,
        "n_permutations": n_permutations,
    }
