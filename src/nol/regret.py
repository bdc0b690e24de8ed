"""Empirical verification of the regret guarantees.

The pieces:

* a scaling adversary (``apply_scaling``, ``random_instance``) that hides a
  fixed positive diagonal rescaling of feature space;
* conditioned runs (``conditioned_run``) executing w_{t+1} = w_t - A_t^{-1} g_t
  with the transductive or streaming conditioner, optional per-step projection
  onto the comparator ball, and a full per-round ledger;
* a regret oracle (``best_in_hindsight``) with two independent routes: a
  certified one (an exact LP for hinge loss, restarted FISTA for the smooth
  losses), which bounds its own suboptimality, and a refined grid search
  over the feasible set as the cross-check;
* numeric evaluators for the telescoping inequality (``lemma1_check``), the
  two-pass bound (``theorem1_check``), the one-pass bound (``theorem2_check``)
  and the exchangeable-sequence quantities (``corollary1_quantities``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence

import numpy as np

from .conditioners import (
    ComparatorBall,
    DiagonalConditioner,
    EnclosingBox,
    SQRT2,
    lemma2_bound,
    project,
)
from .core import Loss, SparseExample, clip_prediction
from .errors import NolError

SLACK_TOL = 1e-6        # bound-check tolerance, after adding the oracle's certified gap
FISTA_GAP_TOL = 1e-9    # FISTA stops at a Frank-Wolfe gap <= this * max(1, |f|)
FISTA_MAX_ITER = 10_000


# ---------------------------------------------------------------------------
# Scaling adversary

def apply_scaling(stream: Iterable[SparseExample], D: Dict[int, float]):
    """Rescale each feature i by D.get(i, 1); labels unchanged."""
    for d in D.values():
        if not d > 0:
            raise ValueError("scaling diagonal must be strictly positive")
    for ex in stream:
        yield ex.scaled(D)


def random_instance(seed: int, d: int = 3, T: int = 200, classification: bool = True,
                    scale_span: float = 2.0) -> List[SparseExample]:
    """A seeded dense stream with per-coordinate scales spanning
    10^{+-scale_span}, labels from a hidden linear predictor with 10% flips
    (classification) or additive noise (regression)."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-scale_span, scale_span, size=d)
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
    yhat: float
    loss: float
    gprime: float
    A: Dict[int, float]
    w: Dict[int, float]  # weights *before* this round's update


@dataclass
class RegretLedger:
    """Everything the bound evaluators need from one conditioned run."""

    loss_kind: str
    C: float
    eta: float
    recipe: str
    projected: bool
    clipped: bool
    rounds: List[LedgerRound] = field(default_factory=list)
    sum_g2: Dict[int, float] = field(default_factory=dict)
    box: EnclosingBox = field(default_factory=EnclosingBox)
    first_abs: Dict[int, float] = field(default_factory=dict)

    @property
    def total_loss(self) -> float:
        return sum(r.loss for r in self.rounds)

    def comparator_loss(self, loss: Loss, w: Dict[int, float]) -> float:
        total = 0.0
        for r in self.rounds:
            pred = sum(w.get(i, 0.0) * v for i, v in r.x.features)
            total += loss.value(pred, r.x.label)
        return total

    def delta_ratios(self) -> Dict[int, float]:
        """Per coordinate: max |x_i| over the run / first nonzero |x_i|."""
        return {i: self.box.m[i] / f for i, f in self.first_abs.items()}


def conditioned_run(examples: Sequence[SparseExample], loss: Loss, C: float,
                    recipe: str = "streaming", q: int = 1, projection: bool = True,
                    clip: bool = False, eta: float = SQRT2) -> RegretLedger:
    """Run the conditioned update over the stream, filling a ledger.

    transductive: the enclosing box is computed in a first full pass and held
    fixed (Eq.-2 style conditioner; projection ball uses the fixed box).
    streaming: the box is a running estimate updated with each example before
    its conditioner is formed (Eq.-3 style; projection ball tracks the box).
    """
    ledger = RegretLedger(loss.kind, C, eta, recipe, projection, clip)
    if recipe == "transductive":
        full_box = EnclosingBox.from_stream(examples)
        cond = DiagonalConditioner(recipe, C, eta, box=full_box)
        ledger.box = full_box
    else:
        cond = DiagonalConditioner(recipe, C, eta)
        ledger.box = cond.box

    w: Dict[int, float] = {}
    for ex in examples:
        for i, v in ex.features:
            if i not in ledger.first_abs:
                ledger.first_abs[i] = abs(v)
        yhat = sum(w.get(i, 0.0) * v for i, v in ex.features)
        if clip:
            yhat = clip_prediction(yhat, C)
        lval, gp = loss.value_and_derivative(yhat, ex.label)
        g = {i: gp * v for i, v in ex.features}
        A = cond.step(g, ex)
        ledger.rounds.append(LedgerRound(ex, yhat, lval, gp, dict(A), dict(w)))
        for i, gi in g.items():
            Ai = A.get(i, 0.0)
            if Ai > 0.0 and gi != 0.0:
                w[i] = w.get(i, 0.0) - gi / Ai
        if projection:
            ball = ComparatorBall(cond.box, C, q)
            w = project(w, A, ball)
    ledger.sum_g2 = dict(cond.sum_g2)
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


def _batch_project_l1(P: np.ndarray, C: float) -> np.ndarray:
    """Project each row of P onto the L1 ball of radius C (Duchi-style
    sort and threshold, vectorized over rows)."""
    norms = np.abs(P).sum(axis=1)
    out = P.copy()
    over = norms > C
    if not over.any():
        return out
    Q = np.abs(P[over])
    S = -np.sort(-Q, axis=1)
    css = np.cumsum(S, axis=1)
    ks = np.arange(1, Q.shape[1] + 1)
    cond = S - (css - C) / ks > 0
    rho = cond.shape[1] - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = (css[np.arange(len(rho)), rho] - C) / (rho + 1)
    out[over] = np.sign(P[over]) * np.maximum(Q - theta[:, None], 0.0)
    return out


def _project_ball(u: np.ndarray, C: float, q: int) -> np.ndarray:
    if q == 1:
        return _batch_project_l1(u[None, :], C)[0]
    norm = np.linalg.norm(u)
    return u if norm <= C else u * (C / norm)


def grid_minimize(objective_batch, d: int, C: float, q: int,
                  n_per_axis: int = 33, levels: int = 18):
    """Coarse-to-fine grid search over the q-norm ball of radius C.

    objective_batch maps an (n_points, d) array to an (n_points,) array of
    objective values. Each level recenters a full grid on the incumbent and
    halves the half-width; the halving keeps the optimum covered even under
    strongly anisotropic objectives, and the final per-axis resolution is
    far below C/1000. Returns (argmin, min value).
    """
    center = np.zeros(d)
    half = C
    best_u, best_f = None, math.inf
    for _ in range(levels):
        axes = [np.linspace(center[j] - half, center[j] + half, n_per_axis)
                for j in range(d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        if q == 1:
            pts = _batch_project_l1(pts, C)
        else:
            norms = np.linalg.norm(pts, axis=1)
            over = norms > C
            pts[over] *= (C / norms[over])[:, None]
        vals = objective_batch(pts)
        k = int(np.argmin(vals))
        if vals[k] < best_f:
            best_f = float(vals[k])
            best_u = pts[k].copy()
        center = best_u
        half *= 0.5
    return best_u, best_f


class OracleCertificate(NamedTuple):
    """How a hindsight comparator was found, and how far from optimal it is."""

    method: str       # "lp", "fista" or "grid"
    gap: float        # upper bound on (returned loss - minimum loss); inf for grid
    iterations: int   # LP solver iterations or FISTA steps; 0 for grid


def _hinge_lp(loss: Loss, Xu: np.ndarray, y: np.ndarray, C: float):
    """Total hinge loss over the L1 ball, solved exactly as the dual LP

        max sum_t a_t - C s  s.t.  |sum_t a_t y_t x_tj| <= s,  0 <= a <= 1,  s >= 0

    (2d rows, T+1 columns). u is read off the row multipliers. The gap is the
    primal loss at u minus the dual objective recomputed at the clipped a, so
    it holds whatever the solver's tolerances. Returns (u, loss, certificate).
    """
    from scipy.optimize import linprog

    T, d = Xu.shape
    Z = (y[:, None] * Xu).T
    ones = np.ones((d, 1))
    res = linprog(np.append(-np.ones(T), C),
                  A_ub=np.block([[Z, -ones], [-Z, -ones]]), b_ub=np.zeros(2 * d),
                  bounds=[(0.0, 1.0)] * T + [(0.0, None)], method="highs")
    if res.status != 0:
        raise NolError(f"hinge LP oracle failed: {res.message}")
    mu = res.ineqlin.marginals
    u = _project_ball(mu[d:] - mu[:d], C, 1)
    a = np.clip(res.x[:T], 0.0, 1.0)
    dual = float(a.sum() - C * np.abs(Z @ a).max())
    f = float(loss.values(Xu @ u, y).sum())
    return u, f, OracleCertificate("lp", max(0.0, f - dual), int(res.nit))


def _fista(loss: Loss, Xu: np.ndarray, y: np.ndarray, C: float, q: int):
    """Accelerated projected gradient (Beck & Teboulle) for squared and
    logistic loss, step 1/L with L from the Frobenius norm of Xu, momentum
    restarted whenever it points against the last step (O'Donoghue & Candes).
    Stops on the Frank-Wolfe gap g.u + C ||g||_* (the dual norm of the ball's
    q-norm), an upper bound on f(u) - min f. Returns (u, loss, certificate).
    """
    L = float((Xu * Xu).sum()) * (0.25 if loss.kind == "logistic" else 2.0)
    dual_ord = np.inf if q == 1 else 2
    u = v = np.zeros(Xu.shape[1])
    t = 1.0
    for k in range(FISTA_MAX_ITER + 1):
        lvals, dl = loss.values_and_derivatives(Xu @ u, y)
        f = float(lvals.sum())
        g = Xu.T @ dl
        gap = max(0.0, float(g @ u) + C * float(np.linalg.norm(g, dual_ord)))
        if gap <= FISTA_GAP_TOL * max(1.0, abs(f)) or k == FISTA_MAX_ITER:
            break
        gv = g if v is u else Xu.T @ loss.values_and_derivatives(Xu @ v, y)[1]
        u_new = _project_ball(v - gv / L, C, q)
        if (v - u_new) @ (u_new - u) > 0.0:  # momentum against the step: restart
            t, v = 1.0, u_new
        else:
            t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
            v = u_new + ((t - 1.0) / t_next) * (u_new - u)
            t = t_next
        u = u_new
    return u, f, OracleCertificate("fista", gap, k)


def best_in_hindsight(examples: Sequence[SparseExample], loss: Loss,
                      ball: ComparatorBall, method: str = "certified"):
    """Minimizer of the total loss over the comparator ball.

    method "certified": an exact LP for hinge loss (L1 ball only) and FISTA
    for squared and logistic loss; the certificate's gap bounds how far the
    returned loss is above the minimum.
    method "grid": refined grid search over the feasible set (d <= 3), the
    independent cross-check; it certifies nothing (gap inf).
    Returns (w* as dict, total loss at w*, OracleCertificate).
    """
    coords, Xu, y = _dense_in_ball_coords(examples, ball)
    d = len(coords)
    if d == 0:
        raise NolError("empty comparator ball: no coordinate ever observed nonzero")

    if method == "grid":
        if d > 3:
            raise NolError("grid oracle supports d <= 3")

        def objective(P):
            return loss.values(P @ Xu.T, y).sum(axis=1)

        u_best, f_best = grid_minimize(objective, d, ball.C, ball.q)
        cert = OracleCertificate("grid", math.inf, 0)
    elif method == "certified":
        if loss.kind == "hinge":
            if ball.q != 1:
                raise NolError("the hinge-loss oracle is an LP over the L1 ball only")
            u_best, f_best, cert = _hinge_lp(loss, Xu, y, ball.C)
        else:
            u_best, f_best, cert = _fista(loss, Xu, y, ball.C, ball.q)
    else:
        raise ValueError(f"unknown oracle method {method!r}")

    # w_i = u_i / m_i  (u lives in the S^{-1/2} coordinates)
    w_star = {i: float(u_best[j]) / ball.box.m[i] for j, i in enumerate(coords)}
    return w_star, f_best, cert


def empirical_regret(learner_total_loss: float, comparator_total_loss: float) -> float:
    """R_T = learner's summed progressive loss minus the comparator's."""
    return learner_total_loss - comparator_total_loss


# ---------------------------------------------------------------------------
# Bound reports

@dataclass
class BoundReport:
    check: str
    empirical_regret: float
    bound_value: float
    slack: float                 # bound - (regret + the oracle's certified gap)
    raw_slack: float             # bound - regret
    passed: bool
    components: Dict[str, float] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    oracle: Optional[OracleCertificate] = None


def _norm_A(diff: Dict[int, float], A: Dict[int, float]) -> float:
    return sum(A.get(i, 0.0) * v * v for i, v in diff.items())


def lemma1_check(ledger: RegretLedger, loss: Loss, w: Dict[int, float]) -> BoundReport:
    """Evaluate 2 R_T <= ||w_1 - w||^2_{A_1} + sum_t ||w_t - w||^2_{A_t - A_{t-1}}
    + sum_t g_t^T A_t^{-1} g_t against an arbitrary comparator w.

    Requires a no-projection run; regret here is measured against the
    supplied w, not the constrained minimizer. The conditioner-increment sum
    applies each diagonal increment at the iterate holding when the larger
    conditioner first acts, which is the telescoping that the conditioned
    update satisfies round by round.
    """
    if ledger.projected:
        raise NolError("lemma1_check requires a no-projection ledger")
    rounds = ledger.rounds
    if not rounds:
        raise NolError("empty ledger")

    regret = ledger.total_loss - ledger.comparator_loss(loss, w)

    r1 = rounds[0]
    diff1 = {i: r1.w.get(i, 0.0) - wi for i, wi in w.items()}
    for i, wi in r1.w.items():
        if i not in diff1:
            diff1[i] = wi
    first_term = _norm_A(diff1, r1.A)

    increment_sum = 0.0
    for k in range(1, len(rounds)):
        prev_A, cur = rounds[k - 1].A, rounds[k]
        keys = set(cur.A) | set(prev_A) | set(w) | set(cur.w)
        for i in keys:
            dA = cur.A.get(i, 0.0) - prev_A.get(i, 0.0)
            if dA != 0.0:
                diff = cur.w.get(i, 0.0) - w.get(i, 0.0)
                increment_sum += dA * diff * diff

    grad_sum = 0.0
    for r in rounds:
        for i, v in r.x.features:
            gi = r.gprime * v
            Ai = r.A.get(i, 0.0)
            if Ai > 0.0:
                grad_sum += gi * gi / Ai
            elif gi != 0.0:
                raise NolError(f"missing conditioner entry for active coordinate {i}")

    bound = first_term + increment_sum + grad_sum
    slack = bound - 2.0 * regret
    return BoundReport(
        check="lemma1",
        empirical_regret=regret,
        bound_value=bound,
        slack=slack,
        raw_slack=slack,
        passed=slack >= -SLACK_TOL,
        components={
            "initial_distance": first_term,
            "conditioner_increments": increment_sum,
            "gradient_sum": grad_sum,
        },
    )


def _widened_report(check: str, regret: float, cert: OracleCertificate,
                    bound: float, components: Dict[str, float],
                    extras: Optional[dict] = None) -> BoundReport:
    # The oracle's loss is at most cert.gap above the true minimum, so the
    # true regret is at most regret + cert.gap.
    slack = bound - (regret + cert.gap)
    return BoundReport(
        check=check,
        empirical_regret=regret,
        bound_value=bound,
        slack=slack,
        raw_slack=bound - regret,
        passed=slack >= -SLACK_TOL,
        components=components,
        extras=extras or {},
        oracle=cert,
    )


def theorem1_check(examples: Sequence[SparseExample], loss: Loss, C: float) -> BoundReport:
    """Two-pass conditioner with per-step projection:
    R_T <= 2 sqrt(2) C sum_i sqrt(S_ii sum_j g_ji^2)."""
    ledger = conditioned_run(examples, loss, C, recipe="transductive",
                             q=1, projection=True)
    bound = 2.0 * SQRT2 * lemma2_bound(ledger.sum_g2, ledger.box, C)
    ball = ComparatorBall(ledger.box, C, q=1)
    _, wstar_loss, cert = best_in_hindsight(examples, loss, ball)
    regret = empirical_regret(ledger.total_loss, wstar_loss)
    return _widened_report("theorem1", regret, cert, bound,
                           {"lemma2_bound": bound / (2.0 * SQRT2)},
                           {"learner_loss": ledger.total_loss,
                            "comparator_loss": wstar_loss})


def theorem2_components(ledger: RegretLedger) -> Dict[int, float]:
    """Per-coordinate terms C * (sqrt(sum g^2)/max|x_i|) * (1+6D+D^2)/(2 sqrt 2)."""
    deltas = ledger.delta_ratios()
    out = {}
    for i, s in ledger.sum_g2.items():
        if s <= 0.0 or i not in ledger.box.m:
            continue
        D = deltas[i]
        factor = (1.0 + 6.0 * D + D * D) / (2.0 * SQRT2)
        out[i] = ledger.C * (math.sqrt(s) / ledger.box.m[i]) * factor
    return out


def theorem2_check(examples: Sequence[SparseExample], loss: Loss, C: float) -> BoundReport:
    """One-pass conditioner with projection onto the running box's ball:
    R_T <= C sum_i (sqrt(sum g^2)/max|x_i|) (1 + 6 Delta_i + Delta_i^2)/(2 sqrt 2)."""
    ledger = conditioned_run(examples, loss, C, recipe="streaming",
                             q=1, projection=True)
    per_coord = theorem2_components(ledger)
    bound = sum(per_coord.values())
    ball = ComparatorBall(ledger.box, C, q=1)
    _, wstar_loss, cert = best_in_hindsight(examples, loss, ball)
    regret = empirical_regret(ledger.total_loss, wstar_loss)
    extras = {
        "learner_loss": ledger.total_loss,
        "comparator_loss": wstar_loss,
        "delta": ledger.delta_ratios(),
    }
    return _widened_report("theorem2", regret, cert, bound,
                           {str(i): v for i, v in per_coord.items()}, extras)


def rmax_bound(loss_kind: str, C: float, max_abs_label: float = 0.0) -> float:
    """Largest regret one round can contribute when predictions are clipped
    to [-C, C]: C+1 for hinge/logistic, 4 C max(C, max|y|) for squared."""
    if loss_kind in ("hinge", "logistic"):
        return C + 1.0
    if loss_kind == "squared":
        return 4.0 * C * max(C, max_abs_label)
    raise ValueError(f"unknown loss kind {loss_kind!r}")


def per_round_regret_terms(ledger: RegretLedger, loss: Loss,
                           w_star: Dict[int, float]) -> List[float]:
    """loss(yhat_t, y_t) - loss(w*.x_t, y_t) for every round."""
    out = []
    for r in ledger.rounds:
        pred = sum(w_star.get(i, 0.0) * v for i, v in r.x.features)
        out.append(r.loss - loss.value(pred, r.x.label))
    return out


# ---------------------------------------------------------------------------
# Corollary 1

def nearest_rank_quantile(values: Sequence[float], level: float) -> float:
    """Smallest value with at least ceil(level * n) observations <= it."""
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("empty sequence")
    k = max(1, math.ceil(level * n))
    return s[min(k, n) - 1]


def corollary1_tau(d: int, delta: float, nu: float) -> int:
    """tau = ceil(ln(d / delta) / nu), natural log."""
    if not (delta > 0 and 0 < nu < 1):
        raise ValueError("require delta > 0 and nu in (0, 1)")
    return math.ceil(math.log(d / delta) / nu)


def _magnitudes(examples: Sequence[SparseExample], d: int) -> np.ndarray:
    """(T, d) array of |x_ti|."""
    M = np.zeros((len(examples), d))
    for t, ex in enumerate(examples):
        for i, v in ex.features:
            if i < d:
                M[t, i] = abs(v)
    return M


def corollary1_quantities(d: int, delta: float, nu: float,
                          examples: Sequence[SparseExample]) -> dict:
    """tau, per-coordinate Delta_i = max_{t<=T}|x_ti| / max_{t<=tau}|x_ti|,
    and the quantile bound max / Quantile(|x_i|, 1-nu) per coordinate."""
    tau = corollary1_tau(d, delta, nu)
    T = len(examples)
    M = _magnitudes(examples, d)
    total_max = M.max(axis=0)
    prefix_max = M[: min(tau, T)].max(axis=0)
    deltas = {}
    bounds = {}
    for i in range(d):
        if total_max[i] == 0.0:
            continue
        deltas[i] = total_max[i] / prefix_max[i] if prefix_max[i] > 0.0 else math.inf
        qv = nearest_rank_quantile(M[:, i], 1.0 - nu)
        bounds[i] = total_max[i] / qv if qv > 0.0 else math.inf
    return {
        "tau": tau,
        "delta": deltas,
        "quantile_bound": bounds,
        "vacuous": tau >= T,
    }


def corollary1_montecarlo(examples: Sequence[SparseExample], d: int, delta: float,
                          nu: float, n_permutations: int = 500, seed: int = 0) -> dict:
    """Fraction of random permutations for which some Delta_i exceeds its
    quantile bound; the high-probability claim puts this at <= delta, checked
    here against delta + 3 sigma binomial slack."""
    tau = corollary1_tau(d, delta, nu)
    T = len(examples)
    M = _magnitudes(examples, d)
    total_max = M.max(axis=0)
    active = total_max > 0.0
    bounds = np.full(d, np.inf)
    for i in range(d):
        if active[i]:
            qv = nearest_rank_quantile(M[:, i], 1.0 - nu)
            bounds[i] = total_max[i] / qv if qv > 0.0 else np.inf

    rng = np.random.default_rng(seed)
    violations = 0
    eps = 1e-12
    for _ in range(n_permutations):
        perm = rng.permutation(T)
        prefix = M[perm[: min(tau, T)]].max(axis=0)
        with np.errstate(divide="ignore"):
            deltas = np.where(prefix > 0.0, total_max / np.maximum(prefix, eps), np.inf)
        if np.any(deltas[active] > bounds[active] + eps):
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
