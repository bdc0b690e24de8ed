import math

import numpy as np
import pytest

from nol import regret
from nol.conditioners import ComparatorBall, EnclosingBox, SQRT2
from nol.core import SparseExample, get_loss
from nol.errors import NolError, NumericFault
from nol.regret import (
    FISTA_GAP_TOL,
    _dense_in_ball_coords,
    apply_scaling,
    best_in_hindsight,
    conditioned_run,
    corollary1_montecarlo,
    corollary1_tau,
    lemma1_check,
    random_instance,
    theorem1_check,
    theorem2_check,
    theorem2_components,
)
from oracles import _batch_project_l1, grid_oracle

SQ = get_loss("squared")
# hinge-oracle radii besides the default C = 1: the simplex's warm start is
# already optimal at 0.5 and needs pivots at 2 and 10
HINGE_CS = (0.5, 2.0, 10.0)


def ex(feats, y=1.0):
    return SparseExample(tuple(sorted(feats.items())), y)


def ball_loss(stream, loss, w):
    """Total loss of the comparator w, summed example by example."""
    return sum(loss.value(sum(w.get(i, 0.0) * v for i, v in e.features), e.label)
               for e in stream)


class TestScalingAdversary:
    def test_identity(self):
        stream = random_instance(1, d=3, T=10)
        assert list(apply_scaling(stream, {})) == stream

    def test_single_axis(self):
        out = list(apply_scaling([ex({0: 3.0})], {0: 2.0}))
        assert out[0].features == ((0, 6.0),)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            list(apply_scaling([ex({0: 1.0})], {0: 0.0}))


class TestProjectBall:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 20])
    def test_l1_matches_the_numpy_projection(self, d):
        # the oracle's L1 projection is the conditioners' solver at unit
        # weights; the row-wise numpy form must give the same array
        rng = np.random.default_rng(100 + d)
        inside = 0
        for _ in range(400):
            u = rng.choice([-1.0, 1.0], d) * 10 ** rng.uniform(-3, 3, d)
            C = float(10 ** rng.uniform(-2, 2))
            if rng.random() < 0.25:   # a point already in the ball
                u *= rng.uniform(0.0, 1.0) * C / np.abs(u).sum()
            inside += int(np.abs(u).sum() <= C)
            got = regret._project_ball(u, C)
            assert np.array_equal(got, _batch_project_l1(u[None], C)[0]), (u, C)
        assert inside >= 50


class TestBestInHindsight:
    def test_all_zero_labels_squared(self):
        stream = [ex({0: 1.0}, 0.0), ex({0: -2.0}, 0.0)]
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=1)
        w, total = grid_oracle(stream, SQ, ball)
        assert total <= 1e-9
        assert abs(w[0]) <= 1e-4

    def test_boundary_attains_zero_loss(self):
        stream = [ex({0: 1.0}, 1.0)] * 10
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=1)
        w, total = grid_oracle(stream, SQ, ball)
        assert w[0] == pytest.approx(1.0, abs=1e-4)
        assert total <= 1e-7

    @pytest.mark.parametrize("seed,loss_kind,C", [
        pytest.param(50, "hinge", 1.0, id="50-hinge"),
        pytest.param(51, "squared", 1.0, id="51-squared"),
        pytest.param(52, "logistic", 1.0, id="52-logistic"),
        *[pytest.param(50, "hinge", C, id=f"50-hinge-C{C}") for C in HINGE_CS]])
    def test_oracles_agree(self, seed, loss_kind, C):
        loss = get_loss(loss_kind)
        stream = random_instance(seed, d=2, T=60, classification=loss_kind != "squared")
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=C, q=1)
        _, fg = grid_oracle(stream, loss, ball)
        _, fc, _ = best_in_hindsight(stream, loss, ball)
        assert abs(fg - fc) <= 1e-8 * max(1.0, abs(fg))

    @pytest.mark.parametrize("loss_kind,C", [
        *[pytest.param(k, 1.0, id=f"{k}-1") for k in ("hinge", "squared", "logistic")],
        *[pytest.param("hinge", C, id=f"hinge-1-C{C}") for C in HINGE_CS]])
    def test_certificate(self, loss_kind, C):
        loss = get_loss(loss_kind)
        for seed in range(8):
            stream = random_instance(700 + seed, d=2, T=80,
                                     classification=loss_kind != "squared")
            ball = ComparatorBall(EnclosingBox.from_stream(stream), C=C, q=1)
            w, fc, cert = best_in_hindsight(stream, loss, ball)
            assert cert.method == ("lp" if loss_kind == "hinge" else "fista")
            if cert.method == "fista":
                # with the gradient restart <= 29 steps here; without it up to 57
                assert cert.iterations <= 40
            assert 0.0 <= cert.gap <= FISTA_GAP_TOL * max(1.0, abs(fc))
            assert ball.contains(w)
            assert fc == pytest.approx(ball_loss(stream, loss, w), rel=1e-12)
            _, fg = grid_oracle(stream, loss, ball)
            # fc - gap <= min loss <= fg, up to summation-order roundoff
            assert fc - cert.gap <= fg + 1e-12 * max(1.0, abs(fg))

    def test_hinge_warm_start_is_optimal_at_unit_C(self):
        # |z_tj| <= 1 in the ball's coordinates, so C max|z_tj| <= 1 at C = 1
        stream = random_instance(3, d=3, T=200)
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=1)
        _, _, cert = best_in_hindsight(stream, get_loss("hinge"), ball)
        assert cert.iterations == 0

    @pytest.mark.parametrize("C", HINGE_CS)
    def test_hinge_lp_matches_highs(self, C):
        linprog = pytest.importorskip("scipy.optimize").linprog
        loss = get_loss("hinge")
        for seed in range(30):
            stream = random_instance(seed, d=3, T=200)
            ball = ComparatorBall(EnclosingBox.from_stream(stream), C=C, q=1)
            _, fc, cert = best_in_hindsight(stream, loss, ball)
            assert cert.gap <= 1e-9 * max(1.0, abs(fc))
            # the primal of the same dual LP, solved by HiGHS
            _, Xu, y = _dense_in_ball_coords(stream, ball)
            Z = (y[:, None] * Xu).T
            ones = np.ones((3, 1))
            res = linprog(np.append(-np.ones(200), C),
                          A_ub=np.block([[Z, -ones], [-Z, -ones]]), b_ub=np.zeros(6),
                          bounds=[(0.0, 1.0)] * 200 + [(0.0, None)], method="highs")
            assert res.status == 0
            assert fc == pytest.approx(-res.fun, rel=1e-12)

    @pytest.mark.parametrize("C", [1e-6, 1.0, 1e6, 1e8])
    def test_hinge_certificate_at_any_radius(self, C):
        # at C = 1e6 the optimum is interior and the gap is C ||Za||_inf, C
        # times the roundoff left in Za: up to 1.9e-9 relative on these
        # seeds without the refinement of the basic solution, 3.3e-11 with it.
        # At C = 1e8 it is f - sum(a) that grows with C: 1.1e-5 relative
        # when the simplex priced at 1e-11 * C, 3.3e-9 pricing at 1e-11
        bound = 1e-8 if C == 1e8 else FISTA_GAP_TOL
        loss = get_loss("hinge")
        for seed in range(20):
            stream = random_instance(seed, d=3, T=200)
            ball = ComparatorBall(EnclosingBox.from_stream(stream), C=C, q=1)
            _, fc, cert = best_in_hindsight(stream, loss, ball)
            assert 0.0 <= cert.gap <= bound * max(1.0, abs(fc))
            assert theorem1_check(stream, loss, C).slack >= 0.0

    def test_hinge_lp_bland_rule_reaches_the_same_optimum(self, monkeypatch):
        loss = get_loss("hinge")
        stream = random_instance(11, d=3, T=120)
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=10.0, q=1)
        _, f_dantzig, _ = best_in_hindsight(stream, loss, ball)
        monkeypatch.setattr(regret, "LP_BLAND_AFTER", 0)
        monkeypatch.setattr(regret, "LP_REFACTOR_EVERY", 1)
        _, f_bland, cert = best_in_hindsight(stream, loss, ball)
        assert f_bland == pytest.approx(f_dantzig, rel=1e-12)
        assert cert.gap <= 1e-9 * max(1.0, abs(f_bland))

    def test_simplex_leaves_beales_cycle(self, monkeypatch):
        # Beale's LP (its third row as the bound x6 <= 1): Dantzig pricing
        # alone cycles at the degenerate start, Bland's rule leaves the cycle
        def solve():
            A = np.array([[1.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                          [0.0, 1.0, 0.5, -12.0, -0.5, 3.0]])
            cost = np.array([0.0, 0.0, -0.75, 20.0, -0.5, 6.0])
            upper = np.array([np.inf, np.inf, np.inf, np.inf, 1.0, np.inf])
            x = np.zeros(6)
            regret._bounded_simplex(A, cost, upper, x, np.zeros(6, dtype=bool),
                                    np.array([0, 1]))
            return x

        x = solve()
        assert x @ [0.0, 0.0, -0.75, 20.0, -0.5, 6.0] == pytest.approx(-1.25, rel=1e-12)
        monkeypatch.setattr(regret, "LP_BLAND_AFTER", 10 ** 9)
        monkeypatch.setattr(regret, "LP_MAX_PIVOTS", 1000)
        with pytest.raises(NolError, match="after 1000 pivots"):
            solve()

    def test_hinge_lp_pivot_cap(self, monkeypatch):
        stream = random_instance(11, d=3, T=120)
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=10.0, q=1)
        monkeypatch.setattr(regret, "LP_MAX_PIVOTS", 3)
        with pytest.raises(NolError, match="after 3 pivots"):
            best_in_hindsight(stream, get_loss("hinge"), ball)

    @pytest.mark.parametrize("loss_kind", ["hinge", "squared", "logistic"])
    def test_l2_ball_rejected(self, loss_kind):
        stream = random_instance(7, d=2, T=20)
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=2)
        with pytest.raises(NolError, match="L1 ball only"):
            best_in_hindsight(stream, get_loss(loss_kind), ball)

    def test_l2_ball_rejected_before_any_work(self):
        ball = ComparatorBall(EnclosingBox(), C=1.0, q=2)   # empty, too
        with pytest.raises(NolError, match="L1 ball only"):
            best_in_hindsight([ex({0: 1.0})], SQ, ball)

    def test_empty_ball_rejected(self):
        ball = ComparatorBall(EnclosingBox(), C=1.0, q=1)
        with pytest.raises(NolError):
            best_in_hindsight([ex({0: 1.0})], SQ, ball)


class TestConditionedRun:
    def test_unknown_recipe(self):
        with pytest.raises(ValueError, match="unknown conditioner recipe 'hindsight'"):
            conditioned_run([ex({0: 1.0})], SQ, C=1.0, recipe="hindsight")

    # scaled by 1e-200, every squared gradient underflows to 0, and so does
    # the conditioner's entry, which the update divides by
    @pytest.mark.parametrize("check", [
        theorem1_check, theorem2_check,
        lambda stream, loss, C: lemma1_check(
            conditioned_run(stream, loss, C, projection=False), loss, {})],
        ids=["thm1", "thm2", "lemma1"])
    def test_underflowing_conditioner_is_numeric_fault(self, check):
        stream = list(apply_scaling(random_instance(0, d=3, T=200),
                                    dict.fromkeys(range(3), 1e-200)))
        with pytest.raises(NumericFault,
                           match="^example 1: conditioner entry underflows to 0 at coordinate 0$"):
            check(stream, get_loss("hinge"), 1.0)

    # scaled up, a squared gradient or its sum overflows to inf; unchecked,
    # it makes thm1's bound nan, thm2's inf, and moves the regret
    @pytest.mark.parametrize("check", [theorem1_check, theorem2_check], ids=["thm1", "thm2"])
    @pytest.mark.parametrize("scale,example", [(1e153, 39), (1e154, 1), (1e160, 1)])
    def test_overflowing_gradient_sum_is_numeric_fault(self, check, scale, example):
        stream = list(apply_scaling(random_instance(0, d=3, T=200),
                                    dict.fromkeys(range(3), scale)))
        with pytest.raises(NumericFault, match=f"^example {example}: non-finite gradient sum "
                                               "inf at coordinate 0$"):
            check(stream, get_loss("hinge"), 1.0)

    # at 5e153 x_0^2 overflows, so m_0^2 is inf and the projection weight
    # A_0 / m_0^2 is 0, while logistic's damped gradient still squares to a
    # finite sum
    @pytest.mark.parametrize("check", [theorem1_check, theorem2_check], ids=["thm1", "thm2"])
    def test_zero_projection_weight_is_numeric_fault(self, check):
        stream = list(apply_scaling(random_instance(0, d=3, T=200),
                                    dict.fromkeys(range(3), 5e153)))
        with pytest.raises(NumericFault,
                           match="^example 1: zero projection weight at coordinate 0$"):
            check(stream, get_loss("logistic"), 1.0)


class TestEmpiricalRegret:
    def test_zero_learning_rate_instance(self):
        # always-predict-0 on ten copies of (x=1, y=1) with squared loss
        stream = [ex({0: 1.0}, 1.0)] * 10
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=1)
        _, best = grid_oracle(stream, SQ, ball)
        learner_loss = sum(SQ.value(0.0, e.label) for e in stream)
        assert learner_loss - best == pytest.approx(10.0, abs=1e-6)

    def test_regret_nonnegative_against_true_minimizer(self):
        stream = random_instance(60, d=2, T=80)
        loss = get_loss("hinge")
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=1)
        _, best = grid_oracle(stream, loss, ball)
        ledger = conditioned_run(stream, loss, C=1.0, recipe="streaming")
        assert ledger.total_loss - best >= -1e-9


class TestLemma1:
    def test_single_round_first_term_zero(self):
        stream = [ex({0: 2.0}, 1.0)]
        ledger = conditioned_run(stream, SQ, C=1.0, recipe="streaming",
                                 projection=False)
        rep = lemma1_check(ledger, SQ, {})  # comparator w = w_1 = 0
        assert rep.components["initial_distance"] == 0.0
        assert rep.components["conditioner_increments"] == 0.0
        # 2 R_1 = 0 <= g^T A^{-1} g
        g = -2.0 * 2.0
        a = math.sqrt(g * g) * 2.0 / SQRT2
        assert rep.components["gradient_sum"] == pytest.approx(g * g / a, rel=1e-12)
        assert rep.slack >= -1e-6

    def test_constant_conditioner_middle_sum_zero(self):
        # identical repeated example: after round 1 the conditioner grows,
        # but per-coordinate increments on rounds with unchanged max and
        # equal gradients are still nonzero; instead freeze A by zero
        # gradients after round one.
        stream = [ex({0: 1.0}, 1.0), ex({0: 1.0}, 1.0)]
        loss = get_loss("hinge")
        ledger = conditioned_run(stream, loss, C=1.0, recipe="streaming",
                                 projection=False)
        # force-check: whenever consecutive A snapshots are equal the
        # increment term vanishes exactly
        for k in range(1, len(ledger.rounds)):
            if ledger.rounds[k].A == ledger.rounds[k - 1].A:
                rep = lemma1_check(ledger, loss, {})
                assert rep.components["conditioner_increments"] == 0.0

    def test_projection_ledger_rejected(self):
        stream = [ex({0: 2.0}, 1.0)]
        ledger = conditioned_run(stream, SQ, C=1.0, recipe="streaming",
                                 projection=True)
        with pytest.raises(NolError):
            lemma1_check(ledger, SQ, {})

    @staticmethod
    def definition(ledger, w):
        """The three terms of Lemma 1 as written, ||w_1 - w||^2_{A_1},
        sum_{t>1} ||w_t - w||^2_{A_t - A_{t-1}} and sum_t g_t^T A_t^-1 g_t,
        each a dense sum over every coordinate any round or w names."""
        rounds = ledger.rounds
        coords = set(w)
        for r in rounds:
            coords |= set(r.A) | set(r.w) | {i for i, _ in r.x.features}
        coords = sorted(coords)

        def dense(m):
            return [m.get(i, 0.0) for i in coords]

        wv = dense(w)

        def dist(a, wt):
            return math.fsum(ai * (wti - wi) ** 2 for ai, wti, wi in zip(a, wt, wv))

        initial = dist(dense(rounds[0].A), dense(rounds[0].w))
        increments = math.fsum(
            dist([a - b for a, b in zip(dense(cur.A), dense(prev.A))], dense(cur.w))
            for prev, cur in zip(rounds, rounds[1:]))
        grads = 0.0
        for r in rounds:
            x = dict(r.x.features)
            g = [r.gprime * x.get(i, 0.0) for i in coords]
            grads += math.fsum(gi * gi / a for gi, a in zip(g, dense(r.A)) if gi != 0.0)
        return {"initial_distance": initial, "conditioner_increments": increments,
                "gradient_sum": grads}

    @pytest.mark.parametrize("seed,d,T", [(0, 1, 20), (1, 2, 60), (2, 3, 200), (3, 4, 90),
                                          (4, 5, 150)])
    @pytest.mark.parametrize("loss_kind", ["squared", "hinge", "logistic"])
    def test_components_match_the_definition(self, seed, d, T, loss_kind):
        loss = get_loss(loss_kind)
        stream = random_instance(seed, d=d, T=T, classification=loss.classification)
        ledger = conditioned_run(stream, loss, C=1.0, recipe="streaming", projection=False)
        m = ledger.box.m
        inside = {i: (-1) ** i * 0.5 / (len(m) * mi) for i, mi in m.items()}
        assert ComparatorBall(ledger.box, C=1.0, q=1).contains(inside)
        uncovered = {0: 0.3, d + 7: -0.5}   # A never has coordinate d + 7
        for w in ({}, inside, uncovered):
            rep = lemma1_check(ledger, loss, w)
            for name, want in self.definition(ledger, w).items():
                assert rep.components[name] == pytest.approx(want, rel=1e-12, abs=0.0), name


class TestTheorem1:
    def test_bound_value_formula(self):
        # gradients (3, 4) on one coordinate with max |x| = 2, C = 1
        from nol.conditioners import lemma2_bound
        bound = 2.0 * SQRT2 * lemma2_bound({0: 25.0}, EnclosingBox({0: 2.0}), 1.0)
        assert bound == pytest.approx(2.0 * SQRT2 * 2.5, rel=1e-12)
        assert bound == pytest.approx(7.0710678, rel=1e-6)

    def test_bound_value_of_a_worked_stream(self):
        # hinge, C = 1, box m_0 = 2. Round 1: yhat = 0, g = -2, A = 2 sqrt 2,
        # w_0 = 1/sqrt 2, projected to |w_0| m_0 = 1: w_0 = 1/2. Round 2:
        # yhat = 1/2 < 1, g = -1. So sum g^2 = 5, S_00 = 1/4 and the bound is
        # 2 sqrt 2 * sqrt(5/4) = sqrt 10
        rep = theorem1_check([ex({0: 2.0}, 1.0), ex({0: 1.0}, 1.0)], get_loss("hinge"), C=1.0)
        assert rep.components["lemma2_bound"] == pytest.approx(math.sqrt(5.0) / 2.0, rel=1e-12)
        assert rep.bound_value == pytest.approx(math.sqrt(10.0), rel=1e-12)

    def test_zero_gradient_run(self):
        # squared loss with all labels 0: the zero predictor is perfect,
        # no gradient ever fires, bound and regret are both degenerate
        stream = [ex({0: 1.0}, 0.0)] * 5
        rep = theorem1_check(stream, SQ, C=1.0)
        assert rep.bound_value == 0.0
        assert rep.empirical_regret <= 1e-9


class TestTheorem2:
    def test_constant_scale_reduces_to_factor_2sqrt2(self):
        # every nonzero |x_i| equal: Delta_i = 1 and the per-coordinate
        # factor is (1+6+1)/(2 sqrt 2) = 2 sqrt 2
        stream = [ex({0: 2.0}, 1.0), ex({0: -2.0}, -1.0), ex({0: 2.0}, 1.0)]
        ledger = conditioned_run(stream, SQ, C=1.0, recipe="streaming")
        comp = theorem2_components(ledger)
        g2 = ledger.sum_g2[0]
        expected = 1.0 * (math.sqrt(g2) / 2.0) * 2.0 * SQRT2
        assert comp[0] == pytest.approx(expected, rel=1e-9)
        from nol.conditioners import lemma2_bound
        thm1_form = 2.0 * SQRT2 * lemma2_bound(ledger.sum_g2, ledger.box, 1.0)
        assert sum(comp.values()) == pytest.approx(thm1_form, rel=1e-9)

    def test_bound_value_formula(self):
        # gradients (3,4), max |x| = 2, first nonzero |x| = 1 -> Delta = 2
        ledger = conditioned_run([ex({0: 1.0}, 1.0)], SQ, C=1.0, recipe="streaming")
        ledger.box.m[0] = 2.0
        ledger.sum_g2[0] = 25.0
        ledger.first_abs[0] = 1.0
        comp = theorem2_components(ledger)
        assert comp[0] == pytest.approx(2.5 * 17.0 / (2.0 * SQRT2), rel=1e-9)
        assert comp[0] == pytest.approx(15.026, abs=1e-3)


class TestCorollary1:
    def test_tau_formula(self):
        assert corollary1_tau(10, 0.1, 0.5) == 10
        assert corollary1_tau(10, 0.1, 0.5) == math.ceil(math.log(100.0) / 0.5)

    def test_tau_bad_args(self):
        with pytest.raises(ValueError, match=r"^require delta in \(0, 1\), got 0.0$"):
            corollary1_tau(10, 0.0, 0.5)
        with pytest.raises(ValueError, match=r"^require nu in \(0, 1\), got 1.5$"):
            corollary1_tau(10, 0.1, 1.5)
        with pytest.raises(ValueError, match=r"^require nu in \(0, 1\), got nan$"):
            corollary1_tau(10, 0.1, math.nan)
        with pytest.raises(ValueError, match="require d >= 1, got 0"):
            corollary1_tau(0, 0.1, 0.5)

    def test_montecarlo_without_permutations(self):
        with pytest.raises(ValueError, match="require n_permutations >= 1, got 0"):
            corollary1_montecarlo(random_instance(0, d=3, T=20), 3, 0.1, 0.5, n_permutations=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_violation_fraction_is_scale_free(self, seed):
        # Delta_i and its bound are ratios of one feature's magnitudes, so no
        # floor may stand under the magnitudes: uniform scalings far below
        # 1e-12 and per-coordinate ones over 1e+-300 give the same fraction
        stream = random_instance(seed, d=10, T=400)
        want = corollary1_montecarlo(stream, 10, 0.1, 0.5)["violation_fraction"]
        rng = np.random.default_rng(seed)
        scalings = [dict.fromkeys(range(10), s) for s in (1e-13, 1e-20, 2.0 ** -1000, 1e20)]
        scalings.append(dict(enumerate(10.0 ** rng.uniform(-300.0, 300.0, 10))))
        for D in scalings:
            mc = corollary1_montecarlo(list(apply_scaling(stream, D)), 10, 0.1, 0.5)
            assert mc["violation_fraction"] == want, D

    def test_montecarlo_bound(self):
        stream = random_instance(5, d=10, T=300)
        mc = corollary1_montecarlo(stream, 10, 0.1, 0.5,
                                   n_permutations=500, seed=7)
        assert mc["tau"] == 10
        assert mc["passed"]
        assert mc["violation_fraction"] <= mc["threshold"]


class TestRegretScaleInvariance:
    def test_regret_invariant_under_consistent_rescaling(self):
        # NAG's regret against a consistently rescaled ball is unchanged
        from nol.learners import LearnerConfig, run_stream
        loss = get_loss("hinge")
        stream = random_instance(90, d=3, T=150)
        D = {0: 4.0, 1: 0.25, 2: 8.0}
        scaled = list(apply_scaling(stream, D))

        def run_regret(examples):
            rep = run_stream(LearnerConfig("nag", 0.5), loss, examples)
            ball = ComparatorBall(EnclosingBox.from_stream(examples), C=1.0, q=1)
            _, best, _ = best_in_hindsight(examples, loss, ball)
            return sum(rep.losses) - best

        # power-of-two scalings are exact in floating point, so both the
        # learner trace and the oracle's u-space problem are bit-identical
        r1, r2 = run_regret(stream), run_regret(scaled)
        assert abs(r1 - r2) <= 1e-9 * max(1.0, abs(r1))
