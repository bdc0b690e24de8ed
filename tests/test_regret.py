import math

import numpy as np
import pytest

from nol.conditioners import ComparatorBall, EnclosingBox, SQRT2
from nol.core import SparseExample, get_loss
from nol.errors import NolError
from nol.regret import (
    FISTA_GAP_TOL,
    apply_scaling,
    best_in_hindsight,
    conditioned_run,
    corollary1_montecarlo,
    corollary1_quantities,
    corollary1_tau,
    empirical_regret,
    lemma1_check,
    per_round_regret_terms,
    random_instance,
    rmax_bound,
    theorem1_check,
    theorem2_check,
    theorem2_components,
)

SQ = get_loss("squared")


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


class TestBestInHindsight:
    def test_all_zero_labels_squared(self):
        stream = [ex({0: 1.0}, 0.0), ex({0: -2.0}, 0.0)]
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=1)
        w, total, _ = best_in_hindsight(stream, SQ, ball, method="grid")
        assert total <= 1e-9
        assert abs(w[0]) <= 1e-4

    def test_boundary_attains_zero_loss(self):
        stream = [ex({0: 1.0}, 1.0)] * 10
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=1)
        w, total, _ = best_in_hindsight(stream, SQ, ball, method="grid")
        assert w[0] == pytest.approx(1.0, abs=1e-4)
        assert total <= 1e-7

    @pytest.mark.parametrize("seed,loss_kind", [(50, "hinge"), (51, "squared"),
                                                (52, "logistic")])
    def test_oracles_agree(self, seed, loss_kind):
        loss = get_loss(loss_kind)
        stream = random_instance(seed, d=2, T=60, classification=loss_kind != "squared")
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=1)
        _, fg, _ = best_in_hindsight(stream, loss, ball, method="grid")
        _, fc, _ = best_in_hindsight(stream, loss, ball)
        assert abs(fg - fc) <= 1e-8 * max(1.0, abs(fg))

    @pytest.mark.parametrize("loss_kind,q", [("hinge", 1), ("squared", 1), ("squared", 2),
                                             ("logistic", 1), ("logistic", 2)])
    def test_certificate(self, loss_kind, q):
        loss = get_loss(loss_kind)
        for seed in range(8):
            stream = random_instance(700 + seed, d=2, T=80,
                                     classification=loss_kind != "squared")
            ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=q)
            w, fc, cert = best_in_hindsight(stream, loss, ball)
            assert cert.method == ("lp" if loss_kind == "hinge" else "fista")
            if cert.method == "fista":
                # with the gradient restart <= 29 steps here; without it up to 57
                assert cert.iterations <= 40
            assert 0.0 <= cert.gap <= FISTA_GAP_TOL * max(1.0, abs(fc))
            assert ball.contains(w)
            assert fc == pytest.approx(ball_loss(stream, loss, w), rel=1e-12)
            _, fg, _ = best_in_hindsight(stream, loss, ball, method="grid")
            # fc - gap <= min loss <= fg, up to summation-order roundoff
            assert fc - cert.gap <= fg + 1e-12 * max(1.0, abs(fg))

    def test_hinge_l2_ball_rejected(self):
        stream = random_instance(7, d=2, T=20)
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=2)
        with pytest.raises(NolError):
            best_in_hindsight(stream, get_loss("hinge"), ball)

    def test_empty_ball_rejected(self):
        ball = ComparatorBall(EnclosingBox(), C=1.0, q=1)
        with pytest.raises(NolError):
            best_in_hindsight([ex({0: 1.0})], SQ, ball)


class TestEmpiricalRegret:
    def test_matching_predictions_give_zero(self):
        assert empirical_regret(5.0, 5.0) == 0.0

    def test_zero_learning_rate_instance(self):
        # always-predict-0 on ten copies of (x=1, y=1) with squared loss
        stream = [ex({0: 1.0}, 1.0)] * 10
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=1)
        _, best, _ = best_in_hindsight(stream, SQ, ball, method="grid")
        learner_loss = sum(SQ.value(0.0, e.label) for e in stream)
        assert empirical_regret(learner_loss, best) == pytest.approx(10.0, abs=1e-6)

    def test_regret_nonnegative_against_true_minimizer(self):
        stream = random_instance(60, d=2, T=80)
        loss = get_loss("hinge")
        ball = ComparatorBall(EnclosingBox.from_stream(stream), C=1.0, q=1)
        _, best, _ = best_in_hindsight(stream, loss, ball, method="grid")
        ledger = conditioned_run(stream, loss, C=1.0, recipe="streaming")
        assert empirical_regret(ledger.total_loss, best) >= -1e-9


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

    def test_property_suite(self):
        rng = np.random.default_rng(123)
        for k in range(100):
            d = int(rng.integers(1, 6))
            T = int(rng.integers(20, 500))
            stream = random_instance(1000 + k, d=d, T=T, classification=False)
            ledger = conditioned_run(stream, SQ, C=1.0, recipe="streaming",
                                     projection=False)
            ball = ComparatorBall(ledger.box, C=1.0, q=1)
            coords = sorted(ball.box.m)
            u = rng.uniform(-1, 1, size=len(coords))
            u *= 1.0 / max(1.0, np.abs(u).sum())
            w = {i: u[j] / ball.box.m[i] for j, i in enumerate(coords)}
            for comparator in ({}, w):
                rep = lemma1_check(ledger, SQ, comparator)
                assert rep.slack >= -1e-6


class TestTheorem1:
    def test_bound_value_formula(self):
        # gradients (3, 4) on one coordinate with max |x| = 2, C = 1
        from nol.conditioners import lemma2_bound
        bound = 2.0 * SQRT2 * lemma2_bound({0: 25.0}, EnclosingBox({0: 2.0}), 1.0)
        assert bound == pytest.approx(2.0 * SQRT2 * 2.5, rel=1e-12)
        assert bound == pytest.approx(7.0710678, rel=1e-6)

    def test_zero_gradient_run(self):
        # squared loss with all labels 0: the zero predictor is perfect,
        # no gradient ever fires, bound and regret are both degenerate
        stream = [ex({0: 1.0}, 0.0)] * 5
        rep = theorem1_check(stream, SQ, C=1.0)
        assert rep.bound_value == 0.0
        assert rep.empirical_regret <= 1e-9

    def test_property_suite_small(self):
        for k in range(5):
            loss = get_loss("hinge" if k % 2 == 0 else "squared")
            stream = random_instance(300 + k, d=3, T=150,
                                     classification=loss.kind == "hinge")
            rep = theorem1_check(stream, loss, C=1.0)
            assert rep.passed


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

    def test_property_suite_small(self):
        for k in range(5):
            loss = get_loss("hinge" if k % 2 == 0 else "squared")
            stream = random_instance(400 + k, d=3, T=150,
                                     classification=loss.kind == "hinge")
            rep = theorem2_check(stream, loss, C=1.0)
            assert rep.passed


class TestRmaxAccounting:
    @pytest.mark.parametrize("loss_kind", ["hinge", "logistic", "squared"])
    def test_per_round_terms_bounded_with_clipping(self, loss_kind):
        loss = get_loss(loss_kind)
        C = 1.0
        stream = random_instance(71, d=3, T=200,
                                 classification=loss_kind != "squared")
        ledger = conditioned_run(stream, loss, C, recipe="streaming", clip=True)
        ball = ComparatorBall(ledger.box, C, q=1)
        w_star, _, _ = best_in_hindsight(stream, loss, ball)
        max_y = max(abs(e.label) for e in stream)
        cap = rmax_bound(loss_kind, C, max_y)
        for term in per_round_regret_terms(ledger, loss, w_star):
            assert term <= cap + 1e-9


class TestCorollary1:
    def test_tau_formula(self):
        assert corollary1_tau(10, 0.1, 0.5) == 10
        assert corollary1_tau(10, 0.1, 0.5) == math.ceil(math.log(100.0) / 0.5)

    def test_tau_bad_args(self):
        with pytest.raises(ValueError):
            corollary1_tau(10, 0.0, 0.5)
        with pytest.raises(ValueError):
            corollary1_tau(10, 0.1, 1.5)

    def test_delta_one_when_max_seen_early(self):
        stream = [ex({0: 5.0}, 1.0)] + [ex({0: 1.0}, 1.0)] * 50
        q = corollary1_quantities(1, 0.5, 0.9, stream)
        assert q["tau"] == 1
        assert q["delta"][0] == 1.0

    def test_vacuous_warning(self):
        stream = [ex({0: 1.0}, 1.0)] * 3
        q = corollary1_quantities(10, 0.1, 0.5, stream)
        assert q["vacuous"]

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
