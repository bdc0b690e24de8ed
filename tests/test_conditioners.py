import math

import numpy as np
import pytest

from nol.conditioners import (
    ComparatorBall,
    DiagonalConditioner,
    EnclosingBox,
    SQRT2,
    _project_weighted_l2,
    hindsight_conditioner,
    lemma2_bound,
    project,
)
from oracles import ex


class TestHindsight:
    def test_lemma2_formula(self):
        box = EnclosingBox({0: 2.0})
        a = hindsight_conditioner({0: 9.0 + 16.0}, box, C=1.0)
        assert a[0] == pytest.approx(10.0, rel=1e-12)

    def test_c_scaling(self):
        box = EnclosingBox({0: 2.0})
        a = hindsight_conditioner({0: 25.0}, box, C=2.0)
        assert a[0] == pytest.approx(5.0, rel=1e-12)

    def test_zero_gradients_excluded(self):
        box = EnclosingBox({0: 2.0})
        assert hindsight_conditioner({0: 0.0}, box, C=1.0) == {}

    def test_bound_value(self):
        box = EnclosingBox({0: 2.0})
        assert lemma2_bound({0: 25.0}, box, C=1.0) == pytest.approx(2.5, rel=1e-12)

    def test_bound_additivity(self):
        box = EnclosingBox({0: 2.0, 1: 2.0})
        assert lemma2_bound({0: 25.0, 1: 25.0}, box, C=1.0) == pytest.approx(5.0, rel=1e-12)

    def test_bound_zero_gradients(self):
        assert lemma2_bound({0: 0.0}, EnclosingBox({0: 2.0}), C=1.0) == 0.0

    def test_bound_scale_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            g2 = {i: float(rng.uniform(0.1, 10)) for i in range(d)}
            m = {i: float(rng.uniform(0.1, 10)) for i in range(d)}
            scale = {i: float(10 ** rng.uniform(-3, 3)) for i in range(d)}
            base = lemma2_bound(g2, EnclosingBox(m), C=1.5)
            g2s = {i: g2[i] * scale[i] ** 2 for i in range(d)}
            ms = {i: m[i] * scale[i] for i in range(d)}
            scaled = lemma2_bound(g2s, EnclosingBox(ms), C=1.5)
            assert abs(scaled - base) <= 1e-12 * max(1.0, abs(base))

    def test_hindsight_optimality_under_perturbation(self):
        # The minimax objective 0.5 * sum(A_ii C^2 S_ii + sum g^2 / A_ii),
        # evaluated at the adversarial w*, strictly increases when any
        # single A*_ii is perturbed by +-10%.
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            g2 = {i: float(rng.uniform(0.1, 20)) for i in range(d)}
            m = {i: float(rng.uniform(0.1, 5)) for i in range(d)}
            C = float(rng.uniform(0.5, 3))
            box = EnclosingBox(m)
            astar = hindsight_conditioner(g2, box, C)

            def objective(a):
                return 0.5 * sum(
                    a[i] * C * C * box.s_ii(i) + g2[i] / a[i] for i in range(d))

            base = objective(astar)
            for i in range(d):
                for fac in (0.9, 1.1):
                    pert = dict(astar)
                    pert[i] = astar[i] * fac
                    assert objective(pert) > base


class TestConditionerSteps:
    def test_streaming_first_step(self):
        cond = DiagonalConditioner(C=1.0)
        a = cond.step({0: -4.0}, ex({0: 2.0}))
        assert a[0] == pytest.approx(8.0 / SQRT2, rel=1e-12)

    def test_streaming_second_step(self):
        cond = DiagonalConditioner(C=1.0)
        cond.step({0: -4.0}, ex({0: 2.0}))
        a = cond.step({0: 3.0}, ex({0: 1.0}))
        assert cond.box.m[0] == 2.0
        assert a[0] == pytest.approx(10.0 / SQRT2, rel=1e-12)

    def test_streaming_zero_gradient_excluded(self):
        cond = DiagonalConditioner(C=1.0)
        a = cond.step({0: 0.0}, ex({0: 2.0}))
        assert 0 not in a

    def test_streaming_monotone(self):
        rng = np.random.default_rng(2)
        cond = DiagonalConditioner(C=1.0)
        prev = {}
        for _ in range(100):
            x = ex({0: float(rng.uniform(-3, 3)) or 1.0})
            g = {0: float(rng.normal()) * x.features[0][1] if x.features else 0.0}
            a = cond.step(g, x)
            for i, v in prev.items():
                assert a.get(i, 0.0) >= v - 1e-15
            prev = a

    def test_transductive_matches_streaming_when_max_attained(self):
        box = EnclosingBox({0: 2.0})
        cond = DiagonalConditioner(C=1.0, box=box)
        a = cond.step({0: -4.0}, ex({0: 2.0}))
        assert a[0] == pytest.approx(8.0 / SQRT2, rel=1e-12)

    def test_transductive_uses_full_pass_box(self):
        box = EnclosingBox({0: 4.0})  # first pass saw max |x| = 4 later on
        cond = DiagonalConditioner(C=1.0, box=box)
        a = cond.step({0: -4.0}, ex({0: 2.0}))
        assert a[0] == pytest.approx(16.0 / SQRT2, rel=1e-12)

    def test_transductive_zero_gradients(self):
        cond = DiagonalConditioner(C=1.0, box=EnclosingBox({0: 2.0}))
        assert cond.step({0: 0.0}, ex({0: 2.0})) == {}


class TestComparatorBall:
    def test_norm_q1(self):
        ball = ComparatorBall(EnclosingBox({0: 2.0, 1: 0.5}), C=1.0, q=1)
        assert ball.norm({0: 0.25, 1: 1.0}) == pytest.approx(1.0)

    def test_off_support_is_infeasible(self):
        ball = ComparatorBall(EnclosingBox({0: 1.0}), C=5.0, q=1)
        assert ball.norm({0: 0.5, 9: 0.1}) == math.inf
        assert ball.contains({0: 0.5, 9: 0.0})

    @pytest.mark.parametrize("C", [0.0, -1.0, math.nan, math.inf])
    def test_radius_must_be_finite_and_positive(self, C):
        with pytest.raises(ValueError):
            ComparatorBall(EnclosingBox({0: 1.0}), C=C, q=1)

    def test_q_must_be_1_or_2(self):
        with pytest.raises(ValueError, match="q must be 1 or 2"):
            ComparatorBall(EnclosingBox({0: 1.0}), C=1.0, q=3)


class TestProjection:
    def identity_ball(self, d, C=1.0, q=1):
        return ComparatorBall(EnclosingBox({i: 1.0 for i in range(d)}), C, q)

    def test_soft_threshold_example(self):
        w = project({0: 2.0, 1: 1.0}, {0: 1.0, 1: 1.0}, self.identity_ball(2))
        assert w[0] == pytest.approx(1.0, abs=1e-12)
        assert w[1] == pytest.approx(0.0, abs=1e-12)
        # lambda = 4 zeroes coordinate 1; the lambda of both coordinates, 3,
        # would give the infeasible (1.5, 0)
        w = project({0: 3.0, 1: 1.0}, {0: 1.0, 1: 1.0}, self.identity_ball(2))
        assert w == {0: 1.0, 1: 0.0}

    def test_weighted_metric_example(self):
        w = project({0: 2.0, 1: 1.0}, {0: 1.0, 1: 4.0}, self.identity_ball(2))
        assert w[0] == pytest.approx(0.4, abs=1e-12)
        assert w[1] == pytest.approx(0.6, abs=1e-12)

    @pytest.mark.parametrize("q", [1, 2])
    def test_interior_point_unchanged(self, q):
        ball = self.identity_ball(2, C=1.0, q=q)
        w = {0: 0.3, 1: 0.1}
        assert project(w, {0: 2.0, 1: 5.0}, ball) == w

    @pytest.mark.parametrize("q", [1, 2])
    def test_feasible_point_returned_exactly(self, q):
        # 0.1 * 3.0 / 3.0 is 0.10000000000000002: a feasible point must not
        # take that round trip through the ball's coordinates
        ball = ComparatorBall(EnclosingBox({0: 3.0, 1: 7.0}), 100.0, q)
        w = {0: 0.1, 1: 0.7}
        assert project(w, {0: 1.0, 1: 1.0}, ball) == w

    def test_empty_support_passthrough(self):
        ball = self.identity_ball(1)
        assert project({}, {}, ball) == {}
        # zero-A coordinates pass through unchanged
        assert project({0: 3.0}, {0: 0.0}, ball) == {0: 3.0}

    def test_l2_newton_matches_bisection_across_scales(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            u = {i: float(rng.normal()) for i in range(n)}
            d = {i: float(10 ** rng.uniform(-8, 8)) for i in range(n)}
            d[0], d[1] = 1e-8, 1e8
            C = float(rng.uniform(0.05, 0.95)) * math.sqrt(sum(v * v for v in u.values()))

            def excess(lam):
                return sum((d[i] * u[i] / (d[i] + lam)) ** 2 for i in u) - C * C

            lo, hi = 0.0, 1.0
            while excess(hi) > 0.0:
                hi *= 2.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
            want = {i: d[i] * u[i] / (d[i] + lo) for i in u}
            got = _project_weighted_l2(u, d, C)
            scale = max(abs(v) for v in want.values())
            assert max(abs(got[i] - want[i]) for i in u) <= 1e-12 * scale


class TestP2BoundChain:
    def test_sum_bounded_by_sqrt_d(self):
        # With ||S^{1/2} x_t||_2 <= 1, sum_i sqrt(S_ii sum_t g_ti^2)
        # <= sqrt(d) sqrt(sum_t g'_t^2).
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            T = int(rng.integers(5, 50))
            S = 10.0 ** rng.uniform(-2, 2, size=d)
            X = rng.normal(size=(T, d))
            # rescale rows so the constraint holds with equality or less
            norms = np.sqrt((X * X) @ S)
            X /= np.maximum(norms, 1e-12)[:, None] / rng.uniform(0.2, 1.0, size=T)[:, None]
            gp = rng.normal(size=T)
            G = gp[:, None] * X
            lhs = np.sum(np.sqrt(S * np.sum(G * G, axis=0)))
            rhs = math.sqrt(d) * math.sqrt(np.sum(gp * gp))
            assert lhs <= rhs + 1e-9
