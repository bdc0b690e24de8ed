import math

import numpy as np
import pytest

from nol.core import SparseExample, get_loss
from nol.errors import NumericFault
from nol.learners import KINDS, GridLearner, Learner, LearnerConfig, run_stream
from nol.regret import apply_scaling, random_instance

SQ = get_loss("squared")


def ex(feats, y=1.0):
    return SparseExample(tuple(sorted(feats.items())), y)


class TestWorkedExamples:
    def test_ng_single_step(self):
        l = Learner(LearnerConfig("ng", 0.5), SQ)
        yhat, lval = l.observe(ex({0: 2.0}))
        assert yhat == 0.0
        assert l.s[0] == 2.0
        assert l.N == 1.0
        assert l.w[0] == 0.5

    def test_ng_two_steps_with_squash(self):
        l = Learner(LearnerConfig("ng", 0.5), SQ)
        l.observe(ex({0: 1.0}))
        assert l.w[0] == 1.0
        yhat, lval = l.observe(ex({0: 2.0}))
        assert yhat == 0.5
        assert l.s[0] == 2.0
        assert l.N == 2.0
        assert l.w[0] == 0.5

    def test_nag_single_step(self):
        l = Learner(LearnerConfig("nag", 1.0), SQ)
        yhat, _ = l.observe(ex({0: 2.0}))
        assert yhat == 0.0
        assert l.s[0] == 2.0
        assert l.N == 1.0
        assert l.G[0] == 16.0
        assert l.w[0] == 0.5

    def test_adagrad_single_step(self):
        l = Learner(LearnerConfig("adagrad", 1.0), SQ)
        l.observe(ex({0: 2.0}))
        assert l.G[0] == 16.0
        assert l.w[0] == 1.0

    @pytest.mark.parametrize("kind", ["ng", "nag", "snag", "adagrad", "sgd"])
    def test_empty_example_counts_but_no_update(self, kind):
        l = Learner(LearnerConfig(kind, 1.0), SQ)
        yhat, lval = l.observe(SparseExample((), 1.0))
        assert yhat == 0.0
        assert lval == 1.0
        assert l.t == 1
        assert l.w == {} and l.N == 0.0


class TestRunStream:
    def test_zero_eta_sgd(self):
        stream = [ex({0: 1.0}, y) for y in (1.0, -1.0, 2.0)]
        rep = run_stream(LearnerConfig("sgd", 0.0), SQ, stream)
        assert rep.losses == [1.0, 1.0, 4.0]
        assert rep.average_loss == 2.0

    def test_nag_single_example(self):
        rep = run_stream(LearnerConfig("nag", 1.0), SQ, [ex({0: 2.0})])
        assert rep.average_loss == 1.0

    def test_ng_two_step_progressive(self):
        rep = run_stream(LearnerConfig("ng", 0.5), SQ, [ex({0: 1.0}), ex({0: 2.0})])
        assert rep.losses == [1.0, 0.25]
        assert rep.average_loss == 0.625

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            run_stream(LearnerConfig("sgd", 0.1), SQ, [])

    def test_numeric_fault_names_example(self):
        # enormous eta diverges the squared loss quickly
        stream = [ex({0: 10.0}, 1.0) for _ in range(200)]
        with pytest.raises(NumericFault, match="example"):
            run_stream(LearnerConfig("sgd", 1e150), SQ, stream)


class TestClipping:
    def test_clipped_prediction_feeds_loss(self):
        l = Learner(LearnerConfig("sgd", 0.0, clip_c=0.5), SQ)
        l.w[0] = 10.0
        yhat, lval = l.observe(ex({0: 1.0}, y=1.0))
        assert yhat == 0.5
        assert lval == 0.25


class TestInvariants:
    def scale_for(self, rng, d):
        return {i: float(2.0 ** int(k)) for i, k in enumerate(rng.integers(-8, 9, size=d))}

    @pytest.mark.parametrize("kind", ["ng", "nag", "snag"])
    @pytest.mark.parametrize("loss_kind", ["squared", "hinge", "logistic"])
    def test_scale_invariance(self, kind, loss_kind):
        loss = get_loss(loss_kind)
        rng = np.random.default_rng(5)
        stream = random_instance(31, d=5, T=300)
        D = self.scale_for(rng, 5)
        r1 = run_stream(LearnerConfig(kind, 0.5), loss, stream, keep_predictions=True)
        r2 = run_stream(LearnerConfig(kind, 0.5), loss,
                        list(apply_scaling(stream, D)), keep_predictions=True)
        for a, b in zip(r1.predictions, r2.predictions):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    @pytest.mark.parametrize("kind", ["ng", "nag", "snag"])
    def test_scaled_weights_are_divided(self, kind):
        stream = random_instance(8, d=4, T=200)
        D = {0: 4.0, 1: 0.25, 2: 8.0, 3: 0.5}
        l1 = Learner(LearnerConfig(kind, 0.5), SQ)
        l2 = Learner(LearnerConfig(kind, 0.5), SQ)
        for a in stream:
            l1.observe(a)
        for b in apply_scaling(stream, D):
            l2.observe(b)
        for i, w in l1.w.items():
            assert abs(l2.w[i] - w / D[i]) <= 1e-9 * max(1.0, abs(w / D[i]))

    @pytest.mark.parametrize("kind", ["adagrad", "sgd"])
    def test_baselines_are_not_invariant(self, kind):
        loss = get_loss("hinge")
        stream = random_instance(31, d=5, T=300)
        D = {i: 16.0 for i in range(5)}
        r1 = run_stream(LearnerConfig(kind, 0.5), loss, stream, keep_predictions=True)
        r2 = run_stream(LearnerConfig(kind, 0.5), loss,
                        list(apply_scaling(stream, D)), keep_predictions=True)
        assert any(abs(a - b) > 1e-6 * max(1.0, abs(a))
                   for a, b in zip(r1.predictions, r2.predictions))

    @pytest.mark.parametrize("kind,power", [("ng", 2), ("nag", 1)])
    def test_squash_conservation(self, kind, power):
        # Observing with eta=0 isolates the squash pass: w_i * s_i^power
        # right after the squash must equal the value right before it.
        l = Learner(LearnerConfig(kind, 0.5), SQ)
        l.observe(ex({0: 1.0}))
        before = l.w[0] * l.s[0] ** power
        frozen = Learner(LearnerConfig(kind, 0.0), SQ)
        frozen.w, frozen.s, frozen.G = dict(l.w), dict(l.s), dict(l.G)
        frozen.N, frozen.t = l.N, l.t
        frozen.observe(ex({0: 3.0}))
        assert frozen.s[0] == 3.0
        assert frozen.w[0] * frozen.s[0] ** power == before

    def test_snag_squash_conservation(self):
        l = Learner(LearnerConfig("snag", 0.5), SQ)
        l.observe(ex({0: 1.0}))
        before = l.w[0] * l.sigma[0]
        frozen = Learner(LearnerConfig("snag", 0.0), SQ)
        frozen.w, frozen.s, frozen.G = dict(l.w), dict(l.s), dict(l.G)
        frozen.sigma = dict(l.sigma)
        frozen.N, frozen.t = l.N, l.t
        frozen.observe(ex({0: 10.0}))
        assert frozen.sigma[0] > l.sigma[0]
        assert frozen.w[0] * frozen.sigma[0] == pytest.approx(before, rel=1e-15)

    def test_n_bookkeeping(self):
        d, T = 6, 400
        stream = random_instance(77, d=d, T=T)
        for kind in ("ng", "nag"):
            l = Learner(LearnerConfig(kind, 0.5), SQ)
            prev_n = 0.0
            for e in stream:
                l.observe(e)
                assert prev_n <= l.N <= l.t * d + 1e-12
                prev_n = l.N
            assert 0.0 <= l.N / l.t <= d

    @pytest.mark.parametrize("kind", ["ng", "nag", "snag", "adagrad", "sgd"])
    def test_permutation_equivariance(self, kind):
        # hinge keeps the unnormalized baselines from diverging on the
        # wide-scale stream
        loss = get_loss("hinge")
        stream = random_instance(13, d=4, T=150)
        perm = {0: 2, 1: 0, 2: 3, 3: 1}
        permuted = [
            SparseExample(tuple(sorted((perm[i], v) for i, v in e.features)), e.label)
            for e in stream
        ]
        r1 = run_stream(LearnerConfig(kind, 0.5), loss, stream, keep_predictions=True)
        r2 = run_stream(LearnerConfig(kind, 0.5), loss, permuted, keep_predictions=True)
        assert r1.predictions == r2.predictions

        l1 = Learner(LearnerConfig(kind, 0.5), loss)
        l2 = Learner(LearnerConfig(kind, 0.5), loss)
        for a, b in zip(stream, permuted):
            l1.observe(a)
            l2.observe(b)
        for i, w in l1.w.items():
            assert l2.w[perm[i]] == w

    @pytest.mark.parametrize("kind", ["ng", "nag", "snag", "adagrad", "sgd"])
    def test_always_zero_feature_has_zero_weight(self, kind):
        stream = random_instance(3, d=3, T=100)
        l = Learner(LearnerConfig(kind, 0.5), SQ)
        for e in stream:
            l.observe(e)
        assert l.w.get(57, 0.0) == 0.0


class TestGridLearner:
    @pytest.mark.parametrize("kind", KINDS)
    def test_rows_follow_scalar_learners(self, kind):
        # the stream statistics are bitwise the scalar learner's; the weights
        # differ only through the summation order of the predictions
        stream = random_instance(4, d=5, T=120)
        loss = get_loss("logistic")
        etas = [0.01, 0.1, 1.0]
        grid = GridLearner(kind, etas, loss)
        scalars = [Learner(LearnerConfig(kind, eta), loss) for eta in etas]
        for x in stream:
            yhat, lval, faults = grid.observe(x)
            assert faults == {}
            for r, learner in enumerate(scalars):
                want_yhat, want_lval = learner.observe(x)
                assert yhat[r] == pytest.approx(want_yhat, rel=1e-9, abs=1e-12)
                assert lval[r] == pytest.approx(want_lval, rel=1e-9)
        for learner in scalars:
            assert (grid.t, grid.N, grid.s, grid.sigma) == \
                   (learner.t, learner.N, learner.s, learner.sigma)
        for r, learner in enumerate(scalars):
            for i, c in grid.columns.items():
                assert grid.W[r, c] == pytest.approx(learner.w.get(i, 0.0), rel=1e-9, abs=1e-12)

    def test_columns_grow_past_capacity(self):
        grid = GridLearner("nag", [0.5, 1.0], SQ)
        for i in range(40):
            grid.observe(ex({i: 1.0, 1000 + i: -2.0}))
        assert len(grid.columns) == 80 and grid.W.shape == (2, 128) == grid.G.shape
