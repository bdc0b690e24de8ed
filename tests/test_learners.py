import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nol.core import SparseExample, get_loss
from nol.data import synth_figure1
from nol.errors import NumericFault
from nol.learners import KINDS, GridLearner, Learner, LearnerConfig, run_stream
from nol.regret import apply_scaling, random_instance

SQ = get_loss("squared")
HINGE = get_loss("hinge")


def ex(feats, y=1.0):
    return SparseExample(tuple(sorted(feats.items())), y)


def observe(grid, x):
    """observe_block of one example: (predictions, losses, row -> reason)."""
    Y, L, faults = grid.observe_block([x])
    return Y[0], L[0], {r: reason for r, (_, reason) in faults.items()}


def grid_stats(grid, k=0):
    """(t, N, s, sigma) of a grid's k-th kind as a Learner keeps them: s and
    sigma as dicts feature -> value, read through the column map."""
    tr = grid.kinds[k].tracker

    def by_feature(a):
        return {} if a is None else {i: float(a[c]) for i, c in grid.columns.items()}
    return tr.t, tr.N, by_feature(tr.s), by_feature(tr.sigma)


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


class TestLearnerConfig:
    @pytest.mark.parametrize("kw,message", [
        (dict(kind="x", eta=1.0), "^unknown learner kind 'x'; expected one of "),
        (dict(kind="sgd", eta=math.nan), "^eta must be finite and >= 0, got nan$"),
        (dict(kind="sgd", eta=1.0, clip_c=0), "^clip_c must be strictly positive, got 0$"),
    ], ids=["kind", "eta", "clip_c"])
    def test_bad_value_is_named(self, kw, message):
        with pytest.raises(ValueError, match=message):
            LearnerConfig(**kw)


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

    def test_loss_sum_overflow_is_a_fault(self):
        # each loss, 1.3e154 squared, is finite; their sum is not
        stream = [ex({0: 1.0}, 1.3e154)] * 3
        with pytest.raises(NumericFault, match=r"^example 2: non-finite loss sum inf$"):
            run_stream(LearnerConfig("sgd", 0.0), SQ, stream)

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


class TestEtaDecay:
    def test_ng_second_step_takes_eta_over_sqrt2(self):
        l = Learner(LearnerConfig("ng", 0.5, eta_decay=True), SQ)
        l.observe(ex({0: 2.0}))
        assert l.w[0] == 0.5   # t = 1: eta / sqrt(1) is eta
        yhat, _ = l.observe(ex({0: 1.0}))
        # t = 2, N = 1 + (1/2)^2, gp = 2 * (0.5 - 1): w -= (eta/sqrt2) (t/N) gp (x/s) / s
        assert yhat == 0.5
        assert l.w[0] == pytest.approx(0.5 + 0.2 / math.sqrt(2.0), rel=1e-15)

    def test_sgd_second_step_takes_eta_over_sqrt2(self):
        l = Learner(LearnerConfig("sgd", 0.3, eta_decay=True), SQ)
        l.observe(ex({0: 1.0}))
        assert l.w[0] == pytest.approx(0.6, rel=1e-15)
        l.observe(ex({0: 1.0}))
        # gp = 2 * (0.6 - 1) = -0.8: w -= (eta/sqrt2) gp x
        assert l.w[0] == pytest.approx(0.6 + 0.24 / math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("kind", ["nag", "snag", "adagrad"])
    @pytest.mark.parametrize("loss_kind", ["squared", "logistic"])
    def test_gradient_sum_kinds_ignore_it(self, kind, loss_kind):
        loss = get_loss(loss_kind)
        stream = random_instance(6, d=4, T=60, classification=loss_kind != "squared")
        a, b = (run_stream(LearnerConfig(kind, 0.3, eta_decay=decay), loss, stream)
                for decay in (False, True))
        assert (a.losses, a.predictions, a.state) == (b.losses, b.predictions, b.state)


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
        r1 = run_stream(LearnerConfig(kind, 0.5), loss, stream)
        r2 = run_stream(LearnerConfig(kind, 0.5), loss, list(apply_scaling(stream, D)))
        for a, b in zip(r1.predictions, r2.predictions):
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a))

    # Any positive scaling, not only powers of two: the traces then agree up
    # to rounding. The worst difference measured over ~8,700 such draws was
    # 4.8e-12 relative (ng, squared loss, eta = 2, where constant steps
    # amplify rounding). Hinge loss is left out: its subgradient jumps at
    # margin 1, so a margin of 1 - 1e-16 against 1.0 takes another step
    # (0.39 relative in 1 of ~1,300 hinge draws); test_scale_invariance
    # covers it with exact scalings.
    LOG_UNIFORM_RTOL = 1e-10

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["ng", "nag", "snag"]),
           loss_kind=st.sampled_from(["squared", "logistic"]),
           seed=st.integers(0, 2 ** 16), T=st.integers(2, 60), eta_exp=st.integers(-4, 2),
           exponents=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=5))
    def test_log_uniform_scale_invariance(self, kind, loss_kind, seed, T, eta_exp, exponents):
        loss = get_loss(loss_kind)
        stream = random_instance(seed, d=len(exponents), T=T,
                                 classification=loss_kind != "squared")
        D = {i: 10.0 ** e for i, e in enumerate(exponents)}
        config = LearnerConfig(kind, 2.0 ** eta_exp)
        r1 = run_stream(config, loss, stream)
        r2 = run_stream(config, loss, list(apply_scaling(stream, D)))
        for a, b in zip(r1.predictions, r2.predictions):
            assert abs(a - b) <= self.LOG_UNIFORM_RTOL * max(1.0, abs(a))

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
        r1 = run_stream(LearnerConfig(kind, 0.5), loss, stream)
        r2 = run_stream(LearnerConfig(kind, 0.5), loss, list(apply_scaling(stream, D)))
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
        r1 = run_stream(LearnerConfig(kind, 0.5), loss, stream)
        r2 = run_stream(LearnerConfig(kind, 0.5), loss, permuted)
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
        # differ only through the summation order of the predictions and
        # numpy's exp, which can round otherwise than libm's
        stream = random_instance(4, d=5, T=120)
        loss = get_loss("logistic")
        etas = [0.01, 0.1, 1.0]
        grid = GridLearner([kind], etas, loss)
        scalars = [Learner(LearnerConfig(kind, eta), loss) for eta in etas]
        for x in stream:
            yhat, lval, faults = observe(grid, x)
            assert faults == {}
            for r, learner in enumerate(scalars):
                want_yhat, want_lval = learner.observe(x)
                assert yhat[r] == pytest.approx(want_yhat, rel=1e-9, abs=1e-12)
                assert lval[r] == pytest.approx(want_lval, rel=1e-9)
        for learner in scalars:
            assert grid_stats(grid) == (learner.t, learner.N, learner.s, learner.sigma)
        for r, learner in enumerate(scalars):
            for i, c in grid.columns.items():
                assert grid.W[r, c] == pytest.approx(learner.w.get(i, 0.0), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("loss_kind", ["squared", "hinge", "logistic"])
    @pytest.mark.parametrize("eta", [0.05, 0.3])
    def test_first_step_is_the_grid_step(self, kind, loss_kind, eta):
        # every prediction on a stream's first example is exactly 0, so the
        # one step both learners take from it must agree bit for bit
        loss = get_loss(loss_kind)
        x = ex({0: 3.7, 5: -0.013, 9: 250.0}, 0.7 if loss_kind == "squared" else -1.0)
        learner = Learner(LearnerConfig(kind, eta), loss)
        grid = GridLearner([kind], [eta], loss)
        assert learner.observe(x)[0] == 0.0
        assert observe(grid, x)[2] == {}
        for i, c in grid.columns.items():
            assert grid.W[0, c].hex() == learner.w.get(i, 0.0).hex()
            if len(grid.G):
                assert grid.G[0, c].hex() == learner.G.get(i, 0.0).hex()

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_supports_take_no_step(self, kind):
        # N is still 0 after an empty first example, so no rate exists yet
        stream = [ex({}), ex({0: 2.0}), ex({}, -1.0), ex({0: -1.0, 1: 3.0}, -1.0)]
        grid = GridLearner([kind], [0.5], HINGE)
        learner = Learner(LearnerConfig(kind, 0.5), HINGE)
        for x in stream:
            yhat, lval, faults = observe(grid, x)
            assert faults == {}
            want_yhat, want_lval = learner.observe(x)
            assert yhat[0] == pytest.approx(want_yhat, rel=1e-12)
            assert lval[0] == pytest.approx(want_lval, rel=1e-12)
        for i, c in grid.columns.items():
            assert grid.W[0, c] == pytest.approx(learner.w.get(i, 0.0), rel=1e-12)

    def test_columns_grow_past_capacity(self):
        grid = GridLearner(["nag"], [0.5, 1.0], SQ)
        for i in range(40):
            observe(grid, ex({i: 1.0, 1000 + i: -2.0}))
        assert len(grid.columns) == 80 and grid.W.shape == (2, 128) == grid.G.shape


class TestStackedGrid:
    """A grid of several kinds is the one-kind grids of its kinds, row block
    by row block, bit for bit."""

    ETAS = [2.0 ** e for e in range(-8, 7, 2)]
    # the gradient-sum rows (nag, adagrad, snag) are not contiguous in W
    ORDER = ("nag", "ng", "adagrad", "sgd", "snag")

    @pytest.mark.parametrize("loss_kind,clip_c", [("logistic", None), ("hinge", 1.0),
                                                  ("squared", None)])
    def test_kind_rows_equal_one_kind_grids(self, loss_kind, clip_c):
        # on squared loss, ng at eta 16 and 64 and sgd at 64 overflow
        stream = synth_figure1(1.0, 150, seed=3)
        loss, n = get_loss(loss_kind), len(self.ETAS)
        stacked = GridLearner(self.ORDER, self.ETAS, loss, clip_c)
        singles = [GridLearner([kind], self.ETAS, loss, clip_c) for kind in self.ORDER]
        faulted = set()
        with np.errstate(all="ignore"):
            for x in stream:
                yhat, lval, faults = observe(stacked, x)
                want_faults = {}
                for k, single in enumerate(singles):
                    y1, l1, f1 = observe(single, x)
                    np.testing.assert_array_equal(yhat[k * n:(k + 1) * n], y1)
                    np.testing.assert_array_equal(lval[k * n:(k + 1) * n], l1)
                    want_faults.update({k * n + r: why for r, why in f1.items()})
                assert faults == want_faults
                faulted.update(faults)
        g = 0
        for k, single in enumerate(singles):
            np.testing.assert_array_equal(stacked.W[k * n:(k + 1) * n], single.W)
            if len(single.G):
                np.testing.assert_array_equal(stacked.G[g:g + n], single.G)
                g += n
        assert g == len(stacked.G)
        if loss_kind == "squared":
            assert {(self.ORDER[r // n], self.ETAS[r % n]) for r in faulted} == \
                   {("ng", 16.0), ("ng", 64.0), ("sgd", 64.0)}

    def test_statistics_fault_fails_only_its_kind(self):
        # snag's sum of squares overflows on the second example; sgd and ng
        # go on exactly as they would without snag beside them
        stream = [ex({0: 1e154}), ex({0: 1e154})] + \
                 [ex({1: float(k % 3 + 1)}, 1.0 if k % 2 else -1.0) for k in range(20)]
        kinds = ["sgd", "snag", "ng"]
        stacked = GridLearner(kinds, [0.5, 1.0], HINGE)
        others = GridLearner(["sgd", "ng"], [0.5, 1.0], HINGE)
        faults = []
        with np.errstate(all="ignore"):
            for x in stream:
                faults.append(observe(stacked, x)[2])
                assert observe(others, x)[2] == {}
        reason = "non-finite sum of squares inf at coordinate 0"
        assert faults[1] == {2: reason, 3: reason}
        assert all(f == {} for i, f in enumerate(faults) if i != 1)
        assert [k.tracker.fault for k in stacked.kinds] == [None, reason, None]
        assert not stacked.W[2:4].any() and not stacked.G.any()
        np.testing.assert_array_equal(stacked.W[[0, 1, 4, 5]], others.W)
        assert others.W[:, others.columns[1]].all()


class TestBlockStatistics:
    """A grid's block statistics are the scalar stages', bit for bit."""

    @staticmethod
    def streams():
        # features come and go; magnitudes log-uniform over 1e-6 .. 1e6
        value = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 6.0)).map(
            lambda sv: sv[0] * 10.0 ** sv[1])
        example = st.dictionaries(st.integers(0, 7), value, max_size=6).map(ex)
        return st.lists(example, min_size=1, max_size=30)

    @settings(max_examples=60, deadline=None)
    @given(stream=streams(), cuts=st.lists(st.integers(1, 7), min_size=1, max_size=12))
    def test_block_statistics_are_the_scalar_stages(self, stream, cuts):
        grid = GridLearner(list(KINDS), [0.5], HINGE)
        scalars = [Learner(LearnerConfig(kind, 0.5), HINGE) for kind in KINDS]
        start, c = 0, 0
        while start < len(stream):
            block = stream[start:start + cuts[c % len(cuts)]]
            start, c = start + len(block), c + 1
            b = grid._block(block)
            for k, learner in enumerate(scalars):
                stage = learner._stage
                want_f, want_u, want_s, want_rate = [], [], [], []
                for x in block:
                    learner.t += 1
                    # a unit weight on every feature the grid has seen: the
                    # weight the stage leaves is its squash factor
                    learner.w = dict.fromkeys(grid.columns, 1.0)
                    scale = None if stage.stats is None else stage.stats(learner, x.features)
                    scale = [1.0] * len(x.features) if scale is None else scale
                    for (i, v), q in zip(x.features, scale):
                        want_f.append(learner.w[i])
                        want_u.append(v / q if stage.over_scale else v)
                        want_s.append(q)
                    want_rate.append(stage.rate(learner.t, learner.N) if x.features else 0.0)
                got = [b.F[:, k], b.U[:, k], b.S[:, k], b.rates[:, k]]
                want = [want_f, want_u, want_s, want_rate]
                assert [[float(v).hex() for v in a] for a in got] == \
                       [[v.hex() for v in a] for a in want], learner.config.kind
                assert grid_stats(grid, k) == (learner.t, learner.N, learner.s, learner.sigma)
            assert b.faults == {}


class TestGradientSumOverflow:
    # the first squared-loss gradient is -2e160, so its square overflows whatever eta is
    @pytest.mark.parametrize("kind", ["nag", "snag", "adagrad"])
    def test_scalar_learner_faults(self, kind):
        learner = Learner(LearnerConfig(kind, 1.0), SQ)
        with pytest.raises(NumericFault,
                           match=r"^non-finite gradient sum inf at coordinate 0$"):
            learner.observe(ex({0: 1e10}, 1e150))

    @pytest.mark.parametrize("kind", ["nag", "snag", "adagrad"])
    def test_grid_rows_fault_and_reset(self, kind):
        grid = GridLearner([kind], [0.5, 1.0], SQ)
        with np.errstate(all="ignore"):
            _, _, faults = observe(grid, ex({0: 1e10}, 1e150))
        assert faults == {r: "non-finite gradient sum inf at coordinate 0" for r in (0, 1)}
        assert not grid.G.any() and not grid.W.any()


class TestStepFaults:
    """The grid reports the fault that the scalar step raises first."""

    @staticmethod
    def both(kind, eta, stream, reason):
        learner = Learner(LearnerConfig(kind, eta), SQ)
        with pytest.raises(NumericFault, match=f"^{re.escape(reason)}$"):
            for x in stream:
                learner.observe(x)
        grid = GridLearner([kind], [eta], SQ)
        with np.errstate(all="ignore"):
            assert grid.observe_block(stream)[2] == {0: (len(stream) - 1, reason)}

    def test_underflowing_denominator_is_a_weight_fault(self):
        # G = (2e-162)^2 rounds to the least subnormal, and 1e-162 * sqrt(G)
        # to 0: the step is IEEE 754's division by +0, not a ZeroDivisionError
        self.both("nag", 1.0, [ex({0: 1e-162})], "non-finite weight inf at coordinate 0")

    def test_coordinates_fault_in_support_order(self):
        # on example 2 the weight of coordinate 0 and the gradient sums of
        # coordinates 1 and 3 overflow; the scalar step meets the weight first
        stream = [ex({3: 1.5e80}, -1.0), ex({0: 1e-235, 1: 1e78, 3: -2.5e105}, -1.0)]
        self.both("nag", 1e100, stream, "non-finite weight -inf at coordinate 0")


class TestStatisticsOverflow:
    def test_snag_sum_of_squares(self):
        learner = Learner(LearnerConfig("snag", 1e-300), get_loss("logistic"))
        learner.observe(ex({0: 1e154}))
        with pytest.raises(NumericFault,
                           match=r"^non-finite sum of squares inf at coordinate 0$"):
            learner.observe(ex({0: 1e154}))

    @pytest.mark.parametrize("feats,reason", [
        ({0: 1.0, 3: 1e-300}, "zero scale at coordinate 3"),
        ({0: 1.0, 3: 1e-300, 5: 1e154}, "zero scale at coordinate 3"),
        ({0: 1.0, 5: 1e154, 7: 1e-300}, "non-finite sum of squares inf at coordinate 5"),
    ])
    def test_snag_names_the_first_failing_coordinate(self, feats, reason):
        # on example 2, s_5 overflows and a new 1e-300 gives sigma 0, so
        # (x / sigma)^2 has no value; the scalar stage and the grid report
        # the first of them in support order
        stream = [ex({5: 1e154, 6: 1.0}), ex(feats)]
        learner = Learner(LearnerConfig("snag", 1.0), HINGE)
        learner.observe(stream[0])
        with pytest.raises(NumericFault, match=f"^{reason}$"):
            learner.observe(stream[1])
        grid = GridLearner(["snag", "sgd"], [1.0], HINGE)
        with np.errstate(all="ignore"):
            assert grid.observe_block(stream)[2] == {0: (1, reason)}

    @pytest.mark.parametrize("kind", ["ng", "nag"])
    def test_normalizer(self, kind):
        # N adds (x / max|x|)^2 = 1 at any scale, where x^2 / max|x|^2 was
        # 0 / 0 at 1e-300 and inf / inf at 1.5e154; ng's squash factor and
        # step divide before they square too
        for v in (1e-300, 1.5e154):
            learner = Learner(LearnerConfig(kind, 1.0), HINGE)
            grid = GridLearner([kind], [1.0], HINGE)
            if kind == "nag" and v == 1.5e154:   # (gp * x)^2 overflows whatever the scale
                with pytest.raises(NumericFault,
                                   match=r"^non-finite gradient sum inf at coordinate 0$"):
                    learner.observe(ex({0: v}))
                with np.errstate(all="ignore"):
                    assert observe(grid, ex({0: v}))[2] == \
                           {0: "non-finite gradient sum inf at coordinate 0"}
                continue
            for x in (ex({0: v}), ex({0: 2 * v}), ex({0: -v}, -1.0)):
                yhat, lval = learner.observe(x)
                gy, gl, faults = observe(grid, x)
                assert (gy.tolist(), gl.tolist(), faults) == ([yhat], [lval], {})
            assert learner.N == grid.kinds[0].tracker.N == 2.25
            w = learner.w.get(0, 0.0)
            assert math.isfinite(w) and grid.W[0, 0] == w
