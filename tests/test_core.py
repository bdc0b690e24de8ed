import itertools
import math

import numpy as np
import pytest

from nol.core import SparseExample, clip_prediction, get_loss, predict
from nol.errors import InvalidLabel, NumericFault
from nol.learners import Learner, LearnerConfig, run_stream


class TestSparseExample:
    def test_zero_values_dropped(self):
        ex = SparseExample(((1, 0.0), (3, 4.0)), 1.0)
        assert ex.features == ((3, 4.0),)

    def test_indices_strictly_increasing(self):
        with pytest.raises(ValueError):
            SparseExample(((2, 1.0), (2, 3.0)), 1.0)
        with pytest.raises(ValueError):
            SparseExample(((3, 1.0), (1, 3.0)), 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericFault):
            SparseExample(((0, float("nan")),), 1.0)
        with pytest.raises(NumericFault):
            SparseExample(((0, 1.0),), float("inf"))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SparseExample(((-1, 1.0),), 1.0)


class TestPredict:
    def test_zero_weights(self):
        assert predict({0: 0.0, 1: 0.0}, SparseExample(((0, 2.0), (1, 3.0)), 1.0)) == 0.0

    def test_dot_product_by_hand(self):
        assert predict({0: 0.5, 1: -1.0}, SparseExample(((0, 2.0), (1, 3.0)), 1.0)) == -2.0

    def test_partial_weight_vector(self):
        # unseen indices count as zero
        assert predict({0: 0.25}, SparseExample(((0, 2.0),), 1.0)) == 0.5
        assert predict({0: 0.25}, SparseExample(((0, 2.0), (7, 1.0)), 1.0)) == 0.5

    def test_nonfinite_weight_gives_nonfinite_prediction(self):
        ex = SparseExample(((0, 2.0),), 1.0)
        assert math.isnan(predict({0: float("nan")}, ex))
        # which the learner rejects
        learner = Learner(LearnerConfig("sgd", 0.5), get_loss("hinge"))
        learner.w[0] = float("nan")
        with pytest.raises(NumericFault, match=r"^non-finite prediction nan$"):
            learner.observe(ex)

    @pytest.mark.parametrize("products,want", [
        ((1e308, 1e308, -1e308), 1e308),     # math.fsum raises in two of the orders
        ((1e308, 1e308), math.inf),
        ((-1e308, -1e308, 1e308, -1e308), -math.inf),
        ((math.inf, 1e308, 1e308), math.inf),
        ((math.inf, -math.inf, 1.0), math.nan),
        ((math.inf, -math.inf, 1e308, 1e308), math.nan),
    ], ids=["partial-sum-overflows", "sum-overflows", "negative-sum-overflows",
            "inf-and-overflow", "both-infs", "both-infs-and-overflow"])
    def test_overflowing_sums_do_not_depend_on_the_order(self, products, want):
        for order in itertools.permutations(range(len(products))):
            x = SparseExample(tuple((i, 1.0) for i in range(len(products))), 1.0)
            got = predict({i: products[k] for i, k in enumerate(order)}, x)
            assert got == want or (math.isnan(got) and math.isnan(want)), (order, got)

    def test_overflow_path_keeps_the_exact_sum(self):
        # a partial sum overflows, and the exact sum is 1 + 2^-52
        products = (1e308, 1e308, -1e308, -1e308, 1.0, 2.0 ** -53, 2.0 ** -53)
        x = SparseExample(tuple((i, 1.0) for i in range(len(products))), 1.0)
        assert predict(dict(enumerate(products)), x) == 1.0 + 2.0 ** -52

    def test_clip_keeps_nan(self):
        assert math.isnan(clip_prediction(math.nan, 1.0))
        assert clip_prediction(math.inf, 2.0) == 2.0 and clip_prediction(-math.inf, 2.0) == -2.0
        assert clip_prediction(0.5, 2.0) == 0.5

    def test_linearity_in_values(self):
        import random
        rnd = random.Random(0)
        w = {i: rnd.uniform(-2, 2) for i in range(5)}
        for _ in range(100):
            feats = tuple((i, rnd.uniform(-3, 3)) for i in range(5))
            alpha = rnd.uniform(-4, 4)
            ex = SparseExample(feats, 1.0)
            scaled = SparseExample(tuple((i, alpha * v) for i, v in feats), 1.0)
            a, b = predict(w, scaled), alpha * predict(w, ex)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


class TestLosses:
    def test_squared_values(self):
        assert get_loss("squared").value_and_derivative(0.5, 1.0) == (0.25, -1.0)

    def test_hinge_values(self):
        assert get_loss("hinge").value_and_derivative(0.5, 1.0) == (0.5, -1.0)

    def test_hinge_kink_subgradient_zero(self):
        assert get_loss("hinge").derivative(1.0, 1.0) == 0.0

    def test_logistic_at_zero(self):
        l, g = get_loss("logistic").value_and_derivative(0.0, 1.0)
        assert l == pytest.approx(math.log(2.0), rel=1e-12)
        assert g == pytest.approx(-0.5, rel=1e-12)

    def test_unknown_loss(self):
        with pytest.raises(ValueError, match="unknown loss 'cubic'"):
            get_loss("cubic")

    @pytest.mark.parametrize("kind", ["hinge", "logistic"])
    def test_classification_label_checked(self, kind):
        with pytest.raises(InvalidLabel):
            get_loss(kind).value(0.5, 0.0)
        with pytest.raises(InvalidLabel):
            get_loss(kind).derivative(0.5, 2.0)

    @pytest.mark.parametrize("kind", ["squared", "hinge", "logistic"])
    def test_derivative_matches_finite_differences(self, kind):
        import random
        rnd = random.Random(17)
        loss = get_loss(kind)
        h = 1e-6
        checked = 0
        while checked < 1000:
            yhat = rnd.uniform(-5, 5)
            y = rnd.choice([-1.0, 1.0]) if kind != "squared" else rnd.uniform(-5, 5)
            if kind == "hinge" and abs(yhat * y - 1.0) <= 1e-3:
                continue
            checked += 1
            fd = (loss.value(yhat + h, y) - loss.value(yhat - h, y)) / (2 * h)
            d = loss.derivative(yhat, y)
            assert abs(d - fd) / max(1.0, abs(d)) <= 1e-6

    # the hindsight oracle's FISTA steps by 1/smoothness; the bound must
    # hold everywhere, and be reached (logistic's at margin 0)
    @pytest.mark.parametrize("kind", ["squared", "logistic"])
    def test_smoothness_bounds_the_derivatives_change(self, kind):
        import random
        rnd = random.Random(23)
        loss = get_loss(kind)
        h = 1e-4
        steepest = 0.0
        for _ in range(1000):
            yhat = rnd.uniform(-5, 5)
            y = rnd.choice([-1.0, 1.0]) if kind != "squared" else rnd.uniform(-5, 5)
            slope = abs(loss.derivative(yhat + h, y) - loss.derivative(yhat, y)) / h
            assert slope <= loss.smoothness * (1.0 + 1e-9)
            steepest = max(steepest, slope)
        assert steepest >= loss.smoothness * (1.0 - 1e-3)

    def test_hinge_is_not_smooth(self):
        assert get_loss("hinge").smoothness is None

    @pytest.mark.parametrize("kind", ["squared", "hinge", "logistic"])
    def test_convexity(self, kind):
        import random
        rnd = random.Random(3)
        loss = get_loss(kind)
        for _ in range(500):
            y = rnd.choice([-1.0, 1.0]) if kind != "squared" else rnd.uniform(-3, 3)
            a, b = rnd.uniform(-5, 5), rnd.uniform(-5, 5)
            lam = rnd.random()
            mid = loss.value(lam * a + (1 - lam) * b, y)
            chord = lam * loss.value(a, y) + (1 - lam) * loss.value(b, y)
            assert mid <= chord + 1e-12

    @pytest.mark.parametrize("kind", ["squared", "hinge", "logistic"])
    def test_nonnegative(self, kind):
        import random
        rnd = random.Random(9)
        loss = get_loss(kind)
        for _ in range(200):
            y = rnd.choice([-1.0, 1.0]) if kind != "squared" else rnd.uniform(-3, 3)
            assert loss.value(rnd.uniform(-10, 10), y) >= 0.0


class TestLossForms:
    """A loss's scalar and numpy forms evaluate the same expressions, so
    they agree bit for bit, signed zeros included."""

    # the hinge kink (m = 1), m = 0, and |m| = 800, where e^{-|m|} is 0
    PREDS = [1.0, -1.0, 0.0, -0.0, 800.0, -800.0, 0.5, -3.25, 1e-300, 37.0, 2.0 ** 60]

    @staticmethod
    def _bits(pairs):
        return [(float(v).hex(), float(d).hex()) for v, d in pairs]

    @pytest.mark.parametrize("kind", ["squared", "hinge", "logistic"])
    def test_scalar_form_is_array_form(self, kind):
        loss = get_loss(kind)
        preds = self.PREDS + np.random.default_rng(5).uniform(-40.0, 40.0, 400).tolist()
        same = np.ones(len(preds), dtype=bool)
        for y in ([-1.0, 1.0] if loss.classification else [-1.0, 0.3, 2.0]):
            P = np.array(preds)
            if kind == "logistic":
                # numpy's vectorized exp and log1p round differently from
                # libm's in the last place on some inputs; the two forms
                # can agree bit for bit only where those agree
                e = np.exp(-np.abs(y * P))
                same = (e == [math.exp(-abs(y * p)) for p in preds]) & \
                       (np.log1p(e) == [math.log1p(v) for v in e.tolist()])
                assert same[2:6].all() and same.mean() > 0.5
            got = zip(*loss.values_and_derivatives(P, y))
            want = [loss.value_and_derivative(p, y) for p in preds]
            assert [g for g, ok in zip(self._bits(got), same) if ok] == \
                   [w for w, ok in zip(self._bits(want), same) if ok]


class _NaNDerivative(type(get_loss("squared"))):
    def value_and_derivative(self, yhat, y):
        return 0.0, float("nan")


class TestNonFiniteDerivative:
    @pytest.mark.parametrize("kind", ["ng", "nag", "snag", "adagrad", "sgd"])
    def test_nan_loss_derivative_is_a_fault_naming_the_example(self, kind):
        stream = [SparseExample(((0, 1.0),), 1.0)] * 2
        with pytest.raises(NumericFault, match=r"^example 1: non-finite .* nan at coordinate 0$"):
            run_stream(LearnerConfig(kind, 0.5), _NaNDerivative(), stream)
