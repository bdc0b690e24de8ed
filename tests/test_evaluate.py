import contextlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nol import learners
from nol.core import SparseExample, get_loss, predict
from nol.data import synth_figure1, synth_scaled
from nol.errors import DataFormatError, InvalidLabel, NolError, NumericFault
from nol import evaluate
from nol.evaluate import (
    ComparisonReport,
    SweepCell,
    default_eta_grid,
    kl_confidence_interval,
    multiclass_progressive,
    plot_csv_rows,
    progressive_validation,
    sweep,
)
from nol.learners import KINDS, Learner, LearnerConfig
from oracles import ex


SQ = get_loss("squared")
HINGE = get_loss("hinge")


class TestProgressiveValidation:
    def test_zero_one_sequence(self):
        # frozen learner predicts 0 forever; ties count as errors, so every
        # example is an error
        stream = [ex({0: 1.0}, 1.0), ex({0: 1.0}, -1.0)]
        res = progressive_validation(LearnerConfig("sgd", 0.0), HINGE, stream)
        assert res.eval_losses == [1.0, 1.0]

    def test_learning_reduces_errors(self):
        stream = [ex({0: 1.0}, 1.0) for _ in range(4)]
        res = progressive_validation(LearnerConfig("sgd", 0.5), HINGE, stream)
        # first prediction is 0 (tie -> error), afterwards positive
        assert res.eval_losses == [1.0, 0.0, 0.0, 0.0]
        assert res.average_eval_loss == 0.25

    def test_training_loss_is_progressive(self):
        # w = 1 after the first step, squashed to 1/4 when the scale grows to 2
        stream = [ex({0: 1.0}, 1.0), ex({0: 2.0}, 2.0)]
        res = progressive_validation(LearnerConfig("ng", 0.5), SQ, stream, task="regression")
        assert res.training_losses == [1.0, 2.25]
        assert res.average_training_loss == 1.625

    def test_regression_scaling(self):
        stream = [ex({0: 1.0}, 0.0), ex({0: 1.0}, 2.0)]
        res = progressive_validation(LearnerConfig("sgd", 0.0), SQ, stream,
                                     task="regression")
        # loss scale (2-0)^2 = 4; squared errors 0 and 4
        assert res.eval_losses == [0.0, 1.0]

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            progressive_validation(LearnerConfig("sgd", 0.1), SQ, [])

    def test_overflow_is_numeric_fault(self):
        # the squared loss of the 148th prediction overflows; the fault names
        # the example and the values instead of a bare OverflowError
        stream = synth_figure1(1.0, 150, seed=3)
        with pytest.raises(NumericFault,
                           match=r"^example 148: non-finite loss inf$"):
            progressive_validation(LearnerConfig("ng", 16.0), SQ, stream, task="regression")


class TestMulticlass:
    def test_three_class_learnable(self):
        rng = np.random.default_rng(8)
        stream = []
        for _ in range(300):
            c = int(rng.integers(0, 3))
            x = {c: 1.0, 3: float(rng.normal() * 0.1)}
            stream.append(ex(x, float(c)))
        res = multiclass_progressive(LearnerConfig("nag", 0.5), HINGE, stream)
        assert res.n_examples == 300
        # the disjoint indicator features make this easy; late errors vanish
        assert sum(res.eval_losses[100:]) == 0.0

    def test_single_class_trivial(self):
        stream = [ex({0: 1.0}, 2.0) for _ in range(5)]
        res = multiclass_progressive(LearnerConfig("sgd", 0.1), HINGE, stream)
        assert res.average_eval_loss == 0.0


class TestSweep:
    def small_sweep(self, stream, kinds=("nag", "sgd")):
        return sweep(list(kinds), "hinge", stream, [0.25, 0.5, 1.0])

    def test_grid_validation(self):
        stream = synth_figure1(1.0, 10, seed=2)
        with pytest.raises(ValueError):
            sweep(["sgd"], "hinge", stream, [])
        with pytest.raises(ValueError):
            sweep(["sgd"], "hinge", stream, [1.0, 0.5])

    @pytest.mark.parametrize("kinds", [[], ["ng", "ng"], ["ng", "sgd", "ng"]])
    def test_kinds_validation(self, kinds):
        with pytest.raises(ValueError, match="learner kinds"):
            sweep(kinds, "hinge", synth_figure1(1.0, 10, seed=2))

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="^no examples$"):
            sweep(["sgd"], "hinge", [])

    def test_default_grid(self):
        grid = default_eta_grid()
        assert grid[0] == 2.0 ** -20 and grid[-1] == 64.0
        assert len(grid) == 27

    def test_cells_cover_product(self):
        stream = synth_figure1(1.0, 50, seed=2)
        rep = self.small_sweep(stream)
        assert [(c.kind, c.eta) for c in rep.cells] == [
            ("nag", 0.25), ("nag", 0.5), ("nag", 1.0),
            ("sgd", 0.25), ("sgd", 0.5), ("sgd", 1.0)]

    def test_best_is_argmin(self):
        stream = synth_figure1(1.0, 200, seed=2)
        rep = self.small_sweep(stream)
        for kind in ("nag", "sgd"):
            cells = [c for c in rep.cells if c.kind == kind]
            lo = min(c.eval_loss for c in cells)
            assert rep.best[kind][1] == lo
            assert rep.best[kind][0] in [c.eta for c in cells if c.eval_loss == lo]

    def test_deterministic(self):
        stream = synth_figure1(1.0, 100, seed=5)
        r1 = self.small_sweep(stream)
        r2 = self.small_sweep(stream)
        assert [(c.kind, c.eta, c.eval_loss, c.training_loss) for c in r1.cells] == \
               [(c.kind, c.eta, c.eval_loss, c.training_loss) for c in r2.cells]

    def test_failed_cell_marked_not_fatal(self):
        # enormous constant rate diverges sgd on squared loss
        stream = [ex({0: 10.0}, 1.0 + (k % 2)) for k in range(200)]
        rep = sweep(["sgd"], "squared", stream, [1e-3, 1e150], task="regression")
        ok, bad = rep.cells
        assert ok.error is None and ok.eval_loss is not None
        assert bad.error is not None and bad.eval_loss is None
        assert rep.best["sgd"][0] == 1e-3

    def test_one_pass_over_a_one_shot_stream(self):
        stream = synth_figure1(1.0, 120, seed=4)
        kinds = ["ng", "nag", "sgd"]
        want = self.small_sweep(stream, kinds)
        got = self.small_sweep(iter(stream), kinds)
        assert got.cells == want.cells and got.best == want.best

    def test_plot_csv(self):
        stream = synth_figure1(1.0, 30, seed=1)
        rep = self.small_sweep(stream)
        rows = plot_csv_rows(rep)
        assert rows[0] == "learner,eta,loss"
        assert len(rows) == 1 + len(rep.cells)
        kind, eta, loss = rows[1].split(",")
        assert kind == "nag" and float(eta) == 0.25
        assert float(loss) == rep.cells[0].eval_loss


# The batched sweep sums each prediction's dot product in another order than
# the scalar learner's fsum, and numpy's exp can differ from libm's by an ulp;
# constant-step ng amplifies that most. The worst difference measured over the
# cases below was 2.4e-7 relative (ng, squared loss, eta=16).
TRAINING_LOSS_RTOL = 1e-6

SWEEP_STREAMS = {
    "figure1_s1": lambda: synth_figure1(1.0, 150, seed=3),
    "figure1_s1000": lambda: synth_figure1(1e3, 150, seed=3),
    "scaled_d4": lambda: synth_scaled(4, 300, seed=1),
}


def _matches_scalar(rep, reference):
    """Every cell of a sweep against reference(kind, eta) run per cell."""
    best = {}
    for cell in rep.cells:
        try:
            res = reference(cell.kind, cell.eta)
        except (NolError, ArithmeticError) as e:
            # same fault, same example, same words
            assert cell.error == str(e), (cell, e)
            continue
        assert cell.error is None, (cell, res)
        assert type(cell.eval_loss) is float and type(cell.training_loss) is float
        assert cell.training_loss == pytest.approx(res.average_training_loss,
                                                   rel=TRAINING_LOSS_RTOL), cell
        yield cell, res
        if cell.kind not in best or res.average_eval_loss < best[cell.kind][1]:
            best[cell.kind] = (cell.eta, res.average_eval_loss)
    assert {k: eta for k, (eta, _) in best.items()} == \
           {k: eta for k, (eta, _) in rep.best.items()}


class TestSweepMatchesScalar:
    @pytest.mark.parametrize("clip_c", [None, 1.0])
    @pytest.mark.parametrize("loss_kind", ["squared", "hinge", "logistic"])
    @pytest.mark.parametrize("stream_name", sorted(SWEEP_STREAMS))
    def test_cells_match_progressive_validation(self, stream_name, loss_kind, clip_c):
        stream = SWEEP_STREAMS[stream_name]()
        loss = get_loss(loss_kind)
        task = "regression" if loss_kind == "squared" else "classification"
        rep = sweep(list(KINDS), loss_kind, stream, task=task, clip_c=clip_c)
        assert len(rep.cells) == len(KINDS) * 27

        def reference(kind, eta):
            return progressive_validation(LearnerConfig(kind, eta, clip_c), loss, stream, task)

        for cell, res in _matches_scalar(rep, reference):
            if task == "classification":
                assert cell.eval_loss == res.average_eval_loss, cell
            else:
                assert cell.eval_loss == pytest.approx(res.average_eval_loss,
                                                       rel=TRAINING_LOSS_RTOL), cell

    def test_overflowing_cells_fail_with_numeric_fault(self):
        rep = sweep(["ng", "sgd"], "squared", synth_figure1(1.0, 150, seed=3), task="regression")
        failed = {(c.kind, c.eta): c.error for c in rep.cells if c.error is not None}
        assert set(failed) == {("ng", 16.0), ("ng", 32.0), ("ng", 64.0),
                               ("sgd", 32.0), ("sgd", 64.0)}
        assert failed["ng", 16.0] == "example 148: non-finite loss inf"
        assert all(c.eval_loss is None and c.training_loss is None
                   for c in rep.cells if c.error is not None)

    @pytest.mark.parametrize("case", ["logistic", "hinge-clip", "squared"])
    def test_one_grid_equals_a_sweep_per_kind(self, case):
        # every kind's rows of the one grid against a sweep of that kind alone
        stream = synth_figure1(1.0, 150, seed=3)
        kw = {"logistic": dict(loss="logistic"),
              "hinge-clip": dict(loss="hinge", clip_c=1.0),
              "squared": dict(loss="squared", task="regression")}[case]
        rep = sweep(list(KINDS), examples=stream, **kw)
        alone = [sweep([kind], examples=stream, **kw) for kind in KINDS]
        assert rep.cells == [c for r in alone for c in r.cells]
        assert rep.best == {k: v for r in alone for k, v in r.best.items()}
        if case == "squared":
            assert sum(c.error is not None for c in rep.cells) == 5

    def test_non_finite_eval_loss_fails_its_cell(self):
        stream = [ex({0: 1e78}, 1.0), ex({0: 1e78}, -1.0), ex({0: 1.0}, 1.0)]
        reason = "example 2: non-finite eval loss inf"
        rep = sweep(["sgd"], "hinge", stream, [1.0], task="regression")
        assert [c.error for c in rep.cells] == [reason]
        with pytest.raises(NumericFault, match=f"^{re.escape(reason)}$"):
            progressive_validation(LearnerConfig("sgd", 1.0), HINGE, stream, "regression")

    @pytest.mark.parametrize("loss,eta,stream,reason", [
        # each squared loss is finite, their sum is not
        ("squared", 1e-300, [ex({0: 1.0}, 1.3e154), ex({0: 1.0}, 1.2e154)],
         "example 2: non-finite loss sum inf"),
        # from example 2 on, a prediction of -1e154 scores eval losses of
        # 2.5e307, the eighth of which takes their sum past the float range
        ("hinge", 1.0, [ex({0: 1e154}, -1.0), ex({0: 1.0}, 1.0)] + [ex({0: 1.0}, -1.0)] * 8,
         "example 9: non-finite eval loss sum inf"),
    ])
    def test_overflowing_loss_sum_fails_its_cell(self, loss, eta, stream, reason):
        rep = sweep(["sgd"], loss, stream, [eta], task="regression")
        assert [(c.error, c.eval_loss, c.training_loss) for c in rep.cells] == [(reason, None, None)]
        with pytest.raises(NumericFault, match=f"^{re.escape(reason)}$"):
            progressive_validation(LearnerConfig("sgd", eta), get_loss(loss), stream, "regression")

    def test_invalid_label_ends_the_sweep_naming_the_example(self):
        stream = [ex({0: 1.0}, 1.0), ex({0: 2.0}, 2.0)]
        reason = "^example 2: classification label must be -1 or \\+1, got 2\\.0$"
        with pytest.raises(InvalidLabel, match=reason):
            sweep(["nag"], "hinge", stream, [0.5, 1.0])
        with pytest.raises(InvalidLabel, match=reason):
            progressive_validation(LearnerConfig("nag", 0.5), HINGE, stream)


def _cell_bits(rep):
    """A report's cells and best etas, floats as their hex."""
    def bits(v):
        return None if v is None else v.hex()
    return ([(c.kind, bits(c.eta), bits(c.eval_loss), bits(c.training_loss), c.error)
             for c in rep.cells],
            {k: (bits(eta), bits(loss)) for k, (eta, loss) in rep.best.items()})


def _figure1_squared():
    # ng at eta 16 and 64 and sgd at 64 overflow
    return dict(kinds=["nag", "ng", "adagrad", "sgd", "snag"], loss="squared",
                examples=synth_figure1(1.0, 150, seed=3),
                eta_grid=[2.0 ** e for e in range(-8, 7, 2)], task="regression")


def _snag_overflow(lead):
    # snag's sum of squares overflows on example lead + 2
    stream = [ex({1: 1.0}, 1.0), ex({1: 2.0}, -1.0)][:lead] + \
             [ex({0: 1e154}), ex({0: 1e154})] + \
             [ex({1: float(k % 3 + 1)}, 1.0 if k % 2 else -1.0) for k in range(20)]
    return dict(kinds=["sgd", "snag", "ng"], loss="hinge", examples=stream, eta_grid=[0.5, 1.0])


def _boundaries(bad_label):
    # empty supports on examples 3 and 4, either side of the first boundary
    # of 3-example blocks; with bad_label, example 7 opens the third block
    stream = [ex({0: 1.0, 2: 3.0}), ex({1: -2.0}, -1.0), ex({}), ex({}, -1.0),
              ex({0: -1.0, 3: 5.0}, -1.0), ex({2: 0.5}), ex({1: 1.5, 3: -1.0}, -1.0),
              ex({0: 2.0, 1: 1.0})]
    if bad_label:
        stream[6] = SparseExample(stream[6].features, 2.0)
    return dict(kinds=list(KINDS), loss="logistic", examples=stream, eta_grid=[0.25, 1.0, 4.0])


SUM_OVERFLOW = "non-finite sum of squares inf at coordinate 0"
BAD_LABEL = "example 7: classification label must be -1 or +1, got 2.0"


class TestSweepBlocks:
    """A sweep's cells and error messages do not depend on its block size."""

    @pytest.mark.parametrize("case,errors", [
        pytest.param(_figure1_squared,
                     {("ng", 16.0): "example 148: non-finite loss inf",
                      ("ng", 64.0): "example 98: non-finite loss inf",
                      ("sgd", 64.0): "example 108: non-finite loss inf"},
                     id="squared-overflow"),
        pytest.param(lambda: _snag_overflow(0),
                     {("snag", eta): f"example 2: {SUM_OVERFLOW}" for eta in (0.5, 1.0)},
                     id="snag-overflow-inside"),
        pytest.param(lambda: _snag_overflow(2),
                     {("snag", eta): f"example 4: {SUM_OVERFLOW}" for eta in (0.5, 1.0)},
                     id="snag-overflow-at-boundary"),
        pytest.param(lambda: _boundaries(False), {}, id="empty-supports-at-boundary"),
        pytest.param(lambda: _boundaries(True), BAD_LABEL, id="invalid-label-at-boundary"),
    ])
    def test_cells_do_not_depend_on_the_block_size(self, monkeypatch, case, errors):
        if isinstance(errors, str):   # the error that ends the sweep
            for block in (1, 3, evaluate.BLOCK):
                monkeypatch.setattr(evaluate, "BLOCK", block)
                with pytest.raises(InvalidLabel, match=f"^{re.escape(errors)}$"):
                    sweep(**case())
            return
        got = {}
        for block in (1, 3, evaluate.BLOCK):
            monkeypatch.setattr(evaluate, "BLOCK", block)
            got[block] = _cell_bits(sweep(**case()))
        assert got[3] == got[1] and got[evaluate.BLOCK] == got[1]
        rep = sweep(**case())
        failed = {(c.kind, c.eta): c.error for c in rep.cells if c.error is not None}
        assert failed == errors


def _sums_can_differ(kind, eta, loss, stream, clip_c):
    """Whether a run predicts, up to its fault, from products w_i x_i that a
    sweep's BLAS product can add up otherwise than math.fsum, beyond a
    rounding: products that overflow to both +inf and -inf, whose fsum is
    nan while BLAS, with fused multiply-adds, can give +-inf or a finite
    sum; or products that cancel to below 1e-12 of the largest, where the
    rounding of one product can flip the sign of the sum."""
    seen = []

    def recording(w, x):
        y = predict(w, x)   # the exact sum, even where math.fsum's partial sums overflow
        seen.append((y, [w[i] * v for i, v in x.features if i in w]))
        return y

    learner = Learner(LearnerConfig(kind, eta, clip_c), loss)
    with mock.patch.object(learners, "predict", recording):
        with contextlib.suppress(NumericFault):
            for x in stream:
                learner.observe(x)
    return any((math.inf in p and -math.inf in p)
               or (p and abs(y) < 1e-12 * max(map(abs, p))) for y, p in seen)


class TestFailureContract:
    """A sweep cell fails with the words that progressive_validation raises
    for its kind and eta, or not at all, when it does not."""

    @staticmethod
    def streams():
        # magnitudes log-uniform over 1e-300 .. 1e300: sums and squares
        # overflow, and snag's squares underflow to a zero scale
        value = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)).map(
            lambda sv: sv[0] * 10.0 ** sv[1])
        example = st.builds(ex, st.dictionaries(st.integers(0, 3), value, max_size=3),
                            st.sampled_from([-1.0, 1.0]))
        return st.lists(example, min_size=1, max_size=8)

    @settings(max_examples=150, deadline=None)
    @given(stream=streams(), loss_kind=st.sampled_from(["squared", "hinge", "logistic"]),
           clip_c=st.sampled_from([None, 1.0]))
    # the BLAS product and math.fsum round these faulting predictions apart
    @example(stream=[ex({0: -1.0}, -1.0), ex({0: -1.0, 1: 1.0}, 1.0),
                     ex({0: -1.0, 1: -100.0}, -1.0)], loss_kind="squared", clip_c=None)
    @example(stream=[ex({0: -1.0, 3: -1e35}, -1.0), ex({1: -100.0, 2: -1e8}, -1.0),
                     ex({1: -1.0, 2: -1.0, 3: 1e54}, -1.0), ex({0: -1.0, 1: -1.0}, 1.0)],
             loss_kind="squared", clip_c=None)
    # finite products whose partial sums overflow, as math.fsum cannot add them
    @example(stream=[ex({0: -1e104, 2: -1e104}, -1.0),
                     ex({0: -7.498942093324558e+103, 2: -3.1622776601683794e+103}, 1.0)],
             loss_kind="squared", clip_c=None)
    def test_cells_fail_as_progressive_validation(self, stream, loss_kind, clip_c):
        task = "regression" if loss_kind == "squared" else "classification"
        assume(task == "classification" or len({x.label for x in stream}) > 1)
        loss = get_loss(loss_kind)
        rep = sweep(list(KINDS), loss_kind, stream, [1e-6, 0.01, 1.0, 64.0, 1e100], task, clip_c)
        for cell in rep.cells:
            if _sums_can_differ(cell.kind, cell.eta, loss, stream, clip_c):
                continue
            try:
                progressive_validation(LearnerConfig(cell.kind, cell.eta, clip_c), loss,
                                       stream, task)
                want = None
            except NumericFault as e:
                want = str(e)
            assert cell.error == want, cell


class TestUnknownTask:
    """A task other than classification or regression is an error, not a
    classification run."""

    PAIR = [SparseExample(((0, 1.0),), 1.0), SparseExample(((0, 2.0),), -1.0)]

    def test_sweep(self):
        with pytest.raises(ValueError, match="unknown task 'regresion'"):
            sweep(["ng"], "hinge", self.PAIR, [1.0], task="regresion")

    def test_progressive_validation(self):
        with pytest.raises(ValueError, match="unknown task 'Regression'"):
            progressive_validation(LearnerConfig("ng", 1.0), HINGE, self.PAIR, task="Regression")


class TestOneShotRegression:
    """A regression run reads the labels first, so it needs a re-iterable."""

    def test_sweep(self):
        stream = synth_figure1(1.0, 20, seed=1)
        with pytest.raises(TypeError, match="reads the stream twice"):
            sweep(["sgd"], "squared", iter(stream), [0.5], task="regression")

    def test_progressive_validation(self):
        stream = synth_figure1(1.0, 20, seed=1)
        with pytest.raises(TypeError, match="reads the stream twice"):
            progressive_validation(LearnerConfig("sgd", 0.5), SQ, iter(stream), "regression")


def regression_loss_scale(labels):
    """The regression loss scale of examples with these labels."""
    return evaluate._loss_scale([SparseExample((), y) for y in labels], "regression")


class TestRegressionLossScale:
    def test_span_squared(self):
        assert regression_loss_scale([1.0, 4.0, 2.0]) == 9.0

    def test_constant_labels_rejected(self):
        with pytest.raises(DataFormatError):
            regression_loss_scale([2.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(DataFormatError):
            regression_loss_scale([])

    def test_overflowing_span_rejected(self):
        with pytest.raises(DataFormatError, match="regression loss scale overflows"):
            regression_loss_scale([1e200, -1.0])

    def test_underflowing_span_rejected(self):
        stream = [ex({0: 1.0}, 0.0), ex({0: 1.0}, 1e-200)]
        reason = "^labels from 0.0 to 1e-200: regression loss scale underflows$"
        with pytest.raises(DataFormatError, match=reason):
            sweep(["sgd"], "squared", stream, [1.0], task="regression")
        with pytest.raises(DataFormatError, match=reason):
            progressive_validation(LearnerConfig("sgd", 1.0), SQ, stream, "regression")


class TestKLInterval:
    def test_contains_mean(self):
        lo, hi = kl_confidence_interval(0.3, 100, 0.025)
        assert lo < 0.3 < hi

    def test_shrinks_with_n(self):
        lo1, hi1 = kl_confidence_interval(0.3, 100, 0.025)
        lo2, hi2 = kl_confidence_interval(0.3, 10000, 0.025)
        assert hi2 - lo2 < hi1 - lo1

    def test_degenerate_means(self):
        lo, hi = kl_confidence_interval(0.0, 1000, 0.025)
        assert lo == 0.0 and 0.0 < hi < 0.01
        lo, hi = kl_confidence_interval(1.0, 1000, 0.025)
        assert hi == 1.0 and 0.99 < lo < 1.0

    def test_kl_width_beats_hoeffding_near_edges(self):
        # near-zero means get much tighter intervals than sqrt(log/2n)
        n, alpha = 10000, 0.025
        lo, hi = kl_confidence_interval(0.01, n, alpha)
        hoeffding = math.sqrt(math.log(1 / alpha) / (2 * n))
        assert hi - 0.01 < hoeffding

    def test_bad_mean_rejected(self):
        with pytest.raises(ValueError):
            kl_confidence_interval(1.5, 10, 0.025)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0, 8.0, math.nan])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match=f"alpha must lie in \\(0, 1\\), got {alpha!r}"):
            kl_confidence_interval(0.3, 10, alpha)

    @pytest.mark.parametrize("n", [0, -3])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError, match=f"n must be at least 1, got {n}"):
            kl_confidence_interval(0.3, n, 0.025)


class TestTiedEtas:
    # n = 100 examples, 2 cells: alpha = 0.1 / 4 per tail and the KL radius is
    # log(40) / 100 = 0.03689. The best cell's mean 0 has the upper end
    # 1 - 40^(-1/100) = 0.03622. A mean of 0.09 has KL 0.02967 to it, inside
    # the radius: tied. A mean of 0.11 has KL 0.05132: not tied. Split over
    # one tail only (radius log(20) / 100 = 0.02996, upper end 0.02951), the
    # mean 0.09 would have KL 0.04179, and would not tie; against the best
    # cell's lower end, 0, no positive mean ties.
    @pytest.mark.parametrize("mean,tied", [(0.09, (1.0, 2.0)), (0.11, (1.0, 1.0))])
    def test_two_cells_by_hand(self, mean, tied):
        cells = [SweepCell("ng", 1.0, 0.0, 0.5), SweepCell("ng", 2.0, mean, 0.5)]
        assert evaluate._tied_etas(cells, {"ng": (1.0, 0.0)}, 100) == {"ng": tied}

    def test_the_three_scale_regimes_of_criterion_8(self):
        # the normalized nag ties the same etas at every scale; adagrad's tied
        # etas move with it, and its ranges at the two ends do not overlap
        tiny = 2.0 ** -20
        for (lo, hi, seed), ada_star, ada_tied in (((-3.5, -2.5, 1), 64.0, (16.0, 64.0)),
                                                   ((-0.5, 0.5, 2), 0.25, (tiny, 32.0)),
                                                   ((2.5, 3.5, 3), 2.0 ** -11, (tiny, 2.0 ** -6))):
            stream = synth_scaled(4, 1500, seed=seed, log10_scale_lo=lo, log10_scale_hi=hi)
            report = sweep(["nag", "adagrad"], "hinge", stream)
            assert {k: eta for k, (eta, _) in report.best.items()} == {"nag": 0.5,
                                                                       "adagrad": ada_star}
            assert report.tied == {"nag": (tiny, 16.0), "adagrad": ada_tied}
