import math

import numpy as np
import pytest

from nol.core import SparseExample, get_loss
from nol.data import regression_loss_scale, synth_figure1, synth_scaled
from nol.errors import NolError, NumericFault
from nol.evaluate import (
    ComparisonReport,
    SweepSpec,
    default_eta_grid,
    kl_confidence_interval,
    multiclass_progressive,
    plot_csv_rows,
    progressive_validation,
    significance,
    sweep,
)
from nol.learners import KINDS, LearnerConfig


def ex(feats, y=1.0):
    return SparseExample(tuple(sorted(feats.items())), y)


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
        stream = [ex({0: 1.0}), ex({0: 2.0})]
        res = progressive_validation(LearnerConfig("ng", 0.5), SQ, stream,
                                     task="regression", loss_scale=1.0)
        assert res.training_losses == [1.0, 0.25]
        assert res.average_training_loss == 0.625

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
                           match=r"^example 148: non-finite loss inf at prediction -2\.556"):
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
    def small_spec(self, **kw):
        defaults = dict(kinds=["nag", "sgd"], loss="hinge",
                        eta_grid=[0.25, 0.5, 1.0])
        defaults.update(kw)
        return SweepSpec(**defaults)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(kinds=["sgd"], loss="hinge", eta_grid=[])
        with pytest.raises(ValueError):
            SweepSpec(kinds=["sgd"], loss="hinge", eta_grid=[1.0, 0.5])

    def test_default_grid(self):
        grid = default_eta_grid()
        assert grid[0] == 2.0 ** -20 and grid[-1] == 64.0
        assert len(grid) == 27

    def test_cells_cover_product(self):
        stream = synth_figure1(1.0, 50, seed=2)
        rep = sweep(self.small_spec(), stream)
        assert [(c.kind, c.eta) for c in rep.cells] == [
            ("nag", 0.25), ("nag", 0.5), ("nag", 1.0),
            ("sgd", 0.25), ("sgd", 0.5), ("sgd", 1.0)]

    def test_best_is_argmin(self):
        stream = synth_figure1(1.0, 200, seed=2)
        rep = sweep(self.small_spec(), stream)
        for kind in ("nag", "sgd"):
            cells = [c for c in rep.cells if c.kind == kind]
            lo = min(c.eval_loss for c in cells)
            assert rep.best[kind][1] == lo
            assert rep.best[kind][0] in [c.eta for c in cells if c.eval_loss == lo]

    def test_deterministic(self):
        stream = synth_figure1(1.0, 100, seed=5)
        r1 = sweep(self.small_spec(), stream)
        r2 = sweep(self.small_spec(), stream)
        assert [(c.kind, c.eta, c.eval_loss, c.training_loss) for c in r1.cells] == \
               [(c.kind, c.eta, c.eval_loss, c.training_loss) for c in r2.cells]

    def test_failed_cell_marked_not_fatal(self):
        # enormous constant rate diverges sgd on squared loss
        stream = [ex({0: 10.0}, 1.0 + (k % 2)) for k in range(200)]
        spec = SweepSpec(kinds=["sgd"], loss="squared", eta_grid=[1e-3, 1e150],
                         task="regression")
        rep = sweep(spec, stream)
        ok, bad = rep.cells
        assert ok.error is None and ok.eval_loss is not None
        assert bad.error is not None and bad.eval_loss is None
        assert rep.best["sgd"][0] == 1e-3

    def test_plot_csv(self):
        stream = synth_figure1(1.0, 30, seed=1)
        rep = sweep(self.small_spec(), stream)
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
            # same fault, same example; the offending value may differ in its last digits
            assert cell.error is not None, (cell, e)
            assert cell.error.split(" at prediction")[0] == str(e).split(" at prediction")[0]
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
        scale = regression_loss_scale(ex.label for ex in stream) if task == "regression" else None
        rep = sweep(SweepSpec(kinds=list(KINDS), loss=loss_kind, task=task, clip_c=clip_c),
                    stream)
        assert len(rep.cells) == len(KINDS) * 27

        def reference(kind, eta):
            return progressive_validation(LearnerConfig(kind, eta, clip_c), loss, stream,
                                          task, scale)

        for cell, res in _matches_scalar(rep, reference):
            if task == "classification":
                assert cell.eval_loss == res.average_eval_loss, cell
            else:
                assert cell.eval_loss == pytest.approx(res.average_eval_loss,
                                                       rel=TRAINING_LOSS_RTOL), cell

    def test_overflowing_cells_fail_with_numeric_fault(self):
        rep = sweep(SweepSpec(kinds=["ng", "sgd"], loss="squared", task="regression"),
                    synth_figure1(1.0, 150, seed=3))
        failed = {(c.kind, c.eta): c.error for c in rep.cells if c.error is not None}
        assert set(failed) == {("ng", 16.0), ("ng", 32.0), ("ng", 64.0),
                               ("sgd", 32.0), ("sgd", 64.0)}
        assert failed["ng", 16.0].startswith("example 148: non-finite loss inf at prediction")
        assert all(c.eval_loss is None and c.training_loss is None
                   for c in rep.cells if c.error is not None)

    def test_multiclass_matches_multiclass_progressive(self):
        rng = np.random.default_rng(8)
        stream = []
        for _ in range(200):
            c = int(rng.integers(0, 3))
            x = {c: 1.0, 3: float(rng.normal() * 0.1), 4: float(rng.normal() * 100.0)}
            stream.append(ex(x, float(c)))
        grid = [2.0 ** e for e in range(-12, 7, 2)]
        for loss_kind in ("hinge", "logistic", "squared"):
            loss = get_loss(loss_kind)
            rep = sweep(SweepSpec(kinds=list(KINDS), loss=loss_kind, eta_grid=grid,
                                  multiclass=True), stream)

            def reference(kind, eta):
                return multiclass_progressive(LearnerConfig(kind, eta), loss, stream)

            for cell, res in _matches_scalar(rep, reference):
                assert cell.eval_loss == res.average_eval_loss, cell

    def test_invalid_label_fails_every_cell_of_the_kind(self):
        stream = [ex({0: 1.0}, 1.0), ex({0: 2.0}, 2.0)]
        rep = sweep(SweepSpec(kinds=["nag"], loss="hinge", eta_grid=[0.5, 1.0]), stream)
        assert [c.error for c in rep.cells] == \
               ["classification label must be -1 or +1, got 2.0"] * 2
        assert rep.best == {}


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


class TestSignificance:
    def test_identical_sequences_not_significant(self):
        seq = [0.0, 1.0] * 50
        v = significance(seq, seq)
        assert not v.significant
        assert v.interval_a == v.interval_b

    def test_opposite_constant_sequences_significant(self):
        v = significance([0.0] * 1000, [1.0] * 1000)
        assert v.significant
        assert v.mean_a == 0.0 and v.mean_b == 1.0

    def test_close_means_large_n_significant(self):
        # means 0.0980 vs 0.1090 at n = 45212 separate at the default budget
        n = 45212
        a = [1.0] * 4431 + [0.0] * (n - 4431)
        b = [1.0] * 4928 + [0.0] * (n - 4928)
        assert abs(sum(a) / n - 0.0980) < 1e-4
        assert abs(sum(b) / n - 0.1090) < 1e-4
        v = significance(a, b)
        assert v.significant
        assert v.interval_a[1] < v.interval_b[0]

    def test_same_gap_small_n_not_significant(self):
        n = 1000
        a = [1.0] * 98 + [0.0] * (n - 98)
        b = [1.0] * 109 + [0.0] * (n - 109)
        assert not significance(a, b).significant

    def test_symmetry(self):
        a = [0.0] * 900 + [1.0] * 100
        b = [0.0] * 700 + [1.0] * 300
        assert significance(a, b).significant == significance(b, a).significant

    def test_budget_monotonicity(self):
        # a looser failure budget can only make the verdict easier
        n = 2000
        a = [1.0] * 200 + [0.0] * (n - 200)
        b = [1.0] * 260 + [0.0] * (n - 260)
        strict = significance(a, b, failure_probability=0.001)
        loose = significance(a, b, failure_probability=0.5)
        if strict.significant:
            assert loose.significant

    def test_input_validation(self):
        with pytest.raises(ValueError):
            significance([0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            significance([], [])
        with pytest.raises(ValueError):
            significance([2.0], [0.5])
