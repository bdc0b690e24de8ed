"""The learners against the 60-digit decimal reference in ``oracles``."""

import decimal
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest

from nol.core import LOSS_KINDS, SparseExample, get_loss
from nol.learners import KINDS, LearnerConfig, run_stream
from nol.regret import random_instance
from oracles import REFERENCE_DIGITS, reference_run

# sgd's steps are not scaled by the features; larger ones overflow the
# squared loss on random_instance's features of up to 1e2
ETA = {"ng": 0.5, "nag": 0.5, "snag": 0.5, "adagrad": 0.5, "sgd": 1e-4}

# The worst |float - reference| / max(1, |reference|) over the predictions
# of the streams of test_float_error, rounded up to a power of ten. Measured
# (x86-64, CPython 3.11): ng 1.7e-15, nag 1.3e-15, snag 3.3e-15, adagrad
# 1.4e-15, sgd 3.5e-17. A change to the learners' numerics may tighten
# these, never loosen them.
FLOAT_ERROR = {"ng": 1e-14, "nag": 1e-14, "snag": 1e-14, "adagrad": 1e-14, "sgd": 1e-16}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("loss_kind", LOSS_KINDS)
def test_float_error(kind, loss_kind):
    loss = get_loss(loss_kind)
    stream = random_instance(0, d=3, T=200, classification=loss_kind != "squared")
    for clip_c, eta_decay in ((None, False), (1.0, True)):
        config = LearnerConfig(kind, ETA[kind], clip_c=clip_c, eta_decay=eta_decay)
        got = run_stream(config, loss, stream).predictions
        want = reference_run(kind, ETA[kind], loss, stream, clip_c, eta_decay).predictions
        assert len(got) == len(want) == 200
        worst = max(abs(p - float(r)) / max(1.0, abs(float(r))) for p, r in zip(got, want))
        assert worst <= FLOAT_ERROR[kind], (clip_c, eta_decay, worst)


@pytest.mark.parametrize("kind", ["ng", "nag", "snag"])
@pytest.mark.parametrize("loss_kind", LOSS_KINDS)
def test_exact_scale_invariance(kind, loss_kind):
    # factors that are not powers of two, applied exactly in decimal
    loss = get_loss(loss_kind)
    stream = random_instance(3, d=4, T=100, classification=loss_kind != "squared")
    rng = np.random.default_rng(17)
    D = [Decimal(10.0 ** e) for e in rng.uniform(-6.0, 6.0, size=4)]
    with decimal.localcontext() as ctx:
        ctx.prec = 4 * REFERENCE_DIGITS
        ctx.traps[decimal.Inexact] = True
        scaled = [SimpleNamespace(features=tuple((i, Decimal(v) * D[i]) for i, v in ex.features),
                                  label=ex.label) for ex in stream]
    a = reference_run(kind, 0.5, loss, stream).predictions
    b = reference_run(kind, 0.5, loss, scaled).predictions
    assert max(abs(p - q) / max(1, abs(p)) for p, q in zip(a, b)) <= Decimal("1e-40")


def ex(feats, y=1.0):
    return SparseExample(tuple(sorted(feats.items())), y)


# TestWorkedExamples in test_learners.py, step by step: (kind, eta, stream,
# the values after each example), on squared loss
WORKED = {
    "ng_single_step": ("ng", 0.5, [ex({0: 2.0})], [dict(yhat=0.0, s=2.0, N=1.0, w=0.5)]),
    "ng_two_steps_with_squash": ("ng", 0.5, [ex({0: 1.0}), ex({0: 2.0})],
                                 [dict(w=1.0), dict(yhat=0.5, s=2.0, N=2.0, w=0.5)]),
    "nag_single_step": ("nag", 1.0, [ex({0: 2.0})],
                        [dict(yhat=0.0, s=2.0, N=1.0, G=16.0, w=0.5)]),
    "adagrad_single_step": ("adagrad", 1.0, [ex({0: 2.0})], [dict(G=16.0, w=1.0)]),
    **{f"empty_example_{k}": (k, 1.0, [SparseExample((), 1.0)],
                              [dict(yhat=0.0, lval=1.0, t=1, N=0.0)]) for k in KINDS},
}


@pytest.mark.parametrize("name", WORKED)
def test_worked_examples(name):
    kind, eta, stream, steps = WORKED[name]
    for k, want in enumerate(steps, start=1):
        run = reference_run(kind, eta, get_loss("squared"), stream[:k])
        got = {"yhat": run.predictions[-1], "lval": run.losses[-1], "t": run.t, "N": run.N,
               "w": run.w.get(0), "s": run.s.get(0), "G": run.G.get(0)}
        assert {key: float(got[key]) for key in want} == want
        if not stream[k - 1].features:
            assert run.w == {}
