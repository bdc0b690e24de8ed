"""Reference oracles the tests compare nol against: a coarse-to-fine grid
search over a q-norm ball, the grid cross-check of
``nol.regret.best_in_hindsight`` built on it (it certifies nothing; d <= 3),
the row-wise numpy L1 ball projection the grid search uses, and a learner
that runs the update rules in 60-digit decimal arithmetic.
"""

import decimal
import math
from decimal import Decimal
from types import SimpleNamespace

import numpy as np

from nol.regret import _dense_in_ball_coords


def _logistic(preds, y):
    m = y * preds
    return np.maximum(0.0, -m) + np.log1p(np.exp(-np.abs(m)))


# nol.core's loss values by the same expressions, without the derivatives
_LOSS_VALUES = {"squared": lambda preds, y: (preds - y) ** 2,
                "hinge": lambda preds, y: np.maximum(0.0, 1.0 - y * preds),
                "logistic": _logistic}


def _batch_project_l1(P, C):
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


def grid_minimize(objective_batch, d, C, q, n_per_axis=33, levels=18):
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


def grid_oracle(examples, loss, ball):
    """(w* as dict, total loss at w*) of a grid search for the minimum total
    loss over the comparator ball (d <= 3)."""
    coords, Xu, y = _dense_in_ball_coords(examples, ball)
    assert 0 < len(coords) <= 3, "the grid oracle needs 1 to 3 coordinates"
    values = _LOSS_VALUES[loss.kind]
    u, f = grid_minimize(lambda P: values(P @ Xu.T, y).sum(axis=1),
                         len(coords), ball.C, ball.q)
    return {i: float(u[j]) / ball.box.m[i] for j, i in enumerate(coords)}, f


# ---------------------------------------------------------------------------
# The reference learner

REFERENCE_DIGITS = 60


def _reference_loss(kind, yhat, y):
    """(loss, d loss / d yhat) of one prediction, in the current context."""
    if kind == "squared":
        return (yhat - y) ** 2, 2 * (yhat - y)
    m = y * yhat
    if kind == "hinge":
        return max(Decimal(0), 1 - m), (-y if m < 1 else Decimal(0))
    return (1 + (-m).exp()).ln(), -y / (1 + m.exp())   # logistic


def reference_run(kind, eta, loss, stream, clip_c=None, eta_decay=False):
    """One learner's run over a stream in decimal arithmetic at
    REFERENCE_DIGITS digits, written from the update rules as the README and
    ``nol.learners`` state them, and sharing no code with them.

    Each example's values are taken exactly (floats or Decimals). Per
    example, t grows by one, then each feature i of the support updates its
    scale: the running max s_i of |x_i| (ng, nag) or sigma_i = sqrt(s_i / t)
    over the running sum s_i of x_i^2 (snag). When a nonzero scale grows,
    w_i is multiplied by (old / new)^2 (ng) or old / new (nag, snag), and N
    gains (x_i / scale_i)^2. The prediction is sum_i w_i x_i, clipped to
    [-clip_c, clip_c] when clip_c is set, and the loss and its derivative gp
    are taken there. When gp != 0, every i of the support steps

        w_i -= eta * rate * gp * u_i / den_i

    with rate t / N (ng), sqrt(t / N) (nag, snag) or 1 (adagrad, sgd); u_i =
    x_i / s_i for ng and x_i otherwise; den_i = s_i (ng), scale_i sqrt(G_i)
    (nag, snag), sqrt(G_i) (adagrad) or 1 (sgd), where G_i first gains
    (gp u_i)^2 and a zero G_i takes no step. eta_decay divides eta by
    sqrt(t) for ng and sgd.

    Returns a namespace: the Decimal predictions and losses per example and
    the final w, s, sigma, G (dicts by feature), N and t.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = REFERENCE_DIGITS
        zero = Decimal(0)
        run = SimpleNamespace(predictions=[], losses=[], w={}, s={}, sigma={}, G={},
                              N=zero, t=0)
        w, s, sigma, G = run.w, run.s, run.sigma, run.G
        for ex in stream:
            run.t += 1
            t = Decimal(run.t)
            x = [(i, Decimal(v)) for i, v in ex.features]
            scale = {}
            if kind in ("ng", "nag", "snag"):
                for i, v in x:
                    if kind == "snag":
                        s[i] = s.get(i, zero) + v * v
                        old, new = sigma.get(i, zero), (s[i] / t).sqrt()
                        sigma[i] = new
                    else:
                        old = s.get(i, zero)
                        new = s[i] = max(old, abs(v))
                    if 0 < old < new and i in w:
                        w[i] *= (old / new) ** 2 if kind == "ng" else old / new
                    scale[i] = new
                    run.N += (v / new) ** 2
            yhat = sum((w[i] * v for i, v in x if i in w), zero)
            if clip_c is not None:
                yhat = max(-Decimal(clip_c), min(Decimal(clip_c), yhat))
            lval, gp = _reference_loss(loss.kind, yhat, Decimal(ex.label))
            run.predictions.append(yhat)
            run.losses.append(lval)
            if gp == 0 or not x:
                continue
            step = Decimal(eta)
            if kind == "ng":
                step *= t / run.N
            elif kind in ("nag", "snag"):
                step *= (t / run.N).sqrt()
            if eta_decay and kind in ("ng", "sgd"):
                step /= t.sqrt()
            for i, v in x:
                u = v / scale[i] if kind == "ng" else v
                den = scale[i] if kind == "ng" else Decimal(1)
                if kind in ("nag", "snag", "adagrad"):
                    G[i] = G.get(i, zero) + (gp * u) ** 2
                    if G[i] == 0:
                        continue
                    den = scale.get(i, Decimal(1)) * G[i].sqrt()
                w[i] = w.get(i, zero) - step * gp * u / den
    return run
