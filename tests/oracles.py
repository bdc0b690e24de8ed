"""Reference oracles the tests compare nol against: a coarse-to-fine grid
search over a q-norm ball, the grid cross-check of
``nol.regret.best_in_hindsight`` built on it (it certifies nothing; d <= 3),
and the row-wise numpy L1 ball projection the grid search uses.
"""

import math

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
