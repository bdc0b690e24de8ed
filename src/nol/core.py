"""Sparse examples, convex losses, and prediction primitives.

Everything downstream (learners, conditioners, the regret lab) works with
``SparseExample`` and one of the three losses defined here. Each loss has a
scalar form for one prediction and a numpy form for an array of them, with
the same expressions in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import InvalidLabel, NumericFault

WeightsLike = Union[Mapping[int, float], Sequence[float]]


@dataclass(frozen=True)
class SparseExample:
    """One labeled observation with sparse features.

    Features are (index, value) pairs with strictly increasing nonnegative
    indices. Zero-valued entries are dropped at construction; all values must
    be finite. Classification labels are constrained to {-1, +1} by the
    losses, not here (regression labels are unconstrained).
    """

    features: tuple = ()
    label: float = 0.0

    def __post_init__(self):
        cleaned = []
        prev = -1
        for idx, val in self.features:
            if idx < 0 or idx != int(idx):
                raise ValueError(f"feature index must be a nonnegative integer, got {idx!r}")
            if idx <= prev:
                raise ValueError(f"feature indices must be strictly increasing, got {idx} after {prev}")
            prev = idx
            if not math.isfinite(val):
                raise NumericFault(f"non-finite feature value at index {idx}")
            if val != 0.0:
                cleaned.append((int(idx), float(val)))
        if not math.isfinite(self.label):
            raise NumericFault("non-finite label")
        object.__setattr__(self, "features", tuple(cleaned))
        object.__setattr__(self, "label", float(self.label))

    @classmethod
    def from_dict(cls, feats: Mapping[int, float], label: float) -> "SparseExample":
        return cls(tuple(sorted(feats.items())), label)

    def scaled(self, scale: Mapping[int, float]) -> "SparseExample":
        """Return a copy with each feature i multiplied by scale.get(i, 1)."""
        pairs = tuple((i, v * scale.get(i, 1.0)) for i, v in self.features)
        return SparseExample(pairs, self.label)


def _check_binary_label(y: float):
    if y not in (-1.0, 1.0):
        raise InvalidLabel(f"classification label must be -1 or +1, got {y!r}")


class Loss:
    """A convex loss of the prediction with its derivative d loss / d yhat.

    ``values`` and ``values_and_derivatives`` are the elementwise numpy forms
    over an array of predictions; y is an array of labels or one label for
    all of them. They do not check labels.
    """

    kind = "abstract"
    classification = False

    def value(self, yhat: float, y: float) -> float:
        raise NotImplementedError

    def derivative(self, yhat: float, y: float) -> float:
        raise NotImplementedError

    def value_and_derivative(self, yhat: float, y: float):
        return self.value(yhat, y), self.derivative(yhat, y)

    def values(self, preds: np.ndarray, y) -> np.ndarray:
        raise NotImplementedError

    def values_and_derivatives(self, preds: np.ndarray, y):
        raise NotImplementedError

    def __repr__(self):
        return f"Loss({self.kind})"


class SquaredLoss(Loss):
    kind = "squared"

    def value(self, yhat, y):
        d = yhat - y
        return d * d

    def derivative(self, yhat, y):
        return 2.0 * (yhat - y)

    def values(self, preds, y):
        d = preds - y
        return d * d

    def values_and_derivatives(self, preds, y):
        d = preds - y
        return d * d, 2.0 * d


class HingeLoss(Loss):
    kind = "hinge"
    classification = True

    def value(self, yhat, y):
        _check_binary_label(y)
        return max(0.0, 1.0 - y * yhat)

    def derivative(self, yhat, y):
        # Subgradient; at the kink y*yhat == 1 we take 0, which avoids
        # spurious updates on exactly-margin examples.
        _check_binary_label(y)
        if y * yhat < 1.0:
            return -y
        return 0.0

    def values(self, preds, y):
        return np.maximum(0.0, 1.0 - y * preds)

    def values_and_derivatives(self, preds, y):
        m = y * preds
        return np.maximum(0.0, 1.0 - m), np.where(m < 1.0, -y, 0.0)


class LogisticLoss(Loss):
    kind = "logistic"
    classification = True

    def value(self, yhat, y):
        _check_binary_label(y)
        m = y * yhat
        # Stable ln(1 + e^{-m}) = max(0, -m) + ln(1 + e^{-|m|})
        return max(0.0, -m) + math.log1p(math.exp(-abs(m)))

    def derivative(self, yhat, y):
        _check_binary_label(y)
        m = y * yhat
        # -y * sigmoid(-m), computed stably
        if m >= 0:
            return -y * math.exp(-m) / (1.0 + math.exp(-m))
        return -y / (1.0 + math.exp(m))

    def values(self, preds, y):
        m = y * preds
        return np.maximum(0.0, -m) + np.log1p(np.exp(-np.abs(m)))

    def values_and_derivatives(self, preds, y):
        m = y * preds
        e = np.exp(-np.abs(m))
        # the scalar branches: e / (1 + e) for m >= 0, 1 / (1 + e) otherwise
        return (np.maximum(0.0, -m) + np.log1p(e),
                -y * (np.where(m >= 0.0, e, 1.0) / (1.0 + e)))


_LOSSES = {
    "squared": SquaredLoss(),
    "hinge": HingeLoss(),
    "logistic": LogisticLoss(),
}


def get_loss(kind: str) -> Loss:
    try:
        return _LOSSES[kind]
    except KeyError:
        raise ValueError(f"unknown loss {kind!r}; expected one of {sorted(_LOSSES)}")


def loss_value_and_derivative(loss: Loss, yhat: float, y: float):
    """(loss, d loss / d yhat) at the given prediction and label."""
    return loss.value_and_derivative(yhat, y)


def predict(w: WeightsLike, x: SparseExample) -> float:
    """Dot product of the weights with the sparse support of x.

    Weights may be a mapping index -> weight or a dense sequence; indices
    beyond the capacity of a dense sequence count as zero.
    """
    total = 0.0
    if isinstance(w, Mapping):
        for i, v in x.features:
            wi = w.get(i, 0.0)
            if not math.isfinite(wi):
                raise NumericFault(f"non-finite weight at coordinate {i}")
            total += wi * v
    else:
        n = len(w)
        for i, v in x.features:
            if i < n:
                wi = w[i]
                if not math.isfinite(wi):
                    raise NumericFault(f"non-finite weight at coordinate {i}")
                total += wi * v
    if not math.isfinite(total):
        raise NumericFault("non-finite prediction")
    return total


def per_coordinate_gradient(gprime: float, x: SparseExample) -> dict:
    """Sparse gradient {i: gprime * x_i} over the support of x."""
    if not math.isfinite(gprime):
        raise NumericFault("non-finite loss derivative")
    return {i: gprime * v for i, v in x.features}


def clip_prediction(raw: float, c: float) -> float:
    """Truncate a raw prediction to [-c, c]."""
    return max(-c, min(c, raw))
