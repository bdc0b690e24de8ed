"""Sparse examples, convex losses, and prediction primitives.

Everything downstream (learners, conditioners, the regret lab) works with
``SparseExample`` and one of the three losses defined here. Each loss
writes its value and derivative twice, in a scalar form for one prediction
and a numpy form for an array of them, with the same expressions in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional

import numpy as np

from .errors import InvalidLabel, NumericFault


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

    def scaled(self, scale: Mapping[int, float]) -> "SparseExample":
        """Return a copy with each feature i multiplied by scale.get(i, 1)."""
        pairs = tuple((i, v * scale.get(i, 1.0)) for i, v in self.features)
        return SparseExample(pairs, self.label)


def _validated_example(features: tuple, label: float) -> SparseExample:
    """A SparseExample without ``__post_init__``'s checks, for pairs the
    caller has already checked: int indices strictly increasing from 0 or
    more, finite nonzero float values, and a finite float label."""
    ex = object.__new__(SparseExample)
    object.__setattr__(ex, "features", features)
    object.__setattr__(ex, "label", label)
    return ex


def _check_binary_label(y: float):
    if y not in (-1.0, 1.0):
        raise InvalidLabel(f"classification label must be -1 or +1, got {y!r}")


def _nonfinite_reason(what: str, value: float, coordinate: Optional[int] = None):
    """The words of every fault over a value that is not finite, the same
    for a float and a numpy scalar."""
    at = "" if coordinate is None else f" at coordinate {coordinate}"
    return f"non-finite {what} {float(value)!r}{at}"


def _finite(what: str, value: float) -> float:
    """value, or a NumericFault if it is not finite."""
    if not math.isfinite(value):
        raise NumericFault(_nonfinite_reason(what, value))
    return value


def _two_passes(examples: Iterable, reader: str, first: str) -> None:
    """A TypeError if examples is a one-shot iterator: reader reads first
    its statistics and then the examples, and the second pass would be empty."""
    if isinstance(examples, Iterator):
        raise TypeError(f"{reader} reads the stream twice, {first} and then the examples, "
                        "so it needs a re-iterable stream (a list, say), not a one-shot iterator")


class Loss:
    """A convex loss of the prediction with its derivative d loss / d yhat.

    A loss defines two forms of (loss, derivative): ``value_and_derivative``
    for one prediction, which checks a classification label, and
    ``values_and_derivatives``, elementwise over a numpy array of
    predictions, where y is an array of labels or one label for all of them
    and labels are not checked. The two forms evaluate the same expressions.
    ``value``, ``derivative`` and ``values`` are read off them.
    ``smoothness`` bounds the Lipschitz constant of the derivative in yhat,
    None for a loss that is not smooth.
    """

    kind = "abstract"
    classification = False
    smoothness: Optional[float] = None

    def value_and_derivative(self, yhat: float, y: float):
        raise NotImplementedError

    def values_and_derivatives(self, preds: np.ndarray, y):
        raise NotImplementedError

    def value(self, yhat: float, y: float) -> float:
        return self.value_and_derivative(yhat, y)[0]

    def derivative(self, yhat: float, y: float) -> float:
        return self.value_and_derivative(yhat, y)[1]

    def values(self, preds: np.ndarray, y) -> np.ndarray:
        return self.values_and_derivatives(preds, y)[0]

    def __repr__(self):
        return f"Loss({self.kind})"


class SquaredLoss(Loss):
    kind = "squared"
    smoothness = 2.0

    def value_and_derivative(self, yhat, y):
        d = yhat - y
        return d * d, 2.0 * d

    values_and_derivatives = value_and_derivative   # the same expressions on arrays


class HingeLoss(Loss):
    kind = "hinge"
    classification = True

    # Subgradient; at the kink y*yhat == 1 we take 0, which avoids spurious
    # updates on exactly-margin examples.
    def value_and_derivative(self, yhat, y):
        _check_binary_label(y)
        m = y * yhat
        return max(0.0, 1.0 - m), (-y if m < 1.0 else 0.0)

    def values_and_derivatives(self, preds, y):
        m = y * preds
        return np.maximum(0.0, 1.0 - m), np.where(m < 1.0, -y, 0.0)


class LogisticLoss(Loss):
    kind = "logistic"
    classification = True
    smoothness = 0.25   # sigmoid' <= 1/4

    # Stable: ln(1 + e^{-m}) = max(0, -m) + ln(1 + e^{-|m|}), and the
    # derivative -y * sigmoid(-m) is -y * e / (1 + e) for m >= 0 and
    # -y / (1 + e) otherwise, with e = e^{-|m|}.
    def value_and_derivative(self, yhat, y):
        _check_binary_label(y)
        m = y * yhat
        e = math.exp(-abs(m))
        return max(0.0, -m) + math.log1p(e), -y * ((e if m >= 0.0 else 1.0) / (1.0 + e))

    def values_and_derivatives(self, preds, y):
        m = y * preds
        e = np.exp(-np.abs(m))
        return (np.maximum(0.0, -m) + np.log1p(e),
                -y * (np.where(m >= 0.0, e, 1.0) / (1.0 + e)))


_LOSSES = {
    "squared": SquaredLoss(),
    "hinge": HingeLoss(),
    "logistic": LogisticLoss(),
}
LOSS_KINDS = tuple(_LOSSES)


def get_loss(kind: str) -> Loss:
    try:
        return _LOSSES[kind]
    except KeyError:
        raise ValueError(f"unknown loss {kind!r}; expected one of {sorted(_LOSSES)}")


def predict(w: Mapping[int, float], x: SparseExample) -> float:
    """Dot product of the weights with the sparse support of x; features
    without a weight count as zero. The exact sum rounded once, whatever the
    order: +-inf beyond the float range, nan if the products hold +inf and -inf."""
    terms = [w[i] * v for i, v in x.features if i in w]
    try:
        try:
            return math.fsum(terms)
        except OverflowError:   # a partial sum overflowed: add at a 2^-64 scale
            return math.fsum([t * 2.0 ** -64 for t in terms]) * 2.0 ** 64
    except ValueError:   # inf - inf
        return math.nan


def clip_prediction(raw: float, c: float) -> float:
    """Truncate a raw prediction to [-c, c]; nan stays nan, as in np.clip."""
    return min(max(raw, -c), c)
