"""Dataset readers, pre-normalizers, and synthetic stream generators.

A pre-normalizer's statistics pass gives each feature a divisor, and
``Normalized`` divides the examples by them as they are read.
"""

from __future__ import annotations

import csv
import io
import math
from itertools import repeat
from operator import lt
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .conditioners import EnclosingBox
from .core import SparseExample, _two_passes, _validated_example
from .errors import DataFormatError


# ---------------------------------------------------------------------------
# svmlight-like text format: "label idx:val idx:val ..."

def _checked_pairs(tokens: Sequence[str], line_number: int) -> list:
    """The nonzero (index, value) pairs of a line's tokens, checked one token
    at a time; raises the DataFormatError that names the first bad token."""
    feats = []
    prev = -1
    for tok in tokens:
        idx_s, _, val_s = tok.partition(":")
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise DataFormatError(f"line {line_number}: malformed token {tok!r}")
        if idx < 0:
            raise DataFormatError(f"line {line_number}: negative index {idx}")
        if idx <= prev:
            raise DataFormatError(
                f"line {line_number}: indices must be strictly increasing, got {idx} after {prev}")
        if not math.isfinite(val):
            raise DataFormatError(f"line {line_number}: non-finite value in {tok!r}")
        prev = idx
        if val != 0.0:
            feats.append((idx, val))
    return feats


def parse_svmlight_line(line: str, line_number: int = 0) -> SparseExample:
    parts = line.split()
    if not parts:
        raise DataFormatError(f"line {line_number}: empty line")
    try:
        label = float(parts[0])
    except ValueError:
        raise DataFormatError(f"line {line_number}: bad label {parts[0]!r}")
    tokens = parts[1:]
    # The whole line at once, with the conversions _checked_pairs makes per
    # token, so both accept the same lines; any failure (or a sum of finite
    # values that overflows) goes to _checked_pairs, which names the fault.
    if tokens:
        idx_s, _, val_s = zip(*map(str.partition, tokens, repeat(":")))
        try:
            idx = list(map(int, idx_s))
            vals = list(map(float, val_s))
            ok = idx[0] >= 0 and all(map(lt, idx, idx[1:])) and math.isfinite(sum(vals))
        except ValueError:
            ok = False
        if not ok:
            pairs = _checked_pairs(tokens, line_number)
        elif 0.0 in vals:
            pairs = [(i, v) for i, v in zip(idx, vals) if v != 0.0]
        else:
            pairs = zip(idx, vals)
    else:
        pairs = ()
    if not math.isfinite(label):
        raise DataFormatError(f"line {line_number}: non-finite label {parts[0]!r}")
    return _validated_example(tuple(pairs), label)


def serialize_svmlight(ex: SparseExample) -> str:
    label = ex.label
    head = repr(int(label)) if label == int(label) else repr(label)
    return " ".join([head] + [f"{i}:{v!r}" for i, v in ex.features])


def read_svmlight(lines: Iterable[str]) -> Iterator[SparseExample]:
    """Examples of svmlight lines; text from a '#' on is a comment, and lines
    without an example are skipped."""
    for n, line in enumerate(lines, start=1):
        line = line.partition("#")[0].strip()
        if not line:
            continue
        yield parse_svmlight_line(line, n)


# ---------------------------------------------------------------------------
# Delimited files with a header row

def read_delimited(lines: Iterable[str],
                   label_transform: Optional[dict] = None) -> Iterator[SparseExample]:
    """CSV/TSV with header; the last column is the label.

    Numeric column j is feature j; non-numeric columns are one-hot expanded
    with a stable value -> index mapping (value 1.0), the indices following
    the columns'. Numeric labels may be remapped via label_transform (e.g.
    {0: -1, 1: 1}).
    """
    it = iter(lines)
    try:
        header_line = next(it)
    except StopIteration:
        raise DataFormatError("empty delimited file")
    delim = "\t" if "\t" in header_line else ","
    columns = next(csv.reader(io.StringIO(header_line), delimiter=delim), None)
    if columns is None:
        raise DataFormatError("line 1: empty header")
    label_idx = next_index = len(columns) - 1
    categories: Dict[tuple, int] = {}

    for n, line in enumerate(it, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        row = next(csv.reader(io.StringIO(line), delimiter=delim))
        if len(row) != len(columns):
            raise DataFormatError(f"line {n}: expected {len(columns)} fields, got {len(row)}")
        feats: Dict[int, float] = {}
        for j in range(label_idx):
            cell = row[j].strip()
            if cell == "":
                continue
            try:
                val = float(cell)
            except ValueError:
                key = (j, cell)
                if key not in categories:
                    categories[key] = next_index
                    next_index += 1
                feats[categories[key]] = 1.0
                continue
            if not math.isfinite(val):
                raise DataFormatError(f"line {n}: non-finite value {cell!r}")
            if val != 0.0:
                feats[j] = val
        label_cell = row[label_idx].strip()
        try:
            label = float(label_cell)
        except ValueError:
            raise DataFormatError(f"line {n}: bad label {label_cell!r}")
        if label_transform and label in label_transform:
            label = float(label_transform[label])
        if not math.isfinite(label):
            raise DataFormatError(f"line {n}: non-finite label {label_cell!r}")
        yield _validated_example(tuple(sorted(feats.items())), label)


# ---------------------------------------------------------------------------
# Pre-normalizers (two-pass)

def compute_normalizer(examples: Iterable[SparseExample], mode: str) -> Dict[int, float]:
    """The divisor of each feature: maxnorm its max |x_i|, sqnorm the root
    of its uncentered second moment over all rows (zeros included).

    One pass over examples for maxnorm and two for sqnorm, and the caller
    then divides the examples, so examples must be iterable again (a list,
    or a file read afresh on each iteration): a one-shot iterator is a
    TypeError."""
    if mode not in ("maxnorm", "sqnorm"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    _two_passes(examples, "pre-normalization", "the statistics")
    stats = EnclosingBox.from_stream(examples).m
    if mode == "sqnorm":
        # squares of values scaled by the feature's max neither overflow nor
        # underflow to zero (the max itself contributes 1)
        n = 0
        sums: Dict[int, float] = {}
        try:
            for n, ex in enumerate(examples, start=1):
                for i, v in ex.features:
                    r = v / stats[i]
                    sums[i] = sums.get(i, 0.0) + r * r
        except KeyError as e:   # a file rewritten between the passes
            raise DataFormatError(f"feature {e} is new in the second pass over the examples")
        stats = {i: stats[i] * math.sqrt(s / n) for i, s in sums.items()}
    return stats


class Normalized:
    """examples divided by fixed per-feature divisors as they are read, a
    feature without one passing through: each iteration divides a fresh
    iteration of examples, so nothing is held beyond the example at hand.
    It is an iterable only: make a list of it to index it."""

    def __init__(self, scale: Dict[int, float], examples: Iterable[SparseExample]):
        self.scale = scale
        self.examples = examples

    def __iter__(self) -> Iterator[SparseExample]:
        return map(self._apply, self.examples)

    def _apply(self, ex: SparseExample) -> SparseExample:
        scale = self.scale.get
        pairs = []
        for i, v in ex.features:
            si = scale(i, 0.0)
            if si > 0.0:
                v = v / si
                # compute_normalizer's divisors keep |v / si| <= sqrt(n) over
                # n examples, so the quotient is finite; it can underflow to zero
                if v == 0.0:
                    continue
            pairs.append((i, v))
        return _validated_example(tuple(pairs), ex.label)


def prenormalize(examples: Iterable[SparseExample], mode: str):
    """(the divisors, the examples Normalized by them). Only the statistics
    pass runs here; the division happens as the result is iterated."""
    scale = compute_normalizer(examples, mode)
    return scale, Normalized(scale, examples)


# ---------------------------------------------------------------------------
# Synthetic generators

def synth_figure1(s: float, T: int, seed: int = 0) -> List[SparseExample]:
    """Two-dimensional separable stream with the first feature scaled by s.

    Base inputs are uniform on [-1, 1]^2 (resampled to keep a margin of 0.05),
    labels are the sign of (1, 1) . x. The base stream depends only on the
    seed, so different s values yield streams identical up to the scaling.
    """
    if not s > 0:
        raise ValueError("scale s must be strictly positive")
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < T:
        x = rng.uniform(-1.0, 1.0, size=2)
        raw = x[0] + x[1]
        if abs(raw) < 0.05:
            continue
        y = 1.0 if raw > 0 else -1.0
        out.append(SparseExample(((0, s * x[0]), (1, x[1])), y))
    return out


def synth_scaled(d: int, T: int, seed: int = 0, log10_scale_lo: float = -3.0,
                 log10_scale_hi: float = 3.0) -> List[SparseExample]:
    """Separable-ish classification stream (5% of labels flipped) whose
    per-coordinate scales are log-uniform over the requested range; used for
    learning-rate-range and invariance experiments."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(log10_scale_lo, log10_scale_hi, size=d)
    w_true = rng.normal(size=d)
    out = []
    for _ in range(T):
        base = rng.uniform(-1.0, 1.0, size=d)
        raw = w_true @ base
        y = 1.0 if raw >= 0 else -1.0
        if rng.random() < 0.05:
            y = -y
        x = base * scales
        out.append(SparseExample(tuple((j, x[j]) for j in range(d) if x[j] != 0.0), y))
    return out


_SYNTH_KEYS = {"figure1": ("s", "T"), "scaled": ("d", "T", "lo", "hi")}


def parse_synth_spec(spec: str):
    """CLI generator specs, e.g. "figure1:s=1,T=1000" or
    "scaled:d=5,T=2000,lo=-3,hi=3"; a key the generator does not take, or
    one given twice, is an error."""
    name, _, args_s = spec.partition(":")
    if name not in _SYNTH_KEYS:
        raise DataFormatError(f"unknown synth generator {name!r}")
    args = {}
    if args_s:
        for part in args_s.split(","):
            k, _, v = part.partition("=")
            if not _:
                raise DataFormatError(f"bad synth spec fragment {part!r}")
            k = k.strip()
            if k in args or k not in _SYNTH_KEYS[name]:
                raise DataFormatError(
                    f"bad synth spec {spec!r}: {'repeated' if k in args else 'unknown'} key "
                    f"{k!r}; {name} takes {', '.join(_SYNTH_KEYS[name])}")
            args[k] = v.strip()
    try:
        if name == "figure1":
            s = float(args.get("s", 1.0))
            T = int(args.get("T", 1000))
            if not 0 < s < math.inf:
                raise ValueError("scale s must be finite and strictly positive")
            return lambda seed: synth_figure1(s=s, T=T, seed=seed)
        d = int(args.get("d", 5))   # name == "scaled"
        T = int(args.get("T", 1000))
        lo = float(args.get("lo", -3.0))
        hi = float(args.get("hi", 3.0))
        if d < 0 or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("d must be >= 0 and lo, hi finite")
        return lambda seed: synth_scaled(
            d=d, T=T, seed=seed, log10_scale_lo=lo, log10_scale_hi=hi)
    except ValueError as e:
        raise DataFormatError(f"bad synth spec {spec!r}: {e}")
