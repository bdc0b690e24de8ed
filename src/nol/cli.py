"""Command-line entry point: train, sweep, regret.

Reports are schema-versioned strict JSON, one line with sorted keys,
written to stdout or --report; plot data is plain CSV. Exit codes: 0
success, 1 usage error (an output path that cannot be written included), 2
data error (an unreadable --data path included), 3 numeric fault (a report
number that is not finite included). Nothing but the report is written to
stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import sys
import time
from typing import List, Optional

from . import data as data_io
from .core import LOSS_KINDS, _nonfinite_reason, get_loss
from .errors import DataFormatError, InvalidLabel, NumericFault
from .evaluate import TIE_FAILURE_PROBABILITY, plot_csv_rows, sweep
from .learners import KINDS, LearnerConfig, run_stream
from .regret import (
    corollary1_montecarlo,
    lemma1_check,
    conditioned_run,
    random_instance,
    theorem1_check,
    theorem2_check,
)

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2, with one stderr line
    def error(self, message):
        sys.stderr.write(f"{self.prog}: error: {message} (see {self.prog} -h)\n")
        raise SystemExit(1)


class _OutputError(Exception):
    """An output path that cannot be written: a usage error, exit 1."""


def _text_lines(fh, sha, path):
    """The lines of a binary file, as str.splitlines() splits the decoded
    whole, fed into the sha256 ``sha`` as they are read. Each \\n-terminated
    byte line is decoded and split on its own: it ends on a line break, and
    a UTF-8 sequence never holds the \\n byte. Bytes that are not UTF-8 are
    a DataFormatError naming the path and the line."""
    n = 0
    for raw in fh:
        sha.update(raw)
        try:
            lines = raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as e:
            # the lines before this byte line, plus those up to the bad byte's
            line = n + len((raw[:e.start].decode("utf-8") + "x").splitlines())
            raise DataFormatError(f"{path}: line {line}: not UTF-8 ({e.reason})") from None
        n += len(lines)
        yield from lines


class _DataFile:
    """--data as a stream that is read afresh on each iteration.

    A pass reads, hashes and parses one line at a time, so a pass holds one
    line and one example, whatever the file's size. ``digest`` is the
    sha256 of the file's bytes once a pass has ended; a later pass that
    reads other bytes, or a pass without examples, is a DataFormatError.
    Use it as a context manager: leaving it closes the file of every pass
    still open.
    """

    def __init__(self, path: str, parse):
        self.path = path
        self.parse = parse
        self.digest: Optional[str] = None
        self._passes: list = []

    def __iter__(self):
        it = self._read()
        self._passes.append(it)
        return it

    def _read(self):
        sha = hashlib.sha256()
        n = 0
        try:
            fh = open(self.path, "rb")
        except OSError as e:
            raise DataFormatError(f"cannot read {self.path!r}: {e.strerror}") from None
        with fh:
            for n, ex in enumerate(self.parse(_text_lines(fh, sha, self.path)), start=1):
                yield ex
        if n == 0:
            raise DataFormatError("dataset is empty")
        digest = sha.hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise DataFormatError(f"{self.path} changed between passes over it")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for it in self._passes:
            it.close()


def _fit(args, fit):
    """(fit's result, the data flags' config, fit's seconds) over the examples
    --data or --synth names, pre-normalized as --normalize asks. The digest is
    the sha256 of --data's bytes, or of the --synth spec and seed."""
    if args.synth:
        examples = data_io.parse_synth_spec(args.synth)(args.seed)
        if not examples:
            raise DataFormatError("dataset is empty")
        source = contextlib.nullcontext(examples)
        digest = hashlib.sha256(f"synth:{args.synth}:seed={args.seed}".encode()).hexdigest()
    else:
        if args.format == "svmlight":
            parse = data_io.read_svmlight
        else:
            transform = {0.0: -1.0} if args.task == "classification" else None
            parse = functools.partial(data_io.read_delimited, label_transform=transform)
        source = _DataFile(args.data, parse)
    with source as examples:
        if args.normalize != "none":
            examples = data_io.prenormalize(examples, args.normalize)[1]
        t0 = time.perf_counter()
        result = fit(examples)
        seconds = time.perf_counter() - t0
    config = {
        "format": args.format,
        "task": args.task,
        "normalize": args.normalize,
        "clip_c": args.clip_c,
        "seed": args.seed,
        "dataset_digest": digest if args.synth else source.digest,
    }
    return result, config, seconds


def _report(kind: str, config: dict, seconds: float, **body) -> dict:
    """A report: its schema version, kind, config, body and timing."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "config": config,
        **body,
        "timing": {"seconds": seconds},
    }


def _write(flag: str, path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise _OutputError(f"argument {flag}: cannot write {path!r}: {e.strerror}") from None


def _emit(report: dict, path: Optional[str]):
    """Write the report as strict JSON: a number that is not finite is a
    NumericFault naming its field."""
    # one line: json.dumps takes the C encoder only without indent, and only
    # as a one-shot dumps (json.dump to a file streams through the Python one)
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        field, value = next((p, v) for p, v in _numbers(report) if not math.isfinite(v))
        raise NumericFault(f"report field {field}: {_nonfinite_reason('value', value)}") from None
    if path:
        _write("--report", path, text)
    else:
        sys.stdout.write(text)


def _numbers(value, path=""):
    """(path, number) of each float in a report, in key order."""
    if isinstance(value, float):
        yield path, value
    elif isinstance(value, dict):
        for k in sorted(value):
            yield from _numbers(value[k], f"{path}.{k}" if path else k)
    elif isinstance(value, (list, tuple)):
        for k, v in enumerate(value):
            yield from _numbers(v, f"{path}[{k}]")


def _learner_kinds(text: str) -> List[str]:
    kinds = [k.strip() for k in text.split(",") if k.strip()]
    expected = f"expected some of {', '.join(KINDS)}"
    if not kinds:
        raise argparse.ArgumentTypeError(f"no learner kind given; {expected}")
    unknown = [k for k in kinds if k not in KINDS]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown learner kind(s) {', '.join(unknown)}; {expected}")
    if len(set(kinds)) < len(kinds):
        raise argparse.ArgumentTypeError(f"learner kinds must not repeat, got {text}")
    return kinds


def _checked(convert, test, what):
    """An argparse type: convert the text, then require test(value)."""
    def parse(text):
        value = convert(text)
        if not test(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_finite_positive = _checked(float, lambda v: 0 < v < math.inf, "finite and strictly positive")
_finite_nonnegative = _checked(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_positive_int = _checked(int, lambda v: v > 0, "a positive integer")
_nonnegative_int = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_open_unit = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")


def _synth_spec(text: str) -> str:
    try:
        data_io.parse_synth_spec(text)
    except DataFormatError as e:
        raise argparse.ArgumentTypeError(str(e))
    return text


def _add_data_flags(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="path to a dataset file")
    src.add_argument("--synth", type=_synth_spec,
                     help="generator spec, e.g. figure1:s=1,T=1000")
    p.add_argument("--format", choices=["svmlight", "csv"], default="svmlight")
    p.add_argument("--task", choices=["classification", "regression"],
                   default="classification")
    p.add_argument("--normalize", choices=["none", "maxnorm", "sqnorm"], default="none")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--report", help="write the JSON report here instead of stdout")


def cmd_train(args) -> dict:
    config = LearnerConfig(kind=args.learner, eta=args.eta, clip_c=args.clip_c,
                           eta_decay=args.eta_decay)
    report, data, seconds = _fit(
        args, lambda examples: run_stream(config, get_loss(args.loss), examples))
    return _report(
        "run",
        {
            "learner": args.learner,
            "loss": args.loss,
            "eta": args.eta,
            "eta_decay": args.eta_decay,
            **data,
        },
        seconds,
        trace=report.losses[::args.thin],
        trace_thinning=args.thin,
        average_loss=report.average_loss,
        final_state={
            "nonzero_weights": report.nonzero_weights,
            "normalizer": report.normalizer,
            "examples": report.n_examples,
            "state": report.state,
        },
    )


def _parse_eta_grid(spec: str) -> List[float]:
    """An argparse type: LO..HI as the grid LO, 2 LO, 4 LO, ... up to HI."""
    lo_s, _, hi_s = spec.partition("..")   # without "..", hi_s is "" and not a float
    try:
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad eta grid {spec!r}; expected LO..HI")
    if not 0 < lo <= hi < math.inf:
        raise argparse.ArgumentTypeError(
            f"eta grid bounds must be finite and satisfy 0 < LO <= HI, got {spec}")
    # capped so that doubling past the largest float ends the loop
    limit = min(hi * (1 + 1e-12), sys.float_info.max)
    grid = []
    e = lo
    while e <= limit:
        grid.append(e)
        e *= 2.0
    return grid


def cmd_sweep(args) -> dict:
    report, data, seconds = _fit(args, lambda examples: sweep(
        args.learners, args.loss, examples, args.eta_grid, args.task, args.clip_c))
    if args.plot_data:
        _write("--plot-data", args.plot_data, "\n".join(plot_csv_rows(report)) + "\n")
    return _report(
        "sweep",
        {
            "learners": args.learners,
            "loss": args.loss,
            **data,
        },
        seconds,
        cells=[
            {"learner": c.kind, "eta": c.eta, "loss": c.eval_loss,
             "training_loss": c.training_loss, "error": c.error}
            for c in report.cells
        ],
        best={k: {"eta": eta, "loss": loss,
                  "tied_etas": None if report.tied is None else list(report.tied[k])}
              for k, (eta, loss) in report.best.items()},
        tie_failure_probability=None if report.tied is None else TIE_FAILURE_PROBABILITY,
    )


def _bound_item(args, loss, seed: int) -> dict:
    """The report item of one lemma1, thm1 or thm2 instance of nol regret."""
    examples = random_instance(seed, d=args.d, T=args.T, classification=loss.classification)
    if args.check == "lemma1":
        ledger = conditioned_run(examples, loss, args.C, recipe="streaming", projection=False)
        rep = lemma1_check(ledger, loss, {})
    elif args.check == "thm1":
        rep = theorem1_check(examples, loss, args.C)
    else:
        rep = theorem2_check(examples, loss, args.C)
    item = {
        "seed": seed,
        "empirical_regret": rep.empirical_regret,
        "bound_value": rep.bound_value,
        "slack": rep.slack,
        "passed": rep.passed,
        "components": rep.components,
    }
    if rep.oracle is not None:
        item["oracle"] = rep.oracle._asdict()
    return item


def cmd_regret(args) -> dict:
    loss = get_loss(args.loss)
    t0 = time.perf_counter()
    if args.check == "cor1":
        examples = random_instance(args.seed, d=args.d, T=args.T,
                                   classification=loss.classification)
        mc = corollary1_montecarlo(examples, args.d, args.delta, args.nu,
                                   n_permutations=args.instances, seed=args.seed)
        reports = [mc]
        summary = {
            "instances": args.instances,
            "failures": 0 if mc["passed"] else 1,
            "min_slack": None,
            "tau": mc["tau"],
        }
    else:
        reports = [_bound_item(args, loss, args.seed + 1000 * k) for k in range(args.instances)]
        summary = {
            "instances": args.instances,
            "failures": sum(not item["passed"] for item in reports),
            "min_slack": min(item["slack"] for item in reports),
            "tau": None,
        }
    elapsed = time.perf_counter() - t0
    # the instances are random_instance(seed + 1000 k, d, T), with +-1 labels
    # or real ones as the loss asks
    dataset = (f"regret:{args.check}:seed={args.seed}:n={args.instances}:d={args.d}:T={args.T}"
               f":loss={args.loss}").encode()
    config = {"loss": args.loss, "seed": args.seed, "C": args.C, "d": args.d, "T": args.T,
              "instances": args.instances, "dataset_digest": hashlib.sha256(dataset).hexdigest()}
    if args.check == "cor1":
        config.update(delta=args.delta, nu=args.nu)
    return _report(
        "regret",
        config,
        elapsed,
        check=args.check,
        reports=reports,
        summary=summary,
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="nol", description="Scale-invariant online learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one learner over a stream")
    _add_data_flags(p_train)
    p_train.add_argument("--learner", required=True, choices=KINDS)
    p_train.add_argument("--loss", required=True, choices=LOSS_KINDS)
    p_train.add_argument("--eta", type=_finite_nonnegative, required=True)
    p_train.add_argument("--clip-c", type=_finite_positive, dest="clip_c")
    p_train.add_argument("--eta-decay", action="store_true", dest="eta_decay")
    p_train.add_argument("--thin", type=_positive_int, default=1,
                         help="keep every k-th trace entry")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="learning-rate sweep over learners")
    _add_data_flags(p_sweep)
    p_sweep.add_argument("--learners", required=True, type=_learner_kinds,
                         help="comma-separated learner kinds")
    p_sweep.add_argument("--loss", required=True, choices=LOSS_KINDS)
    p_sweep.add_argument("--eta-grid", dest="eta_grid", type=_parse_eta_grid,
                         help="LO..HI, expanded by powers of two")
    p_sweep.add_argument("--clip-c", type=_finite_positive, dest="clip_c")
    p_sweep.add_argument("--plot-data", dest="plot_data",
                         help="write learner,eta,loss CSV here")
    p_sweep.set_defaults(func=cmd_sweep)

    p_regret = sub.add_parser("regret", help="run a bound-check suite")
    p_regret.add_argument("--check", required=True,
                          choices=["lemma1", "thm1", "thm2", "cor1"])
    p_regret.add_argument("--instances", type=_positive_int, default=10)
    p_regret.add_argument("--seed", type=_nonnegative_int, default=0)
    p_regret.add_argument("-C", type=_finite_positive, default=1.0, dest="C")
    p_regret.add_argument("--loss", default="squared", choices=LOSS_KINDS)
    p_regret.add_argument("--d", type=_positive_int, default=3)
    p_regret.add_argument("--T", type=_positive_int, default=200)
    p_regret.add_argument("--delta", type=_open_unit, default=0.1)
    p_regret.add_argument("--nu", type=_open_unit, default=0.5)
    p_regret.add_argument("--report")
    p_regret.set_defaults(func=cmd_regret)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    try:
        _emit(args.func(args), args.report)
    except (DataFormatError, InvalidLabel) as e:
        sys.stderr.write(f"data error: {e}\n")
        return 2
    except NumericFault as e:
        sys.stderr.write(f"numeric fault: {e}\n")
        return 3
    except _OutputError as e:
        sys.stderr.write(f"{parser.prog} {args.command}: error: {e}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
