"""Command-line entry point: train, sweep, regret.

Reports are schema-versioned JSON written to stdout or --report; plot data is
plain CSV. Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric
fault. Nothing but the report is written to stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from typing import List, Optional

from . import data as data_io
from .core import get_loss
from .errors import DataFormatError, NumericFault
from .evaluate import SweepSpec, default_eta_grid, plot_csv_rows, sweep
from .learners import KINDS, LearnerConfig, run_stream
from .regret import (
    corollary1_montecarlo,
    corollary1_tau,
    lemma1_check,
    conditioned_run,
    random_instance,
    theorem1_check,
    theorem2_check,
)

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _digest_bytes(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _load_examples(args):
    """(examples, dataset digest) from --data or --synth."""
    if args.synth:
        gen = data_io.parse_synth_spec(args.synth)
        examples = gen(args.seed)
        digest = _digest_bytes(f"synth:{args.synth}:seed={args.seed}".encode())
    else:
        with open(args.data, "rb") as fh:
            blob = fh.read()
        digest = _digest_bytes(blob)
        text = blob.decode("utf-8").splitlines()
        if args.format == "svmlight":
            examples = list(data_io.read_svmlight(text))
        else:
            transform = {0.0: -1.0} if args.task == "classification" else None
            examples = list(data_io.read_delimited(text, label_transform=transform))
    if not examples:
        raise DataFormatError("dataset is empty")
    if args.normalize != "none":
        _, examples = data_io.prenormalize(examples, args.normalize)
    return examples, digest


def _emit(report: dict, path: Optional[str]):
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _learner_kinds(text: str) -> List[str]:
    kinds = [k.strip() for k in text.split(",") if k.strip()]
    unknown = [k for k in kinds if k not in KINDS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown learner kind(s) {', '.join(unknown)}; expected some of {', '.join(KINDS)}")
    return kinds


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be strictly positive, got {text}")
    return value


def _add_data_flags(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="path to a dataset file")
    src.add_argument("--synth", help="generator spec, e.g. figure1:s=1,T=1000")
    p.add_argument("--format", choices=["svmlight", "csv"], default="svmlight")
    p.add_argument("--task", choices=["classification", "regression"],
                   default="classification")
    p.add_argument("--normalize", choices=["none", "maxnorm", "sqnorm"], default="none")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", help="write the JSON report here instead of stdout")


def cmd_train(args) -> dict:
    examples, digest = _load_examples(args)
    config = LearnerConfig(kind=args.learner, eta=args.eta, clip_c=args.clip_c,
                           eta_decay=args.eta_decay)
    loss = get_loss(args.loss)
    t0 = time.perf_counter()
    report = run_stream(config, loss, examples, keep_state=True)
    elapsed = time.perf_counter() - t0
    thin = max(1, args.thin)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "run",
        "config": {
            "learner": args.learner,
            "loss": args.loss,
            "eta": args.eta,
            "normalize": args.normalize,
            "clip_c": args.clip_c,
            "seed": args.seed,
            "dataset_digest": digest,
        },
        "trace": report.losses[::thin],
        "trace_thinning": thin,
        "average_loss": report.average_loss,
        "final_state": {
            "nonzero_weights": report.nonzero_weights,
            "normalizer": report.normalizer,
            "examples": report.n_examples,
            "state": report.state,
        },
        "timing": {"seconds": elapsed},
    }


def _parse_eta_grid(spec: str) -> List[float]:
    lo_s, sep, hi_s = spec.partition("..")
    if not sep:
        raise DataFormatError(f"bad eta grid {spec!r}; expected LO..HI")
    lo, hi = float(lo_s), float(hi_s)
    if not (lo > 0 and hi >= lo):
        raise DataFormatError("eta grid bounds must satisfy 0 < LO <= HI")
    grid = []
    e = lo
    while e <= hi * (1 + 1e-12):
        grid.append(e)
        e *= 2.0
    return grid


def cmd_sweep(args) -> dict:
    examples, digest = _load_examples(args)
    kinds = args.learners
    grid = _parse_eta_grid(args.eta_grid) if args.eta_grid else default_eta_grid()
    spec = SweepSpec(kinds=kinds, loss=args.loss, eta_grid=grid, task=args.task,
                     clip_c=args.clip_c)
    t0 = time.perf_counter()
    report = sweep(spec, examples)
    elapsed = time.perf_counter() - t0
    if args.plot_data:
        with open(args.plot_data, "w") as fh:
            fh.write("\n".join(plot_csv_rows(report)) + "\n")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sweep",
        "config": {
            "learners": kinds,
            "loss": args.loss,
            "normalize": args.normalize,
            "clip_c": args.clip_c,
            "seed": args.seed,
            "dataset_digest": digest,
        },
        "cells": [
            {"learner": c.kind, "eta": c.eta, "loss": c.eval_loss,
             "training_loss": c.training_loss, "error": c.error}
            for c in report.cells
        ],
        "best": {k: {"eta": v[0], "loss": v[1]} for k, v in report.best.items()},
        "timing": {"seconds": elapsed},
    }


def cmd_regret(args) -> dict:
    loss = get_loss(args.loss)
    t0 = time.perf_counter()
    reports = []
    summary: dict = {}
    if args.check == "cor1":
        examples = random_instance(args.seed, d=args.d, T=args.T,
                                   classification=loss.classification or loss.kind != "squared")
        tau = corollary1_tau(args.d, args.delta, args.nu)
        mc = corollary1_montecarlo(examples, args.d, args.delta, args.nu,
                                   n_permutations=args.instances, seed=args.seed)
        reports.append(mc)
        summary = {
            "instances": args.instances,
            "failures": 0 if mc["passed"] else 1,
            "min_slack": None,
            "tau": tau,
        }
    else:
        slacks = []
        failures = 0
        for k in range(args.instances):
            inst_seed = args.seed + 1000 * k
            examples = random_instance(inst_seed, d=args.d, T=args.T,
                                       classification=loss.kind != "squared")
            if args.check == "lemma1":
                ledger = conditioned_run(examples, loss, args.C,
                                         recipe="streaming", projection=False)
                rep = lemma1_check(ledger, loss, {})
            elif args.check == "thm1":
                rep = theorem1_check(examples, loss, args.C)
            else:
                rep = theorem2_check(examples, loss, args.C)
            slacks.append(rep.slack)
            failures += 0 if rep.passed else 1
            item = {
                "seed": inst_seed,
                "empirical_regret": rep.empirical_regret,
                "bound_value": rep.bound_value,
                "slack": rep.slack,
                "passed": rep.passed,
                "components": rep.components,
            }
            if rep.oracle is not None:
                item["oracle"] = rep.oracle._asdict()
            reports.append(item)
        summary = {
            "instances": args.instances,
            "failures": failures,
            "min_slack": min(slacks) if slacks else None,
            "tau": None,
        }
    elapsed = time.perf_counter() - t0
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "regret",
        "check": args.check,
        "config": {
            "loss": args.loss,
            "seed": args.seed,
            "dataset_digest": _digest_bytes(
                f"regret:{args.check}:seed={args.seed}:n={args.instances}".encode()),
        },
        "reports": reports,
        "summary": summary,
        "timing": {"seconds": elapsed},
    }


def build_parser() -> _Parser:
    parser = _Parser(prog="nol", description="Scale-invariant online learning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one learner over a stream")
    _add_data_flags(p_train)
    p_train.add_argument("--learner", required=True,
                         choices=["ng", "nag", "snag", "adagrad", "sgd"])
    p_train.add_argument("--loss", required=True,
                         choices=["squared", "hinge", "logistic"])
    p_train.add_argument("--eta", type=float, required=True)
    p_train.add_argument("--clip-c", type=float, dest="clip_c")
    p_train.add_argument("--eta-decay", action="store_true", dest="eta_decay")
    p_train.add_argument("--thin", type=int, default=1,
                         help="keep every k-th trace entry")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="learning-rate sweep over learners")
    _add_data_flags(p_sweep)
    p_sweep.add_argument("--learners", required=True, type=_learner_kinds,
                         help="comma-separated learner kinds")
    p_sweep.add_argument("--loss", required=True,
                         choices=["squared", "hinge", "logistic"])
    p_sweep.add_argument("--eta-grid", dest="eta_grid",
                         help="LO..HI, expanded by powers of two")
    p_sweep.add_argument("--clip-c", type=_positive, dest="clip_c")
    p_sweep.add_argument("--plot-data", dest="plot_data",
                         help="write learner,eta,loss CSV here")
    p_sweep.set_defaults(func=cmd_sweep)

    p_regret = sub.add_parser("regret", help="run a bound-check suite")
    p_regret.add_argument("--check", required=True,
                          choices=["lemma1", "thm1", "thm2", "cor1"])
    p_regret.add_argument("--instances", type=int, default=10)
    p_regret.add_argument("--seed", type=int, default=0)
    p_regret.add_argument("-C", type=float, default=1.0, dest="C")
    p_regret.add_argument("--loss", default="squared",
                          choices=["squared", "hinge", "logistic"])
    p_regret.add_argument("--d", type=int, default=3)
    p_regret.add_argument("--T", type=int, default=200)
    p_regret.add_argument("--delta", type=float, default=0.1)
    p_regret.add_argument("--nu", type=float, default=0.5)
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
        report = args.func(args)
    except DataFormatError as e:
        sys.stderr.write(f"data error: {e}\n")
        return 2
    except (FileNotFoundError, UnicodeDecodeError) as e:
        sys.stderr.write(f"data error: {e}\n")
        return 2
    except NumericFault as e:
        sys.stderr.write(f"numeric fault: {e}\n")
        return 3
    _emit(report, getattr(args, "report", None))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
