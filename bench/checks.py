"""Correctness checks on every command a workload sample runs.

A command fails when it exits non-zero or when its report fails a check.
References are the values the CLI produced for each input variant when they
were recorded (bench/record.py); the tolerances admit summation-order
differences (~1e-9 relative) but not a changed result.
"""

from __future__ import annotations

import json
import math
import os

import jsonschema

from inputs import GRID_POINTS

AVERAGE_LOSS_REL_TOL = 1e-6
BOUND_REL_TOL = 1e-6
# nol.regret.ORACLE_REL_TOL when the references were recorded; fixed here so
# the program under test cannot loosen its own check
ORACLE_REL_TOL = 1e-3


def load_schema(root: str) -> dict:
    with open(os.path.join(root, "src", "nol", "schema", "report.schema.json")) as fh:
        return json.load(fh)


def _close(value, ref, rel):
    return isinstance(value, (int, float)) and math.isclose(value, ref, rel_tol=rel)


def _check_train(report, label, ref, lines):
    kind = label.split(":")[1]
    if report["final_state"]["examples"] != lines:
        return f"examples {report['final_state']['examples']} != {lines} lines"
    if not _close(report["average_loss"], ref[kind], AVERAGE_LOSS_REL_TOL):
        return f"average_loss {report['average_loss']!r} != reference {ref[kind]!r}"
    return None


def _check_sweep(report, label, ref, lines):
    if len(report["cells"]) != GRID_POINTS * len(ref):
        return f"{len(report['cells'])} cells, expected {GRID_POINTS * len(ref)}"
    errors = [c for c in report["cells"] if c.get("error") is not None]
    if errors:
        return f"{len(errors)} error cells, first: {errors[0]['error']}"
    for kind, eta in ref.items():
        best = report["best"].get(kind, {}).get("eta")
        if best != eta:
            return f"best eta for {kind} is {best!r}, reference {eta!r}"
    return None


def _check_regret(report, label, ref, lines):
    check = label.split(":")[1]
    if report["summary"]["failures"] != 0:
        return f"{report['summary']['failures']} bound failures"
    expected = ref[check]
    if len(report["reports"]) != len(expected):
        return f"{len(report['reports'])} instances, reference has {len(expected)}"
    for got, want in zip(report["reports"], expected):
        comparator = want["learner_loss"] - got["empirical_regret"]
        if not _close(comparator, want["comparator_loss"], ORACLE_REL_TOL):
            return f"comparator loss {comparator!r} != reference {want['comparator_loss']!r}"
        if not _close(got["bound_value"], want["bound_value"], BOUND_REL_TOL):
            return f"bound {got['bound_value']!r} != reference {want['bound_value']!r}"
    return None


CHECKS = {"train-wide": _check_train, "sweep-narrow": _check_sweep,
          "regret-bounds": _check_regret}


def check_command(workload, command, report_path, schema, reference, lines):
    """None when the command passed, else the reason it failed."""
    if command["code"] != 0:
        reason = f"exit code {command['code']}"
        return reason + (f"\n{command['error']}" if command.get("error") else "")
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as e:
        return f"unreadable report: {e}"
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as e:
        return f"schema: {e.message}"
    try:
        return CHECKS[workload](report, command["label"], reference, lines)
    except (KeyError, TypeError, IndexError) as e:
        return f"report lacks an expected field: {e!r}"
