"""Correctness checks on every invocation's outputs.

One operation is one output row, or the one calibration.  An operation
fails on a nonzero exit, a missing or unreadable result file, a row
with `valid = false`, a broken sum rule, a broken one-sided bound
(bosons bunch, fermions anti-bunch), a `run --oracle` quadrature
disagreement, a calibration off its target, or, on the default seed,
a drift from the pinned fingerprint.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from workloads import TARGET, TOL, Workload

SUM_RULE_TOL = 1e-6
BOUND_TOL = 1e-4
ORACLE_TOL = 1e-12
FINGERPRINT_TOL = 1e-8
QUARTER = 0.25

RESULT_FILES = {"run": "run.json", "sweep": "sweep.json", "calibrate": "calibration.json"}
_ORACLE_LINE = re.compile(r"oracle: 2d quadrature max\|diff\| = (\S+)")


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def row_problems(row: dict, sign: str) -> list[str]:
    """What is wrong with one result row, if anything."""
    tag = f"param={row.get('param')}"
    try:
        p20, p02, p11, a = (float(row[k]) for k in ("p20", "p02", "p11", "a"))
    except (KeyError, TypeError, ValueError):
        return [f"{tag}: missing quadrant probabilities"]
    out = []
    if row.get("valid") is not True:
        out.append(f"{tag}: valid = {row.get('valid')}")
    total = p20 + p02 + p11
    if not abs(total - 1.0) <= SUM_RULE_TOL:
        out.append(f"{tag}: sum rule p20+p02+p11 = {total!r}")
    if sign == "boson" and not a >= QUARTER - BOUND_TOL:
        out.append(f"{tag}: boson a = {a!r} below 1/4")
    if sign == "fermion" and not a <= QUARTER + BOUND_TOL:
        out.append(f"{tag}: fermion a = {a!r} above 1/4")
    return out


def fingerprint_problems(rows: list[dict], pinned: list[dict]) -> list[list[str]]:
    """Per-row drift from the pinned (a, p11) of the default seed."""
    out = []
    for row, pin in zip(rows, pinned):
        problems = []
        for key in ("a", "p11"):
            got = float(row.get(key, math.nan))
            if not abs(got - pin[key]) <= FINGERPRINT_TOL:
                problems.append(f"param={row.get('param')}: {key} = {got!r}, pinned {pin[key]!r}")
        out.append(problems)
    return out


def check_outputs(
    workload: Workload,
    returncode: int,
    out_dir: Path,
    stdout: str,
    pinned: Optional[dict] = None,
) -> Outcome:
    """Check one invocation; `pinned` is the default seed's fingerprint."""
    ops = workload.operations
    if returncode != 0:
        return Outcome(ops, ops, [f"exit code {returncode}"])
    path = out_dir / RESULT_FILES[workload.subcommand]
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        return Outcome(ops, ops, [f"cannot read {path.name}: {err}"])

    if workload.subcommand == "calibrate":
        return _check_calibration(data, pinned)

    rows = data.get("rows") if isinstance(data, dict) else None
    if not isinstance(rows, list):
        return Outcome(ops, ops, [f"{path.name} has no rows"])
    per_row = [row_problems(r, workload.sign) if isinstance(r, dict) else ["row is not an object"]
               for r in rows[:ops]]
    per_row += [["row missing"]] * (ops - len(per_row))
    for problems, row, want in zip(per_row, rows, workload.params):
        if isinstance(row, dict) and row.get("param") != want:
            problems.append(f"row param {row.get('param')!r}, expected {want!r}")
    if len(rows) > ops:
        per_row[-1].append(f"{len(rows) - ops} unexpected extra rows")
    if workload.subcommand == "run":
        match = _ORACLE_LINE.search(stdout)
        if match is None:
            per_row[0].append("no oracle line on stdout")
        elif not float(match.group(1)) <= ORACLE_TOL:
            per_row[0].append(f"oracle max|diff| = {match.group(1)}")
    if pinned is not None:
        for problems, drift in zip(per_row, fingerprint_problems(rows, pinned["rows"])):
            problems += drift
    failed = sum(1 for p in per_row if p)
    return Outcome(ops, failed, [msg for p in per_row for msg in p])


def _check_calibration(data, pinned: Optional[dict]) -> Outcome:
    problems = []
    try:
        transmission = float(data["calibration"]["transmission"])
        height = float(data["calibration"]["height"])
    except (KeyError, TypeError, ValueError):
        return Outcome(1, 1, ["calibration.json has no calibration record"])
    if not abs(transmission - TARGET) <= TOL:
        problems.append(f"T = {transmission!r} misses {TARGET} +- {TOL}")
    if pinned is not None:
        if not abs(transmission - pinned["transmission"]) <= FINGERPRINT_TOL:
            problems.append(f"T = {transmission!r}, pinned {pinned['transmission']!r}")
        if not abs(height - pinned["barrier_height"]) <= FINGERPRINT_TOL * pinned["barrier_height"]:
            problems.append(f"height = {height!r}, pinned {pinned['barrier_height']!r}")
    return Outcome(1, 1 if problems else 0, problems)
