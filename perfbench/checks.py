"""Output checks that hold whatever order the RNG draws come in.

A failed check marks rows of the experiment CSV as failed: one row per
sweep point. Checks on a whole file (it parses, it has one row per sweep
point) fail every row of the file.
"""

from __future__ import annotations

import hashlib
import re
from typing import Callable

import numpy as np

from workloads import Workload

_CELLS = re.compile(r"coverage_(\d)cell$")


def sha256_of(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_csv(path: str, workload: Workload, read_csv: Callable
              ) -> tuple[list[bool], list[str], dict[str, np.ndarray]]:
    """Check one experiment CSV.

    Returns a pass flag per expected row, the problems found, and the
    coverage columns by name (empty when the file does not parse).
    """
    sweep = workload.sweep
    try:
        _, _, columns, data, _ = read_csv(path)
    except (OSError, ValueError) as exc:
        return [False] * len(sweep), [f"{path}: read_csv failed: {exc}"], {}
    needed = ("num_ues", workload.policy_column, *workload.reference_columns,
              *workload.max_columns)
    missing = [c for c in needed if c not in columns]
    if missing:
        return [False] * len(sweep), [f"{path}: no column {missing}"], {}
    if data.shape[0] != len(sweep):
        return ([False] * len(sweep),
                [f"{path}: {data.shape[0]} rows for a sweep of {len(sweep)}"], {})
    problems = []
    ok = [True] * len(sweep)
    ues = data[:, columns.index("num_ues")]
    coverage = {c: data[:, i] for i, c in enumerate(columns)
                if c.startswith("coverage_")}
    for r, n in enumerate(sweep):
        if ues[r] != n:
            ok[r] = False
            problems.append(f"{path}: row {r} has num_ues {ues[r]}, expected {n}")
        for name, col in coverage.items():
            value = col[r]
            if not 0.0 <= value <= 1.0:  # NaN fails too
                ok[r] = False
                problems.append(f"{path}: row {r} {name} = {value} outside [0, 1]")
            elif workload.fixed_ue_count:
                match = _CELLS.search(name)
                cells = (int(match.group(1)) if match
                         else workload.overrides.get("num_cells", 1))
                # Mean coverage over trials of n*cells UEs each is a count of
                # covered UEs divided by n*cells*trials.
                count = value * n * cells * workload.trials
                if abs(count - round(count)) > 1e-6:
                    ok[r] = False
                    problems.append(f"{path}: row {r} {name} = {value} is not a "
                                    f"whole number of {n * cells} UEs x "
                                    f"{workload.trials} trials")
    return ok, problems, coverage


def quality_parts(workload: Workload, coverage: dict[str, list[float]]
                  ) -> tuple[float, float, float]:
    """Row means of one checked CSV: the policy under test, its best
    reference (row-wise maximum over the reference columns) and max power."""
    policy = np.asarray(coverage[workload.policy_column])
    reference = np.max([coverage[c] for c in workload.reference_columns], axis=0)
    cmax = np.mean([coverage[c] for c in workload.max_columns])
    return float(policy.mean()), float(reference.mean()), float(cmax)
