"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's own test run.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from iabsim.experiments import ExperimentSpec, run_experiment  # noqa: E402

import run as bench  # noqa: E402
from checks import check_csv  # noqa: E402
from tracing import (Hooks, Tracer, ga_checks, layer_metrics,  # noqa: E402
                     self_times)
from workloads import DISTINCT, RBS_VALUES, WORKLOADS  # noqa: E402

TINY = {
    name: dataclasses.replace(
        w, trials=2,
        overrides={**w.overrides, "sweep_ues": (3, w.sweep[0]),
                   "ga_iterations": 3})
    for name, w in WORKLOADS.items()}


def _run(workload, config_seed: int, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    spec = ExperimentSpec(workload.experiment, os.path.join(out_dir, "out.csv"),
                          rbs_values=RBS_VALUES)
    return run_experiment(spec, workload.build_config(config_seed))[0]


def _rec(path: str, config_seed: int = 7) -> dict:
    return {"config_seed": config_seed, "traced": False, "problems": [],
            "files": [path]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_clean_output_passes(name, tmp_path):
    w = TINY[name]
    path = _run(w, 7, str(tmp_path))
    runner = bench.Runner(w, 0, str(tmp_path))
    for _ in range(2):
        rec = _rec(path)
        runner.check(rec)
        assert rec["ok"], rec["problems"]
        assert rec["rows_attempted"] == len(w.sweep)


def test_cell_out_of_range_fails_its_row(tmp_path):
    w = TINY["ga_reuse"]
    path = _run(w, 7, str(tmp_path))
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    first_row = next(i for i, line in enumerate(lines)
                     if not line.startswith("#")) + 1
    cells = lines[first_row].split(",")
    cells[1] = "1.5"
    lines[first_row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    rec = _rec(path)
    bench.Runner(w, 0, str(tmp_path)).check(rec)
    assert rec["rows_failed"] == 1
    assert any("outside [0, 1]" in p for p in rec["problems"])


def test_flipped_byte_between_reruns_fails_every_row(tmp_path):
    w = TINY["baseline_2cell"]
    path = _run(w, 7, str(tmp_path / "a"))
    copy = str(tmp_path / "b.csv")
    shutil.copyfile(path, copy)
    with open(copy, "r+b") as fh:
        fh.seek(5)  # inside the comment header, so the file still parses
        byte = fh.read(1)
        fh.seek(5)
        fh.write(bytes([byte[0] ^ 0x01]))
    runner = bench.Runner(w, 0, str(tmp_path))
    first, second = _rec(path), _rec(copy)
    runner.check(first)
    runner.check(second)
    assert first["rows_failed"] == 0
    assert second["rows_failed"] == len(w.sweep)
    assert any("differs" in p for p in second["problems"])


def test_fractional_trial_count_fails(tmp_path):
    w = TINY["baseline_2cell"]
    path = _run(w, 7, str(tmp_path))
    ok, problems, _ = check_csv(path, dataclasses.replace(w, trials=3),
                                bench.Runner(w, 0, str(tmp_path)).read_csv)
    assert not all(ok)
    assert any("whole number" in p for p in problems)


@pytest.mark.parametrize("text", ["# only a comment\n",
                                  "num_ues,coverage_max_power\n3,1\n10,1\n"])
def test_unparseable_or_incomplete_csv_fails_every_row(tmp_path, text):
    w = TINY["ga_reuse"]
    path = str(tmp_path / "out.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    rec = _rec(path)
    bench.Runner(w, 0, str(tmp_path)).check(rec)
    assert rec["rows_failed"] == len(w.sweep)


def test_missing_hook_target_is_not_measured(tmp_path):
    w = TINY["ga_reuse"]
    hooks = {"ga": (("iabsim.policies", "optimize_removed"),),
             "coverage.batch": (("iabsim.coverage",
                                 "ScenarioInstance.batch_coverage"),)}
    tracer = Tracer()
    with Hooks(tracer, hooks) as h:
        _run(w, 7, str(tmp_path))
    assert h.measured == ["coverage.batch"]
    metrics = layer_metrics(tracer.spans, h.measured, 0)
    assert metrics["coverage.batch.calls"] > 0
    assert not any(k.startswith("ga.") for k in metrics)


def test_traced_ga_counts_pass_and_hooks_are_restored(tmp_path):
    import iabsim.policies
    original = iabsim.policies.optimize
    w = TINY["ga_reuse"]
    tracer = Tracer()
    with Hooks(tracer) as h:
        _run(w, 7, str(tmp_path))
    assert iabsim.policies.optimize is original
    checked, failed = ga_checks(tracer.spans, h.measured)
    assert checked == w.trials * len(w.sweep) and failed == 0
    metrics = layer_metrics(tracer.spans, h.measured, 0)
    assert metrics["ga.evaluations"] == checked * 20 * (3 + 1)
    # A GA call that skipped an evaluation fails the count check.
    next(s for s in tracer.spans if s[0] == "ga")[4]["n_evaluations"] -= 1
    assert ga_checks(tracer.spans, h.measured) == (checked, 1)


def test_self_time_subtracts_children():
    spans = [["experiments", None, 0.0, 10.0, None],
             ["coverage.build", 0, 1.0, 4.0, None],
             ["channel", 1, 1.5, 3.0, None]]
    assert self_times(spans) == [7.0, 1.5, 1.5]


def test_seed_changes_the_generated_inputs():
    from iabsim.coverage import build_instance
    w = WORKLOADS["ga_reuse"]
    a, b = (w.build_config(w.config_seed(s, 0)) for s in (1, 2))
    assert a != b
    assert w.build_config(w.config_seed(1, 0)) == a
    pos = [tuple((n.x, n.y) for n in build_instance(c, c.seed, 0).topology.ues)
           for c in (a, b)]
    assert pos[0] != pos[1]


def test_reruns_reuse_earlier_inputs():
    w = WORKLOADS["ga_reuse"]
    seeds = [w.config_seed(3, r) for r in range(DISTINCT + 1)]
    assert len(set(seeds[:-1])) == DISTINCT
    assert seeds[-1] == seeds[0]


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ga_reuse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
