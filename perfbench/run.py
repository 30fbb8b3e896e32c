"""iabsim benchmark: run one workload repeatedly and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each repetition is a fresh child process
(``child.py``) running one experiment through the public API, one at a
time: a closed loop with one client. Repetitions continue until ``--seconds``
is spent, after a minimum that covers every independent input once and one
re-run. With ``--trace 0`` the last stdout line reports the end-to-end
metrics; with ``--trace 1`` each repetition is paired with a traced one and
the per-layer metrics are reported. Every output CSV is checked, and a run
record with every raw number is written under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from checks import check_csv, quality_parts, sha256_of  # noqa: E402
from tracing import HOOKS, PER_LAYER  # noqa: E402
from workloads import DISTINCT, WORKLOADS, Workload  # noqa: E402

# Stop starting repetitions after this long, whatever the minimum says.
HARD_LIMIT_S = 140.0
CHILD_TIMEOUT_S = 120.0
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Time of child.reference_s on an uncontended core of the machine the
# baseline was taken on (Xeon @ 2.1 GHz). Every time a repetition measures is
# reported at that speed: multiplied by REF_S / the repetition's own ref_s.
REF_S = 0.030
TIME_UNITS = ("s", "us", "ns")

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "coverage_policy": "ratio",
    "policy_gain": "ratio",
    "coverage_max": "ratio",
}


def summary(values: list[float]) -> dict:
    """The median (the reported value), quartiles, extremes and raw values."""
    if not values:
        return {"value": None, "values": []}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    median = statistics.median(values)
    return {"value": median, "statistic": "median", "median": median,
            "q1": q[0], "q3": q[2], "min": min(values), "max": max(values),
            "values": values}


def machine_record() -> dict:
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.TimeoutExpired):
        git_sha = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS, "git_sha": git_sha}


class Runner:
    """Spawns repetitions, checks their outputs and keeps every raw number."""

    def __init__(self, workload: Workload, seed: int, run_dir: str):
        from iabsim.experiments import read_csv
        self.read_csv = read_csv
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.env = dict(os.environ, **{k: BLAS_THREADS for k in BLAS_ENV})
        self.reps: list[dict] = []
        self.first_sha: dict[int, str] = {}

    def rep(self, index: int, traced: bool) -> dict:
        w = self.workload
        config_seed = w.config_seed(self.seed, index)
        out = os.path.join(self.run_dir,
                           f"rep{len(self.reps):03d}" + ("-traced" if traced else ""))
        os.makedirs(out)
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", w.name, "--config-seed", str(config_seed),
               "--out", out]
        if traced:
            cmd.append("--trace")
            if not any(r["traced"] for r in self.reps):
                cmd.append("--spans")  # one traced run's spans are enough
        rec: dict = {"index": index, "config_seed": config_seed,
                     "traced": traced, "ok": False, "problems": []}
        try:
            proc = subprocess.run(cmd + ["--started", repr(time.monotonic())],
                                  capture_output=True, text=True, env=self.env,
                                  timeout=CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                rec["problems"].append(f"exit {proc.returncode}: "
                                       f"{proc.stderr.strip()[-2000:]}")
            else:
                rec.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        except subprocess.TimeoutExpired:
            rec["problems"].append(f"timed out after {CHILD_TIMEOUT_S} s")
        except (ValueError, IndexError) as exc:
            rec["problems"].append(f"unreadable child output: {exc}")

        self.check(rec)
        self.reps.append(rec)
        return rec

    def check(self, rec: dict) -> None:
        """Check a finished repetition's CSV and count its failed rows.

        A CSV must match, byte for byte, the first one written for its
        config seed in this invocation.
        """
        w = self.workload
        rows = [False] * len(w.sweep)
        if not rec["problems"]:
            path = rec["files"][0] if len(rec["files"]) == 1 else None
            if path is None:
                rec["problems"].append(f"expected one CSV, got {rec['files']}")
            else:
                rows, problems, coverage = check_csv(path, w, self.read_csv)
                rec["problems"] += problems
                rec["coverage"] = {k: v.tolist() for k, v in coverage.items()}
                rec["sha256"] = sha256_of(path)
                first = self.first_sha.setdefault(rec["config_seed"], rec["sha256"])
                if rec["sha256"] != first:
                    rows = [False] * len(rows)
                    rec["problems"].append(
                        f"config seed {rec['config_seed']}: CSV differs from an "
                        f"earlier run ({rec['sha256']} vs {first})")
            if rec.get("ga_failed"):
                rows = [False] * len(rows)
                rec["problems"].append(f"{rec['ga_failed']} of {rec['ga_checked']} "
                                       "GA calls failed the count or trace check")
        rec["rows_attempted"] = len(rows)
        rec["rows_failed"] = rows.count(False)
        rec["ok"] = rec["rows_failed"] == 0
        if not rec["ok"]:
            print(f"run {len(self.reps)} (config seed {rec['config_seed']}"
                  f"{', traced' if rec['traced'] else ''}): "
                  + "; ".join(rec["problems"] or ["failed"]), file=sys.stderr)

    def untraced(self) -> list[dict]:
        return [r for r in self.reps if not r["traced"] and r["ok"]]

    def end_to_end(self) -> dict[str, dict]:
        w = self.workload
        good = self.untraced()
        # Other tenants of a shared machine slow it by up to 2x for seconds or
        # minutes; scaled by the reference kernel timed next to them, times
        # spread ten times less between runs (see README.md).
        scale = [REF_S / r["ref_s"] for r in good]
        wall = [r["wall_s"] * s for r, s in zip(good, scale)]
        metrics = {
            "wall_s": summary(wall),
            "trials_per_s": summary([w.trials_per_rep / t for t in wall]),
            "setup_s": summary([r["setup_s"] * s for r, s in zip(good, scale)]),
            "peak_rss_mb": summary([r["peak_rss_mb"] for r in good]),
            "unscaled_wall_s": summary([r["wall_s"] for r in good]),
            "unscaled_setup_s": summary([r["setup_s"] for r in good]),
            "ref_s": summary([r["ref_s"] for r in good]),
        }
        # Quality averages the independent inputs, each counted once.
        first: dict[int, dict] = {}
        for r in good:
            first.setdefault(r["config_seed"], r)
        parts = [quality_parts(w, r["coverage"]) for r in first.values()]
        if parts:
            policy, reference, cmax = (statistics.fmean(p) for p in zip(*parts))
            for name, value in (("coverage_policy", policy),
                                ("policy_gain", policy / reference),
                                ("coverage_max", cmax)):
                metrics[name] = {"value": value, "parts": parts,
                                 "statistic": f"mean over {len(parts)} inputs"}
        return metrics

    def per_layer(self) -> tuple[dict[str, dict], list[str]]:
        traced = [r for r in self.reps if r["traced"] and r["ok"]]

        def at_ref_speed(r: dict, name: str) -> float:
            value = r["layers"][name]
            if PER_LAYER[name][0] in TIME_UNITS:
                return value * REF_S / r["ref_s"]
            return value

        metrics = {k: summary([at_ref_speed(r, k) for r in traced
                               if k in r["layers"]])
                   for k in PER_LAYER if any(k in r["layers"] for r in traced)}
        # Each traced run against the untraced run of the same input next to it.
        plain = {r["index"]: r["wall_s"] / r["ref_s"] for r in self.untraced()}
        overhead = [r["wall_s"] / r["ref_s"] / plain[r["index"]] - 1.0
                    for r in traced if r["index"] in plain]
        if overhead:
            metrics["trace.overhead_share"] = summary(overhead)
        measured = set(traced[0]["measured"]) if traced else set()
        return metrics, [layer for layer in HOOKS if layer not in measured]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "iabsim", "__init__.py")):
        print(f"error: no iabsim sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    run_dir = os.path.join(ROOT, ".perfbench_runs",
                           f"{workload.name}-seed{args.seed}-trace{args.trace}"
                           f"-{stamp}-{os.getpid()}")
    os.makedirs(run_dir)
    runner = Runner(workload, args.seed, run_dir)

    started = time.monotonic()
    deadline = started + args.seconds
    min_steps = 2 if args.trace else DISTINCT + 1
    durations: list[float] = []
    step = 0
    while time.monotonic() - started < HARD_LIMIT_S and (
            step < min_steps
            or time.monotonic() + statistics.median(durations) <= deadline):
        t0 = time.monotonic()
        if args.trace:
            # Pair each traced run with an untraced one of the same input,
            # alternating which goes first; both CSVs must match byte for byte.
            for traced in ((False, True) if step % 2 == 0 else (True, False)):
                runner.rep(step, traced)
        else:
            runner.rep(step, False)
        durations.append(time.monotonic() - t0)
        step += 1
    elapsed = time.monotonic() - started

    attempted = sum(r["rows_attempted"] for r in runner.reps)
    failed = sum(r["rows_failed"] for r in runner.reps)
    if args.trace:
        stats, missing = runner.per_layer()
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        stats, missing = runner.end_to_end(), []
        units = END_TO_END
    metrics = {k: {"value": stats[k]["value"], "unit": units[k]}
               for k in units if stats.get(k, {}).get("value") is not None}

    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "elapsed_s": elapsed, "machine": machine_record(),
              "config": {**workload.overrides, "trials": workload.trials,
                         "experiment": workload.experiment},
              "attempted": attempted, "failed": failed,
              "not_measured": missing, "metrics": stats, "reps": runner.reps}
    with open(os.path.join(run_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload.name}, seed {args.seed}, "
          f"{len(runner.reps)} runs in {elapsed:.1f} s, record {run_dir}")
    for name, m in metrics.items():
        s = stats[name]
        spread = (f" of {len(s['values'])}; median {s['median']:.6g}, "
                  f"q1 {s['q1']:.6g}, q3 {s['q3']:.6g}" if "values" in s else "")
        print(f"  {name:30s} {m['value']:.6g} {m['unit']} "
              f"({s['statistic']}{spread})")
    for name in ("unscaled_wall_s", "unscaled_setup_s", "ref_s"):
        if stats.get(name, {}).get("value") is not None:
            print(f"  ({name} median {stats[name]['value']:.6g} s, as measured)")
    for layer in missing:
        print(f"  {layer}: not measured (hook site missing)")
    if args.trace and "trace.wall_s" in metrics:
        wall = metrics["trace.wall_s"]["value"]
        shares = ", ".join(f"{k[:-7]} {metrics[k]['value'] / wall:.1%}"
                           for k in metrics if k.endswith(".self_s"))
        print(f"  self time share of traced wall: {shares}")
    print(f"  failed_share {failed / attempted if attempted else 1.0:.4g} "
          f"({failed} of {attempted} rows)")
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
