"""One repetition of a workload, in a fresh process.

    python3 perfbench/child.py --workload NAME --config-seed N --out DIR
                               --started T [--trace [--spans]]

``--started`` is the parent's ``time.monotonic()`` just before it spawned
this process; set-up time runs from there until iabsim is imported and the
workload's config is built and validated. A fixed reference kernel is
timed right before and after the experiment (``ref_s``, their mean), so
that ``run.py`` can scale out how fast the shared machine runs at that
moment. ``--trace`` wraps the hook sites of ``tracing.py`` and reports
per-layer metrics; ``--spans`` also writes the spans to ``DIR/spans.json``.
The last line of stdout is a JSON object with the repetition's numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def reference_s() -> float:
    """Seconds for a fixed kernel of small numpy calls and dict updates.

    It shares no code with iabsim but runs the same kind of interpreter-bound
    work, so contention from other tenants of the machine slows it about as
    much as it slows the experiment timed next to it.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    queen = rng.uniform(20.0, 40.0, 20)
    lower, upper = np.full(20, 20.0), np.full(20, 40.0)
    start = time.perf_counter()
    for _ in range(3000):
        mask = rng.random(20) < 0.15
        step = rng.uniform(-3.0, 3.0, 20)
        np.clip(queen + np.where(mask, step, 0.0), lower, upper).sum()
    counts: dict[int, int] = {}
    for i in range(20000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", action="store_true")
    args = parser.parse_args()

    # Measure the checkout's own sources, never an installed copy.
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import iabsim
    from iabsim.experiments import ExperimentSpec, run_experiment
    from workloads import RBS_VALUES, WORKLOADS
    if not os.path.abspath(iabsim.__file__).startswith(SRC + os.sep):
        raise ImportError(f"iabsim imported from {iabsim.__file__}, not {SRC}")
    workload = WORKLOADS[args.workload]
    config = workload.build_config(args.config_seed)
    spec = ExperimentSpec(name=workload.experiment,
                          out=os.path.join(args.out, "out.csv"),
                          rbs_values=RBS_VALUES)
    setup_s = time.monotonic() - args.started

    record = {"setup_s": setup_s}
    ref_before = reference_s()
    if args.trace:
        from tracing import ROOT_LAYER, Hooks, Tracer, ga_checks, layer_metrics
        tracer = Tracer()
        with Hooks(tracer) as hooks:
            files = tracer.wrap(ROOT_LAYER, run_experiment)(spec, config)
        if args.spans:
            tracer.dump(os.path.join(args.out, "spans.json"))
        csv_bytes = sum(os.path.getsize(f) for f in files)
        spans, measured = tracer.spans, hooks.measured
        record["layers"] = layer_metrics(spans, measured, csv_bytes)
        record["measured"] = measured
        record["ga_checked"], record["ga_failed"] = ga_checks(spans, measured)
        record["wall_s"] = record["layers"]["trace.wall_s"]
    else:
        start = time.perf_counter()
        files = run_experiment(spec, config)
        record["wall_s"] = time.perf_counter() - start
    record["ref_s"] = (ref_before + reference_s()) / 2
    record["files"] = files
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
