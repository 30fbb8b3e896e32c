"""The benchmark's hook contract, checked at tiny sizes.

`perfbench/tracing.py` wraps named functions of the package ("hook
sites") and reads counts off their arguments and results. A rename or a
changed call shape leaves a layer unmeasured or makes every traced run
fail, so each workload is run here under the tracer, as
`perfbench/selftest.py` does, and the per-layer report is checked whole.
The benchmark modules are loaded from their files and not edited.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import iabsim.coverage as coverage
from iabsim.experiments import ExperimentSpec, run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")

TINY = {
    name: dataclasses.replace(
        w, trials=2,
        overrides={**w.overrides, "sweep_ues": (3, w.sweep[0]),
                   "ga_iterations": 3})
    for name, w in workloads.WORKLOADS.items()}


def _counting(build_trials, built):
    """`build_trials`, appending to ``built`` each call's config and the
    index and layout of each trial of each block it yields."""
    def counted(config, *args, **kwargs):
        yielded = []
        built.append((config, yielded))
        for block in build_trials(config, *args, **kwargs):
            yielded += [(t, instance.topology.layout) for t, instance in block]
            yield block
    return counted


def _blocks(built):
    """How many stacked blocks `build_trials` builds for the trials it
    yielded: per call, per layout, its trials over the trials a block of
    that layout holds."""
    blocks = 0
    for config, yielded in built:
        counts: dict = {}
        for _, layout in yielded:
            per_trial = len(layout.tx) * max(len(layout.rx), config.rb_max)
            size = max(1, coverage._BLOCK_DOUBLES // max(per_trial, 1))
            counts[layout.key] = (counts.get(layout.key, (0, size))[0] + 1,
                                  size)
        blocks += sum(-(-n // size) for n, size in counts.values())
    return blocks


@pytest.fixture(scope="module", params=sorted(TINY))
def traced_run(request, tmp_path_factory):
    w = TINY[request.param]
    out = tmp_path_factory.mktemp(w.name) / "out.csv"
    spec = ExperimentSpec(w.experiment, str(out),
                          rbs_values=workloads.RBS_VALUES)
    tracer = tracing.Tracer()
    built: list = []
    with mock.patch.object(coverage, "build_trials",
                           _counting(coverage.build_trials, built)), \
            tracing.Hooks(tracer) as hooks:
        files = run_experiment(spec, w.build_config(7))
    csv_bytes = sum(Path(f).stat().st_size for f in files)
    return w, tracer.spans, hooks.measured, csv_bytes, built


def test_every_hook_site_resolves(traced_run):
    _, _, measured, _, _ = traced_run
    assert measured == list(tracing.HOOKS)


def test_ga_checks_pass(traced_run):
    _, spans, measured, _, _ = traced_run
    _, failed = tracing.ga_checks(spans, measured)
    assert failed == 0


def test_every_layer_metric_reported(traced_run):
    _, spans, measured, csv_bytes, _ = traced_run
    metrics = tracing.layer_metrics(spans, measured, csv_bytes)
    # trace.overhead_share needs an untraced run beside the traced one.
    assert sorted(metrics) == sorted(set(tracing.PER_LAYER)
                                     - {"trace.overhead_share"})


def test_final_evaluation_once_per_trial(traced_run):
    w, spans, measured, csv_bytes, _ = traced_run
    metrics = tracing.layer_metrics(spans, measured, csv_bytes)
    assert metrics["coverage.evaluate.calls"] == (
        w.trials * len(w.sweep) * w.runs_per_point)


# Distinct configs per sweep point: coverage-vs-ues scores its three power
# policies on one build of each trial; intercell builds each cell count.
CONFIGS_PER_POINT = {"coverage-vs-ues": 1, "intercell": 2}


def test_one_build_per_trial_and_config(traced_run):
    # The experiments build their trials stacked, through `build_trials`:
    # each trial is built once; the UE placement, the channel and the
    # scheduler run once per block of trials that share a layout
    # (`build_topology`; `associate`, `allocate_rbs` and `plan_slots`: three
    # calls).
    w, spans, measured, csv_bytes, built = traced_run
    metrics = tracing.layer_metrics(spans, measured, csv_bytes)
    assert sorted(t for _, yielded in built for t, _ in yielded) == sorted(
        t for _ in range(len(w.sweep) * CONFIGS_PER_POINT[w.experiment])
        for t in range(w.trials))
    blocks = _blocks(built)
    assert metrics["topology.calls"] == blocks
    assert metrics["channel.calls"] == blocks
    assert metrics["scheduler.calls"] == 3 * blocks


def _recording_groups(group_coverage, rows):
    """`group_coverage`, appending to ``rows`` one counter per group: the
    rows its fitness scores per trial, summed over its calls."""
    def recorded(instances):
        fitness = group_coverage(instances)
        counter = [0]
        rows.append(counter)

        def scored(mw):
            result = fitness(mw)
            counter[0] += result.shape[-1]
            return result
        return scored
    return recorded


def _recording_searches(optimize_trials, searches):
    """`optimize_trials`, appending to ``searches`` each group's size and
    results."""
    def recorded(instances, params, rngs):
        results = optimize_trials(instances, params, rngs)
        searches.append((len(instances), params, results))
        return results
    return recorded


@pytest.mark.parametrize("name", ["ga_ragged_2cell", "ga_reuse"])
def test_lockstep_searches_pass_the_ga_checks(name, tmp_path):
    # `tracing.ga_checks` sees only searches run through the hooked
    # one-trial entry; a block's lockstep group runs `optimize_trials`.
    # Here every search of a GA workload, one-trial groups included, must
    # pass the same checks: K*(N+1) rows scored per trial, as reported and
    # as counted from its group's fitness calls, and a trace that never
    # falls; and each trial is searched once.
    import iabsim.ga as ga
    import iabsim.policies as policies
    w = TINY[name]
    spec = ExperimentSpec(w.experiment, str(tmp_path / "out.csv"),
                          rbs_values=workloads.RBS_VALUES)
    rows: list = []
    searches: list = []
    optimize_trials = _recording_searches(ga.optimize_trials, searches)
    with mock.patch.object(ga, "group_coverage",
                           _recording_groups(ga.group_coverage, rows)), \
            mock.patch.object(policies, "optimize_trials", optimize_trials), \
            mock.patch.object(ga, "optimize_trials", optimize_trials):
        run_experiment(spec, w.build_config(7))
    assert len(rows) == len(searches)
    assert sum(size for size, _, _ in searches) == w.trials * len(w.sweep)
    if name == "ga_reuse":  # one layout: its trials form one group
        assert any(size > 1 for size, _, _ in searches)
    for (size, params, results), (scored,) in zip(searches, rows):
        expected = params.population * (params.n_iterations + 1)
        assert scored == expected
        assert len(results) == size
        for r in results:
            assert r.n_evaluations == expected
            assert np.all(np.diff(r.trace) >= 0)
