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

import pytest

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


@pytest.fixture(scope="module", params=sorted(TINY))
def traced_run(request, tmp_path_factory):
    w = TINY[request.param]
    out = tmp_path_factory.mktemp(w.name) / "out.csv"
    spec = ExperimentSpec(w.experiment, str(out),
                          rbs_values=workloads.RBS_VALUES)
    tracer = tracing.Tracer()
    with tracing.Hooks(tracer) as hooks:
        files = run_experiment(spec, w.build_config(7))
    csv_bytes = sum(Path(f).stat().st_size for f in files)
    return w, tracer.spans, hooks.measured, csv_bytes


def test_every_hook_site_resolves(traced_run):
    _, _, measured, _ = traced_run
    assert measured == list(tracing.HOOKS)


def test_ga_checks_pass(traced_run):
    _, spans, measured, _ = traced_run
    _, failed = tracing.ga_checks(spans, measured)
    assert failed == 0


def test_every_layer_metric_reported(traced_run):
    _, spans, measured, csv_bytes = traced_run
    metrics = tracing.layer_metrics(spans, measured, csv_bytes)
    # trace.overhead_share needs an untraced run beside the traced one.
    assert sorted(metrics) == sorted(set(tracing.PER_LAYER)
                                     - {"trace.overhead_share"})


def test_final_evaluation_once_per_trial(traced_run):
    w, spans, measured, csv_bytes = traced_run
    metrics = tracing.layer_metrics(spans, measured, csv_bytes)
    assert metrics["coverage.evaluate.calls"] == (
        w.trials * len(w.sweep) * w.runs_per_point)


# Distinct configs per sweep point: coverage-vs-ues scores its three power
# policies on one build of each trial; intercell builds each cell count.
CONFIGS_PER_POINT = {"coverage-vs-ues": 1, "intercell": 2}


def test_one_build_per_trial_and_config(traced_run):
    w, spans, measured, csv_bytes = traced_run
    metrics = tracing.layer_metrics(spans, measured, csv_bytes)
    builds = w.trials * len(w.sweep) * CONFIGS_PER_POINT[w.experiment]
    for layer in ("coverage.build", "topology", "channel"):
        assert metrics[f"{layer}.calls"] == builds, layer
