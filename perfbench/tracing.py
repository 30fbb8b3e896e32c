"""Spans around the calls into each iabsim layer, recorded from outside.

``Hooks`` replaces each hook site (a module function or a class method)
with a wrapper that records a span: layer name, parent span, start, end and
a few counts taken from the call's arguments or result. Spans stay in memory
until ``layer_metrics`` reduces them and ``Tracer.dump`` writes them out.
A hook site that no longer exists leaves its layer "not measured"; the run
goes on without it.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Any, Callable, Optional

import numpy as np

# layer -> hook sites as (module, attribute path)
HOOKS: dict[str, tuple[tuple[str, str], ...]] = {
    "topology": (("iabsim.coverage", "build_topology"),),
    "channel": (("iabsim.coverage", "sample_realization"),),
    "scheduler": (("iabsim.coverage", "associate"),
                  ("iabsim.coverage", "allocate_rbs"),
                  ("iabsim.coverage", "plan_slots")),
    "coverage.build": (("iabsim.coverage", "build_instance"),),
    "coverage.batch": (("iabsim.coverage", "ScenarioInstance.batch_coverage"),),
    "coverage.evaluate": (("iabsim.coverage", "ScenarioInstance.evaluate"),),
    "ga": (("iabsim.policies", "optimize"),),
    "ga.next_population": (("iabsim.ga", "next_population"),),
}
ROOT_LAYER = "experiments"

# Per-layer metrics: name -> (unit, better). Layers that made no call report 0.
PER_LAYER = {
    "topology.calls": ("count", "lower"),
    "topology.self_s": ("s", "lower"),
    "channel.calls": ("count", "lower"),
    "channel.links": ("count", "lower"),
    "channel.self_s": ("s", "lower"),
    "channel.us_per_link": ("us", "lower"),
    "scheduler.calls": ("count", "lower"),
    "scheduler.self_s": ("s", "lower"),
    "coverage.build.calls": ("count", "lower"),
    "coverage.build.self_s": ("s", "lower"),
    "coverage.build.victim_links": ("count", "lower"),
    "coverage.build.interf_density": ("ratio", "lower"),
    "coverage.batch.calls": ("count", "lower"),
    "coverage.batch.rows": ("count", "lower"),
    "coverage.batch.self_s": ("s", "lower"),
    "coverage.batch.ns_per_row": ("ns", "lower"),
    "coverage.batch.mflop_computed": ("Mflop", "lower"),
    "coverage.evaluate.calls": ("count", "lower"),
    "coverage.evaluate.self_s": ("s", "lower"),
    "ga.calls": ("count", "lower"),
    "ga.self_s": ("s", "lower"),
    "ga.generations": ("count", "lower"),
    "ga.evaluations": ("count", "lower"),
    "ga.improving_share": ("ratio", "higher"),
    "ga.converged_iter_p50": ("iteration", "lower"),
    "ga.genes_p50": ("count", "lower"),
    "ga.genes_max": ("count", "lower"),
    "ga.next_population.calls": ("count", "lower"),
    "ga.next_population.self_s": ("s", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.csv_bytes": ("bytes", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def _attrs_channel(args, kwargs, result) -> dict:
    return {"links": len(result.links)}


def _attrs_build(args, kwargs, result) -> dict:
    interf = result.interf_lin
    return {"victim_links": int(interf.shape[0]),
            "interf_nonzero": int(np.count_nonzero(interf)),
            "interf_cells": int(interf.size)}


def _attrs_batch(args, kwargs, result) -> dict:
    instance = args[0]
    k = int(np.shape(result)[0])
    v, j = instance.interf_lin.shape
    # Computed from shapes: the (K,J)x(J,V) interference product, the dB to
    # linear conversion of the batch and a few elementwise passes per link.
    return {"rows": k, "flop": k * (2 * v * j + j + 4 * v),
            "best": float(np.max(result)) if k else 0.0}


def _attrs_optimize(args, kwargs, result) -> dict:
    instance, params = args[0], args[1]
    return {"genes": len(instance.gene_ids),
            "population": params.population,
            "iterations": params.n_iterations,
            "n_evaluations": int(result.n_evaluations),
            "trace": [float(x) for x in result.trace]}


ATTRS: dict[str, Callable[..., dict]] = {
    "channel": _attrs_channel,
    "coverage.build": _attrs_build,
    "coverage.batch": _attrs_batch,
    "ga": _attrs_optimize,
}


class Tracer:
    """In-memory span recorder. A span is [layer, parent, start, end, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        attrs_of = ATTRS.get(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = [layer, parent, time.perf_counter(), None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if attrs_of is not None:
                span[4] = attrs_of(args, kwargs, result)
            return result
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "parent", "start", "end", "attrs"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _resolve(module_name: str, path: str) -> tuple[Any, str, Callable]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Hooks:
    """Context manager: wrap every hook site that exists, restore on exit.

    ``measured`` lists the layers whose every hook site was found.
    """

    def __init__(self, tracer: Tracer,
                 hooks: Optional[dict[str, tuple[tuple[str, str], ...]]] = None):
        self.tracer = tracer
        self.hooks = HOOKS if hooks is None else hooks
        self.measured: list[str] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Hooks":
        for layer, sites in self.hooks.items():
            try:
                resolved = [_resolve(m, p) for m, p in sites]
            except (ImportError, AttributeError):
                continue
            for owner, attr, fn in resolved:
                self._undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self.tracer.wrap(layer, fn))
            self.measured.append(layer)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its child spans."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] is not None:
            own[s[1]] -= s[3] - s[2]
    return own


def ga_checks(spans: list[list], measured: list[str]) -> tuple[int, int]:
    """(optimize calls checked, calls failing a count or monotonicity check).

    Each call must evaluate exactly K*(N+1) candidates, as it reports and,
    when the batched fitness is traced, as counted from its child spans; and
    its best-fitness trace must never fall.
    """
    count_rows = "coverage.batch" in measured
    rows: dict[int, int] = {}
    for s in spans:
        if s[0] == "coverage.batch" and s[1] is not None:
            rows[s[1]] = rows.get(s[1], 0) + s[4]["rows"]
    checked = failed = 0
    for i, s in enumerate(spans):
        if s[0] != "ga":
            continue
        a = s[4]
        expected = a["population"] * (a["iterations"] + 1)
        trace = np.asarray(a["trace"])
        ok = (a["n_evaluations"] == expected
              and (not count_rows or rows.get(i, 0) == expected)
              and bool(np.all(np.diff(trace) >= 0)))
        checked += 1
        failed += not ok
    return checked, failed


def layer_metrics(spans: list[list], measured: list[str],
                  csv_bytes: int) -> dict[str, float]:
    """Reduce one traced run's spans to the PER_LAYER metrics it measured.

    ``trace.overhead_share`` needs an untraced run and is added by the caller.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for s, t in zip(spans, own):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + t

    def total(layer: str, key: str) -> float:
        return sum(s[4][key] for s in spans if s[0] == layer)

    out: dict[str, float] = {}
    for layer in measured:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    if "channel" in measured:
        links = total("channel", "links")
        out["channel.links"] = links
        out["channel.us_per_link"] = (1e6 * self_s.get("channel", 0.0) / links
                                      if links else 0.0)
    if "coverage.build" in measured:
        cells = total("coverage.build", "interf_cells")
        out["coverage.build.victim_links"] = total("coverage.build", "victim_links")
        out["coverage.build.interf_density"] = (
            total("coverage.build", "interf_nonzero") / cells if cells else 0.0)
    if "coverage.batch" in measured:
        rows = total("coverage.batch", "rows")
        out["coverage.batch.rows"] = rows
        out["coverage.batch.ns_per_row"] = (
            1e9 * self_s.get("coverage.batch", 0.0) / rows if rows else 0.0)
        out["coverage.batch.mflop_computed"] = total("coverage.batch", "flop") / 1e6
    if "ga" in measured:
        out.update(_ga_metrics(spans, "coverage.batch" in measured))
    root = [(s, t) for s, t in zip(spans, own) if s[0] == ROOT_LAYER]
    out["experiments.self_s"] = sum(t for _, t in root)
    out["experiments.csv_bytes"] = csv_bytes
    out["trace.wall_s"] = sum(s[3] - s[2] for s, _ in root)
    return {k: v for k, v in out.items() if k in PER_LAYER}


def _ga_metrics(spans: list[list], count_rows: bool) -> dict[str, float]:
    """GA metrics; evaluations are counted from batched-fitness child spans
    when those are traced, else taken from each call's own report."""
    first_best: dict[int, float] = {}
    evaluations = 0
    for s in spans:
        if s[0] == "coverage.batch" and s[1] is not None \
                and spans[s[1]][0] == "ga":
            evaluations += s[4]["rows"]
            first_best.setdefault(s[1], s[4]["best"])
    generations = improving = 0
    converged, genes = [], []
    for i, s in enumerate(spans):
        if s[0] != "ga":
            continue
        trace = np.asarray(s[4]["trace"])
        previous = np.concatenate(([first_best.get(i, trace[0])], trace[:-1]))
        if not count_rows:
            evaluations += s[4]["n_evaluations"]
        generations += trace.size
        improving += int(np.count_nonzero(trace > previous))
        converged.append(int(np.argmax(trace >= trace[-1])) + 1)
        genes.append(s[4]["genes"])
    return {
        "ga.generations": generations,
        "ga.evaluations": evaluations,
        "ga.improving_share": improving / generations if generations else 0.0,
        "ga.converged_iter_p50": float(np.median(converged)) if converged else 0.0,
        "ga.genes_p50": float(np.median(genes)) if genes else 0.0,
        "ga.genes_max": max(genes, default=0),
    }
