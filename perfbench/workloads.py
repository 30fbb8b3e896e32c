"""The benchmark's workloads and the configs they generate from a seed.

Each workload is one experiment run through the public API
(``ScenarioConfig`` -> ``ExperimentSpec`` -> ``run_experiment``) at a size
that takes a few seconds. A benchmark run repeats it in fresh processes;
repetition ``rep`` uses config seed ``seed * SEED_STRIDE + rep % DISTINCT``,
so the first ``DISTINCT`` repetitions draw independent Monte-Carlo inputs
and every later one re-runs an earlier seed, whose CSV must come out
byte-identical. Why each workload exists is recorded in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

SEED_STRIDE = 1000
# Independent inputs per benchmark run; the quality metrics average over them.
DISTINCT = 20
# coverage-vs-ues runs one RBs-per-UE value, so it writes one CSV.
RBS_VALUES = (2,)


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    overrides: dict[str, Any]
    # Monte-Carlo trials per sweep point and policy (or cell count).
    trials: int
    # Trial runs per sweep point: 3 power policies for coverage-vs-ues,
    # 2 cell counts for intercell.
    runs_per_point: int
    # Columns whose row mean gives each quality metric.
    policy_column: str = "coverage_optimized"
    reference_columns: tuple[str, ...] = ("coverage_max_power",
                                          "coverage_random_power")
    max_columns: tuple[str, ...] = ("coverage_max_power",)

    @property
    def sweep(self) -> tuple[int, ...]:
        return tuple(self.overrides["sweep_ues"])

    @property
    def fixed_ue_count(self) -> bool:
        return not self.overrides.get("ue_count_poisson", False)

    @property
    def trials_per_rep(self) -> int:
        """Monte-Carlo trials one repetition completes, all policies and points."""
        return self.trials * self.runs_per_point * len(self.sweep)

    def config_seed(self, seed: int, rep: int) -> int:
        return seed * SEED_STRIDE + rep % DISTINCT

    def build_config(self, config_seed: int):
        """The validated ScenarioConfig of one repetition."""
        from iabsim.config import ScenarioConfig
        return ScenarioConfig().replace(trials=self.trials, seed=config_seed,
                                        **self.overrides)


WORKLOADS = {w.name: w for w in (
    # GA-bound with a fixed gene count; interference binds at rb_max=16 so
    # the GA beats both baselines by a visible margin.
    Workload(
        name="ga_reuse", experiment="coverage-vs-ues",
        overrides=dict(num_cells=1, rb_max=16, min_rate_bps=20e6,
                       sweep_ues=(10, 15)),
        trials=10, runs_per_point=3),
    # No GA call: all time is per-link Python (channel sampling, instance
    # build, the readable evaluator and the scheduler).
    Workload(
        name="baseline_2cell", experiment="intercell",
        overrides=dict(power_policy="max", rb_max=64, min_rate_bps=20e6,
                       sweep_ues=(10, 20, 30, 40)),
        trials=16, runs_per_point=2,
        policy_column="coverage_2cell", reference_columns=("coverage_1cell",),
        max_columns=("coverage_1cell", "coverage_2cell")),
    # Same GA and fitness layers on wide, ragged gene vectors: two cells,
    # Poisson UE counts, one shared slot.
    Workload(
        name="ga_ragged_2cell", experiment="coverage-vs-ues",
        overrides=dict(num_cells=2, slot_mode="simultaneous",
                       ue_count_poisson=True, rb_max=64, min_rate_bps=5e6,
                       sweep_ues=(15, 30)),
        trials=4, runs_per_point=3),
)}
