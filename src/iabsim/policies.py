"""Power-assignment policies fed to the Monte-Carlo evaluator.

"max" and "random" are the non-optimized baselines; "ga" runs the elitist
search against each trial's frozen realization, the trials of a group in
lockstep. A trial whose powers at ``lower`` already cover as many UEs as
any powers can (the floor reaches the ceiling of
`ScenarioInstance.coverage_bounds`) gets ``lower`` unsearched: it is the
search's exact optimum, the most coverage at the least total power. Only
the policy skips the search; ``ga-trace`` runs it in full. Each policy
takes a group of trials of one layout with a Generator per trial (a
`PowersPolicy`) and returns each trial's EIRPs in dBm, in its instance's
`gene_ids` order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import ScenarioConfig
from .coverage import PowersPolicy, ScenarioInstance
from .ga import GaParams, optimize, optimize_trials


def max_power_policy(instances: Sequence[ScenarioInstance],
                     rngs: Sequence[np.random.Generator]) -> list[np.ndarray]:
    return [instance.upper.copy() for instance in instances]


def random_power_policy(instances: Sequence[ScenarioInstance],
                        rngs: Sequence[np.random.Generator]
                        ) -> list[np.ndarray]:
    return [rng.uniform(instance.lower, instance.upper)
            for instance, rng in zip(instances, rngs)]


def ga_policy(params: GaParams) -> PowersPolicy:
    def policy(instances: Sequence[ScenarioInstance],
               rngs: Sequence[np.random.Generator]) -> list[np.ndarray]:
        powers = []
        for instance in instances:
            floor, ceiling = instance.coverage_bounds()
            powers.append(instance.lower.copy() if floor == ceiling else None)
        searched = [i for i, p in enumerate(powers) if p is None]
        # A group of one runs `optimize`, the one-trial search that
        # perfbench's tracer hooks by this module's name.
        if len(searched) == 1:
            [i] = searched
            powers[i] = optimize(instances[i], params, rngs[i]).queen
        elif searched:
            for i, result in zip(searched, optimize_trials(
                    [instances[i] for i in searched], params,
                    [rngs[i] for i in searched])):
                powers[i] = result.queen
        return powers
    return policy


def make_policy(name: str, config: ScenarioConfig) -> PowersPolicy:
    if name == "max":
        return max_power_policy
    if name == "random":
        return random_power_policy
    if name == "ga":
        return ga_policy(GaParams.from_config(config))
    raise ValueError(f"unknown power policy {name!r} (expected max|random|ga)")
