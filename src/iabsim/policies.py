"""Power-assignment policies fed to the Monte-Carlo evaluator.

"max" and "random" are the non-optimized baselines; "ga" runs the elitist
search against the trial's frozen realization. Each returns EIRPs in dBm
in the instance's `gene_ids` order.
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig
from .coverage import PowersPolicy, ScenarioInstance
from .ga import GaParams, optimize


def max_power_policy(instance: ScenarioInstance,
                     rng: np.random.Generator) -> np.ndarray:
    return instance.upper.copy()


def random_power_policy(instance: ScenarioInstance,
                        rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(instance.lower, instance.upper)


def ga_policy(params: GaParams) -> PowersPolicy:
    def policy(instance: ScenarioInstance,
               rng: np.random.Generator) -> np.ndarray:
        return optimize(instance, params, rng).queen
    return policy


def make_policy(name: str, config: ScenarioConfig) -> PowersPolicy:
    if name == "max":
        return max_power_policy
    if name == "random":
        return random_power_policy
    if name == "ga":
        return ga_policy(GaParams.from_config(config))
    raise ValueError(f"unknown power policy {name!r} (expected max|random|ga)")
