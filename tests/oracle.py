"""Readable references for the tests to hold the fast paths against."""

import math

import numpy as np

from iabsim.coverage import PowerVector, ScenarioInstance
from iabsim.ga import GaParams, GaResult


def _select_full(pop: np.ndarray, fitness: np.ndarray) -> int:
    """Best index over a whole population: max fitness, then min total
    linear power, then min index."""
    total_mw = (10.0 ** (pop / 10.0)).sum(axis=1)
    return int(np.lexsort((np.arange(pop.shape[0]), total_mw, -fitness))[0])


def reference_optimize(instance: ScenarioInstance, params: GaParams,
                       rng: np.random.Generator) -> GaResult:
    """`iabsim.ga.optimize`, one generation at a time.

    Takes its draws in the order of the contract in the `iabsim.ga`
    docstring, builds each mutant in its own loop step, scores the whole
    K-row population in one call and selects over all of it.
    """
    lower, upper = instance.lower, instance.upper
    k, s, v = params.population, params.neighborhood, params.immigrants
    j = lower.size
    step = params.mutation_step_db

    pop = lower + (upper - lower) * rng.random((k, j))
    fitness = instance.batch_coverage(pop)
    n_evaluations = k
    best = _select_full(pop, fitness)
    queen, queen_fitness = pop[best].copy(), float(fitness[best])

    trace = []
    for _ in range(params.n_iterations):
        u = rng.random(2 * s * j + s + v * j)
        mask_u, step_u = u[:s * j], u[s * j:2 * s * j]
        forced_u, immigrant_u = u[2 * s * j:2 * s * j + s], u[2 * s * j + s:]
        pop = np.empty((k, j))
        pop[0] = queen
        for i in range(s):
            moves = mask_u[i * j:(i + 1) * j] < params.mutation_prob
            if j and not moves.any():
                moves[math.floor(forced_u[i] * j)] = True
            steps = -step + 2.0 * step * step_u[i * j:(i + 1) * j]
            pop[1 + i] = np.clip(queen + np.where(moves, steps, 0.0),
                                 lower, upper)
        for i in range(v):
            pop[1 + s + i] = lower + (upper - lower) * immigrant_u[i * j:(i + 1) * j]
        fitness = instance.batch_coverage(pop)
        n_evaluations += k
        best = _select_full(pop, fitness)
        queen, queen_fitness = pop[best].copy(), float(fitness[best])
        trace.append(queen_fitness)

    return GaResult(queen=PowerVector.from_array(instance.gene_ids, queen),
                    queen_fitness=queen_fitness, trace=np.array(trace),
                    n_evaluations=n_evaluations)
