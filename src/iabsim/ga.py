"""Elitist genetic algorithm over per-node transmit powers.

Each generation keeps the best vector found so far (the queen), surrounds
it with a small neighborhood of mutants, and refills the rest of the
population with fresh random immigrants. There is no crossover. Fitness is
service coverage on a frozen scenario instance, so candidates are always
compared under identical randomness; ties break toward lower total transmit
power (linear sum), then toward the lowest candidate index.

One generation is a fixed set of array operations, whatever the
neighborhood size S, the gene count J or the number of relays. The search
first draws its initial population as one (K, J) block; each generation
then draws in this order, which pins every GA output for a given seed:

1. the mutation mask of all S mutants, one (S, J) block of uniforms;
2. their mutation steps, one (S, J) block of uniforms;
3. one forced gene index for each mutant whose mask came out empty, one
   vector draw (skipped when no mask is empty or J = 0);
4. the V = K - S - 1 immigrants, one (V, J) block of uniforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

import numpy as np

from .config import ScenarioConfig
from .coverage import PowerVector, ScenarioInstance


@dataclass(frozen=True)
class GaParams:
    n_iterations: int = 200
    population: int = 20
    neighborhood: int = 10
    mutation_step_db: float = 3.0
    mutation_prob: float = 0.15

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError(f"population must be >= 2, got {self.population}")
        if not 0 <= self.neighborhood < self.population:
            raise ValueError(
                f"neighborhood must satisfy 0 <= S < K, got S={self.neighborhood} "
                f"K={self.population}")
        if self.n_iterations < 1:
            raise ValueError(f"n_iterations must be >= 1, got {self.n_iterations}")
        if self.mutation_step_db <= 0:
            raise ValueError(
                f"mutation_step_db must be > 0, got {self.mutation_step_db}")
        if not 0 < self.mutation_prob <= 1:
            raise ValueError(
                f"mutation_prob must be in (0, 1], got {self.mutation_prob}")

    @property
    def immigrants(self) -> int:
        return self.population - self.neighborhood - 1

    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "GaParams":
        return cls(n_iterations=config.ga_iterations,
                   population=config.ga_population,
                   neighborhood=config.ga_neighborhood,
                   mutation_step_db=config.ga_mutation_step_db,
                   mutation_prob=config.ga_mutation_prob)

    @classmethod
    def compact(cls) -> "GaParams":
        """Smaller preset (K=10, S=5) for quick runs."""
        return cls(population=10, neighborhood=5)


@dataclass(frozen=True)
class GaResult:
    queen: PowerVector
    queen_fitness: float
    trace: np.ndarray  # best fitness after each iteration, length n_iterations
    n_evaluations: int


Ranges = Mapping[int, tuple[float, float]]


def _bounds(ranges: Ranges) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    ids = tuple(sorted(ranges))
    lower = np.array([ranges[i][0] for i in ids], dtype=float)
    upper = np.array([ranges[i][1] for i in ids], dtype=float)
    if np.any(lower > upper):
        raise ValueError("inverted power range")
    return ids, lower, upper


def _uniform_rows(lower: np.ndarray, upper: np.ndarray, rows: int,
                  rng: np.random.Generator) -> np.ndarray:
    """A (rows, J) block, each gene uniform within its bounds.

    Bit-identical to ``rng.uniform(lower, upper, (rows, J))`` without its
    array-bound broadcast.
    """
    return lower + (upper - lower) * rng.random((rows, lower.size))


def init_population(params: GaParams, ranges: Ranges,
                    rng: np.random.Generator) -> list[PowerVector]:
    """K random vectors, each gene uniform within its node's power range."""
    ids, lower, upper = _bounds(ranges)
    mat = _uniform_rows(lower, upper, params.population, rng)
    return [PowerVector.from_array(ids, row) for row in mat]


def _mutants(queen: np.ndarray, lower: np.ndarray, upper: np.ndarray,
             params: GaParams, rng: np.random.Generator,
             count: int) -> np.ndarray:
    """``count`` mutants of the queen as a (count, J) matrix; draws 1-3 of
    a generation (see the module docstring).

    Each gene moves with probability mutation_prob by a uniform step in
    [-mutation_step_db, mutation_step_db], clamped to its range; a mutant
    whose mask came out empty has one uniformly chosen gene forced to move.
    """
    n = queen.size
    mask = rng.random((count, n)) < params.mutation_prob
    step = params.mutation_step_db
    steps = rng.uniform(-step, step, (count, n))
    empty = np.flatnonzero(~mask.any(axis=1))
    if empty.size and n:
        mask[empty, rng.integers(n, size=empty.size)] = True
    return np.clip(queen + np.where(mask, steps, 0.0), lower, upper)


def mutate_around_queen(queen: PowerVector, ranges: Ranges, params: GaParams,
                        rng: np.random.Generator) -> PowerVector:
    """One mutant of the queen: the S = 1 case of the generation kernel."""
    ids, lower, upper = _bounds(ranges)
    row = _mutants(queen.as_array(ids), lower, upper, params, rng, 1)[0]
    return PowerVector.from_array(ids, row)


def next_population(queen: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                    params: GaParams, rng: np.random.Generator) -> np.ndarray:
    """Queen + S mutants + V random immigrants, as a (K, J) matrix.

    Draws, in order: the (S, J) mask block, the (S, J) step block, the
    forced genes of empty masks, then the (V, J) immigrant block.
    """
    s = params.neighborhood
    pop = np.empty((params.population, queen.size))
    pop[0] = queen
    pop[1:1 + s] = _mutants(queen, lower, upper, params, rng, s)
    pop[1 + s:] = _uniform_rows(lower, upper, params.immigrants, rng)
    return pop


def _select(pop: np.ndarray, fitness: np.ndarray) -> int:
    """Best index: max fitness, then min total linear power, then min index."""
    total_mw = (10.0 ** (pop / 10.0)).sum(axis=1)
    order = np.lexsort((np.arange(pop.shape[0]), total_mw, -fitness))
    return int(order[0])


def optimize(instance: ScenarioInstance, params: GaParams,
             rng: np.random.Generator,
             fitness: Optional[Callable[[PowerVector], float]] = None) -> GaResult:
    """Run the elitist search and return the final queen with its trace.

    The initial population is evaluated once to seed the queen, then each of
    the n_iterations generations evaluates its full population of K
    candidates: exactly K + N*K fitness evaluations. With ``fitness=None``
    the instance's batched coverage evaluator is used.
    """
    ids = instance.gene_ids
    lower, upper = instance.lower, instance.upper
    if fitness is None:
        evaluate = instance.batch_coverage
    else:
        def evaluate(mat: np.ndarray) -> np.ndarray:
            return np.array([fitness(PowerVector.from_array(ids, row))
                             for row in mat])

    pop = _uniform_rows(lower, upper, params.population, rng)
    fit = evaluate(pop)
    n_evaluations = params.population
    best = _select(pop, fit)
    queen, queen_fitness = pop[best].copy(), float(fit[best])

    trace = np.empty(params.n_iterations)
    for it in range(params.n_iterations):
        pop = next_population(queen, lower, upper, params, rng)
        fit = evaluate(pop)
        n_evaluations += params.population
        best = _select(pop, fit)
        queen, queen_fitness = pop[best].copy(), float(fit[best])
        trace[it] = queen_fitness

    return GaResult(queen=PowerVector.from_array(ids, queen),
                    queen_fitness=queen_fitness, trace=trace,
                    n_evaluations=n_evaluations)
