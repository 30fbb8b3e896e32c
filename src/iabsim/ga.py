"""Elitist genetic algorithm over per-node transmit powers.

Each generation keeps the best vector found so far (the queen), surrounds
it with a small neighborhood of mutants, and refills the rest of the
population with fresh random immigrants. There is no crossover. Fitness is
service coverage on a frozen scenario instance, so candidates are always
compared under identical randomness; ties break toward lower total transmit
power (linear sum), then toward the lowest candidate index (the queen, then
its mutants, then the immigrants).

The draw contract, which pins every GA output for a given seed: the search
first draws its initial population as one (K, J) block of uniforms. Then
each generation owns one row of R = 2*S*J + S + V*J uniforms, with
V = K - S - 1 immigrants, read in this order:

1. the mutation mask of the S mutants, (S, J): a gene moves when
   u < mutation_prob;
2. their mutation steps, (S, J): -step + 2*step*u, bit-identical to
   ``rng.uniform(-step, step)``;
3. one forced-gene uniform per mutant, (S,): gene floor(u*J) moves, used
   only when that mutant's mask came out empty;
4. the immigrants, (V, J): lower + (upper - lower)*u.

The rows are drawn generation-major, in blocks of whole generations, so the
block size does not change the stream. Only the queen depends on earlier
generations: each block's mutation deltas are built and its immigrants are
scored in one batched call and ranked once, and each generation then scores
just the queen and its S mutants.

Genes are EIRPs in dBm. Each batch (the initial population, a block's
immigrants, a generation's head) is converted to mW once, by `to_mw`, and
that array feeds both the fitness kernel and the power tie-break (its row
sums).

Lockstep groups. `optimize_trials` runs the searches of a group of T
trials of one layout (the trials of a build block) side by side: each
batch above gains a leading trial axis, (T, K, J), and each step runs once
for the group, the fitness as one (T, K, J) @ (T, J, J) product
(`iabsim.coverage.group_coverage`). Each trial keeps its own Generator and
the draw order above, its own K + N*K scored rows and its own tie-break,
and every operation on the stacked arrays is elementwise, a per-trial
product or a per-row reduction, so a trial's result is bit for bit that of
its search alone; `optimize` is the group of one. A block of generations
holds ``_BLOCK_DOUBLES // (T*R)`` of them (at least one), so a group's
draws for a block, and each array made of them (the mutation deltas, the
immigrants in dBm and in mW, and the kernel's operands at the immigrants'
batch height), hold at most `_BLOCK_DOUBLES` doubles each, whatever T.

The floor. The GA policy (`iabsim.policies.ga_policy`) searches only the
trials whose powers at ``lower`` cover fewer UEs than the ceiling that no
powers can beat (`iabsim.coverage.ScenarioInstance.coverage_bounds`); for
the others ``lower`` is the exact optimum of this search's objective, the
most coverage at the least total power, and the policy returns it
unsearched. The ``ga-trace`` experiment calls `optimize` itself and runs
the full search on every trial: its trace is the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ScenarioConfig
from .coverage import ScenarioInstance, group_coverage, to_mw

# Uniforms drawn per block of generations, in doubles, for a whole group.
# It bounds a block's memory (256 KiB of draws), and sets how many
# generations share a block's fixed costs: T draw calls, the mutation
# deltas, the immigrants' conversion, one fitness call and one rank. A
# group of 10 trials at J = 14 to 19 gets 5 to 7 generations a block; at
# 1 << 14 it got 2 or 3 and ran slower, at 1 << 17 no faster. The stream
# is the same whatever its value.
_BLOCK_DOUBLES = 1 << 15


@dataclass(frozen=True)
class GaParams:
    """The GA's hyperparameters: a view of the ``ga_*`` keys of a
    ScenarioConfig, with the same defaults. ``ScenarioConfig.validate``
    holds their domains."""
    n_iterations: int = ScenarioConfig.ga_iterations
    population: int = ScenarioConfig.ga_population
    neighborhood: int = ScenarioConfig.ga_neighborhood
    mutation_step_db: float = ScenarioConfig.ga_mutation_step_db
    mutation_prob: float = ScenarioConfig.ga_mutation_prob

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


@dataclass(frozen=True)
class GaResult:
    queen: np.ndarray  # EIRP in dBm per gene, in the instance's gene_ids order
    queen_fitness: float
    trace: np.ndarray  # best fitness after each iteration, length n_iterations
    n_evaluations: int


def _mutation_deltas(u: np.ndarray, params: GaParams,
                     n_genes: int) -> np.ndarray:
    """The (G, S, J) mutation steps of G generations, zero where a gene
    stays; ``u`` holds draws 1-3 of each generation (module docstring)."""
    g, s, j = u.shape[0], params.neighborhood, n_genes
    mask = u[:, :s * j].reshape(g, s, j) < params.mutation_prob
    step = params.mutation_step_db
    steps = -step + 2.0 * step * u[:, s * j:2 * s * j].reshape(g, s, j)
    if j:
        gen, mutant = np.nonzero(~mask.any(axis=2))
        forced = np.floor(u[gen, 2 * s * j + mutant] * j).astype(int)
        mask[gen, mutant, forced] = True
    return np.where(mask, steps, 0.0)


def next_population(queen: np.ndarray, deltas: np.ndarray, lower: np.ndarray,
                    upper: np.ndarray) -> np.ndarray:
    """The queens and their S mutants as a (T, 1 + S, J) array, for the
    (T, 1, J) queens of a group and their (T, S, J) mutation deltas.

    Row 0 of trial t is its queen; row 1 + i is ``queen + deltas[t, i]``
    clamped to the gene bounds, which broadcast against the mutants (as
    (T, S, J) arrays, the clamps run as one contiguous loop).
    """
    mutants = np.add(queen, deltas)
    np.maximum(mutants, lower, out=mutants)
    np.minimum(mutants, upper, out=mutants)
    return np.concatenate((queen, mutants), axis=1)


def _rank(mw: np.ndarray, fitness: np.ndarray
          ) -> tuple[list[int], list[float], list[float]]:
    """The best of each of a (G, V, J) stack of populations, given as
    linear powers in mW, with their (G, V) fitness: max fitness, then min
    total linear power, then min index. Returns each population's best
    index, its fitness and its total linear power.
    """
    totals = np.add.reduce(mw, axis=2)
    if fitness.shape[0] == 1:  # in Python, the faster for one population
        values, totals = fitness[0].tolist(), totals[0].tolist()
        top = max(values)
        best = min((i for i, f in enumerate(values) if f == top),
                   key=totals.__getitem__)
        return [best], [top], [totals[best]]
    top = fitness.max(axis=1)
    totals = np.where(fitness == top[:, None], totals, np.inf)
    best = totals.argmin(axis=1)
    return (best.tolist(), top.tolist(),
            totals[np.arange(best.size), best].tolist())


def optimize(instance: ScenarioInstance, params: GaParams,
             rng: np.random.Generator) -> GaResult:
    """Run the elitist search on one trial and return the final queen with
    its trace: `optimize_trials` of that trial alone."""
    [result] = optimize_trials((instance,), params, (rng,))
    return result


def optimize_trials(instances: Sequence[ScenarioInstance], params: GaParams,
                    rngs: Sequence[np.random.Generator]) -> list[GaResult]:
    """Run the elitist search on a group of T trials of one layout in
    lockstep, trial t drawing from ``rngs[t]``, and return each trial's
    result, the same as its search alone gives (module docstring).

    The initial populations are scored in one call to the group's batched
    coverage (`iabsim.coverage.group_coverage`); then each block of
    generations scores the group's immigrants in one call, and each
    generation the group's queens and mutants in one call: exactly K +
    N*K fitness evaluations per trial, counted from the rows scored. Each
    batch is converted to mW once, for its fitness call and its tie-break
    alike.
    """
    group_fitness = group_coverage(instances)
    scored = 0  # rows scored per trial: each call scores as many per trial

    def evaluate(mw: np.ndarray) -> np.ndarray:
        nonlocal scored
        fitness = group_fitness(mw)
        scored += fitness.shape[-1]
        return fitness

    lower = np.stack([instance.lower for instance in instances])
    upper = np.stack([instance.upper for instance in instances])
    span = upper - lower
    n_trials, n_genes = lower.shape
    s, v = params.neighborhood, params.immigrants
    # The bounds of each mutant, (T, S, J), for `next_population`.
    mutant_lower, mutant_upper = (np.repeat(bound[:, None], s, axis=1)
                                  for bound in (lower, upper))
    trials = np.arange(n_trials)

    def draws(shape: tuple[int, ...]) -> np.ndarray:
        """(T, *shape) uniforms, trial t's from ``rngs[t]``."""
        u = np.empty((n_trials, *shape))
        for rng, out in zip(rngs, u, strict=True):
            rng.random(out=out)
        return u

    pop = lower[:, None] + span[:, None] * draws((params.population,
                                                   n_genes))
    pop_mw = to_mw(pop)
    best, queen_fitness, queen_total = _rank(pop_mw, evaluate(pop_mw))
    queen = pop[trials, best, None]  # (T, 1, J)

    trace = np.empty((params.n_iterations, n_trials))
    mutation_draws = 2 * s * n_genes + s
    row = mutation_draws + v * n_genes
    # A block holds at most _BLOCK_DOUBLES draws, however many trials.
    per_block = max(1, _BLOCK_DOUBLES // max(n_trials * row, 1))
    immigrant_trials = range(n_trials) if v else ()
    for start in range(0, params.n_iterations, per_block):
        g = min(per_block, params.n_iterations - start)
        u = draws((g, row))
        deltas = _mutation_deltas(u.reshape(n_trials * g, row), params,
                                  n_genes).reshape(n_trials, g, s, n_genes)
        if v:
            immigrants = lower[:, None, None] + span[:, None, None] * u[
                :, :, mutation_draws:].reshape(n_trials, g, v, n_genes)
            imm_mw = to_mw(immigrants)
            imm_fit = evaluate(imm_mw.reshape(n_trials, g * v, n_genes))
            # Trial i's generation t at i * g + t.
            imm_best, imm_top, imm_total = _rank(
                imm_mw.reshape(n_trials * g, v, n_genes),
                imm_fit.reshape(n_trials * g, v))
        fits = []  # each generation's queen fitness, (T,)
        for t in range(g):
            head = next_population(queen, deltas[:, t], mutant_lower,
                                   mutant_upper)
            head_mw = to_mw(head)
            best, queen_fitness, queen_total = _rank(head_mw,
                                                    evaluate(head_mw))
            if n_trials == 1:  # a view: a gather costs more than a search
                queen = head[:, best[0]:best[0] + 1]
            else:
                queen = head[trials, best, None]
            # Immigrants rank after the head: one wins only strictly.
            for i in immigrant_trials:
                at = i * g + t
                top = imm_top[at]
                if top > queen_fitness[i] or (
                        top == queen_fitness[i]
                        and imm_total[at] < queen_total[i]):
                    queen[i] = immigrants[i, t, imm_best[at]]
                    queen_fitness[i] = top
            fits.append(queen_fitness)
        trace[start:start + g] = fits

    return [GaResult(queen=q, queen_fitness=f, trace=tr,
                     n_evaluations=scored)
            for q, f, tr in zip(queen[:, 0], queen_fitness, trace.T)]
