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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig
from .coverage import ScenarioInstance, to_mw

# Uniforms drawn per block of generations, in doubles. It bounds a block's
# memory; the stream is the same whatever its value.
_BLOCK_DOUBLES = 1 << 14


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
    """The queen and its S mutants as a (1 + S, J) matrix.

    Row 0 is the queen; row 1 + i is ``queen + deltas[i]`` clamped to the
    gene bounds.
    """
    head = np.empty((deltas.shape[0] + 1, queen.size))
    head[0] = queen
    mutants = np.add(queen, deltas, out=head[1:])
    np.maximum(mutants, lower, out=mutants)
    np.minimum(mutants, upper, out=mutants)
    return head


def _select(mw: np.ndarray, fitness: np.ndarray) -> tuple[int, float]:
    """Best index and its total linear power, given the rows' linear powers
    in mW: max fitness, then min total linear power, then min index.

    The power sum is taken only over the rows tied at max fitness.
    """
    values = fitness.tolist()
    top = max(values)
    tied = [i for i, f in enumerate(values) if f == top]
    totals = np.add.reduce(mw.take(tied, axis=0), axis=1).tolist()
    k = totals.index(min(totals))
    return tied[k], totals[k]


def _rank(mw: np.ndarray, fitness: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_select` for each generation of a (G, V, J) block of populations,
    given as linear powers in mW.

    Returns each generation's best index, its fitness and its total linear
    power, as (G,) arrays.
    """
    top = fitness.max(axis=1)
    tied = fitness == top[:, None]
    total = np.full(fitness.shape, np.inf)
    total[tied] = np.add.reduce(mw[tied], axis=1)
    best = total.argmin(axis=1)
    return best, top, total[np.arange(best.size), best]


def optimize(instance: ScenarioInstance, params: GaParams,
             rng: np.random.Generator) -> GaResult:
    """Run the elitist search and return the final queen with its trace.

    The initial population is scored in its own call to the instance's
    batched coverage evaluator; then each block of generations scores its
    immigrants in one call, and each generation its queen and mutants in
    one call: exactly K + N*K fitness evaluations in all. Each batch is
    converted to mW once, for its fitness call and its tie-break alike.
    """
    lower, upper = instance.lower, instance.upper
    span = upper - lower
    evaluate = instance.batch_coverage
    n_genes, s, v = lower.size, params.neighborhood, params.immigrants

    pop = lower + span * rng.random((params.population, n_genes))
    pop_mw = to_mw(pop)
    fit = evaluate(pop_mw)
    n_evaluations = fit.size
    best, _ = _select(pop_mw, fit)
    queen, queen_fitness = pop[best], float(fit[best])

    trace = np.empty(params.n_iterations)
    mutation_draws = 2 * s * n_genes + s
    row = mutation_draws + v * n_genes
    per_block = max(1, _BLOCK_DOUBLES // max(row, 1))
    for start in range(0, params.n_iterations, per_block):
        g = min(per_block, params.n_iterations - start)
        u = rng.random((g, row))
        deltas = _mutation_deltas(u, params, n_genes)
        if v:
            immigrants = lower + span * u[:, mutation_draws:].reshape(
                g, v, n_genes)
            imm_mw = to_mw(immigrants)
            imm_fit = evaluate(imm_mw.reshape(g * v, n_genes))
            n_evaluations += imm_fit.size
            imm_best, imm_top, imm_total = (
                a.tolist() for a in _rank(imm_mw, imm_fit.reshape(g, v)))
        for t in range(g):
            head = next_population(queen, deltas[t], lower, upper)
            head_mw = to_mw(head)
            fit = evaluate(head_mw)
            n_evaluations += fit.size
            best, queen_total = _select(head_mw, fit)
            queen, queen_fitness = head[best], float(fit[best])
            # Immigrants rank after the head: one wins only strictly.
            if v and (imm_top[t] > queen_fitness
                      or (imm_top[t] == queen_fitness
                          and imm_total[t] < queen_total)):
                queen, queen_fitness = immigrants[t, imm_best[t]], imm_top[t]
            trace[start + t] = queen_fitness

    # A copy, so the result does not keep the last block of draws alive.
    return GaResult(queen=queen.copy(),
                    queen_fitness=queen_fitness, trace=trace,
                    n_evaluations=n_evaluations)
