"""Optimizer tests: elitism, mutation bounds, oracle comparisons."""

import itertools

import numpy as np
import pytest

from iabsim.config import ScenarioConfig
from iabsim.coverage import (ScenarioInstance, build_instance,
                             monte_carlo_coverage)
from iabsim.ga import GaParams, _mutation_deltas, next_population, optimize
from iabsim.rng import derive_rng
from iabsim.topology import IAB
from oracle import linear_mw

# Gene bounds of two UEs and one relay.
LOWER = np.array([23.0, 23.0, 35.0])
UPPER = np.array([43.0, 43.0, 53.0])


def deterministic_instance(**kw):
    base = dict(shadow_std_db=0.0, fading_enabled=False,
                rain_range_mm_h=(0.0, 0.0), trials=1)
    base.update(kw)
    cfg = ScenarioConfig(**base)
    return build_instance(cfg, seed=kw.get("seed", 1), trial_index=0)


class TestGaParams:
    def test_immigrants_count(self):
        assert GaParams(population=20, neighborhood=10).immigrants == 9
        assert GaParams(population=10, neighborhood=5).immigrants == 4

    def test_defaults_match_config(self):
        # The config holds (and validates) the GA keys; the two default
        # sets must not drift apart.
        assert GaParams() == GaParams.from_config(ScenarioConfig())


def recorded_batches(inst):
    """Wrap the instance's batched fitness; returns the list of the (K, J)
    batches of linear powers in mW it is called with."""
    batches = []

    def recording(mat):
        batches.append(np.array(mat))
        return ScenarioInstance.batch_coverage(inst, mat)

    inst.batch_coverage = recording
    return batches


def initial_population(inst, params, rng):
    batches = recorded_batches(inst)
    optimize(inst, params, rng)
    return batches[0]


def mutation_deltas(params, n_genes, generations, rng):
    """(G, S, J) mutation deltas built from G generations of draws 1-3."""
    s = params.neighborhood
    u = rng.random((generations, 2 * s * n_genes + s))
    return _mutation_deltas(u, params, n_genes)


def one_head(queen, deltas):
    """`next_population` of one trial: its queen and mutants, (1 + S, J)."""
    return next_population(queen[None, None], deltas[None], LOWER, UPPER)[0]


def mutants(queen, params, rng, generations=50):
    """Every mutant of ``generations`` generations around the queen."""
    for d in mutation_deltas(params, queen.size, generations, rng):
        yield from one_head(queen, d)[1:]


class TestInitPopulation:
    def test_shape_and_bounds(self):
        inst = deterministic_instance(num_ues=3, num_iab_per_cell=1)
        params = GaParams(population=20, n_iterations=1)
        pop = initial_population(inst, params, derive_rng(1, "init"))
        assert pop.shape == (20, len(inst.gene_ids))
        lower, upper = linear_mw(inst.lower), linear_mw(inst.upper)
        assert np.all(pop >= lower) and np.all(pop <= upper)

    def test_bounds_over_many_draws(self):
        inst = deterministic_instance(num_ues=2, num_iab_per_cell=1)
        params = GaParams(population=100, neighborhood=1, n_iterations=1)
        rng = derive_rng(2, "init")
        lower, upper = linear_mw(inst.lower), linear_mw(inst.upper)
        for _ in range(100):
            pop = initial_population(inst, params, rng)
            assert np.all(pop >= lower) and np.all(pop <= upper)

    def test_fixed_seed_identical(self):
        inst = deterministic_instance(num_ues=2, num_iab_per_cell=1)
        params = GaParams(n_iterations=1)
        a = initial_population(inst, params, derive_rng(3, "x"))
        b = initial_population(inst, params, derive_rng(3, "x"))
        assert np.array_equal(a, b)


class TestMutation:
    def test_forced_single_gene(self):
        # Vanishing mutation probability plus the forced-gene rule: exactly
        # one gene differs.
        params = GaParams(population=2, neighborhood=1, mutation_prob=1e-12)
        queen = np.array([33.0, 33.0, 44.0])
        for mutant in mutants(queen, params, derive_rng(4, "mut")):
            assert np.count_nonzero(mutant != queen) == 1

    def test_always_within_bounds_and_step(self):
        params = GaParams(population=2, neighborhood=1, mutation_prob=0.5,
                          mutation_step_db=3.0)
        queen = np.array([23.0, 43.0, 35.0])  # at the edges
        rows = np.array(list(mutants(queen, params, derive_rng(5, "mut"),
                                     generations=100_000 // 20)))
        assert np.all(rows >= LOWER) and np.all(rows <= UPPER)
        # clamping can only shrink a step, never grow it
        assert np.abs(rows - queen).max() <= params.mutation_step_db + 1e-12

    def test_batched_mutants_forced_single_gene(self):
        # The forced-gene rule, applied row by row in one batched call.
        params = GaParams(population=20, neighborhood=10, mutation_prob=1e-12)
        queen = np.array([33.0, 30.0, 44.0])  # interior: no clamp hides a move
        deltas = mutation_deltas(params, queen.size, 50, derive_rng(15, "mut"))
        for d in deltas:
            pop = one_head(queen, d)
            moved = pop[1:1 + params.neighborhood] != queen
            assert np.array_equal(moved.sum(axis=1),
                                  np.ones(params.neighborhood))

    def test_batched_mutants_within_bounds_and_step(self):
        params = GaParams(population=20, neighborhood=10, mutation_prob=0.5,
                          mutation_step_db=3.0)
        queen = np.array([23.0, 43.0, 35.0])  # at the edges
        deltas = mutation_deltas(params, queen.size, 500, derive_rng(16, "mut"))
        for d in deltas:
            pop = one_head(queen, d)
            assert np.all(pop >= LOWER) and np.all(pop <= UPPER)
            rows = pop[1:1 + params.neighborhood]
            assert np.all(np.abs(rows - queen)
                          <= params.mutation_step_db + 1e-12)

    def test_population_composition(self):
        params = GaParams(population=20, neighborhood=10)
        queen = np.array([30.0, 40.0, 50.0])
        d = mutation_deltas(params, queen.size, 1, derive_rng(6, "n"))[0]
        pop = one_head(queen, d)
        assert pop.shape == (1 + params.neighborhood, 3)
        assert np.array_equal(pop[0], queen)  # elite carried unchanged
        assert np.all(pop >= LOWER) and np.all(pop <= UPPER)
        # rows 1..S are near the queen
        for row in pop[1:]:
            assert np.max(np.abs(row - queen)) <= params.mutation_step_db


class TestOptimize:
    def test_flat_landscape_converges_immediately(self):
        inst = deterministic_instance(num_ues=2, min_rate_bps=64e3,
                                      ue_positions=((30.0, 0.0), (50.0, 0.0)),
                                      num_iab_per_cell=0)
        params = GaParams(n_iterations=10)
        res = optimize(inst, params, derive_rng(7, "ga"))
        assert res.queen_fitness == 1.0
        assert np.array_equal(res.trace, np.ones(10))

    def test_no_genes(self):
        # No UEs and no relays: J = 0, coverage is vacuously 1.0.
        inst = deterministic_instance(num_ues=0, num_iab_per_cell=0)
        assert inst.gene_ids == ()
        params = GaParams(n_iterations=12, population=6, neighborhood=2)
        res = optimize(inst, params, derive_rng(17, "ga"))
        assert res.queen_fitness == 1.0
        assert np.array_equal(res.trace, np.ones(12))
        assert res.n_evaluations == 6 * (12 + 1)
        assert res.queen.shape == (0,)

    def test_no_genes_monte_carlo(self):
        cfg = ScenarioConfig(num_ues=0, num_iab_per_cell=0, ga_iterations=5,
                             ga_population=6, ga_neighborhood=2)
        [res] = monte_carlo_coverage(cfg, ["ga"], trials=3, seed=18)
        assert np.array_equal(res.per_trial, np.ones(3))

    def test_evaluation_count(self):
        inst = deterministic_instance(num_ues=2, num_iab_per_cell=0,
                                      ue_positions=((30.0, 0.0), (50.0, 0.0)))
        batches = recorded_batches(inst)
        params = GaParams(n_iterations=7, population=6, neighborhood=2)
        res = optimize(inst, params, derive_rng(8, "ga"))
        n_rows = sum(len(b) for b in batches)
        assert n_rows == 6 + 7 * 6
        assert res.n_evaluations == n_rows

    def test_trace_monotone_on_stressed_instance(self):
        cfg = dict(num_ues=24, num_cells=2, rb_max=16, min_rate_bps=1e6)
        inst = build_instance(ScenarioConfig(trials=1, **cfg), seed=11,
                              trial_index=0)
        params = GaParams(n_iterations=60)
        res = optimize(inst, params, derive_rng(9, "ga"))
        assert np.all(np.diff(res.trace) >= 0.0)

    def test_single_ue_max_power_optimal(self):
        # Pass threshold sits at ~41.8 dBm (verified by a 0.1 dB sweep), so
        # the queen must land within one mutation step of the 43 dBm cap.
        inst = deterministic_instance(num_ues=1, num_iab_per_cell=0,
                                      ue_positions=((190.0, 0.0),),
                                      min_rate_bps=67e6)
        grid = np.arange(23.0, 43.0001, 0.1)
        cov = np.array([inst.batch_coverage(linear_mw([[p]]))[0]
                        for p in grid])
        threshold = grid[int(np.argmax(cov >= 1.0))]
        assert 40.0 < threshold < 43.0
        params = GaParams(n_iterations=200)
        res = optimize(inst, params, derive_rng(10, "ga"))
        assert res.queen_fitness == 1.0
        gene = res.queen[inst.gene_ids.index(inst.ue_ids[0])]
        assert abs(gene - 43.0) <= params.mutation_step_db
        assert gene >= threshold - 0.1  # sweep brackets the true threshold

    def test_tie_breaks(self):
        # Flat fitness: equal-fitness candidates are ranked by total linear
        # power, then by candidate index (the incumbent queen is index 0).
        inst = deterministic_instance(num_ues=1, num_iab_per_cell=0,
                                      ue_positions=((30.0, 0.0),),
                                      min_rate_bps=64e3)
        params = GaParams(n_iterations=40)
        res = optimize(inst, params, derive_rng(11, "ga"))
        # with coverage flat at 1.0, the power tie-break walks the gene down
        assert res.queen_fitness == 1.0
        ue_gene = inst.gene_ids.index(inst.ue_ids[0])
        assert res.queen[ue_gene] == pytest.approx(23.0)

    def test_lowest_index_on_full_tie(self):
        # One population (the Python path) and a stack of two (the array
        # path).
        from iabsim.ga import _rank
        pop = np.array([[30.0, 40.0], [30.0, 40.0], [30.0, 40.0]])
        fitness = np.array([0.5, 0.5, 0.5])
        assert _rank(pop[None], fitness[None])[0] == [0]
        assert _rank(np.stack([pop, pop]), np.stack([fitness, fitness]))[0] \
            == [0, 0]

    def test_deterministic(self):
        inst = deterministic_instance(num_ues=3, num_iab_per_cell=1,
                                      ue_positions=((30.0, 0.0), (50.0, 10.0),
                                                    (80.0, -20.0)),
                                      min_rate_bps=1e6)
        params = GaParams(n_iterations=30)
        a = optimize(inst, params, derive_rng(12, "ga"))
        b = optimize(inst, params, derive_rng(12, "ga"))
        assert np.array_equal(a.queen, b.queen)
        assert np.array_equal(a.trace, b.trace)

    def test_all_candidates_feasible(self):
        inst = deterministic_instance(num_ues=2, num_iab_per_cell=1,
                                      ue_positions=((40.0, 0.0), (90.0, 0.0)),
                                      min_rate_bps=1e6)
        batches = recorded_batches(inst)
        params = GaParams(n_iterations=15, population=8, neighborhood=3)
        optimize(inst, params, derive_rng(13, "ga"))
        seen = np.concatenate(batches)
        assert np.all(seen >= linear_mw(inst.lower - 1e-9))
        assert np.all(seen <= linear_mw(inst.upper + 1e-9))

    def test_matches_exhaustive_grid_search(self):
        # Two genes (one UE, one relay 10 km out): the relay power decides
        # the backhaul, the UE power the access link. Full 21 x 19 grid at
        # 1 dB steps is the oracle.
        inst = deterministic_instance(
            num_ues=1, num_iab_per_cell=1, cell_radius_m=20_000.0,
            ue_positions=((10_030.0, 0.0),), min_rate_bps=1e6, seed=21)
        [iab_id] = np.flatnonzero(inst.topology.role == IAB).tolist()
        ue_gene = inst.gene_ids.index(inst.ue_ids[0])
        assert inst.assoc[ue_gene] == iab_id
        ue_grid = np.arange(23.0, 43.1, 1.0)
        iab_grid = np.arange(35.0, 53.1, 1.0)
        combos = np.array(list(itertools.product(ue_grid, iab_grid)))
        # gene order is sorted ids: (iab, ue); combos are (ue, iab)
        mat = combos[:, ::-1] if inst.gene_ids[0] == iab_id else combos
        best_grid = float(inst.batch_coverage(linear_mw(mat)).max())
        params = GaParams(n_iterations=500)
        res = optimize(inst, params, derive_rng(14, "ga"))
        assert abs(res.queen_fitness - best_grid) <= 0.01
