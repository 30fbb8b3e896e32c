"""Property tests: the array topology, the array channel, the batched status
kernel (also on interleaved node ids) and its thresholds, and the
block-drawn GA against their per-node, scalar, per-link, per-victim and
per-generation references; the shared-build trial runner against one
build per policy; the dBm-to-mW conversion against its formula; and the
batched back-off sweep against one call per back-off; the per-layout
cache (a warm build against a cold one, a layout built again after
another, read-only cached arrays, and one trial's writes against the next
trial's build); the stacked build of many trials against one build per
trial, and one trial's writes against the next trial of its block; the
stacked UE placement against one placement per trial; the lockstep GA
against one search per trial, and its group kernel, at each batch height,
against each trial's own kernel; coverage that never rises with the
minimum rate; and the coverage floor and ceiling against every powers
scored and against the kernel with one gene raised, over random small
scenarios."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iabsim.coverage as coverage
import iabsim.ga as ga

from iabsim.channel import pathloss_uma, sample_fading, sample_shadowing
from iabsim.config import ScenarioConfig
from iabsim.coverage import (ScenarioInstance, _block_overlap,
                             _link_constants, build_instance, build_trials,
                             monte_carlo_coverage, to_mw)
from iabsim.policies import make_policy
from iabsim.rng import derive_rng
from iabsim.scheduler import allocate_rbs, associate, plan_slots
from iabsim.rng import trial_states
from iabsim.topology import (DONOR, UE, Deployment, Geometry, Layout,
                             Topology, _layout, build_topology,
                             deployment_layout, draw_ues)
from oracle import (covered_share, distance_3d, linear_mw, link, nodes_of,
                    one_trial_channel, reference_allocate_rbs,
                    reference_associate, reference_evaluate,
                    reference_optimize, reference_plan_slots,
                    one_trial_topology, reference_topology, trial_channel)

# Small and deterministic, so Tier-1 stays within a few seconds.
FAST = settings(max_examples=30, deadline=None, derandomize=True)

seeds = st.integers(0, 2**31 - 1)


@FAST
@given(seed=seeds, num_ues=st.integers(0, 8), num_cells=st.sampled_from((1, 2)),
       num_iab=st.integers(0, 4), poisson=st.booleans(), fixed=st.booleans(),
       radius=st.sampled_from((200.0, 2000.0)),
       spacing=st.sampled_from((None, 700.0)),
       angle=st.sampled_from((0.0, 30.0)))
@example(seed=1, num_ues=0, num_cells=2, num_iab=2, poisson=True, fixed=False,
         radius=200.0, spacing=None, angle=0.0)  # Poisson count 0
@example(seed=2, num_ues=5, num_cells=2, num_iab=0, poisson=False, fixed=False,
         radius=200.0, spacing=None, angle=0.0)  # no relays
@example(seed=3, num_ues=3, num_cells=2, num_iab=1, poisson=False, fixed=True,
         radius=200.0, spacing=700.0, angle=30.0)  # fixed positions
def test_topology_matches_reference(seed, num_ues, num_cells, num_iab, poisson,
                                    fixed, radius, spacing, angle):
    positions = None
    if fixed:
        rng = np.random.default_rng(seed)
        r = radius * np.sqrt(rng.random(num_ues))
        a = rng.uniform(0.0, 2.0 * math.pi, num_ues)
        positions = tuple(zip((r * np.cos(a)).tolist(), (r * np.sin(a)).tolist()))
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab, ue_count_poisson=poisson,
                         ue_positions=positions, cell_radius_m=radius,
                         donor_spacing_m=spacing,
                         iab_ring_angle_offset_deg=angle)
    topo = one_trial_topology(cfg, derive_rng(seed, "topo"))
    nodes = reference_topology(cfg, derive_rng(seed, "topo"))
    assert topo.role.tolist() == [n.role for n in nodes]
    assert topo.cell.tolist() == [n.cell_id for n in nodes]
    # Bit for bit: the same doubles, signed zeros included.
    for name in ("x", "y", "height"):
        expected = np.array([getattr(n, name) for n in nodes], dtype=float)
        assert getattr(topo, name).tobytes() == expected.tobytes()


@FAST
@given(seed=seeds, num_ues=st.integers(0, 6), num_cells=st.sampled_from((1, 2)),
       num_iab=st.integers(0, 3), fading=st.booleans(),
       shadow_std=st.sampled_from((0.0, 4.0, 8.0)))
def test_realization_matches_scalar_draws(seed, num_ues, num_cells, num_iab,
                                          fading, shadow_std):
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab, shadow_std_db=shadow_std)
    topo = one_trial_topology(cfg, derive_rng(seed, "topo"))
    real = one_trial_channel(topo, cfg, 12.0, derive_rng(seed, "shadow"),
                             derive_rng(seed, "fade") if fading else None)
    shadow_rng, fade_rng = derive_rng(seed, "shadow"), derive_rng(seed, "fade")
    nodes = nodes_of(topo)
    pairs = []
    for tx in (n for n in nodes if n.role != DONOR):
        for rx in (n for n in nodes if n.role != UE):
            if tx.id == rx.id:
                continue
            pairs.append([tx.id, rx.id])
            sample = link(real, tx.id, rx.id)
            # Same stream, same (tx, rx) order: bit-identical shadowing.
            assert sample.shadowing_db == float(sample_shadowing(shadow_rng, cfg))
            expected_fade = float(sample_fading(fade_rng)) if fading else 0.0
            assert abs(sample.fading_db - expected_fade) <= 1e-12
            d3d = distance_3d(tx, rx)
            assert math.isclose(sample.d3d_m, d3d, rel_tol=1e-15)
            assert math.isclose(
                sample.pathloss_db,
                float(pathloss_uma(d3d, rx.height, tx.height, cfg)),
                rel_tol=1e-14)
    # `links` lists the pairs in the order the draws above fill them.
    assert real.links.shape == (len(pairs), 2)
    assert real.links.tolist() == pairs


@FAST
@given(seed=seeds, trial=st.integers(0, 3), num_ues=st.integers(0, 7),
       num_cells=st.sampled_from((1, 2)), num_iab=st.integers(0, 3),
       slot_mode=st.sampled_from(("separated", "simultaneous")),
       poisson=st.booleans(), rb_max=st.sampled_from((2, 3, 5, 16, 64)),
       rbs_per_ue=st.integers(1, 2),
       min_rate=st.sampled_from((64e3, 5e6, 20e6, 80e6)),
       radius=st.sampled_from((200.0, 2000.0)))
def test_batched_status_matches_reference(seed, trial, num_ues, num_cells,
                                          num_iab, slot_mode, poisson, rb_max,
                                          rbs_per_ue, min_rate, radius):
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab, slot_mode=slot_mode,
                         ue_count_poisson=poisson, rb_max=rb_max,
                         rbs_per_ue=rbs_per_ue, min_rate_bps=min_rate,
                         cell_radius_m=radius, trials=1)
    inst = build_instance(cfg, seed, trial)
    real = trial_channel(cfg, seed, trial, inst.topology)
    rng = np.random.default_rng(seed)
    vectors = [inst.upper, inst.lower, rng.uniform(inst.lower, inst.upper)]
    for values in vectors:
        fast = inst.evaluate(values)
        reference = reference_evaluate(inst, values, real)
        assert fast.tolist() == reference.tolist()
        assert (inst.batch_coverage(linear_mw(values[None, :]))[0]
                == covered_share(reference))


@FAST
@given(seed=seeds, num_ues=st.integers(1, 6), num_cells=st.sampled_from((1, 2)),
       num_iab=st.integers(1, 3),
       slot_mode=st.sampled_from(("separated", "simultaneous")),
       rb_max=st.sampled_from((2, 5, 16)),
       min_rate=st.sampled_from((64e3, 5e6, 20e6, 80e6)),
       radius=st.sampled_from((200.0, 2000.0)))
@example(seed=7, num_ues=3, num_cells=2, num_iab=2, slot_mode="separated",
         rb_max=16, min_rate=5e6, radius=2000.0)
def test_interleaved_ue_ids_match_reference(seed, num_ues, num_cells, num_iab,
                                            slot_mode, rb_max, min_rate,
                                            radius):
    # Node ids in a random order: the kernel reads the UE and relay rows by
    # their gene rows, whatever the layout `one_trial_topology` happens to give.
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab, slot_mode=slot_mode,
                         rb_max=rb_max, rbs_per_ue=2, min_rate_bps=min_rate,
                         cell_radius_m=radius, trials=1)
    built = one_trial_topology(cfg, derive_rng(seed, "topo"))
    order = np.random.default_rng(seed).permutation(built.role.size)
    topo = Topology(*(getattr(built, name)[order]
                      for name in ("role", "cell", "x", "y", "height")))
    inst = _build_alone(cfg, seed, 0, topo)
    real = trial_channel(cfg, seed, 0, topo)
    rng = np.random.default_rng(seed)
    vectors = [inst.upper, inst.lower, rng.uniform(inst.lower, inst.upper)]
    for values in vectors:
        fast = inst.evaluate(values)
        reference = reference_evaluate(inst, values, real)
        assert fast.tolist() == reference.tolist()
        assert (inst.batch_coverage(linear_mw(values[None, :]))[0]
                == covered_share(reference))


@FAST
@given(seed=seeds, trial=st.integers(0, 3), num_ues=st.integers(0, 8),
       num_cells=st.sampled_from((1, 2)), num_iab=st.integers(0, 4),
       poisson=st.booleans(), rb_max=st.sampled_from((2, 3, 16, 64)),
       rbs_per_ue=st.integers(1, 2),
       min_rate=st.sampled_from((64e3, 5e6, 80e6, 1e13)),
       radius=st.sampled_from((200.0, 2000.0)))
@example(seed=5, trial=0, num_ues=0, num_cells=2, num_iab=2, poisson=False,
         rb_max=16, rbs_per_ue=2, min_rate=64e3, radius=200.0)  # all vacuous
@example(seed=6, trial=1, num_ues=2, num_cells=2, num_iab=4, poisson=False,
         rb_max=3, rbs_per_ue=2, min_rate=5e6, radius=200.0)  # some vacuous
def test_thresholds_match_per_victim_constants(seed, trial, num_ues, num_cells,
                                               num_iab, poisson, rb_max,
                                               rbs_per_ue, min_rate, radius):
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab, ue_count_poisson=poisson,
                         rb_max=rb_max, rbs_per_ue=rbs_per_ue,
                         min_rate_bps=min_rate, cell_radius_m=radius, trials=1)
    inst = build_instance(cfg, seed, trial)
    alloc = allocate_rbs(inst.assoc[None], inst.topology, cfg)[0]
    # Victim v is gene v's link: a UE carries the minimum rate, a relay the
    # sum of its children's, over the RBs the gene holds.
    gammas, noises, childless = [], [], []
    for v, gene in enumerate(inst.gene_ids):
        children = 1 if inst.topology.role[gene] == UE else int(
            np.count_nonzero(inst.assoc == gene))
        demand = cfg.min_rate_bps * float(children)
        bandwidth = float(np.count_nonzero(alloc[v])) * cfg.rb_width_hz
        gamma, noise = _link_constants(demand, bandwidth, cfg.nf_db)
        gammas.append(gamma)
        noises.append(noise)
        childless.append(children == 0)
    # Bit for bit, infinities included.
    assert inst.gamma_min.tobytes() == np.array(gammas, dtype=float).tobytes()
    assert inst.noise_mw.tobytes() == np.array(noises, dtype=float).tobytes()
    # A relay with no children carries no demand, so its backhaul is
    # vacuous: its minimum SINR is 0, and no other row's is.
    assert (inst.gamma_min == 0.0).tolist() == childless


# (rb_max, rbs_per_ue) with rbs_per_ue up to the whole grid.
grids = st.integers(1, 16).flatmap(
    lambda rb_max: st.tuples(st.just(rb_max), st.integers(1, rb_max)))


@FAST
@given(seed=seeds, num_ues=st.integers(0, 8), num_cells=st.sampled_from((1, 2)),
       num_iab=st.integers(0, 3), poisson=st.booleans(), grid=grids,
       slot_mode=st.sampled_from(("separated", "simultaneous")),
       radius=st.sampled_from((200.0, 2000.0)))
@example(seed=5, num_ues=0, num_cells=2, num_iab=2, poisson=True, grid=(4, 4),
         slot_mode="separated", radius=200.0)  # no UEs, every relay childless
@example(seed=6, num_ues=8, num_cells=2, num_iab=0, poisson=False,
         grid=(5, 3), slot_mode="separated", radius=200.0)  # no relays, wrap
def test_scheduler_matches_reference(seed, num_ues, num_cells, num_iab,
                                     poisson, grid, slot_mode, radius):
    rb_max, rbs_per_ue = grid
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab, ue_count_poisson=poisson,
                         rb_max=rb_max, rbs_per_ue=rbs_per_ue,
                         slot_mode=slot_mode, cell_radius_m=radius, trials=1)
    topo = one_trial_topology(cfg, derive_rng(seed, "topo"))
    real = one_trial_channel(topo, cfg, 0.0, derive_rng(seed, "shadow"), None)
    genes = topo.tx.tolist()
    # The reference schedule runs on the reference nodes of the same draws.
    nodes = reference_topology(cfg, derive_rng(seed, "topo"))

    # A stack of one trial.
    assoc = associate(topo, real.long_term_loss_db[None])[0]
    ref_assoc = reference_associate(nodes, real)
    ref_rx = {**ref_assoc.ue_to_bs, **ref_assoc.iab_to_donor}
    assert assoc.tolist() == [ref_rx[g] for g in genes]

    alloc = allocate_rbs(assoc[None], topo, cfg)[0]
    ref_alloc = reference_allocate_rbs(ref_assoc, nodes, cfg)
    assert alloc.shape == (len(genes), rb_max)
    assert ([frozenset(np.flatnonzero(row).tolist()) for row in alloc]
            == [ref_alloc.rbs_of(g) for g in genes])

    slots = plan_slots(topo, slot_mode).tolist()
    groups = {frozenset(g for g, s in zip(genes, slots) if s == slot)
              for slot in slots}
    assert groups == set(reference_plan_slots(nodes, slot_mode).slots)


def _ga_batches(test):
    """GA-shaped examples for `to_mw`, which raises an array of 10.0 where
    the formula raises the scalar: every length from 1 to 70, however a
    SIMD loop splits it into a body and a tail, and a (T, K, J) = (10, 54,
    19) immigrant batch of a lockstep group."""
    rng = np.random.default_rng(27)
    for values in [rng.uniform(-120.0, 60.0, n) for n in range(1, 71)] + [
            rng.uniform(23.0, 53.0, (10, 54, 19))]:
        test = example(values=values, rows=1)(test)
    return test


@FAST
@given(values=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=12),
       rows=st.integers(1, 3))
@example(values=[-120.0, -3.5, -0.0, 0.0, 0.1, 23.0, 43.0, 50.0, 53.0, 57.3,
                 299.9], rows=2)
@_ga_batches
def test_to_mw_is_the_db_formula(values, rows):
    x = np.tile(values, (rows, 1))
    assert to_mw(x).tobytes() == (10.0 ** (x / 10.0)).tobytes()


@FAST
@given(seed=seeds, trial=st.integers(0, 3), num_ues=st.integers(0, 7),
       num_cells=st.sampled_from((1, 2)), num_iab=st.integers(0, 4),
       slot_mode=st.sampled_from(("separated", "simultaneous")),
       rb_max=st.sampled_from((3, 16, 64)),
       min_rate=st.sampled_from((64e3, 5e6, 20e6, 80e6)),
       backoffs=st.lists(st.sampled_from((0.0, -0.0, 0.5, 4.0, 12.0, 63.0,
                                          -3.0)), min_size=1, max_size=8))
@example(seed=6, trial=1, num_ues=2, num_cells=2, num_iab=4,
         slot_mode="separated", rb_max=3, min_rate=5e6,
         backoffs=[0.0, 4.0, 8.0])  # four relays with no children
@example(seed=6, trial=1, num_ues=2, num_cells=1, num_iab=4,
         slot_mode="simultaneous", rb_max=16, min_rate=5e6,
         backoffs=[0.0, 12.0])  # childless relays in one slot
def test_backoff_batch_matches_one_call_per_backoff(seed, trial, num_ues,
                                                    num_cells, num_iab,
                                                    slot_mode, rb_max,
                                                    min_rate, backoffs):
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab, slot_mode=slot_mode,
                         rb_max=rb_max, min_rate_bps=min_rate, trials=1)
    inst = build_instance(cfg, seed, trial)
    arr = np.random.default_rng(seed).uniform(inst.lower, inst.upper)
    b = np.array(backoffs)
    batch = to_mw(arr - b[:, None])
    # One row per back-off, as a one-back-off call shifts the powers: the
    # offset -b added to the EIRPs, and no add at 0 dB.
    rows = [linear_mw((arr + (-x) if x else arr)[None, :]) for x in backoffs]
    assert batch.tobytes() == np.concatenate(rows).tobytes()
    coverage = np.concatenate([inst.batch_coverage(r) for r in rows])
    assert inst.batch_coverage(batch).tobytes() == coverage.tobytes()
    sinr = inst.access_sinr_db(batch)
    assert sinr.shape == (len(backoffs), inst.n_ue)
    # The (B, J) interference product runs BLAS's matrix-matrix kernel and a
    # one-row call its matrix-vector kernel, which may round the sums
    # differently: by up to about 3e-14 of the SINR in dB, in measurements.
    singles = np.concatenate([inst.access_sinr_db(r) for r in rows])
    assert np.allclose(sinr, singles, rtol=0.0, atol=1e-9)


def _same_result(a, b):
    assert np.array_equal(a.queen, b.queen)
    assert a.queen_fitness == b.queen_fitness
    assert np.array_equal(a.trace, b.trace)
    assert a.n_evaluations == b.n_evaluations


@FAST
@given(seed=seeds, num_ues=st.integers(0, 6), num_cells=st.sampled_from((1, 2)),
       num_iab=st.integers(0, 2), rb_max=st.sampled_from((2, 16)),
       min_rate=st.sampled_from((64e3, 5e6, 20e6, 80e6)),
       population=st.integers(2, 7), neighborhood_share=st.floats(0.0, 1.0),
       iterations=st.integers(1, 12),
       mutation_prob=st.sampled_from((1e-12, 0.15, 1.0)),
       step=st.sampled_from((0.5, 3.0, 15.0)))
@example(seed=1, num_ues=0, num_cells=1, num_iab=0, rb_max=16, min_rate=64e3,
         population=5, neighborhood_share=0.5, iterations=4,
         mutation_prob=0.15, step=3.0)  # J = 0
@example(seed=2, num_ues=4, num_cells=1, num_iab=1, rb_max=2, min_rate=20e6,
         population=6, neighborhood_share=0.0, iterations=8,
         mutation_prob=0.15, step=3.0)  # S = 0
@example(seed=3, num_ues=4, num_cells=2, num_iab=1, rb_max=2, min_rate=5e6,
         population=6, neighborhood_share=1.0, iterations=8,
         mutation_prob=0.15, step=3.0)  # V = 0
@example(seed=4, num_ues=3, num_cells=1, num_iab=1, rb_max=16, min_rate=64e3,
         population=2, neighborhood_share=0.5, iterations=10,
         mutation_prob=1e-12, step=3.0)  # K = 2
def test_optimize_matches_reference(seed, num_ues, num_cells, num_iab, rb_max,
                                    min_rate, population, neighborhood_share,
                                    iterations, mutation_prob, step):
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab, rb_max=rb_max,
                         min_rate_bps=min_rate, trials=1)
    inst = build_instance(cfg, seed, 0)
    params = ga.GaParams(
        n_iterations=iterations, population=population,
        neighborhood=round(neighborhood_share * (population - 1)),
        mutation_step_db=step, mutation_prob=mutation_prob)
    fast = ga.optimize(inst, params, derive_rng(seed, "policy"))
    _same_result(fast, reference_optimize(inst, params,
                                          derive_rng(seed, "policy")))
    # The block size bounds memory only: one generation per block, or all
    # of them in one, draws and selects the same.
    for block in (1, 10**9):
        with mock.patch.object(ga, "_BLOCK_DOUBLES", block):
            _same_result(fast, ga.optimize(inst, params,
                                           derive_rng(seed, "policy")))


def _lockstep_group(cfg, seed, trials):
    """The trials of a fixed-count config, all of one layout, built as one
    block: ``(trial, instance)`` pairs."""
    with mock.patch.object(coverage, "_BLOCK_DOUBLES", 10**9):
        [block] = build_trials(cfg, seed, range(trials))
    return block


def _ga_params(population, neighborhood_share, iterations, mutation_prob,
               step):
    return ga.GaParams(
        n_iterations=iterations, population=population,
        neighborhood=round(neighborhood_share * (population - 1)),
        mutation_step_db=step, mutation_prob=mutation_prob)


@FAST
@given(seed=seeds, trials=st.sampled_from((1, 2, 7)),
       num_ues=st.integers(0, 6), num_cells=st.sampled_from((1, 2)),
       num_iab=st.integers(0, 3), rb_max=st.sampled_from((2, 16)),
       min_rate=st.sampled_from((64e3, 5e6, 20e6, 80e6)),
       population=st.integers(2, 7), neighborhood_share=st.floats(0.0, 1.0),
       iterations=st.integers(1, 12),
       mutation_prob=st.sampled_from((1e-12, 0.15, 1.0)),
       step=st.sampled_from((0.5, 3.0, 15.0)),
       block=st.sampled_from((None, 1, 10**9)))
@example(seed=1, trials=2, num_ues=0, num_cells=1, num_iab=0, rb_max=16,
         min_rate=64e3, population=5, neighborhood_share=0.5, iterations=4,
         mutation_prob=0.15, step=3.0, block=None)  # J = 0
@example(seed=2, trials=7, num_ues=4, num_cells=1, num_iab=1, rb_max=2,
         min_rate=20e6, population=6, neighborhood_share=0.0, iterations=8,
         mutation_prob=0.15, step=3.0, block=1)  # S = 0
@example(seed=3, trials=2, num_ues=4, num_cells=2, num_iab=1, rb_max=2,
         min_rate=5e6, population=6, neighborhood_share=1.0, iterations=8,
         mutation_prob=0.15, step=3.0, block=10**9)  # V = 0
@example(seed=4, trials=7, num_ues=0, num_cells=2, num_iab=2, rb_max=16,
         min_rate=5e6, population=4, neighborhood_share=0.5, iterations=5,
         mutation_prob=0.15, step=3.0, block=None)  # n_ue = 0, relays only
@example(seed=5, trials=7, num_ues=2, num_cells=2, num_iab=3, rb_max=3,
         min_rate=5e6, population=5, neighborhood_share=0.5, iterations=6,
         mutation_prob=0.15, step=3.0, block=1)  # relays with no children
def test_lockstep_group_matches_reference(seed, trials, num_ues, num_cells,
                                          num_iab, rb_max, min_rate,
                                          population, neighborhood_share,
                                          iterations, mutation_prob, step,
                                          block):
    # A group of T trials searched in lockstep gives each trial what its
    # search alone gives, bit for bit, whatever the block of generations.
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab, rb_max=rb_max,
                         min_rate_bps=min_rate, trials=1)
    params = _ga_params(population, neighborhood_share, iterations,
                        mutation_prob, step)
    group = _lockstep_group(cfg, seed, trials)
    rngs = [derive_rng(seed, t, "policy") for t, _ in group]
    with mock.patch.object(ga, "_BLOCK_DOUBLES",
                           block or ga._BLOCK_DOUBLES):
        results = ga.optimize_trials([inst for _, inst in group], params,
                                     rngs)
    assert len(results) == trials
    for (t, inst), result in zip(group, results):
        _same_result(result, reference_optimize(
            inst, params, derive_rng(seed, t, "policy")))


@FAST
@given(seed=seeds, trials=st.sampled_from((2, 3, 7)),
       num_ues=st.integers(0, 6), num_cells=st.sampled_from((1, 2)),
       num_iab=st.integers(0, 3), rb_max=st.sampled_from((2, 3, 16)),
       min_rate=st.sampled_from((64e3, 5e6, 20e6, 80e6)),
       heights=st.lists(st.sampled_from((1, 2, 45)), min_size=1,
                        max_size=6),
       order=st.permutations(range(7)), size=st.integers(2, 7))
@example(seed=1, trials=3, num_ues=4, num_cells=2, num_iab=1, rb_max=2,
         min_rate=5e6, heights=[45, 1, 2, 45, 2, 1], order=range(7),
         size=7)  # each height twice
@example(seed=5, trials=7, num_ues=2, num_cells=2, num_iab=3, rb_max=3,
         min_rate=5e6, heights=[45, 1, 2, 45, 1], order=range(7),
         size=7)  # relays with no children
@example(seed=5, trials=7, num_ues=2, num_cells=2, num_iab=3, rb_max=3,
         min_rate=5e6, heights=[45, 1, 2, 45, 1], order=[6, 2, 4, 0, 1, 3, 5],
         size=3)  # a subset of the block, out of order
@example(seed=5, trials=7, num_ues=0, num_cells=2, num_iab=2, rb_max=16,
         min_rate=5e6, heights=[45, 1, 2, 45, 1], order=range(7),
         size=7)  # n_ue = 0, relays only
@example(seed=5, trials=7, num_ues=0, num_cells=1, num_iab=0, rb_max=16,
         min_rate=5e6, heights=[45, 1, 2, 45, 1], order=range(7),
         size=7)  # J = 0
def test_lockstep_group_kernel_matches_each_trials_kernel(
        seed, trials, num_ues, num_cells, num_iab, rb_max, min_rate,
        heights, order, size):
    # A group of some of a block's trials, in any order, scores a
    # (T, K, J) batch on the operands it keeps for that K: each trial's
    # rows get the bits of its own one-trial kernel, at every height,
    # whichever heights came before.
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab, rb_max=rb_max,
                         min_rate_bps=min_rate, trials=1)
    block = [inst for _, inst in _lockstep_group(cfg, seed, trials)]
    instances = [block[i] for i in order if i < trials][:size]
    fitness = coverage.group_coverage(instances)
    lower, upper = instances[0].lower, instances[0].upper
    rng = np.random.default_rng(seed)
    for k in heights:
        u = rng.random((len(instances), k, lower.size))
        u[:, ::3] = 1.0  # some rows at the upper bound, where links pass
        mw = to_mw(lower + (upper - lower) * u)
        got = fitness(mw)
        assert got.shape == (len(instances), k)
        for t, inst in enumerate(instances):
            assert got[t].tobytes() == inst.batch_coverage(mw[t]).tobytes()


class _Recording:
    """A Generator that records the size of each block of uniforms it
    draws."""

    def __init__(self, rng, sizes):
        self.rng, self.sizes = rng, sizes

    def random(self, size=None, out=None):
        self.sizes.append(np.size(out) if out is not None
                          else int(np.prod(size)))
        return self.rng.random(size, out=out)


def test_lockstep_group_mixes_immigrant_wins_and_bounds_its_draws():
    # A group in which, at one generation, some trials' queens are
    # immigrants and others' are not; each trial matches its search alone,
    # and a block of the group's draws holds no more uniforms than one
    # trial's block alone, _BLOCK_DOUBLES, unless one generation does.
    cfg = ScenarioConfig(num_ues=6, num_cells=1, num_iab_per_cell=1,
                         rb_max=2, min_rate_bps=20e6, trials=1)
    params = ga.GaParams(n_iterations=30, population=8, neighborhood=3)
    seed, trials = 11, 7
    group = _lockstep_group(cfg, seed, trials)
    winners = []
    for t, inst in group:
        winners.append([])
        reference_optimize(inst, params, derive_rng(seed, t, "policy"),
                           winners[-1])
    wins = np.array(winners) >= 1 + params.neighborhood  # (T, N)
    assert (wins.any(axis=0) & ~wins.all(axis=0)).any()
    n_genes = len(group[0][1].gene_ids)
    row = (2 * params.neighborhood * n_genes + params.neighborhood
           + params.immigrants * n_genes)
    for budget in (ga._BLOCK_DOUBLES, 5 * trials * row, 1):
        sizes = []
        rngs = [_Recording(derive_rng(seed, t, "policy"), sizes)
                for t, _ in group]
        with mock.patch.object(ga, "_BLOCK_DOUBLES", budget):
            results = ga.optimize_trials([inst for _, inst in group], params,
                                         rngs)
        for (t, inst), result in zip(group, results):
            _same_result(result, reference_optimize(
                inst, params, derive_rng(seed, t, "policy")))
        blocks = sizes[trials:]  # after the initial populations
        assert trials * max(blocks) <= max(budget, trials * row)
        assert sum(blocks) == trials * params.n_iterations * row


POLICIES = ("ga", "max", "random")


@FAST
@given(seed=seeds, num_ues=st.integers(0, 6), num_cells=st.sampled_from((1, 2)),
       num_iab=st.integers(0, 2), poisson=st.booleans(),
       slot_mode=st.sampled_from(("separated", "simultaneous")),
       rb_max=st.sampled_from((2, 16)),
       min_rate=st.sampled_from((64e3, 5e6, 20e6)))
@example(seed=5, num_ues=0, num_cells=2, num_iab=0, poisson=True,
         slot_mode="simultaneous", rb_max=16, min_rate=5e6)  # Poisson 0, J = 0
def test_shared_build_matches_one_build_per_policy(seed, num_ues, num_cells,
                                                    num_iab, poisson,
                                                    slot_mode, rb_max,
                                                    min_rate):
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab, ue_count_poisson=poisson,
                         slot_mode=slot_mode, rb_max=rb_max,
                         min_rate_bps=min_rate, ga_iterations=3,
                         ga_population=4, ga_neighborhood=2, trials=1)
    trials = 2
    shared = monte_carlo_coverage(cfg, POLICIES, trials, seed)
    # The order of the policies changes no outcome.
    backwards = monte_carlo_coverage(cfg, POLICIES[::-1], trials, seed)[::-1]
    for name, a, b in zip(POLICIES, shared, backwards):
        policy = make_policy(name, cfg)
        for t in range(trials):
            inst = build_instance(cfg, seed, t)
            [powers] = policy([inst], [derive_rng(seed, t, "policy")])
            status = inst.evaluate(powers)
            for res in (a, b):
                outcome = res.outcomes[t]
                assert outcome.trial_index == t
                assert outcome.gene_ids == inst.gene_ids
                assert np.array_equal(outcome.powers, powers)
                assert np.array_equal(outcome.status, status)
                assert outcome.coverage == covered_share(status)
                assert res.per_trial[t] == outcome.coverage


def _build_alone(cfg: ScenarioConfig, seed: int, trial: int,
                 topo: Topology) -> ScenarioInstance:
    """Trial ``trial`` of ``seed`` built on a given one-trial topology: a
    block of one, its layout looked up by the topology's values."""
    stack = Topology(topo.role, topo.cell, topo.x[None], topo.y[None],
                     topo.height)
    [(_, inst)] = coverage._build_block(
        cfg, stack, [trial], trial_states(seed, [trial], coverage._BUILD_TAGS))
    return inst


def _snapshot(inst: ScenarioInstance) -> dict:
    """Every array, tuple and scalar an instance and its topology hold,
    arrays as (dtype, shape, bytes): equal means bit for bit, NaNs
    included. The instance's block and its index there depend on the
    trials built with it and are left out; its views of the block's
    arrays, its interference operand among them, are compared."""
    out = {}
    for owner in (inst, inst.topology):
        for name, value in vars(owner).items():
            key = f"{type(owner).__name__}.{name}"
            if key in ("ScenarioInstance._block", "ScenarioInstance._index"):
                continue
            if isinstance(value, np.ndarray):
                out[key] = (value.dtype.str, value.shape, value.tobytes())
            elif isinstance(value, (tuple, int, float)):
                out[key] = value
    return out


def _layout_arrays(layout: Layout) -> list[np.ndarray]:
    """Every array a layout holds, its derived entries' included."""
    arrays = [layout.role, layout.cell, layout.height, layout.placed_x,
              layout.placed_y, layout.tx, layout.rx]
    for value in layout._derived.values():
        items = value if isinstance(value, tuple) else (value,)
        arrays += [a for a in items if isinstance(a, np.ndarray)]
    return arrays


LAYOUT_CASES = dict(
    seed=seeds, trial=st.integers(0, 3), num_ues=st.integers(0, 6),
    num_cells=st.sampled_from((1, 2)), num_iab=st.integers(0, 3),
    poisson=st.booleans(), slot_mode=st.sampled_from(("separated",
                                                      "simultaneous")),
    rb_max=st.sampled_from((2, 3, 16)), rbs_per_ue=st.integers(1, 2))


def _layout_config(num_ues, num_cells, num_iab, poisson, slot_mode, rb_max,
                   rbs_per_ue):
    return ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                          num_iab_per_cell=num_iab, ue_count_poisson=poisson,
                          slot_mode=slot_mode, rb_max=rb_max,
                          rbs_per_ue=rbs_per_ue, min_rate_bps=5e6, trials=1)


@FAST
@given(**LAYOUT_CASES)
@example(seed=29, trial=0, num_ues=2, num_cells=2, num_iab=2, poisson=True,
         slot_mode="separated", rb_max=3, rbs_per_ue=2)  # 0 and 4 UEs, wraps
@example(seed=1, trial=0, num_ues=0, num_cells=2, num_iab=2, poisson=True,
         slot_mode="simultaneous", rb_max=16, rbs_per_ue=1)  # no UE at all
def test_warm_layout_build_equals_cold_build(seed, trial, num_ues, num_cells,
                                             num_iab, poisson, slot_mode,
                                             rb_max, rbs_per_ue):
    cfg = _layout_config(num_ues, num_cells, num_iab, poisson, slot_mode,
                         rb_max, rbs_per_ue)
    _layout.cache_clear()
    cold = _snapshot(build_instance(cfg, seed, trial))
    hits = _layout.cache_info().hits
    warm = build_instance(cfg, seed, trial)
    assert _layout.cache_info().hits > hits
    assert _snapshot(warm) == cold
    # A topology built by hand looks its layout up by value, through the
    # same cache, and gets the same instance.
    topo = warm.topology
    by_hand = Topology(topo.role.copy(), topo.cell.copy(), topo.x, topo.y,
                       topo.height.copy())
    assert by_hand.layout is not topo.layout
    again = _build_alone(cfg, seed, trial, by_hand)
    assert ({k: v for k, v in _snapshot(again).items()
             if not k.startswith("Topology.")}
            == {k: v for k, v in cold.items() if not k.startswith("Topology.")})


@FAST
@given(**LAYOUT_CASES, other_ues=st.integers(0, 6))
def test_layout_a_after_b_is_unchanged(seed, trial, num_ues, num_cells,
                                       num_iab, poisson, slot_mode, rb_max,
                                       rbs_per_ue, other_ues):
    a = _layout_config(num_ues, num_cells, num_iab, poisson, slot_mode,
                       rb_max, rbs_per_ue)
    b = a.replace(num_ues=other_ues, num_cells=3 - num_cells,
                  slot_mode="simultaneous", rb_max=16)
    _layout.cache_clear()
    first = _snapshot(build_instance(a, seed, trial))
    build_instance(b, seed, trial)
    assert _snapshot(build_instance(a, seed, trial)) == first


@FAST
@given(**LAYOUT_CASES)
def test_cached_layout_arrays_refuse_writes(seed, trial, num_ues, num_cells,
                                            num_iab, poisson, slot_mode,
                                            rb_max, rbs_per_ue):
    cfg = _layout_config(num_ues, num_cells, num_iab, poisson, slot_mode,
                         rb_max, rbs_per_ue)
    _layout.cache_clear()
    inst = build_instance(cfg, seed, trial)
    layout = inst.topology.layout
    infra = _layout(Deployment(Geometry.of(cfg), cfg.ue_height_m,
                               (0,) * num_cells))
    # Each builder has run: the UE placement's, the channel's, the
    # scheduler's and the instance's.
    assert len(layout._derived) == 6
    cached = _layout_arrays(layout) + _layout_arrays(infra)
    cached += [inst.lower, inst.upper, inst._ue_rows,
               plan_slots(inst.topology, slot_mode)]
    for array in cached:
        assert not array.flags.writeable
        if array.size:
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = array.flat[0]


@FAST
@given(**LAYOUT_CASES)
@example(seed=29, trial=0, num_ues=2, num_cells=2, num_iab=2, poisson=False,
         slot_mode="separated", rb_max=3, rbs_per_ue=2)
@example(seed=1, trial=0, num_ues=3, num_cells=2, num_iab=2, poisson=False,
         slot_mode="simultaneous", rb_max=2,
         rbs_per_ue=2)  # trial 1 has other relay-served UEs than trial 0
def test_trial_writes_do_not_reach_the_next_trial(seed, trial, num_ues,
                                                  num_cells, num_iab, poisson,
                                                  slot_mode, rb_max,
                                                  rbs_per_ue):
    # Fixed counts: every trial of the config has the same layout.
    cfg = _layout_config(num_ues, num_cells, num_iab, False, slot_mode,
                         rb_max, rbs_per_ue)
    _layout.cache_clear()
    expected = _snapshot(build_instance(cfg, seed, trial + 1))
    _layout.cache_clear()
    inst = build_instance(cfg, seed, trial)
    topo = inst.topology
    occ = allocate_rbs(inst.assoc[None], topo, cfg)[0]
    writable = [occ, *(value for owner in (inst, topo)
                       for value in vars(owner).values()
                       if isinstance(value, np.ndarray)
                       and value.flags.writeable)]
    assert any(a is inst.gamma_min for a in writable)
    for array in writable:
        array[...] = 7 if array.dtype != bool else ~array
    assert _snapshot(build_instance(cfg, seed, trial + 1)) == expected


STACK_CASES = dict(
    seed=seeds, trials=st.integers(1, 5), num_ues=st.integers(0, 5),
    num_cells=st.sampled_from((1, 2)), num_iab=st.integers(0, 3),
    poisson=st.booleans(), slot_mode=st.sampled_from(("separated",
                                                      "simultaneous")),
    rb_max=st.sampled_from((2, 3, 16)), rbs_per_ue=st.integers(1, 2))


@FAST
@given(**STACK_CASES)
@example(seed=1, trials=5, num_ues=1, num_cells=2, num_iab=2, poisson=True,
         slot_mode="separated", rb_max=3, rbs_per_ue=2)  # layouts repeat
@example(seed=2, trials=3, num_ues=0, num_cells=2, num_iab=2, poisson=True,
         slot_mode="simultaneous", rb_max=16, rbs_per_ue=1)  # counts of 0
@example(seed=3, trials=4, num_ues=5, num_cells=2, num_iab=3, poisson=False,
         slot_mode="simultaneous", rb_max=3, rbs_per_ue=2)  # RB wrap-around
@example(seed=4, trials=4, num_ues=4, num_cells=1, num_iab=0, poisson=False,
         slot_mode="separated", rb_max=2, rbs_per_ue=2)  # no relays, wraps
def test_stacked_build_matches_one_trial_builds(seed, trials, num_ues,
                                                num_cells, num_iab, poisson,
                                                slot_mode, rb_max, rbs_per_ue):
    cfg = _layout_config(num_ues, num_cells, num_iab, poisson, slot_mode,
                         rb_max, rbs_per_ue)
    one = {}
    for t in range(trials):
        inst = build_instance(cfg, seed, t)
        one[t] = (_snapshot(inst), inst.evaluate(inst.upper).tolist())
    # Blocks of one trial, of two (of the first trial's layout; others may
    # differ with Poisson counts) and of every trial of a layout.
    layout = build_instance(cfg, seed, 0).topology.layout
    per_trial = len(layout.tx) * max(len(layout.rx), cfg.rb_max)
    for budget in (1, 2 * per_trial, 10**9):
        with mock.patch.object(coverage, "_BLOCK_DOUBLES", budget):
            built = [(t, _snapshot(inst), inst.evaluate(inst.upper).tolist())
                     for block in build_trials(cfg, seed, range(trials))
                     for t, inst in block]
        assert sorted(t for t, _, _ in built) == list(range(trials))
        for t, snapshot, status in built:
            assert (snapshot, status) == one[t]


@FAST
@given(**STACK_CASES)
def test_stacked_trials_do_not_share_writes(seed, trials, num_ues, num_cells,
                                            num_iab, poisson, slot_mode,
                                            rb_max, rbs_per_ue):
    # Fixed counts: every trial is in one block.
    cfg = _layout_config(num_ues, num_cells, num_iab, False, slot_mode,
                         rb_max, rbs_per_ue)
    n = trials + 1
    expected = _snapshot(build_instance(cfg, seed, n - 1))
    [block] = build_trials(cfg, seed, range(n))
    block = dict(block)
    last = block.pop(n - 1)
    for inst in block.values():
        assert inst.gamma_min.base is last.gamma_min.base  # one block
        writable = [value for owner in (inst, inst.topology)
                    for value in vars(owner).values()
                    if isinstance(value, np.ndarray) and value.flags.writeable]
        assert any(a is inst.gamma_min for a in writable)
        for array in writable:
            array[...] = 7 if array.dtype != bool else ~array
    assert _snapshot(last) == expected



@FAST
@given(seed=seeds, trials=st.integers(1, 6), num_ues=st.integers(0, 6),
       num_cells=st.sampled_from((1, 2)), num_iab=st.integers(0, 2),
       counts=st.sampled_from(("fixed", "poisson", "positions")))
@example(seed=1, trials=6, num_ues=1, num_cells=2, num_iab=1,
         counts="poisson")  # counts of 0, layouts repeat
@example(seed=2, trials=3, num_ues=3, num_cells=2, num_iab=2,
         counts="positions")
@example(seed=3, trials=5, num_ues=6, num_cells=1, num_iab=0,
         counts="fixed")
def test_stacked_placement_matches_one_trial_placement(seed, trials, num_ues,
                                                       num_cells, num_iab,
                                                       counts):
    positions = None
    if counts == "positions":
        positions = ((12.5, -3.0), (-40.0, 7.25), (0.0, 0.0), (3.0, 150.0),
                     (-0.5, -0.25), (99.0, 1.0))[:num_ues]
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab,
                         ue_count_poisson=counts == "poisson",
                         ue_positions=positions, trials=1)
    # Each trial draws from its own stream; the trials of equal counts are
    # placed as one stack, and each alone as a stack of one.
    draws = [draw_ues(cfg, derive_rng(seed, t, "ue-positions"))
             for t in range(trials)]
    groups: dict = {}
    for t, (ue_counts, _) in enumerate(draws):
        groups.setdefault(ue_counts, []).append(t)
    for ue_counts, members in groups.items():
        layout = deployment_layout(cfg, ue_counts)
        stack = build_topology(cfg, layout, [draws[t][1] for t in members])
        assert stack.x.shape == stack.y.shape == (len(members),
                                                  len(layout.role))
        for i, t in enumerate(members):
            alone = build_topology(cfg, layout, [draws[t][1]])
            topo = stack.trial(i)
            for name in ("x", "y"):
                expected = getattr(alone, name)[0].tobytes()
                assert getattr(stack, name)[i].tobytes() == expected
                assert getattr(topo, name).tobytes() == expected
            assert topo.layout is layout


@FAST
@given(seed=seeds, num_ues=st.integers(0, 8),
       num_cells=st.sampled_from((1, 2)), num_iab=st.integers(0, 2),
       poisson=st.booleans(), rb_max=st.sampled_from((2, 16)),
       slot_mode=st.sampled_from(("separated", "simultaneous")),
       rates=st.lists(st.sampled_from((64e3, 5e6, 20e6, 80e6, 2e8)),
                      min_size=2, max_size=2, unique=True))
def test_raising_the_rate_never_raises_a_trials_coverage(seed, num_ues,
                                                         num_cells, num_iab,
                                                         poisson, rb_max,
                                                         slot_mode, rates):
    # The rate changes no draw, only the thresholds: at max power, each
    # trial's coverage at the higher rate is at most that at the lower.
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab, ue_count_poisson=poisson,
                         rb_max=rb_max, slot_mode=slot_mode, trials=1)
    low, high = sorted(rates)
    [at_low], [at_high] = (
        monte_carlo_coverage(cfg.replace(min_rate_bps=rate), ["max"], 3, seed)
        for rate in (low, high))
    assert np.all(at_high.per_trial <= at_low.per_trial)

@FAST
@given(seed=seeds, num_ues=st.integers(0, 8), num_iab=st.integers(0, 3),
       rate=st.sampled_from((64e3, 5e6, 20e6, 80e6, 2e8)))
@example(seed=1, num_ues=8, num_iab=3, rate=80e6)
def test_more_power_never_hurts_without_interference(seed, num_ues, num_iab,
                                                     rate):
    # One cell, access and backhaul in separate slots, and a grid wide
    # enough that no two UEs' RB blocks meet: no link interferes with
    # another, so a link's SINR rises with its own power only, and a UE
    # covered under any powers is covered at the upper bounds.
    per_ue = 2
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=1,
                         num_iab_per_cell=num_iab, slot_mode="separated",
                         rbs_per_ue=per_ue, rb_max=per_ue * max(num_ues, 1),
                         min_rate_bps=rate, trials=1)
    inst = build_instance(cfg, seed, 0)
    assert not inst.interf_lin.any()
    at_upper = inst.evaluate(inst.upper)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        status = inst.evaluate(rng.uniform(inst.lower, inst.upper))
        assert np.all(at_upper[status == 0] == 0)


@FAST
@given(grid=st.integers(1, 40), data=st.data())
def test_block_overlap_counts_the_rbs_two_blocks_share(grid, data):
    # A UE's block is ``per_ue`` RBs from its first, wrapping at the grid.
    per_ue = data.draw(st.integers(1, grid))
    table = _block_overlap(per_ue, grid)
    blocks = [{(first + k) % grid for k in range(per_ue)}
              for first in range(grid)]
    assert table[:grid, :grid].tolist() == [[len(a & b) for b in blocks]
                                            for a in blocks]
    assert np.isnan(table[grid]).all() and np.isnan(table[:, grid]).all()


# n_ue = 0 is an example: drawn, it would crowd out the rest.
BOUND_CASES = dict(
    seed=seeds, trial=st.integers(0, 3), num_ues=st.integers(1, 7),
    num_cells=st.sampled_from((1, 2)), num_iab=st.integers(0, 4),
    slot_mode=st.sampled_from(("separated", "simultaneous")),
    rb_max=st.sampled_from((2, 3, 16)),
    min_rate=st.sampled_from((64e3, 5e6, 20e6, 80e6)))


def _bound_examples(test):
    """The edge cases every bound property runs: no UE, no gene, and
    relays with no children."""
    for case in (
            dict(seed=5, trial=0, num_ues=0, num_cells=2, num_iab=2,
                 slot_mode="separated", rb_max=16, min_rate=5e6),  # n_ue = 0
            dict(seed=1, trial=0, num_ues=0, num_cells=1, num_iab=0,
                 slot_mode="separated", rb_max=16, min_rate=5e6),  # J = 0
            dict(seed=6, trial=1, num_ues=2, num_cells=2, num_iab=4,
                 slot_mode="separated", rb_max=3, min_rate=5e6),  # childless
            dict(seed=3, trial=0, num_ues=7, num_cells=1, num_iab=2,
                 slot_mode="simultaneous", rb_max=3, min_rate=20e6)):
        test = example(**case)(test)
    return test


def _bound_instance(seed, trial, num_ues, num_cells, num_iab, slot_mode,
                    rb_max, min_rate):
    return build_instance(ScenarioConfig(
        num_ues=num_ues, num_cells=num_cells, num_iab_per_cell=num_iab,
        slot_mode=slot_mode, rb_max=rb_max, min_rate_bps=min_rate, trials=1),
        seed, trial)


def _served(inst, eirp_dbm):
    """How many UEs one EIRP vector covers, and its total power in mW."""
    return (int(np.count_nonzero(inst.evaluate(eirp_dbm) == 0)),
            float(to_mw(eirp_dbm).sum()))


@FAST
@given(**BOUND_CASES)
@_bound_examples
def test_no_powers_score_above_the_ceiling(seed, trial, num_ues, num_cells,
                                           num_iab, slot_mode, rb_max,
                                           min_rate):
    # The floor is what `lower` covers; no random vector, batch row, GA
    # queen or the max-power vector covers more UEs than the ceiling; and
    # where the floor reaches the ceiling, no queen of a full search beats
    # `lower` on (coverage, -total mW), and the GA policy returns `lower`.
    inst = _bound_instance(seed, trial, num_ues, num_cells, num_iab,
                           slot_mode, rb_max, min_rate)
    floor, ceiling = inst.coverage_bounds()
    assert 0 <= floor <= ceiling <= inst.n_ue
    assert _served(inst, inst.lower)[0] == floor
    rng = np.random.default_rng(seed)
    vectors = [inst.upper, *rng.uniform(inst.lower, inst.upper, (6,
                                        inst.lower.size))]
    cfg = ScenarioConfig(ga_iterations=12, ga_population=6,
                         ga_neighborhood=2, trials=1)
    queen = ga.optimize(inst, ga.GaParams.from_config(cfg),
                        derive_rng(seed, trial, "policy")).queen
    for values in [*vectors, queen]:
        assert _served(inst, values)[0] <= ceiling
    batch = inst.batch_coverage(to_mw(np.array(vectors)))
    assert np.all(batch <= (ceiling / inst.n_ue if inst.n_ue else 1.0))
    [chosen] = make_policy("ga", cfg)([inst],
                                      [derive_rng(seed, trial, "policy")])
    if floor == ceiling:
        served, total = _served(inst, queen)
        assert (served, -total) <= (floor, -_served(inst, inst.lower)[1])
        assert np.array_equal(chosen, inst.lower)
    else:
        assert np.array_equal(chosen, queen)


@FAST
@given(**BOUND_CASES)
@_bound_examples
def test_ceiling_pass_is_the_kernel_pass_with_one_gene_raised(
        seed, trial, num_ues, num_cells, num_iab, slot_mode, rb_max,
        min_rate):
    # Victim v passes at the ceiling exactly when the kernel passes it,
    # bit for bit, for the vector with gene v at `upper` and every other
    # gene at `lower`; the floor's passes are the kernel's at `lower`.
    inst = _bound_instance(seed, trial, num_ues, num_cells, num_iab,
                           slot_mode, rb_max, min_rate)
    masks = []
    ue_pass = ScenarioInstance._ue_pass

    def recorded(self, link_pass):
        masks.append(link_pass.copy())
        return ue_pass(self, link_pass)
    with mock.patch.object(ScenarioInstance, "_ue_pass", recorded):
        floor, ceiling = inst.coverage_bounds()
    floor_pass, ceiling_pass = masks
    lower, upper = inst.lower, inst.upper
    assert np.array_equal(floor_pass,
                          coverage._link_pass(inst, to_mw(lower[None])))
    raised = []
    for v in range(lower.size):
        row = lower.copy()
        row[v] = upper[v]
        raised.append(coverage._link_pass(inst, to_mw(row[None]))[0, v])
    assert ceiling_pass.tolist() == [raised]
    assert floor == int(np.count_nonzero(inst._ue_pass(floor_pass)))
    assert ceiling == int(np.count_nonzero(inst._ue_pass(ceiling_pass)))
