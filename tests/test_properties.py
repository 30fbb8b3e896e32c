"""Property tests: the array channel and the batched status kernel against
their scalar and per-link references, over random small scenarios."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from iabsim.channel import (ChannelParams, pathloss_uma, sample_fading,
                            sample_realization, sample_shadowing)
from iabsim.config import ScenarioConfig
from iabsim.coverage import PowerVector, build_instance
from iabsim.rng import derive_rng
from iabsim.topology import build_topology, distance_3d

# Small and deterministic, so Tier-1 stays within a few seconds.
FAST = settings(max_examples=30, deadline=None, derandomize=True)

seeds = st.integers(0, 2**31 - 1)


@FAST
@given(seed=seeds, num_ues=st.integers(0, 6), num_cells=st.sampled_from((1, 2)),
       num_iab=st.integers(0, 3), fading=st.booleans(),
       shadow_std=st.sampled_from((0.0, 4.0, 8.0)))
def test_realization_matches_scalar_draws(seed, num_ues, num_cells, num_iab,
                                          fading, shadow_std):
    cfg = ScenarioConfig(num_ues=num_ues, num_cells=num_cells,
                         num_iab_per_cell=num_iab)
    params = ChannelParams(shadow_std_db=shadow_std)
    topo = build_topology(cfg, derive_rng(seed, "topo"))
    real = sample_realization(
        topo, params, 12.0, derive_rng(seed, "shadow"),
        derive_rng(seed, "fade") if fading else None)
    shadow_rng, fade_rng = derive_rng(seed, "shadow"), derive_rng(seed, "fade")
    n = 0
    for tx in sorted(topo.transmitters, key=lambda node: node.id):
        for rx in sorted(topo.receivers, key=lambda node: node.id):
            if tx.id == rx.id:
                continue
            n += 1
            link = real.link(tx.id, rx.id)
            # Same stream, same (tx, rx) order: bit-identical shadowing.
            assert link.shadowing_db == float(sample_shadowing(shadow_rng, params))
            expected_fade = float(sample_fading(fade_rng)) if fading else 0.0
            assert abs(link.fading_db - expected_fade) <= 1e-12
            d3d = distance_3d(tx, rx)
            assert math.isclose(link.d3d_m, d3d, rel_tol=1e-15)
            assert math.isclose(
                link.pathloss_db,
                float(pathloss_uma(d3d, rx.height, tx.height, params)),
                rel_tol=1e-14)
    assert len(real.links) == n == len(list(real.links))


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
    rng = np.random.default_rng(seed)
    vectors = [inst.upper, inst.lower, rng.uniform(inst.lower, inst.upper)]
    for values in vectors:
        powers = PowerVector.from_array(inst.gene_ids, values)
        fast, reference = inst.score(powers), inst.evaluate(powers)
        assert fast.per_ue == reference.per_ue
        assert fast.coverage_probability == reference.coverage_probability
        assert inst.batch_coverage(values)[0] == reference.coverage_probability
