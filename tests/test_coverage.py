"""Coverage evaluation tests: micro-oracles, monotonicity, determinism."""

import functools
import math
from unittest import mock

import numpy as np
import pytest

import iabsim.topology as topology
from iabsim.config import ScenarioConfig
from iabsim.coverage import (build_instance, build_trials,
                             monte_carlo_coverage, run_trial)
from iabsim.policies import make_policy, max_power_policy
from iabsim.rng import trial_states
from iabsim.topology import DONOR, IAB
from oracle import (MissingLinkError, covered_share, evaluate_trial,
                    linear_mw, nodes_of, reference_allocate_rbs,
                    reference_associate, reference_evaluate,
                    reference_plan_slots, trial_channel)


def deterministic_config(**kw):
    base = dict(shadow_std_db=0.0, fading_enabled=False,
                rain_range_mm_h=(0.0, 0.0), trials=1, seed=9)
    base.update(kw)
    return ScenarioConfig(**base)


# Deterministic two-UE single-donor scenario used by several tests: UE at
# 50 m passes an 80 Mb/s demand, UE at 190 m fails it (no interference).
MICRO = deterministic_config(num_ues=2, num_cells=1, num_iab_per_cell=0,
                             ue_positions=((50.0, 0.0), (190.0, 0.0)),
                             min_rate_bps=80e6, power_policy="max")


def policy_state(seed, trial):
    """The state of trial ``trial``'s `policy` stream of ``seed``."""
    return trial_states(seed, [trial], ["policy"])[0, 0]


def eirp_of(inst, powers):
    """A {node_id: EIRP} mapping as the instance's gene-ordered array."""
    return np.array([powers[g] for g in inst.gene_ids])


def ue_servers(inst):
    """{UE id: serving station id}, read off the gene-indexed association."""
    rx_of = dict(zip(inst.gene_ids, inst.assoc.tolist()))
    return {u: rx_of[u] for u in inst.ue_ids}


def micro_oracle_coverage():
    """Independent hand evaluation of the MICRO scenario at max power."""
    covered = 0
    d_bp = 4 * 28e9 / 3e8
    noise_dbm = -174 + 10 * math.log10(2 * 12 * 120e3) + 5
    for d2 in (50.0, 190.0):
        d3 = math.sqrt(d2 ** 2 + 23.5 ** 2)
        loss = (32.4 + 40 * math.log10(d3) + 20 * math.log10(28.0)
                - 10 * math.log10(d_bp ** 2 + 23.5 ** 2))
        p_r = 43.0 + 25.0 - loss
        gamma = 10 ** ((p_r - noise_dbm) / 10)
        if gamma >= 2 ** (80e6 / 2.88e6) - 1:
            covered += 1
    return covered / 2


class TestEvaluateTrial:
    def test_overwhelming_sinr_full_coverage(self):
        cfg = deterministic_config(num_ues=4, min_rate_bps=64e3)
        inst = build_instance(cfg, seed=1, trial_index=0)
        status = inst.evaluate(inst.upper)
        assert status.tolist() == [0, 0, 0, 0]

    def test_no_ues_vacuous_coverage(self):
        cfg = deterministic_config(num_ues=0)
        inst = build_instance(cfg, seed=1, trial_index=0)
        assert inst.evaluate(inst.upper).shape == (0,)
        [outcome] = run_trial(inst, [max_power_policy], 0, policy_state(1, 0))
        assert outcome.coverage == 1.0
        assert outcome.status.shape == (0,)

    def test_backhaul_failure_marks_all_children(self):
        # Huge cell pushes the single relay 10 km from the donor; at minimum
        # relay power the backhaul cannot carry two 1 Mb/s children even
        # though both access links (UEs ~30 m from the relay) are clean.
        cfg = deterministic_config(
            num_ues=2, num_iab_per_cell=1, cell_radius_m=20_000.0,
            ue_positions=((9_970.0, 0.0), (10_030.0, 0.0)),
            min_rate_bps=1e6)
        inst = build_instance(cfg, seed=3, trial_index=0)
        [iab] = np.flatnonzero(inst.topology.role == IAB).tolist()
        assert all(bs == iab for bs in ue_servers(inst).values())
        powers = {u: 23.0 for u in inst.ue_ids}
        powers[iab] = 35.0
        assert inst.evaluate(eirp_of(inst, powers)).tolist() == [2, 2]
        # The same children are fine when the relay transmits at full power.
        powers[iab] = 53.0
        assert inst.evaluate(eirp_of(inst, powers)).tolist() == [0, 0]

    def test_donor_served_never_backhaul_fail(self):
        cfg = ScenarioConfig(num_ues=30, num_cells=2, min_rate_bps=1e6,
                             rb_max=16, trials=1)
        for trial in range(5):
            inst = build_instance(cfg, seed=5, trial_index=trial)
            status = inst.evaluate(inst.upper)
            servers = ue_servers(inst)
            for ue_id, code in zip(inst.ue_ids, status.tolist()):
                if inst.topology.role[servers[ue_id]] == DONOR:
                    assert code != 2

    def test_coverage_equals_mean_indicator(self):
        cfg = ScenarioConfig(num_ues=25, num_cells=2, rb_max=16,
                             min_rate_bps=1e6, trials=1)
        [outcome] = run_trial(build_instance(cfg, seed=8, trial_index=0),
                              [max_power_policy], 0, policy_state(8, 0))
        indicator = [1 if code == 0 else 0 for code in outcome.status]
        assert outcome.coverage == pytest.approx(np.mean(indicator))
        assert 0.0 <= outcome.coverage <= 1.0

    def test_missing_realization_entry_raises(self):
        cfg = deterministic_config(num_ues=2)
        inst = build_instance(cfg, seed=1, trial_index=0)
        # Drop the first UE's row: its access link is then never sampled.
        full = trial_channel(cfg, 1, 0, inst.topology)
        keep = full.tx_ids != inst.ue_ids[0]
        from iabsim.channel import ChannelRealization
        real = ChannelRealization(
            tx_ids=full.tx_ids[keep], rx_ids=full.rx_ids,
            **{name: getattr(full, name)[keep] for name in
               ("d3d_m", "pathloss_db", "shadowing_db", "fading_db", "rain_db")},
            rain_rate_mm_h=0.0, rx_gain_db=full.rx_gain_db)
        nodes = nodes_of(inst.topology)
        assoc = reference_associate(nodes, full)
        alloc = reference_allocate_rbs(assoc, nodes, cfg)
        slot_plan = reference_plan_slots(nodes, cfg.slot_mode)
        with pytest.raises(MissingLinkError):
            evaluate_trial(nodes, assoc, alloc, slot_plan,
                           dict(zip(inst.gene_ids, inst.upper)), real, cfg)

    def test_raising_rate_never_helps(self):
        cfg = ScenarioConfig(num_ues=20, num_cells=2, rb_max=16, trials=1)
        inst = build_instance(cfg, seed=4, trial_index=0)
        powers = inst.upper
        prev = 1.1
        for rate in (64e3, 5e5, 1e6, 5e6, 2e7):
            cfg_r = cfg.replace(min_rate_bps=rate)
            inst_r = build_instance(cfg_r, seed=4, trial_index=0)
            cov = covered_share(inst_r.evaluate(powers))
            assert cov <= prev + 1e-12
            prev = cov

    def test_more_power_never_hurts_without_interference(self):
        cfg = deterministic_config(num_ues=1, num_iab_per_cell=0,
                                   ue_positions=((185.0, 0.0),),
                                   min_rate_bps=60e6)
        inst = build_instance(cfg, seed=1, trial_index=0)
        ue_id = inst.ue_ids[0]
        statuses = []
        for eirp in np.linspace(23.0, 43.0, 41):
            status = inst.evaluate(eirp_of(inst, {ue_id: float(eirp)}))
            statuses.append(status[inst.ue_ids.index(ue_id)] == 0)
        # Once covered, stays covered as power rises.
        first = statuses.index(True) if True in statuses else len(statuses)
        assert all(statuses[first:])


class TestFastPathAgreement:
    def test_batch_matches_readable_path(self):
        cfg = ScenarioConfig(num_ues=15, num_cells=2, rb_max=16,
                             min_rate_bps=1e6, slot_mode="simultaneous",
                             trials=1)
        inst = build_instance(cfg, seed=6, trial_index=0)
        real = trial_channel(cfg, 6, 0, inst.topology)
        rng = np.random.default_rng(0)
        for _ in range(20):
            vec = rng.uniform(inst.lower, inst.upper)
            fast = inst.batch_coverage(linear_mw(vec[None, :]))[0]
            slow = covered_share(reference_evaluate(inst, vec, real))
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_backhaul_failure_beside_donor_served_ues(self):
        # One relay 10 km out with two children, plus two UEs near the
        # donor: a failing backhaul must fail only the relay's children.
        cfg = deterministic_config(
            num_ues=4, num_iab_per_cell=1, cell_radius_m=20_000.0,
            ue_positions=((9_970.0, 0.0), (10_030.0, 0.0), (30.0, 0.0),
                          (0.0, -60.0)),
            min_rate_bps=1e6)
        inst = build_instance(cfg, seed=3, trial_index=0)
        real = trial_channel(cfg, 3, 0, inst.topology)
        [iab_id] = np.flatnonzero(inst.topology.role == IAB).tolist()
        iab_gene = inst.gene_ids.index(iab_id)
        rng = np.random.default_rng(4)
        mat = rng.uniform(inst.lower, inst.upper, size=(40, len(inst.gene_ids)))
        mat[:20, iab_gene] = np.linspace(35.0, 53.0, 20)
        batch = inst.batch_coverage(linear_mw(mat))
        statuses = []
        for row, fast in zip(mat, batch):
            status = reference_evaluate(inst, row, real)
            assert fast == pytest.approx(covered_share(status), abs=1e-12)
            statuses.append(dict(zip(inst.ue_ids, status.tolist())))
        servers = ue_servers(inst)
        assert sum(bs != iab_id for bs in servers.values()) == 2
        failed = [st for st in statuses if 2 in st.values()]
        assert failed, "no tested vector made the backhaul fail"
        for st in failed:
            for ue, code in st.items():
                if servers[ue] != iab_id:
                    assert code != 2

    def test_batch_rows_independent(self):
        cfg = ScenarioConfig(num_ues=8, num_cells=1, rb_max=8,
                             min_rate_bps=1e6, trials=1)
        inst = build_instance(cfg, seed=2, trial_index=0)
        rng = np.random.default_rng(1)
        mat = linear_mw(rng.uniform(inst.lower, inst.upper,
                                    size=(6, len(inst.gene_ids))))
        batch = inst.batch_coverage(mat)
        singles = [inst.batch_coverage(row[None, :])[0] for row in mat]
        assert np.allclose(batch, singles, atol=0)


class TestMonteCarlo:
    def test_single_trial_equals_evaluate(self):
        cfg = deterministic_config(num_ues=5, power_policy="max")
        [res] = monte_carlo_coverage(cfg, ["max"], trials=1, seed=31)
        inst = build_instance(cfg, seed=31, trial_index=0)
        direct = covered_share(inst.evaluate(inst.upper))
        assert res.mean_coverage == direct

    def test_determinism(self):
        cfg = ScenarioConfig(num_ues=10, num_cells=2, rb_max=16,
                             min_rate_bps=1e6, trials=1)
        [a] = monte_carlo_coverage(cfg, ["random"], trials=8, seed=12)
        [b] = monte_carlo_coverage(cfg, ["random"], trials=8, seed=12)
        assert np.array_equal(a.per_trial, b.per_trial)

    def test_trial_order_does_not_change_results(self):
        cfg = ScenarioConfig(num_ues=12, num_cells=2, rb_max=16,
                             min_rate_bps=1e6, trials=1)
        [in_order] = monte_carlo_coverage(cfg, ["random"], trials=10, seed=2)
        policy = make_policy("random", cfg)
        reversed_order = [run_trial(build_instance(cfg, 2, t), [policy], t,
                                    policy_state(2, t))[0]
                          for t in reversed(range(10))][::-1]
        assert np.array_equal(in_order.per_trial,
                              [o.coverage for o in reversed_order])
        for a, b in zip(in_order.outcomes, reversed_order):
            assert a.gene_ids == b.gene_ids
            assert np.array_equal(a.powers, b.powers)

    def test_stacked_order_does_not_depend_on_the_layout_cache(self):
        # Poisson counts of about one UE per cell repeat layouts across the
        # trials. With a layout cache of one entry a repeated layout is
        # evicted and rebuilt in between; `build_trials` must group and
        # order the trials by the layouts' values all the same, so that two
        # runs over the same draws yield the trials in the same order.
        cfg = ScenarioConfig(num_ues=1, num_cells=2, rb_max=16,
                             min_rate_bps=1e6, trials=1,
                             ue_count_poisson=True)
        cached = [t for t, _ in build_trials(cfg, 4, range(16))]
        one_entry = functools.lru_cache(maxsize=1)(
            topology._layout.__wrapped__)
        with mock.patch.object(topology, "_layout", one_entry):
            evicted = [t for t, _ in build_trials(cfg, 4, range(16))]
        assert one_entry.cache_info().misses > len(set(
            build_instance(cfg, 4, t).topology.layout.key
            for t in range(16)))
        assert evicted == cached
        assert cached != sorted(cached)  # the trials are grouped

    def test_micro_oracle_exact(self):
        [res] = monte_carlo_coverage(MICRO, ["max"], trials=4, seed=9)
        assert micro_oracle_coverage() == 0.5
        assert res.mean_coverage == 0.5
        assert np.array_equal(res.per_trial, [0.5, 0.5, 0.5, 0.5])
        # The near UE has the lower id: covered, then access failure.
        assert res.outcomes[0].status.tolist() == [0, 1]

    def test_estimator_consistency(self):
        cfg = ScenarioConfig(num_ues=10, num_cells=1, rb_max=8,
                             min_rate_bps=1e6, trials=1)
        [small] = monte_carlo_coverage(cfg, ["max"], trials=200, seed=40)
        [big] = monte_carlo_coverage(cfg, ["max"], trials=800, seed=40)
        se = small.per_trial.std(ddof=1) / math.sqrt(small.per_trial.size)
        assert abs(big.mean_coverage - small.mean_coverage) < 3 * se

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_coverage(MICRO, ["max"], trials=0, seed=1)
