"""Association, RB packing, and slot-plan tests on the gene-indexed arrays."""

import numpy as np
import pytest

from iabsim.channel import pathloss_uma
from iabsim.config import ScenarioConfig
from iabsim.rng import derive_rng
from iabsim.scheduler import allocate_rbs, associate, plan_slots
from iabsim.topology import DONOR, IAB, UE, Topology
from oracle import distance_3d, nodes_of, one_trial_channel, one_trial_topology


def bare_topology(ue_positions, iab_positions=()):
    """One cell: donor at origin (id 0), then the IAB nodes, then the UEs."""
    sizes = [1, len(iab_positions), len(ue_positions)]
    xy = np.array([(0.0, 0.0), *iab_positions, *ue_positions]).reshape(-1, 2)
    return Topology(role=np.repeat([DONOR, IAB, UE], sizes),
                    cell=np.zeros(sum(sizes), dtype=int),
                    x=xy[:, 0], y=xy[:, 1],
                    height=np.repeat([25.0, 22.0, 1.5], sizes))


def pathloss_losses(topo):
    """Long-term losses equal to pathloss, as a (transmitter, receiver)
    array; self pairs hold NaN, as in a channel realization."""
    config = ScenarioConfig()
    nodes = nodes_of(topo)
    return np.array([[np.nan if tx == bs else
                      pathloss_uma(distance_3d(nodes[tx], nodes[bs]),
                                   nodes[bs].height, nodes[tx].height, config)
                      for bs in topo.rx.tolist()] for tx in topo.tx.tolist()])


def tx_positions(topo):
    """(x, y) of each transmitter row."""
    return list(zip(topo.x[topo.tx].tolist(), topo.y[topo.tx].tolist()))


def rb_set(row):
    """The RB indices an occupancy row holds."""
    return frozenset(np.flatnonzero(row).tolist())


class TestAssociate:
    def test_single_ue_single_donor(self):
        topo = bare_topology([(50.0, 0.0)])
        assoc = associate(topo, pathloss_losses(topo)[None])[0]
        assert assoc.tolist() == [0]

    def test_prefers_nearby_iab(self):
        # UE 10 m from an IAB node and 150 m from the donor; pathloss is
        # strictly increasing in distance, so the IAB must win.
        topo = bare_topology([(140.0, 0.0)], iab_positions=[(150.0, 0.0)])
        assoc = associate(topo, pathloss_losses(topo)[None])[0]
        assert assoc.tolist() == [0, 1]  # IAB 1 -> donor, UE 2 -> IAB 1

    def test_constant_offset_invariance(self):
        topo = bare_topology([(60.0, 10.0), (150.0, -40.0)],
                             iab_positions=[(100.0, 0.0), (-100.0, 0.0)])
        base = pathloss_losses(topo)
        shifted = base + 17.5
        assert np.array_equal(associate(topo, base[None]),
                              associate(topo, shifted[None]))

    def test_label_permutation_keeps_geometric_server(self):
        positions = [(30.0, 5.0), (120.0, 60.0), (-80.0, -90.0)]
        iabs = [(100.0, 0.0), (0.0, 100.0)]
        topo_a = bare_topology(positions, iab_positions=iabs)
        topo_b = bare_topology(list(reversed(positions)), iab_positions=iabs)
        assoc_a = associate(topo_a, pathloss_losses(topo_a)[None])[0]
        assoc_b = associate(topo_b, pathloss_losses(topo_b)[None])[0]
        servers_a = dict(zip(tx_positions(topo_a), assoc_a.tolist()))
        servers_b = dict(zip(tx_positions(topo_b), assoc_b.tolist()))
        assert servers_a == servers_b

    def test_tie_breaks_to_lowest_id(self):
        topo = bare_topology([(0.0, 50.0)],
                             iab_positions=[(50.0, 0.0), (-50.0, 0.0)])
        # Rows: IAB 1, IAB 2, UE 3; columns: stations 0, 1, 2.
        losses = np.array([[80.0, np.nan, 80.0],
                           [80.0, 80.0, np.nan],
                           [90.0, 80.0, 80.0]])
        assoc = associate(topo, losses[None])[0]
        assert assoc[2] == 1

    def test_losses_without_a_trial_axis_rejected(self):
        topo = bare_topology([(50.0, 0.0)], iab_positions=[(100.0, 0.0)])
        with pytest.raises(ValueError, match=r"expected \(trials, 2, 2\)"):
            associate(topo, pathloss_losses(topo))

    def test_every_iab_maps_to_its_donor(self):
        cfg = ScenarioConfig(num_cells=2, num_ues=4, trials=1)
        topo = one_trial_topology(cfg, derive_rng(3))
        real = one_trial_channel(topo, ScenarioConfig(), 16.0,
                                 derive_rng(3, "s"), None)
        assoc = associate(topo, real.long_term_loss_db[None])[0]
        iab = topo.role[topo.tx] == IAB
        assert np.all(topo.role[assoc[iab]] == DONOR)
        # servers always live in the transmitter's own cell
        assert np.array_equal(topo.cell[assoc], topo.cell[topo.tx])


def simple_assoc(topo, server=0):
    """Every UE served by ``server``, every IAB node by donor 0."""
    return np.where(topo.role[topo.tx] == UE, server, 0)


class TestAllocateRbs:
    def config(self, **kw):
        base = dict(trials=1)
        base.update(kw)
        return ScenarioConfig(**base)

    def test_consecutive_blocks(self):
        topo = bare_topology([(10.0, 0.0), (20.0, 0.0), (30.0, 0.0)])
        alloc = allocate_rbs(simple_assoc(topo)[None], topo, self.config())[0]
        assert alloc.shape == (3, 270) and alloc.dtype == bool
        assert rb_set(alloc[0]) == {0, 1}
        assert rb_set(alloc[1]) == {2, 3}
        assert rb_set(alloc[2]) == {4, 5}

    def test_wrap_after_grid_exhausted(self):
        positions = [(float(i % 40), float(i // 40)) for i in range(136)]
        topo = bare_topology(positions)
        cfg = self.config(num_ues=136)
        alloc = allocate_rbs(simple_assoc(topo)[None], topo, cfg)[0]
        assert rb_set(alloc[135]) == {0, 1}
        assert rb_set(alloc[135]) == rb_set(alloc[0])

    def test_disjoint_until_exhausted(self):
        positions = [(float(i), 0.0) for i in range(60)]
        topo = bare_topology(positions)
        alloc = allocate_rbs(simple_assoc(topo)[None], topo, self.config())[0]
        seen = set()
        for row in alloc:
            rbs = rb_set(row)
            assert not (seen & rbs)
            seen |= rbs

    def test_backhaul_union(self):
        topo = bare_topology([(95.0, 0.0), (105.0, 0.0)],
                             iab_positions=[(100.0, 0.0)])
        assoc = np.array([0, 1, 1])  # IAB 1 -> donor; UEs 2, 3 -> IAB 1
        alloc = allocate_rbs(assoc[None], topo, self.config())[0]
        assert rb_set(alloc[0]) == {0, 1, 2, 3}

    def test_childless_iab_empty_union(self):
        topo = bare_topology([(10.0, 0.0)], iab_positions=[(100.0, 0.0)])
        assoc = np.array([0, 0])  # IAB 1 and UE 2 both -> donor
        alloc = allocate_rbs(assoc[None], topo, self.config())[0]
        assert rb_set(alloc[0]) == frozenset()

    def test_rejects_oversized_demand(self):
        topo = bare_topology([(10.0, 0.0)])
        with pytest.raises(ValueError):
            allocate_rbs(simple_assoc(topo)[None], topo,
                         self.config(rbs_per_ue=271, bw_mhz=500.0))

    def test_both_cells_share_the_grid(self):
        cfg = self.config(num_cells=2, num_ues=3)
        topo = one_trial_topology(cfg, derive_rng(4))
        real = one_trial_channel(topo, ScenarioConfig(), 16.0,
                                 derive_rng(4, "s"), None)
        assoc = associate(topo, real.long_term_loss_db[None])
        alloc = allocate_rbs(assoc, topo, cfg)[0]
        for cell in (0, 1):
            first = np.flatnonzero((topo.role[topo.tx] == UE)
                                   & (topo.cell[topo.tx] == cell))[0]
            assert rb_set(alloc[first]) == {0, 1}


class TestPlanSlots:
    def test_separated_two_slots(self):
        cfg = ScenarioConfig(num_ues=5, trials=1)
        topo = one_trial_topology(cfg, derive_rng(6))
        slots = plan_slots(topo, "separated")
        assert slots.shape == (9,)
        assert np.bincount(slots).tolist() == [5, 4]

    def test_simultaneous_single_slot(self):
        cfg = ScenarioConfig(num_ues=5, trials=1)
        topo = one_trial_topology(cfg, derive_rng(6))
        slots = plan_slots(topo, "simultaneous")
        assert np.bincount(slots).tolist() == [9]

    def test_no_iabs_modes_equivalent(self):
        cfg = ScenarioConfig(num_ues=4, num_iab_per_cell=0, trials=1)
        topo = one_trial_topology(cfg, derive_rng(6))
        sep = plan_slots(topo, "separated")
        sim = plan_slots(topo, "simultaneous")
        assert np.array_equal(sep, sim)

    def test_separated_never_mixes_roles(self):
        cfg = ScenarioConfig(num_ues=8, num_cells=2, trials=1)
        topo = one_trial_topology(cfg, derive_rng(6))
        slots = plan_slots(topo, "separated")
        is_ue = topo.role[topo.tx] == UE
        for slot in np.unique(slots):
            assert len(set(is_ue[slots == slot].tolist())) == 1

    def test_unknown_mode_raises(self):
        cfg = ScenarioConfig(num_ues=2, trials=1)
        topo = one_trial_topology(cfg, derive_rng(6))
        with pytest.raises(ValueError, match="interleaved"):
            plan_slots(topo, "interleaved")
