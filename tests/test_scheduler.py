"""Association, RB packing, and slot-plan tests."""

import numpy as np
import pytest

from iabsim.channel import ChannelParams, pathloss_uma, sample_realization
from iabsim.config import ScenarioConfig
from iabsim.rng import derive_rng
from iabsim.scheduler import (Association, SlotMode, allocate_rbs, associate,
                              plan_slots)
from iabsim.topology import (NetworkNode, NodeRole, Topology, build_topology,
                             distance_3d)


def bare_topology(ue_positions, iab_positions=(), radius=200.0):
    """One cell: donor at origin plus explicit IAB/UE placements."""
    nodes = [NetworkNode(0, NodeRole.DONOR, 0, 0.0, 0.0, 25.0)]
    for i, (x, y) in enumerate(iab_positions):
        nodes.append(NetworkNode(1 + i, NodeRole.IAB, 0, x, y, 22.0))
    base = 1 + len(iab_positions)
    for i, (x, y) in enumerate(ue_positions):
        nodes.append(NetworkNode(base + i, NodeRole.UE, 0, x, y, 1.5))
    return Topology(nodes=tuple(nodes), cells=((0, radius),))


def pathloss_losses(topo):
    """Long-term losses equal to pathloss, as a (UE, receiver) array."""
    params = ChannelParams()
    ues = sorted(topo.ues, key=lambda n: n.id)
    rxs = sorted(topo.receivers, key=lambda n: n.id)
    return np.array([[pathloss_uma(distance_3d(ue, bs), bs.height, ue.height,
                                   params) for bs in rxs] for ue in ues])


def realization_losses(real, topo):
    """The (UE, receiver) long-term losses of a sampled realization."""
    ue_rows = np.isin(real.tx_ids, [u.id for u in topo.ues])
    return real.long_term_loss_db[ue_rows]


class TestAssociate:
    def test_single_ue_single_donor(self):
        topo = bare_topology([(50.0, 0.0)])
        assoc = associate(topo, pathloss_losses(topo))
        assert assoc.ue_to_bs == {1: 0}

    def test_prefers_nearby_iab(self):
        # UE 10 m from an IAB node and 150 m from the donor; pathloss is
        # strictly increasing in distance, so the IAB must win.
        topo = bare_topology([(140.0, 0.0)], iab_positions=[(150.0, 0.0)])
        assoc = associate(topo, pathloss_losses(topo))
        assert assoc.ue_to_bs == {2: 1}

    def test_constant_offset_invariance(self):
        topo = bare_topology([(60.0, 10.0), (150.0, -40.0)],
                             iab_positions=[(100.0, 0.0), (-100.0, 0.0)])
        base = pathloss_losses(topo)
        shifted = base + 17.5
        assert associate(topo, base) == associate(topo, shifted)

    def test_label_permutation_keeps_geometric_server(self):
        positions = [(30.0, 5.0), (120.0, 60.0), (-80.0, -90.0)]
        iabs = [(100.0, 0.0), (0.0, 100.0)]
        topo_a = bare_topology(positions, iab_positions=iabs)
        topo_b = bare_topology(list(reversed(positions)), iab_positions=iabs)
        assoc_a = associate(topo_a, pathloss_losses(topo_a))
        assoc_b = associate(topo_b, pathloss_losses(topo_b))
        servers_a = {(topo_a.node(u).x, topo_a.node(u).y): bs
                     for u, bs in assoc_a.ue_to_bs.items()}
        servers_b = {(topo_b.node(u).x, topo_b.node(u).y): bs
                     for u, bs in assoc_b.ue_to_bs.items()}
        assert servers_a == servers_b

    def test_tie_breaks_to_lowest_id(self):
        topo = bare_topology([(0.0, 50.0)],
                             iab_positions=[(50.0, 0.0), (-50.0, 0.0)])
        ue = topo.ues[0].id
        losses = np.array([[90.0, 80.0, 80.0]])  # stations 0, 1, 2
        assoc = associate(topo, losses)
        assert assoc.ue_to_bs[ue] == 1

    def test_every_iab_maps_to_its_donor(self):
        cfg = ScenarioConfig(num_cells=2, num_ues=4, trials=1)
        topo = build_topology(cfg, derive_rng(3))
        real = sample_realization(topo, ChannelParams(), 16.0,
                                  derive_rng(3, "s"), None)
        losses = realization_losses(real, topo)
        assoc = associate(topo, losses)
        for iab in topo.iab_nodes:
            assert assoc.iab_to_donor[iab.id] == topo.donor_of_cell(iab.cell_id).id
        # servers always live in the UE's own cell
        for ue in topo.ues:
            assert topo.node(assoc.ue_to_bs[ue.id]).cell_id == ue.cell_id


def simple_assoc(topo, server=0):
    return Association(ue_to_bs={u.id: server for u in topo.ues},
                       iab_to_donor={i.id: 0 for i in topo.iab_nodes})


class TestAllocateRbs:
    def config(self, **kw):
        base = dict(trials=1)
        base.update(kw)
        return ScenarioConfig(**base)

    def test_consecutive_blocks(self):
        topo = bare_topology([(10.0, 0.0), (20.0, 0.0), (30.0, 0.0)])
        alloc = allocate_rbs(simple_assoc(topo), topo, self.config())
        ids = sorted(u.id for u in topo.ues)
        assert alloc.ue_rbs[ids[0]] == frozenset({0, 1})
        assert alloc.ue_rbs[ids[1]] == frozenset({2, 3})
        assert alloc.ue_rbs[ids[2]] == frozenset({4, 5})

    def test_wrap_after_grid_exhausted(self):
        positions = [(float(i % 40), float(i // 40)) for i in range(136)]
        topo = bare_topology(positions)
        cfg = self.config(num_ues=136)
        alloc = allocate_rbs(simple_assoc(topo), topo, cfg)
        ids = sorted(u.id for u in topo.ues)
        assert alloc.ue_rbs[ids[135]] == frozenset({0, 1})
        assert alloc.ue_rbs[ids[135]] == alloc.ue_rbs[ids[0]]

    def test_disjoint_until_exhausted(self):
        positions = [(float(i), 0.0) for i in range(60)]
        topo = bare_topology(positions)
        alloc = allocate_rbs(simple_assoc(topo), topo, self.config())
        seen = set()
        for ue in topo.ues:
            rbs = alloc.ue_rbs[ue.id]
            assert not (seen & rbs)
            seen |= rbs

    def test_backhaul_union(self):
        topo = bare_topology([(95.0, 0.0), (105.0, 0.0)],
                             iab_positions=[(100.0, 0.0)])
        assoc = Association(ue_to_bs={2: 1, 3: 1}, iab_to_donor={1: 0})
        alloc = allocate_rbs(assoc, topo, self.config())
        assert alloc.backhaul_rbs[1] == frozenset({0, 1, 2, 3})

    def test_childless_iab_empty_union(self):
        topo = bare_topology([(10.0, 0.0)], iab_positions=[(100.0, 0.0)])
        assoc = Association(ue_to_bs={2: 0}, iab_to_donor={1: 0})
        alloc = allocate_rbs(assoc, topo, self.config())
        assert alloc.backhaul_rbs[1] == frozenset()

    def test_rejects_oversized_demand(self):
        topo = bare_topology([(10.0, 0.0)])
        with pytest.raises(ValueError):
            allocate_rbs(simple_assoc(topo), topo,
                         self.config(rbs_per_ue=271, bw_mhz=500.0))

    def test_min_grid_accounting(self):
        topo = bare_topology([(10.0, 0.0)])
        alloc = allocate_rbs(simple_assoc(topo), topo, self.config())
        assert alloc.scheduled_rbs_per_cell[0] == 24  # padded to the minimum

    def test_both_cells_share_the_grid(self):
        cfg = self.config(num_cells=2, num_ues=3)
        topo = build_topology(cfg, derive_rng(4))
        real = sample_realization(topo, ChannelParams(), 16.0,
                                  derive_rng(4, "s"), None)
        losses = realization_losses(real, topo)
        alloc = allocate_rbs(associate(topo, losses), topo, cfg)
        for cell in (0, 1):
            ids = sorted(u.id for u in topo.ues if u.cell_id == cell)
            assert alloc.ue_rbs[ids[0]] == frozenset({0, 1})


class TestPlanSlots:
    def test_separated_two_slots(self):
        cfg = ScenarioConfig(num_ues=5, trials=1)
        topo = build_topology(cfg, derive_rng(6))
        plan = plan_slots(simple_assoc(topo), topo, "separated")
        assert plan.mode is SlotMode.SEPARATED
        assert len(plan.slots) == 2
        assert len(plan.slots[0]) == 5
        assert len(plan.slots[1]) == 4

    def test_simultaneous_single_slot(self):
        cfg = ScenarioConfig(num_ues=5, trials=1)
        topo = build_topology(cfg, derive_rng(6))
        plan = plan_slots(simple_assoc(topo), topo, SlotMode.SIMULTANEOUS)
        assert len(plan.slots) == 1
        assert len(plan.slots[0]) == 9

    def test_no_iabs_modes_equivalent(self):
        cfg = ScenarioConfig(num_ues=4, num_iab_per_cell=0, trials=1)
        topo = build_topology(cfg, derive_rng(6))
        sep = plan_slots(simple_assoc(topo), topo, "separated")
        sim = plan_slots(simple_assoc(topo), topo, "simultaneous")
        assert sep.slots == sim.slots

    def test_separated_never_mixes_roles(self):
        cfg = ScenarioConfig(num_ues=8, num_cells=2, trials=1)
        topo = build_topology(cfg, derive_rng(6))
        plan = plan_slots(simple_assoc(topo), topo, "separated")
        ue_ids = {u.id for u in topo.ues}
        iab_ids = {i.id for i in topo.iab_nodes}
        for slot in plan.slots:
            assert not (slot & ue_ids and slot & iab_ids)

    def test_slot_of_unknown_raises(self):
        cfg = ScenarioConfig(num_ues=2, trials=1)
        topo = build_topology(cfg, derive_rng(6))
        plan = plan_slots(simple_assoc(topo), topo, "separated")
        with pytest.raises(KeyError):
            plan.slot_of(999)
