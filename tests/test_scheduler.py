"""Association, RB packing, and slot-plan tests on the gene-indexed arrays."""

import numpy as np
import pytest

from iabsim.channel import pathloss_uma, sample_realization
from iabsim.config import ScenarioConfig
from iabsim.rng import derive_rng
from iabsim.scheduler import allocate_rbs, associate, plan_slots
from iabsim.topology import NetworkNode, NodeRole, Topology, build_topology
from oracle import distance_3d


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
    """Long-term losses equal to pathloss, as a (transmitter, receiver)
    array; self pairs hold NaN, as in a channel realization."""
    config = ScenarioConfig()
    return np.array([[np.nan if tx.id == bs.id else
                      pathloss_uma(distance_3d(tx, bs), bs.height, tx.height,
                                   config)
                      for bs in topo.receivers] for tx in topo.transmitters])


def rb_set(row):
    """The RB indices an occupancy row holds."""
    return frozenset(np.flatnonzero(row).tolist())


class TestAssociate:
    def test_single_ue_single_donor(self):
        topo = bare_topology([(50.0, 0.0)])
        assoc = associate(topo, pathloss_losses(topo))
        assert assoc.tolist() == [0]

    def test_prefers_nearby_iab(self):
        # UE 10 m from an IAB node and 150 m from the donor; pathloss is
        # strictly increasing in distance, so the IAB must win.
        topo = bare_topology([(140.0, 0.0)], iab_positions=[(150.0, 0.0)])
        assoc = associate(topo, pathloss_losses(topo))
        assert assoc.tolist() == [0, 1]  # IAB 1 -> donor, UE 2 -> IAB 1

    def test_constant_offset_invariance(self):
        topo = bare_topology([(60.0, 10.0), (150.0, -40.0)],
                             iab_positions=[(100.0, 0.0), (-100.0, 0.0)])
        base = pathloss_losses(topo)
        shifted = base + 17.5
        assert np.array_equal(associate(topo, base), associate(topo, shifted))

    def test_label_permutation_keeps_geometric_server(self):
        positions = [(30.0, 5.0), (120.0, 60.0), (-80.0, -90.0)]
        iabs = [(100.0, 0.0), (0.0, 100.0)]
        topo_a = bare_topology(positions, iab_positions=iabs)
        topo_b = bare_topology(list(reversed(positions)), iab_positions=iabs)
        assoc_a = associate(topo_a, pathloss_losses(topo_a))
        assoc_b = associate(topo_b, pathloss_losses(topo_b))
        servers_a = {(n.x, n.y): bs
                     for n, bs in zip(topo_a.transmitters, assoc_a.tolist())}
        servers_b = {(n.x, n.y): bs
                     for n, bs in zip(topo_b.transmitters, assoc_b.tolist())}
        assert servers_a == servers_b

    def test_tie_breaks_to_lowest_id(self):
        topo = bare_topology([(0.0, 50.0)],
                             iab_positions=[(50.0, 0.0), (-50.0, 0.0)])
        # Rows: IAB 1, IAB 2, UE 3; columns: stations 0, 1, 2.
        losses = np.array([[80.0, np.nan, 80.0],
                           [80.0, 80.0, np.nan],
                           [90.0, 80.0, 80.0]])
        assoc = associate(topo, losses)
        assert assoc[2] == 1

    def test_every_iab_maps_to_its_donor(self):
        cfg = ScenarioConfig(num_cells=2, num_ues=4, trials=1)
        topo = build_topology(cfg, derive_rng(3))
        real = sample_realization(topo, ScenarioConfig(), 16.0,
                                  derive_rng(3, "s"), None)
        assoc = associate(topo, real.long_term_loss_db)
        for node, rx in zip(topo.transmitters, assoc.tolist()):
            if node.role is NodeRole.IAB:
                assert rx == topo.cells[node.cell_id][0]
            # servers always live in the transmitter's own cell
            assert topo.node(rx).cell_id == node.cell_id


def simple_assoc(topo, server=0):
    """Every UE served by ``server``, every IAB node by donor 0."""
    return np.array([server if n.role is NodeRole.UE else 0
                     for n in topo.transmitters], dtype=int)


class TestAllocateRbs:
    def config(self, **kw):
        base = dict(trials=1)
        base.update(kw)
        return ScenarioConfig(**base)

    def test_consecutive_blocks(self):
        topo = bare_topology([(10.0, 0.0), (20.0, 0.0), (30.0, 0.0)])
        alloc = allocate_rbs(simple_assoc(topo), topo, self.config())
        assert alloc.shape == (3, 270) and alloc.dtype == bool
        assert rb_set(alloc[0]) == {0, 1}
        assert rb_set(alloc[1]) == {2, 3}
        assert rb_set(alloc[2]) == {4, 5}

    def test_wrap_after_grid_exhausted(self):
        positions = [(float(i % 40), float(i // 40)) for i in range(136)]
        topo = bare_topology(positions)
        cfg = self.config(num_ues=136)
        alloc = allocate_rbs(simple_assoc(topo), topo, cfg)
        assert rb_set(alloc[135]) == {0, 1}
        assert rb_set(alloc[135]) == rb_set(alloc[0])

    def test_disjoint_until_exhausted(self):
        positions = [(float(i), 0.0) for i in range(60)]
        topo = bare_topology(positions)
        alloc = allocate_rbs(simple_assoc(topo), topo, self.config())
        seen = set()
        for row in alloc:
            rbs = rb_set(row)
            assert not (seen & rbs)
            seen |= rbs

    def test_backhaul_union(self):
        topo = bare_topology([(95.0, 0.0), (105.0, 0.0)],
                             iab_positions=[(100.0, 0.0)])
        assoc = np.array([0, 1, 1])  # IAB 1 -> donor; UEs 2, 3 -> IAB 1
        alloc = allocate_rbs(assoc, topo, self.config())
        assert rb_set(alloc[0]) == {0, 1, 2, 3}

    def test_childless_iab_empty_union(self):
        topo = bare_topology([(10.0, 0.0)], iab_positions=[(100.0, 0.0)])
        assoc = np.array([0, 0])  # IAB 1 and UE 2 both -> donor
        alloc = allocate_rbs(assoc, topo, self.config())
        assert rb_set(alloc[0]) == frozenset()

    def test_rejects_oversized_demand(self):
        topo = bare_topology([(10.0, 0.0)])
        with pytest.raises(ValueError):
            allocate_rbs(simple_assoc(topo), topo,
                         self.config(rbs_per_ue=271, bw_mhz=500.0))

    def test_both_cells_share_the_grid(self):
        cfg = self.config(num_cells=2, num_ues=3)
        topo = build_topology(cfg, derive_rng(4))
        real = sample_realization(topo, ScenarioConfig(), 16.0,
                                  derive_rng(4, "s"), None)
        alloc = allocate_rbs(associate(topo, real.long_term_loss_db), topo, cfg)
        rows = list(topo.transmitters)
        for cell in (0, 1):
            first = next(n for n in rows
                         if n.role is NodeRole.UE and n.cell_id == cell)
            assert rb_set(alloc[rows.index(first)]) == {0, 1}


class TestPlanSlots:
    def test_separated_two_slots(self):
        cfg = ScenarioConfig(num_ues=5, trials=1)
        topo = build_topology(cfg, derive_rng(6))
        slots = plan_slots(topo, "separated")
        assert slots.shape == (9,)
        assert np.bincount(slots).tolist() == [5, 4]

    def test_simultaneous_single_slot(self):
        cfg = ScenarioConfig(num_ues=5, trials=1)
        topo = build_topology(cfg, derive_rng(6))
        slots = plan_slots(topo, "simultaneous")
        assert np.bincount(slots).tolist() == [9]

    def test_no_iabs_modes_equivalent(self):
        cfg = ScenarioConfig(num_ues=4, num_iab_per_cell=0, trials=1)
        topo = build_topology(cfg, derive_rng(6))
        sep = plan_slots(topo, "separated")
        sim = plan_slots(topo, "simultaneous")
        assert np.array_equal(sep, sim)

    def test_separated_never_mixes_roles(self):
        cfg = ScenarioConfig(num_ues=8, num_cells=2, trials=1)
        topo = build_topology(cfg, derive_rng(6))
        slots = plan_slots(topo, "separated")
        is_ue = np.array([n.role is NodeRole.UE for n in topo.transmitters])
        for slot in np.unique(slots):
            assert len(set(is_ue[slots == slot].tolist())) == 1

    def test_unknown_mode_raises(self):
        cfg = ScenarioConfig(num_ues=2, trials=1)
        topo = build_topology(cfg, derive_rng(6))
        with pytest.raises(ValueError, match="interleaved"):
            plan_slots(topo, "interleaved")
