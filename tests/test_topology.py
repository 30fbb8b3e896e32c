"""Geometry tests: placement rules, distances, determinism."""

import math

import numpy as np
import pytest

from iabsim.config import ScenarioConfig
from iabsim.rng import derive_rng
from iabsim.topology import (NetworkNode, NodeRole, Topology, build_topology,
                             place_iab_nodes, sample_ues)
from oracle import distance_3d


def make_config(**kwargs):
    base = dict(trials=1)
    base.update(kwargs)
    return ScenarioConfig(**base)


class TestSampleUes:
    def test_zero_ues_empty(self):
        cfg = make_config(num_ues=0)
        assert sample_ues(cfg, 0, derive_rng(1)) == []

    def test_mean_radial_distance(self):
        # Uniform in a disk has mean radius 2r/3.
        cfg = make_config(num_ues=1000, cell_radius_m=200.0)
        ues = sample_ues(cfg, 0, derive_rng(42))
        radii = [math.hypot(u.x, u.y) for u in ues]
        assert abs(np.mean(radii) - 2.0 * 200.0 / 3.0) < 3.0

    def test_same_seed_same_coordinates(self):
        cfg = make_config(num_ues=19)
        a = sample_ues(cfg, 0, derive_rng(7))
        b = sample_ues(cfg, 0, derive_rng(7))
        assert [(u.x, u.y, u.height) for u in a] == \
               [(u.x, u.y, u.height) for u in b]

    def test_heights_and_radius_bound(self):
        cfg = make_config(num_ues=10_000, cell_radius_m=150.0)
        ues = sample_ues(cfg, 0, derive_rng(3))
        assert all(u.height == 1.5 for u in ues)
        assert all(math.hypot(u.x, u.y) <= 150.0 + 1e-9 for u in ues)

    def test_squared_radius_uniform(self):
        # (d/r)^2 of a uniform-in-disk point is uniform on [0, 1];
        # one-sample KS statistic against that, n = 10^4.
        cfg = make_config(num_ues=10_000, cell_radius_m=200.0)
        ues = sample_ues(cfg, 0, derive_rng(11))
        u = np.sort([(math.hypot(p.x, p.y) / 200.0) ** 2 for p in ues])
        n = len(u)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
        assert ks < 0.02

    def test_poisson_count_mode(self):
        cfg = make_config(num_ues=30, ue_count_poisson=True)
        counts = {len(sample_ues(cfg, 0, derive_rng(5, k))) for k in range(20)}
        assert len(counts) > 1  # count actually varies

    def test_fixed_positions(self):
        cfg = make_config(num_ues=2, ue_positions=((10.0, 0.0), (0.0, -20.0)))
        ues = sample_ues(cfg, 0, derive_rng(1))
        assert [(u.x, u.y) for u in ues] == [(10.0, 0.0), (0.0, -20.0)]


class TestPlaceIabNodes:
    def test_zero_nodes(self):
        assert place_iab_nodes(make_config(num_iab_per_cell=0), 0) == []

    def test_ring_angles_and_radius(self):
        cfg = make_config(num_iab_per_cell=4, cell_radius_m=200.0)
        nodes = place_iab_nodes(cfg, 0)
        expected = [(100.0, 0.0), (0.0, 100.0), (-100.0, 0.0), (0.0, -100.0)]
        for node, (ex, ey) in zip(nodes, expected):
            assert node.x == pytest.approx(ex, abs=1e-9)
            assert node.y == pytest.approx(ey, abs=1e-9)

    def test_heights_linearly_spaced(self):
        nodes = place_iab_nodes(make_config(num_iab_per_cell=4), 0)
        assert [n.height for n in nodes] == [21.0, 22.0, 23.0, 24.0]

    def test_deterministic(self):
        cfg = make_config()
        assert place_iab_nodes(cfg, 0) == place_iab_nodes(cfg, 0)


class TestBuildTopology:
    def test_single_cell_donor_at_origin(self):
        topo = build_topology(make_config(num_cells=1), derive_rng(1))
        donor = topo.by_role(NodeRole.DONOR)[0]
        assert (donor.x, donor.y, donor.height) == (0.0, 0.0, 25.0)

    def test_two_cell_donor_separation(self):
        topo = build_topology(make_config(num_cells=2, cell_radius_m=200.0),
                              derive_rng(1))
        d0, d1 = topo.by_role(NodeRole.DONOR)
        assert math.hypot(d0.x - d1.x, d0.y - d1.y) == pytest.approx(400.0)

    def test_node_counts(self):
        cfg = make_config(num_cells=2, num_iab_per_cell=4, num_ues=10)
        topo = build_topology(cfg, derive_rng(1))
        assert len(topo.nodes) == 2 + 8 + 20
        assert len(topo.by_role(NodeRole.DONOR)) == 2
        assert len(topo.by_role(NodeRole.IAB)) == 8
        assert len(topo.ues) == 20

    def test_ids_dense_and_unique(self):
        cfg = make_config(num_cells=2, num_ues=7)
        topo = build_topology(cfg, derive_rng(1))
        assert sorted(n.id for n in topo.nodes) == list(range(len(topo.nodes)))

    @pytest.mark.parametrize("ids", [(0, 2, 1), (0, 1, 1)],
                             ids=["out_of_order", "duplicate"])
    def test_rejects_ids_not_strictly_increasing(self, ids):
        donor = NetworkNode(ids[0], NodeRole.DONOR, 0, 0.0, 0.0, 25.0)
        ues = tuple(NetworkNode(i, NodeRole.UE, 0, 10.0 * i, 0.0, 1.5)
                    for i in ids[1:])
        with pytest.raises(ValueError, match="strictly increasing"):
            Topology(nodes=(donor, *ues), cells=((ids[0], 200.0),))

    def test_rejects_bad_cell_count(self):
        import dataclasses
        bad = dataclasses.replace(make_config(), num_cells=3)
        with pytest.raises(ValueError):
            build_topology(bad, derive_rng(1))

    def test_identical_seed_identical_topology(self):
        cfg = make_config(num_cells=2, num_ues=25)
        assert build_topology(cfg, derive_rng(5)) == \
               build_topology(cfg, derive_rng(5))

    def test_donor_spacing_override(self):
        cfg = make_config(num_cells=2, donor_spacing_m=1000.0)
        topo = build_topology(cfg, derive_rng(1))
        d0, d1 = topo.by_role(NodeRole.DONOR)
        assert math.hypot(d0.x - d1.x, d0.y - d1.y) == pytest.approx(1000.0)


class TestDistance3d:
    def _node(self, nid, x, y, h):
        return NetworkNode(nid, NodeRole.UE, 0, x, y, h)

    def test_coincident_zero(self):
        a = self._node(0, 5.0, 5.0, 2.0)
        assert distance_3d(a, a) == 0.0

    def test_hand_example(self):
        a = self._node(0, 0.0, 0.0, 25.0)
        b = self._node(1, 100.0, 0.0, 1.5)
        assert distance_3d(a, b) == pytest.approx(102.72414516558412, rel=1e-12)

    def test_vertical_only(self):
        a = self._node(0, 0.0, 0.0, 25.0)
        b = self._node(1, 0.0, 0.0, 1.5)
        assert distance_3d(a, b) == pytest.approx(23.5)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            pts = [self._node(i, *rng.uniform(-300, 300, 2), rng.uniform(0, 30))
                   for i in range(3)]
            a, b, c = pts
            assert distance_3d(a, b) == distance_3d(b, a)
            assert distance_3d(a, c) <= distance_3d(a, b) + distance_3d(b, c) + 1e-9
