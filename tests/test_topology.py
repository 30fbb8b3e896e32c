"""Geometry tests: placement rules, distances, determinism."""

import math

import numpy as np
import pytest

from iabsim.config import ScenarioConfig
from iabsim.rng import derive_rng
from iabsim.topology import DONOR, IAB, UE, draw_ues, place_iab_nodes
from oracle import Node, distance_3d, one_trial_topology


def make_config(**kwargs):
    base = dict(trials=1)
    base.update(kwargs)
    return ScenarioConfig(**base)


def sample_ues(cfg, rng):
    """The x and y of cell 0's UEs in the trial drawn from ``rng``."""
    topo = one_trial_topology(cfg, rng)
    ues = (topo.role == UE) & (topo.cell == 0)
    return topo.x[ues], topo.y[ues]


class TestSampleUes:
    def test_zero_ues_empty(self):
        cfg = make_config(num_ues=0)
        xs, ys = sample_ues(cfg, derive_rng(1))
        assert xs.shape == ys.shape == (0,)

    def test_mean_radial_distance(self):
        # Uniform in a disk has mean radius 2r/3.
        cfg = make_config(num_ues=1000, cell_radius_m=200.0)
        radii = np.hypot(*sample_ues(cfg, derive_rng(42)))
        assert abs(np.mean(radii) - 2.0 * 200.0 / 3.0) < 3.0

    def test_same_seed_same_coordinates(self):
        cfg = make_config(num_ues=19)
        a = sample_ues(cfg, derive_rng(7))
        b = sample_ues(cfg, derive_rng(7))
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_heights_and_radius_bound(self):
        cfg = make_config(num_ues=10_000, cell_radius_m=150.0)
        topo = one_trial_topology(cfg, derive_rng(3))
        ue = topo.role == UE
        assert np.all(topo.height[ue] == 1.5)
        assert np.all(np.hypot(topo.x[ue], topo.y[ue]) <= 150.0 + 1e-9)

    def test_squared_radius_uniform(self):
        # (d/r)^2 of a uniform-in-disk point is uniform on [0, 1];
        # one-sample KS statistic against that, n = 10^4.
        cfg = make_config(num_ues=10_000, cell_radius_m=200.0)
        u = np.sort((np.hypot(*sample_ues(cfg, derive_rng(11))) / 200.0) ** 2)
        n = len(u)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(grid - u), np.max(u - (grid - 1.0 / n)))
        assert ks < 0.02

    def test_poisson_count_mode(self):
        cfg = make_config(num_ues=30, ue_count_poisson=True)
        counts = {draw_ues(cfg, derive_rng(5, k))[0][0] for k in range(20)}
        assert len(counts) > 1  # count actually varies

    def test_fixed_positions(self):
        cfg = make_config(num_ues=2, ue_positions=((10.0, 0.0), (0.0, -20.0)))
        xs, ys = sample_ues(cfg, derive_rng(1))
        assert list(zip(xs.tolist(), ys.tolist())) == [(10.0, 0.0), (0.0, -20.0)]


class TestPlaceIabNodes:
    def test_zero_nodes(self):
        xs, ys, heights = place_iab_nodes(make_config(num_iab_per_cell=0), 0)
        assert xs.shape == ys.shape == heights.shape == (0,)

    def test_ring_angles_and_radius(self):
        cfg = make_config(num_iab_per_cell=4, cell_radius_m=200.0)
        xs, ys, _ = place_iab_nodes(cfg, 0)
        expected = [(100.0, 0.0), (0.0, 100.0), (-100.0, 0.0), (0.0, -100.0)]
        for x, y, (ex, ey) in zip(xs, ys, expected):
            assert x == pytest.approx(ex, abs=1e-9)
            assert y == pytest.approx(ey, abs=1e-9)

    def test_heights_linearly_spaced(self):
        _, _, heights = place_iab_nodes(make_config(num_iab_per_cell=4), 0)
        assert heights.tolist() == [21.0, 22.0, 23.0, 24.0]

    def test_deterministic(self):
        cfg = make_config()
        a, b = place_iab_nodes(cfg, 0), place_iab_nodes(cfg, 0)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))


def _donors(topo):
    return np.flatnonzero(topo.role == DONOR)


class TestBuildTopology:
    def test_single_cell_donor_at_origin(self):
        topo = one_trial_topology(make_config(num_cells=1), derive_rng(1))
        [d] = _donors(topo)
        assert (topo.x[d], topo.y[d], topo.height[d]) == (0.0, 0.0, 25.0)

    def test_two_cell_donor_separation(self):
        topo = one_trial_topology(make_config(num_cells=2, cell_radius_m=200.0),
                              derive_rng(1))
        d0, d1 = _donors(topo)
        assert math.hypot(topo.x[d0] - topo.x[d1],
                          topo.y[d0] - topo.y[d1]) == pytest.approx(400.0)

    def test_node_counts(self):
        cfg = make_config(num_cells=2, num_iab_per_cell=4, num_ues=10)
        topo = one_trial_topology(cfg, derive_rng(1))
        for column in (topo.role, topo.cell, topo.x, topo.y, topo.height):
            assert column.shape == (2 + 8 + 20,)
        assert np.bincount(topo.role).tolist() == [2, 8, 20]
        assert np.bincount(topo.cell).tolist() == [15, 15]
        assert len(topo.ues) == 20

    def test_ids_dense_and_unique(self):
        # A node's id is its row. Each cell's donor and IAB ring come first,
        # then the UEs; ``tx`` and ``rx`` are the rows of each side, in order.
        cfg = make_config(num_cells=2, num_ues=7)
        topo = one_trial_topology(cfg, derive_rng(1))
        assert topo.role.tolist() == [DONOR] + [IAB] * 4 + [DONOR] + [IAB] * 4 \
            + [UE] * 14
        assert topo.cell.tolist() == [0] * 5 + [1] * 5 + [0] * 7 + [1] * 7
        assert topo.tx.tolist() == list(range(1, 5)) + list(range(6, 24))
        assert topo.rx.tolist() == list(range(10))

    def test_ues_are_records_with_coordinates(self):
        topo = one_trial_topology(make_config(num_cells=2, num_ues=3), derive_rng(1))
        ue = topo.role == UE
        assert [(u.x, u.y) for u in topo.ues] == list(
            zip(topo.x[ue].tolist(), topo.y[ue].tolist()))

    def test_rejects_bad_cell_count(self):
        import dataclasses
        bad = dataclasses.replace(make_config(), num_cells=3)
        with pytest.raises(ValueError):
            one_trial_topology(bad, derive_rng(1))

    def test_identical_seed_identical_topology(self):
        cfg = make_config(num_cells=2, num_ues=25)
        a = one_trial_topology(cfg, derive_rng(5))
        b = one_trial_topology(cfg, derive_rng(5))
        for name in ("role", "cell", "x", "y", "height"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_donor_spacing_override(self):
        cfg = make_config(num_cells=2, donor_spacing_m=1000.0)
        topo = one_trial_topology(cfg, derive_rng(1))
        d0, d1 = _donors(topo)
        assert math.hypot(topo.x[d0] - topo.x[d1],
                          topo.y[d0] - topo.y[d1]) == pytest.approx(1000.0)


TOPOLOGY_FIELDS = ("role", "cell", "x", "y", "height")


class TestInfrastructureCache:
    """The donors and IAB rings are built once per distinct geometry."""

    @pytest.mark.parametrize("change", [dict(iab_ring_angle_offset_deg=30.0),
                                        dict(donor_spacing_m=1000.0)])
    def test_each_geometry_field_keys_the_infrastructure(self, change):
        base = make_config(num_cells=2, num_ues=3)
        other = base.replace(**change)
        a = one_trial_topology(base, derive_rng(1))
        b = one_trial_topology(other, derive_rng(1))
        infra = b.role != UE
        assert not (np.array_equal(a.x[infra], b.x[infra])
                    and np.array_equal(a.y[infra], b.y[infra]))
        for c in (0, 1):
            xs, ys, _ = place_iab_nodes(other, c)
            ring = (b.role == IAB) & (b.cell == c)
            assert b.x[ring].tolist() == xs.tolist()
            assert b.y[ring].tolist() == ys.tolist()

    @pytest.mark.parametrize("num_ues", [0, 3])
    def test_writes_do_not_reach_the_next_build(self, num_ues):
        cfg = make_config(num_cells=2, num_ues=num_ues)
        first = one_trial_topology(cfg, derive_rng(1))
        expected = {name: getattr(first, name).copy() for name in TOPOLOGY_FIELDS}
        for name in TOPOLOGY_FIELDS:
            getattr(first, name)[:] = -1
        second = one_trial_topology(cfg, derive_rng(1))
        for name in TOPOLOGY_FIELDS:
            assert np.array_equal(getattr(second, name), expected[name])

    def test_height_range_given_as_a_list(self):
        cfg = make_config(iab_height_range_m=[21.0, 24.0])
        topo = one_trial_topology(cfg, derive_rng(1))
        assert topo.height[topo.role == IAB].tolist() == [21.0, 22.0, 23.0, 24.0]


class TestDistance3d:
    def _node(self, nid, x, y, h):
        return Node(nid, UE, 0, x, y, h)

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
