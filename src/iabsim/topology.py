"""Cell geometry: donors, fixed IAB nodes, and random UE point patterns.

Donors and IAB nodes are placed deterministically from the config; UEs are
drawn per trial as a uniform point pattern in each cell's disk (a finite
homogeneous Poisson process conditioned on the configured count, with an
optional Poisson-count mode). Each trial draws its counts and uniforms from
its own stream (`draw_ues`); `build_topology` then places the UEs of a
stack of T trials that drew the same counts in one pass over ``(T, n)``
coordinates, T = 1 included.

A `Topology` is one array per node attribute, in node-id order: node ``i``
is row ``i`` of the role code, cell id, x, y and antenna height arrays.
`build_topology` numbers each cell's donor and IAB ring first and the UEs
after them, so infrastructure ids stay stable as the UE count varies. The
uplink transmitters (UEs and IAB MTs) and receivers (donors and IAB DUs)
are the rows ``tx`` and ``rx``, also in id order; the channel, the
scheduler and the scenario instance index the node arrays with them.

Layout constants. Trials that draw the same per-cell UE counts share a
`Layout`: the role, cell and height arrays, the ``tx`` and ``rx`` rows, the
donor and IAB positions, and what the channel, the scheduler and the
scenario instance build from these and a few config scalars
(`Layout.derived`). One bounded `lru_cache`, `_layout`, holds them, keyed
by value, never by identity: a `Deployment` (geometry, UE height, per-cell
UE counts, known once the UEs are drawn; `deployment_layout`), a
`NodeTable` (the node arrays' bytes) for a topology built any other way.
Layout arrays are shared, so they are read-only; a topology's own arrays,
and whatever a trial writes into, are copies.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Hashable, NamedTuple, Optional, Sequence

import numpy as np

from .config import ScenarioConfig

# Role codes of `Topology.role`, and the name each code has in a CSV.
DONOR, IAB, UE = 0, 1, 2
ROLE_NAMES = ("donor", "iab", "ue")


@dataclass(frozen=True, eq=False)
class Topology:
    role: np.ndarray  # (n,) role code
    cell: np.ndarray  # (n,) cell id
    x: np.ndarray  # (n,) m; (T, n) for a stack of T trials of one layout
    y: np.ndarray  # (n,) m; likewise
    height: np.ndarray  # (n,) antenna height, m
    # `build_topology` passes its deployment's layout; a topology built any
    # other way looks its layout up by the values of its node arrays.
    layout: Optional[Layout] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.layout is None:
            object.__setattr__(self, "layout", _layout(
                NodeTable.of(self.role, self.cell, self.height)))

    def trial(self, i: int) -> Topology:
        """Trial ``i`` of a stack, with its own copies of the node arrays
        and of its rows of x and y: writing into it changes no other
        trial, and the stack is freed once its block is built."""
        return Topology(self.role.copy(), self.cell.copy(), self.x[i].copy(),
                        self.y[i].copy(), self.height.copy(), self.layout)

    @property
    def tx(self) -> np.ndarray:
        """Rows of the uplink transmitters: all UEs and all IAB nodes."""
        return self.layout.tx

    @property
    def rx(self) -> np.ndarray:
        """Rows of the possible uplink receivers: donors and IAB nodes."""
        return self.layout.rx

    @property
    def ues(self) -> np.recarray:
        """The UEs as records with ``.x`` and ``.y``, in id order."""
        rows = self.role == UE
        return np.rec.fromarrays((self.x[rows], self.y[rows]), names="x,y")


class Geometry(NamedTuple):
    """The config fields that place the donors and IAB rings. Hashable,
    unlike `ScenarioConfig`, so it keys the cached infrastructure;
    `donor_position` and `place_iab_nodes` read these fields of either."""
    num_cells: int
    cell_radius_m: float
    donor_spacing_m: Optional[float]
    donor_height_m: float
    num_iab_per_cell: int
    iab_ring_radius_fraction: float
    iab_ring_angle_offset_deg: float
    iab_height_range_m: tuple[float, float]

    @classmethod
    def of(cls, config: ScenarioConfig) -> "Geometry":
        *values, heights = _geometry_fields(config)
        # A pair given from code may be a list, which is unhashable.
        return cls._make((*values, tuple(heights)))


# Every trial reads its geometry's fields off the config, the height range
# (a pair) last.
_geometry_fields = operator.attrgetter(*Geometry._fields)


def donor_position(config: ScenarioConfig | Geometry,
                   cell_id: int) -> tuple[float, float]:
    """Donor coordinates; adjacent cells sit on the x-axis, tangent disks."""
    spacing = config.donor_spacing_m
    if spacing is None:
        spacing = 2.0 * config.cell_radius_m
    return (cell_id * spacing, 0.0)


def draw_ues(config: ScenarioConfig, rng: np.random.Generator
             ) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """One trial's UE draws from its stream: each cell's UE count, and
    each cell's uniform variates.

    Per cell in order: with ``ue_count_poisson`` the count is Poisson with
    mean ``num_ues``, otherwise it is ``num_ues``; then ``2 * count``
    uniforms, the first half for the radii and the second for the angles
    (one draw of ``2 * count`` gives the same numbers as two of
    ``count``). Fixed ``ue_positions`` (offsets from each cell's donor)
    bypass sampling: no draw.
    """
    if config.num_cells not in (1, 2):
        raise ValueError(f"num_cells must be 1 or 2, got {config.num_cells}")
    if config.ue_positions is not None:
        count = len(_offsets(config))
        return (count,) * config.num_cells, []
    counts, uniforms = [], []
    for _ in range(config.num_cells):
        count = config.num_ues
        if config.ue_count_poisson:
            count = int(rng.poisson(config.num_ues))
        counts.append(count)
        uniforms.append(rng.random(2 * count))
    return tuple(counts), uniforms


def _offsets(config: ScenarioConfig) -> np.ndarray:
    """The fixed ``ue_positions`` as an (n, 2) array of donor offsets."""
    return np.array(config.ue_positions, dtype=float).reshape(-1, 2)


def place_iab_nodes(config: ScenarioConfig | Geometry, cell_id: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic IAB-node ring as x, y and height arrays.

    Nodes sit equally spaced in angle on the circle of radius
    ``iab_ring_radius_fraction * cell_radius_m`` around the donor, first node
    at the configured angle offset. Heights are spaced linearly across the
    configured range.
    """
    m = config.num_iab_per_cell
    cx, cy = donor_position(config, cell_id)
    ring = config.iab_ring_radius_fraction * config.cell_radius_m
    lo, hi = config.iab_height_range_m
    offset = math.radians(config.iab_ring_angle_offset_deg)
    thetas = [offset + 2.0 * math.pi * i / m for i in range(m)]
    return (np.array([cx + ring * math.cos(t) for t in thetas]),
            np.array([cy + ring * math.sin(t) for t in thetas]),
            np.linspace(lo, hi, m))


def _freeze(value):
    """``value``, with it or each array item of it (a tuple) read-only."""
    for item in value if isinstance(value, tuple) else (value,):
        if isinstance(item, np.ndarray):
            item.setflags(write=False)
    return value


class Layout:
    """What a trial's draws do not decide about its node table: each
    node's role code, cell and antenna height, the ``tx`` and ``rx`` rows,
    and the x and y of the nodes placed without a draw (rows ``0 ..
    len(placed_x) - 1``; a `Deployment`'s donors and IAB rings, none of a
    `NodeTable`'s), and ``key``, the `Deployment` or `NodeTable` it is
    built from: layouts with equal keys are equal. All its arrays are
    read-only."""

    def __init__(self, key: Deployment | NodeTable):
        self.key = key
        role, cell, height, placed_x, placed_y = key.nodes()
        self.role, self.cell, self.height = role, cell, height
        self.placed_x, self.placed_y = placed_x, placed_y
        self.tx = np.flatnonzero(role != DONOR)
        self.rx = np.flatnonzero(role != UE)
        _freeze((role, cell, height, placed_x, placed_y, self.tx, self.rx))
        self._derived: dict[tuple, object] = {}

    def derived(self, build: Callable, *params: Hashable):
        """``build(self, *params)``, built on the first call with these
        ``params`` and shared by every later one; its arrays are read-only.
        A caller that writes into one works on a copy."""
        key = (build, *params)
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = _freeze(build(self, *params))
        return value


class Deployment(NamedTuple):
    """A layout by the fields that build it. The deployment with no UEs is
    the infrastructure that the others of its geometry extend."""
    geometry: Geometry
    ue_height_m: float
    ue_counts: tuple[int, ...]

    def nodes(self) -> tuple[np.ndarray, ...]:
        """Role, cell and height of each node, and x and y of the placed
        ones: each cell's donor and IAB ring, then each cell's UEs."""
        counts = self.ue_counts
        if not any(counts):
            return _place_infrastructure(self.geometry)
        infra = _layout(Deployment(self.geometry, self.ue_height_m,
                                   (0,) * len(counts)))
        n = sum(counts)
        return (np.concatenate([infra.role, np.full(n, UE)]),
                np.concatenate([infra.cell,
                                np.repeat(np.arange(len(counts)), counts)]),
                np.concatenate([infra.height, np.full(n, self.ue_height_m)]),
                infra.placed_x, infra.placed_y)


class NodeTable(NamedTuple):
    """A layout by the values of a topology's role, cell and height
    arrays, for a topology that `build_topology` did not build."""
    role: bytes
    cell: bytes
    height: bytes

    @classmethod
    def of(cls, role: np.ndarray, cell: np.ndarray,
           height: np.ndarray) -> "NodeTable":
        return cls(np.asarray(role, dtype=np.int64).tobytes(),
                   np.asarray(cell, dtype=np.int64).tobytes(),
                   np.asarray(height, dtype=float).tobytes())

    def nodes(self) -> tuple[np.ndarray, ...]:
        return (np.frombuffer(self.role, dtype=np.int64),
                np.frombuffer(self.cell, dtype=np.int64),
                np.frombuffer(self.height), np.empty(0), np.empty(0))


@lru_cache(maxsize=64)
def _layout(key: Deployment | NodeTable) -> Layout:
    """The one layout of each key, shared by every trial that has it."""
    return Layout(key)


def _place_infrastructure(geometry: Geometry) -> tuple[np.ndarray, ...]:
    """Role, cell and height of each cell's donor and IAB ring in id order,
    and their x and y."""
    blocks = []
    for c in range(geometry.num_cells):
        cx, cy = donor_position(geometry, c)
        blocks.append((DONOR, c, [cx], [cy], [geometry.donor_height_m]))
        blocks.append((IAB, c, *place_iab_nodes(geometry, c)))
    role, cell, x, y, height = zip(*blocks)
    sizes = [len(b) for b in x]
    return (np.repeat(role, sizes), np.repeat(cell, sizes),
            np.concatenate(height), np.concatenate(x), np.concatenate(y))


def deployment_layout(config: ScenarioConfig,
                      ue_counts: tuple[int, ...]) -> Layout:
    """The layout of the config's geometry with these per-cell UE
    counts."""
    return _layout(Deployment(Geometry.of(config), config.ue_height_m,
                              ue_counts))


def _ue_placement(layout: Layout) -> tuple[np.ndarray, ...]:
    """Each UE's donor x and y, and the columns of its radius and angle
    uniforms among its trial's draws (`draw_ues`, cells concatenated): a
    (2, n_ue) array."""
    geometry, _, counts = layout.key
    cx, cy, radius_at, angle_at = [], [], [], []
    start = 0
    for cell, count in enumerate(counts):
        x, y = donor_position(geometry, cell)
        cx += [x] * count
        cy += [y] * count
        radius_at += range(start, start + count)
        angle_at += range(start + count, start + 2 * count)
        start += 2 * count
    return (np.array(cx, dtype=float), np.array(cy, dtype=float),
            np.array([radius_at, angle_at], dtype=np.intp))


def build_topology(config: ScenarioConfig, layout: Layout,
                   draws: Sequence[list[np.ndarray]]) -> Topology:
    """Place the UEs of T trials that drew ``layout``'s counts, one
    `draw_ues` result's uniforms per trial: a stack whose x and y are
    (T, n), donors and IAB rings first (stable ids), then each cell's
    UEs. Every trial draws its own numbers; the arithmetic runs once
    over the stack. It is elementwise, so a trial's coordinates are the
    same bit for bit whichever trials share its stack; `Topology.trial`
    takes a trial out.

    Uniform i.i.d. placement in the disk of radius ``cell_radius_m``
    around each cell's donor: the radius is ``cell_radius_m`` times the
    square root of a uniform, the angle ``2 pi`` times one.
    """
    cx, cy, at = layout.derived(_ue_placement)
    n_trials, placed = len(draws), len(layout.placed_x)
    if config.ue_positions is not None:
        offsets = np.tile(_offsets(config), (config.num_cells, 1))
        ue_x, ue_y = cx + offsets[:, 0], cy + offsets[:, 1]
    else:
        uniforms = np.concatenate(
            [u for cells in draws for u in cells]).reshape(
                n_trials, 2 * cx.size).take(at, axis=1)
        radii = config.cell_radius_m * np.sqrt(uniforms[:, 0])
        angles = 2.0 * math.pi * uniforms[:, 1]
        ue_x = cx + radii * np.cos(angles)
        ue_y = cy + radii * np.sin(angles)
    x = np.empty((n_trials, len(layout.role)))
    y = np.empty_like(x)
    x[:, :placed], y[:, :placed] = layout.placed_x, layout.placed_y
    x[:, placed:], y[:, placed:] = ue_x, ue_y
    return Topology(layout.role, layout.cell, x, y, layout.height, layout)
