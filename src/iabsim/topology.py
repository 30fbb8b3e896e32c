"""Cell geometry: donors, fixed IAB nodes, and random UE point patterns.

Donors and IAB nodes are placed deterministically from the config; UEs are
drawn per trial as a uniform point pattern in each cell's disk (a finite
homogeneous Poisson process conditioned on the configured count, with an
optional Poisson-count mode).

A `Topology` is one array per node attribute, in node-id order: node ``i``
is row ``i`` of the role code, cell id, x, y and antenna height arrays.
`build_topology` numbers each cell's donor and IAB ring first and the UEs
after them, so infrastructure ids stay stable as the UE count varies. The
infrastructure depends only on the config's `Geometry` fields, so it is
built once per distinct geometry and shared, read-only, by the trials. The
uplink transmitters (UEs and IAB MTs) and receivers (donors and IAB DUs)
are the rows ``tx`` and ``rx``, also in id order; the channel, the
scheduler and the scenario instance index the node arrays with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .config import ScenarioConfig

# Role codes of `Topology.role`, and the name each code has in a CSV.
DONOR, IAB, UE = 0, 1, 2
ROLE_NAMES = ("donor", "iab", "ue")


@dataclass(frozen=True, eq=False)
class Topology:
    role: np.ndarray  # (n,) role code
    cell: np.ndarray  # (n,) cell id
    x: np.ndarray  # (n,) m
    y: np.ndarray  # (n,) m
    height: np.ndarray  # (n,) antenna height, m

    # A topology is frozen and each view is read several times per trial,
    # so each is computed once.
    @cached_property
    def tx(self) -> np.ndarray:
        """Rows of the uplink transmitters: all UEs and all IAB nodes."""
        return np.flatnonzero(self.role != DONOR)

    @cached_property
    def rx(self) -> np.ndarray:
        """Rows of the possible uplink receivers: donors and IAB nodes."""
        return np.flatnonzero(self.role != UE)

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
        values = {name: getattr(config, name) for name in cls._fields}
        # A pair given from code may be a list, which is unhashable.
        values["iab_height_range_m"] = tuple(values["iab_height_range_m"])
        return cls(**values)


def donor_position(config: ScenarioConfig | Geometry,
                   cell_id: int) -> tuple[float, float]:
    """Donor coordinates; adjacent cells sit on the x-axis, tangent disks."""
    spacing = config.donor_spacing_m
    if spacing is None:
        spacing = 2.0 * config.cell_radius_m
    return (cell_id * spacing, 0.0)


def sample_ues(config: ScenarioConfig, cell_id: int,
               rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw the cell's UE point pattern as x and y arrays.

    Uniform i.i.d. placement in the disk of radius ``cell_radius_m`` around
    the cell's donor. With ``ue_count_poisson`` the count itself is Poisson
    with mean ``num_ues``; otherwise exactly ``num_ues`` points are placed.
    Fixed ``ue_positions`` (offsets from the donor) bypass sampling.
    """
    cx, cy = donor_position(config, cell_id)
    if config.ue_positions is not None:
        offsets = np.array(config.ue_positions, dtype=float).reshape(-1, 2)
        return cx + offsets[:, 0], cy + offsets[:, 1]
    count = config.num_ues
    if config.ue_count_poisson:
        count = int(rng.poisson(config.num_ues))
    if count == 0:
        return np.empty(0), np.empty(0)
    # Uniform in a disk: radius via sqrt of a uniform variate.
    radii = config.cell_radius_m * np.sqrt(rng.random(count))
    angles = 2.0 * math.pi * rng.random(count)
    return cx + radii * np.cos(angles), cy + radii * np.sin(angles)


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


@lru_cache(maxsize=64)
def _infrastructure(geometry: Geometry) -> tuple[np.ndarray, ...]:
    """Role, cell, x, y and height of each cell's donor and IAB ring, in id
    order. The arrays are shared by every build of the geometry, so they
    are read-only."""
    blocks = []
    for c in range(geometry.num_cells):
        cx, cy = donor_position(geometry, c)
        blocks.append((DONOR, c, [cx], [cy], [geometry.donor_height_m]))
        blocks.append((IAB, c, *place_iab_nodes(geometry, c)))
    role, cell, x, y, height = zip(*blocks)
    sizes = [len(b) for b in x]
    columns = (np.repeat(role, sizes), np.repeat(cell, sizes),
               np.concatenate(x), np.concatenate(y), np.concatenate(height))
    for column in columns:
        column.setflags(write=False)
    return columns


def build_topology(config: ScenarioConfig,
                   rng: np.random.Generator) -> Topology:
    """Assemble donors, IAB rings, and UE patterns for 1 or 2 cells.

    Infrastructure ids come first (stable as the UE count varies), UEs after.
    Every array is new: writing into one topology changes no other.
    """
    if config.num_cells not in (1, 2):
        raise ValueError(f"num_cells must be 1 or 2, got {config.num_cells}")
    role, cell, x, y, height = _infrastructure(Geometry.of(config))
    ues = [sample_ues(config, c, rng) for c in range(config.num_cells)]
    counts = [len(xs) for xs, _ in ues]
    n = sum(counts)
    return Topology(
        role=np.concatenate([role, np.full(n, UE)]),
        cell=np.concatenate([cell, np.repeat(np.arange(config.num_cells),
                                             counts)]),
        x=np.concatenate([x, *(xs for xs, _ in ues)]),
        y=np.concatenate([y, *(ys for _, ys in ues)]),
        height=np.concatenate([height, np.full(n, config.ue_height_m)]))
