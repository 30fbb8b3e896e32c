"""Cell geometry: donors, fixed IAB nodes, and random UE point patterns.

Donors and IAB nodes are placed deterministically from the config; UEs are
drawn per trial as a uniform point pattern in each cell's disk (a finite
homogeneous Poisson process conditioned on the configured count, with an
optional Poisson-count mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .config import ScenarioConfig


class NodeRole(Enum):
    DONOR = "donor"
    IAB = "iab"
    UE = "ue"


@dataclass(frozen=True)
class NetworkNode:
    id: int
    role: NodeRole
    cell_id: int
    x: float
    y: float
    height: float


@dataclass(frozen=True)
class Topology:
    nodes: tuple[NetworkNode, ...]
    cells: tuple[tuple[int, float], ...]  # (donor_id, radius_m) per cell

    def __post_init__(self) -> None:
        # Every per-node array (channel rows and columns, scheduler genes)
        # is laid out in node order, which must therefore be id order.
        ids = [n.id for n in self.nodes]
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError(f"node ids must be strictly increasing, got {ids}")

    @cached_property
    def _by_id(self) -> dict[int, NetworkNode]:
        return {n.id: n for n in self.nodes}

    def node(self, node_id: int) -> NetworkNode:
        return self._by_id[node_id]

    def by_role(self, role: NodeRole) -> tuple[NetworkNode, ...]:
        return tuple(n for n in self.nodes if n.role is role)

    # The views below are read many times per trial; a topology is frozen,
    # so each is computed once.
    @cached_property
    def ues(self) -> tuple[NetworkNode, ...]:
        return self.by_role(NodeRole.UE)

    @cached_property
    def transmitters(self) -> tuple[NetworkNode, ...]:
        """Uplink transmitters: all UEs and all IAB nodes (as MTs)."""
        return tuple(n for n in self.nodes if n.role is not NodeRole.DONOR)

    @cached_property
    def receivers(self) -> tuple[NetworkNode, ...]:
        """Possible uplink receivers: donors and IAB nodes."""
        return tuple(n for n in self.nodes if n.role is not NodeRole.UE)


def donor_position(config: ScenarioConfig, cell_id: int) -> tuple[float, float]:
    """Donor coordinates; adjacent cells sit on the x-axis, tangent disks."""
    spacing = config.donor_spacing_m
    if spacing is None:
        spacing = 2.0 * config.cell_radius_m
    return (cell_id * spacing, 0.0)


def sample_ues(config: ScenarioConfig, cell_id: int,
               rng: np.random.Generator, id_start: int = 0) -> list[NetworkNode]:
    """Draw the cell's UE point pattern.

    Uniform i.i.d. placement in the disk of radius ``cell_radius_m`` around
    the cell's donor. With ``ue_count_poisson`` the count itself is Poisson
    with mean ``num_ues``; otherwise exactly ``num_ues`` points are placed.
    Fixed ``ue_positions`` (offsets from the donor) bypass sampling.
    """
    cx, cy = donor_position(config, cell_id)
    h = config.ue_height_m
    if config.ue_positions is not None:
        return [NetworkNode(id_start + i, NodeRole.UE, cell_id,
                            cx + x, cy + y, h)
                for i, (x, y) in enumerate(config.ue_positions)]
    count = config.num_ues
    if config.ue_count_poisson:
        count = int(rng.poisson(config.num_ues))
    if count == 0:
        return []
    # Uniform in a disk: radius via sqrt of a uniform variate.
    radii = config.cell_radius_m * np.sqrt(rng.random(count))
    angles = 2.0 * math.pi * rng.random(count)
    xs = cx + radii * np.cos(angles)
    ys = cy + radii * np.sin(angles)
    return [NetworkNode(id_start + i, NodeRole.UE, cell_id,
                        float(xs[i]), float(ys[i]), h)
            for i in range(count)]


def place_iab_nodes(config: ScenarioConfig, cell_id: int,
                    id_start: int = 0) -> list[NetworkNode]:
    """Deterministic IAB-node ring.

    Nodes sit equally spaced in angle on the circle of radius
    ``iab_ring_radius_fraction * cell_radius_m`` around the donor, first node
    at the configured angle offset. Heights are spaced linearly across the
    configured range.
    """
    m = config.num_iab_per_cell
    if m == 0:
        return []
    cx, cy = donor_position(config, cell_id)
    ring = config.iab_ring_radius_fraction * config.cell_radius_m
    lo, hi = config.iab_height_range_m
    heights = np.linspace(lo, hi, m) if m > 1 else np.array([lo])
    offset = math.radians(config.iab_ring_angle_offset_deg)
    nodes = []
    for i in range(m):
        theta = offset + 2.0 * math.pi * i / m
        nodes.append(NetworkNode(id_start + i, NodeRole.IAB, cell_id,
                                 cx + ring * math.cos(theta),
                                 cy + ring * math.sin(theta),
                                 float(heights[i])))
    return nodes


def build_topology(config: ScenarioConfig,
                   rng: np.random.Generator) -> Topology:
    """Assemble donors, IAB rings, and UE patterns for 1 or 2 cells.

    Infrastructure ids come first (stable as the UE count varies), UEs after.
    """
    if config.num_cells not in (1, 2):
        raise ValueError(f"num_cells must be 1 or 2, got {config.num_cells}")
    nodes: list[NetworkNode] = []
    cells: list[tuple[int, float]] = []
    next_id = 0
    for cell_id in range(config.num_cells):
        cx, cy = donor_position(config, cell_id)
        donor = NetworkNode(next_id, NodeRole.DONOR, cell_id, cx, cy,
                            config.donor_height_m)
        nodes.append(donor)
        cells.append((donor.id, config.cell_radius_m))
        next_id += 1
        iabs = place_iab_nodes(config, cell_id, id_start=next_id)
        nodes.extend(iabs)
        next_id += len(iabs)
    for cell_id in range(config.num_cells):
        ues = sample_ues(config, cell_id, rng, id_start=next_id)
        nodes.extend(ues)
        next_id += len(ues)
    return Topology(nodes=tuple(nodes), cells=tuple(cells))

