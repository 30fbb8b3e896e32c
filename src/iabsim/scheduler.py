"""Pre-power-control sequencing: association, RB allocation, slot planning.

Association precedes power optimization and uses long-term loss only
(pathloss + shadowing), so the chosen servers stay fixed while transmit
powers are searched. Resource blocks are packed consecutively per cell and
wrap around once the grid is exhausted; both cells reuse the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import ScenarioConfig
from .topology import Topology


@dataclass(frozen=True)
class Association:
    ue_to_bs: dict[int, int]
    iab_to_donor: dict[int, int]


@dataclass(frozen=True)
class RbAllocation:
    ue_rbs: dict[int, frozenset[int]]
    backhaul_rbs: dict[int, frozenset[int]]
    rb_width_hz: float
    rbs_per_ue: int
    # Grid accounting only: demand padded up to the minimum schedulable grid.
    scheduled_rbs_per_cell: dict[int, int]

    def rbs_of(self, node_id: int) -> frozenset[int]:
        if node_id in self.ue_rbs:
            return self.ue_rbs[node_id]
        return self.backhaul_rbs.get(node_id, frozenset())

    def bandwidth_hz(self, node_id: int) -> float:
        return len(self.rbs_of(node_id)) * self.rb_width_hz


class SlotMode(Enum):
    SEPARATED = "separated"
    SIMULTANEOUS = "simultaneous"


@dataclass(frozen=True)
class SlotPlan:
    mode: SlotMode
    slots: tuple[frozenset[int], ...]

    def slot_of(self, tx_id: int) -> frozenset[int]:
        for slot in self.slots:
            if tx_id in slot:
                return slot
        raise KeyError(f"transmitter {tx_id} is in no slot")


def associate(topology: Topology, long_term_loss: np.ndarray) -> Association:
    """Assign each UE to its minimum long-term-loss same-cell station.

    ``long_term_loss[u, b]`` is the dB loss from the u-th UE to the b-th
    receiver (donor or IAB node), both in ascending id order. One masked
    argmin per UE picks among the stations of the UE's own cell; ties break
    toward the lowest station id. Every IAB node backhauls to its own
    cell's donor.
    """
    ues = sorted(topology.ues, key=lambda n: n.id)
    rxs = sorted(topology.receivers, key=lambda n: n.id)
    ue_cell = np.array([u.cell_id for u in ues], dtype=int)
    rx_cell = np.array([b.cell_id for b in rxs], dtype=int)
    same_cell = ue_cell[:, None] == rx_cell[None, :]
    loss = np.asarray(long_term_loss, dtype=float)
    if loss.shape != same_cell.shape:
        raise ValueError(f"long_term_loss has shape {loss.shape}, expected "
                         f"{same_cell.shape} (UEs, receivers)")
    best = np.where(same_cell, loss, np.inf).argmin(axis=1)
    rx_ids = [b.id for b in rxs]
    ue_to_bs = {u.id: rx_ids[b] for u, b in zip(ues, best.tolist())}
    iab_to_donor = {iab.id: topology.donor_of_cell(iab.cell_id).id
                    for iab in topology.iab_nodes}
    return Association(ue_to_bs=ue_to_bs, iab_to_donor=iab_to_donor)


def allocate_rbs(assoc: Association, topology: Topology,
                 config: ScenarioConfig) -> RbAllocation:
    """Pack per-UE RB blocks and derive backhaul RB sets.

    UEs of a cell receive consecutive blocks from index 0 upward (ordered by
    UE id). Once cumulative demand exceeds the grid, indices wrap to 0 and
    co-channel reuse begins within the cell. Both cells allocate over the
    same grid. A relay's backhaul set is the union of its children's blocks.
    """
    per_ue = config.rbs_per_ue
    grid = config.rb_max
    if per_ue > grid:
        raise ValueError(f"rbs_per_ue ({per_ue}) exceeds the RB grid ({grid})")
    ue_rbs: dict[int, frozenset[int]] = {}
    scheduled: dict[int, int] = {}
    for cell_id in range(len(topology.cells)):
        cursor = 0
        cell_ues = sorted(u.id for u in topology.ues if u.cell_id == cell_id)
        for ue_id in cell_ues:
            ue_rbs[ue_id] = frozenset((cursor + k) % grid for k in range(per_ue))
            cursor += per_ue
        scheduled[cell_id] = max(config.rb_min, min(cursor, grid))
    children: dict[int, list[int]] = {iab.id: [] for iab in topology.iab_nodes}
    for ue_id, bs_id in assoc.ue_to_bs.items():
        if bs_id in children:
            children[bs_id].append(ue_id)
    backhaul = {iab_id: frozenset().union(*(ue_rbs[c] for c in kids))
                for iab_id, kids in children.items()}
    return RbAllocation(ue_rbs=ue_rbs, backhaul_rbs=backhaul,
                        rb_width_hz=config.rb_width_hz, rbs_per_ue=per_ue,
                        scheduled_rbs_per_cell=scheduled)


def plan_slots(assoc: Association, topology: Topology,
               mode: SlotMode | str) -> SlotPlan:
    """Group uplink transmitters into slots.

    Separated: one slot with every UE, one with every IAB MT. Simultaneous:
    a single slot with all of them. A slot's members are the co-slot
    interferer pool for any victim link transmitting in it.
    """
    if isinstance(mode, str):
        mode = SlotMode(mode)
    ue_ids = frozenset(u.id for u in topology.ues)
    iab_ids = frozenset(i.id for i in topology.iab_nodes)
    if mode is SlotMode.SEPARATED:
        slots = tuple(s for s in (ue_ids, iab_ids) if s)
        if not slots:
            slots = (frozenset(),)
    else:
        slots = (ue_ids | iab_ids,)
    return SlotPlan(mode=mode, slots=slots)
