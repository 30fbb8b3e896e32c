"""Pre-power-control sequencing: association, RB allocation, slot planning.

Each result has one row per uplink transmitter (a gene: every UE and every
IAB node's MT) in ascending id: the topology's ``tx`` rows, which are also
the rows of `ChannelRealization.tx_ids`. Roles and cells are read from the
topology's per-node arrays at those rows.

- `associate`: ``(J,)`` receiver ids, a UE's serving station or an IAB
  node's donor;
- `allocate_rbs`: ``(J, rb_max)`` bool RB occupancy;
- `plan_slots`: ``(J,)`` slot ids; transmitters with equal ids share a slot.

Servers are chosen before power optimization, from long-term loss only
(pathloss + shadowing), so they stay fixed while transmit powers are
searched. Resource blocks are packed consecutively per cell and
wrap around once the grid is exhausted; both cells reuse the same grid.

The association mask, the UEs' RB blocks and the slot ids are built once
per layout (`iabsim.topology.Layout.derived`) and are read-only; a trial
computes the argmin and the relays' RB rows, on a copy.
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig
from .topology import DONOR, IAB, UE, Layout, Topology


def _allowed(layout: Layout) -> np.ndarray:
    """(transmitters, receivers) mask of the receivers each transmitter may
    use: a UE any station of its own cell, an IAB node its cell's donor."""
    tx, rx, cell, role = layout.tx, layout.rx, layout.cell, layout.role
    return ((cell[tx][:, None] == cell[rx][None, :])
            & ((role[tx] == UE)[:, None] | (role[rx] == DONOR)[None, :]))


def associate(topology: Topology, long_term_loss: np.ndarray) -> np.ndarray:
    """Each transmitter's receiver: a UE's minimum long-term-loss station
    of its own cell, an IAB node's own cell's donor.

    ``long_term_loss[j, b]`` is the dB loss from the j-th transmitter to
    the b-th receiver (donor or IAB node), both in ascending id order. One
    masked argmin per row picks among the allowed receivers; ties break
    toward the lowest station id.
    """
    layout = topology.layout
    allowed = layout.derived(_allowed)
    loss = np.asarray(long_term_loss, dtype=float)
    if loss.shape != allowed.shape:
        raise ValueError(f"long_term_loss has shape {loss.shape}, expected "
                         f"{allowed.shape} (transmitters, receivers)")
    best = np.where(allowed, loss, np.inf).argmin(axis=1)
    return layout.rx[best]


def _ue_blocks(layout: Layout, per_ue: int, grid: int) -> tuple:
    """The UEs' rows among the transmitters, each UE's ``per_ue`` RB
    columns (see `allocate_rbs`), and the ``(transmitters, grid)``
    occupancy of the UE rows alone."""
    tx = layout.tx
    ue_rows = np.flatnonzero(layout.role[tx] == UE)
    # Each UE's rank among its cell's UEs: its position in a stable sort by
    # cell, less the position of its cell's first UE there.
    cell = layout.cell[tx[ue_rows]]
    order = np.argsort(cell, kind="stable")
    rank = np.empty(len(cell), dtype=int)
    rank[order] = np.arange(len(cell)) - np.searchsorted(cell[order],
                                                         cell[order])
    cols = (rank[:, None] * per_ue + np.arange(per_ue)) % grid
    occ = np.zeros((len(tx), grid), dtype=bool)
    occ[ue_rows[:, None], cols] = True
    return ue_rows, cols, occ


def allocate_rbs(assoc: np.ndarray, topology: Topology,
                 config: ScenarioConfig) -> np.ndarray:
    """Pack per-UE RB blocks and derive each relay's backhaul RBs.

    UEs of a cell receive consecutive blocks from index 0 upward (ordered by
    UE id). Once cumulative demand exceeds the grid, indices wrap to 0 and
    co-channel reuse begins within the cell. Both cells allocate over the
    same grid. A relay's row is the OR of its children's rows, the children
    being the UEs that ``assoc`` serves from it.
    """
    per_ue = config.rbs_per_ue
    grid = config.rb_max
    if per_ue > grid:
        raise ValueError(f"rbs_per_ue ({per_ue}) exceeds the RB grid ({grid})")
    layout = topology.layout
    ue_rows, cols, ue_occ = layout.derived(_ue_blocks, per_ue, grid)
    occ = ue_occ.copy()
    # A relay also holds the RBs of each UE it serves; a relay's MT is a
    # transmitter, so its row is where its id sits in ``tx``.
    servers = assoc[ue_rows]
    child = np.flatnonzero(layout.role[servers] == IAB)
    relay = np.searchsorted(layout.tx, servers[child])
    occ[relay[:, None], cols[child]] = True
    return occ


def _slot_ids(layout: Layout, mode: str) -> np.ndarray:
    is_iab = (layout.role[layout.tx] == IAB).astype(int)
    return is_iab if mode == "separated" else np.zeros_like(is_iab)


def plan_slots(topology: Topology, mode: str) -> np.ndarray:
    """Group uplink transmitters into slots.

    Separated: UEs in slot 0, IAB MTs in slot 1. Simultaneous: all of them
    in slot 0. A slot's members are the co-slot interferer pool for any
    victim link transmitting in it. The array is the layout's, read-only.
    """
    if mode not in ("separated", "simultaneous"):
        raise ValueError(
            f"slot mode must be separated|simultaneous, got {mode!r}")
    return topology.layout.derived(_slot_ids, mode)
