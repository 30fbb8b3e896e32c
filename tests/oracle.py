"""Readable references for the tests to hold the fast paths against.

`reference_topology` builds a trial's nodes one `Node` object at a time,
with the draws of `iabsim.topology.draw_ues` in the same order; the
production per-node arrays (`one_trial_topology`) must equal it bit for
bit. The scheduler
references below take such nodes (`nodes_of` turns a production topology
into them) and give association, RB packing and slot grouping as dicts and
frozensets keyed by node id; `iabsim.scheduler`'s gene-indexed arrays must
agree with them. The per-link evaluator computes the link budget of one
trial one link at a time on those references, with powers as a
``{node_id: EIRP in dBm}`` mapping; the batched kernel of
`iabsim.coverage.ScenarioInstance` must agree with it. It takes the
trial's channel from the test, which draws it again from the trial's own
streams (`trial_channel`), so the agreement also holds the build to those
streams. That kernel takes linear powers in mW; `linear_mw` converts with
its own expression, so no reference shares the production conversion.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from iabsim.channel import (ChannelRealization, min_sinr, noise_mw,
                            sample_realization)
from iabsim.config import ScenarioConfig
from iabsim.coverage import ScenarioInstance
from iabsim.ga import GaParams, GaResult
from iabsim.rng import derive_rng
from iabsim.topology import (DONOR, IAB, UE, Topology, build_topology,
                             deployment_layout, donor_position, draw_ues)


@dataclass(frozen=True)
class Node:
    """One node; ``role`` is a role code of `iabsim.topology`."""
    id: int
    role: int
    cell_id: int
    x: float
    y: float
    height: float


def reference_topology(config: ScenarioConfig,
                       rng: np.random.Generator) -> tuple[Node, ...]:
    """`one_trial_topology`, one node at a time: per cell its
    donor and IAB ring, then per cell its UEs, numbered 0..n-1 in that
    order. Each cell's UE draws are a Poisson count (in Poisson-count
    mode), then ``count`` radius uniforms, then ``count`` angle uniforms."""
    nodes: list[Node] = []

    def add(role: int, cell_id: int, x: float, y: float, height: float) -> None:
        nodes.append(Node(len(nodes), role, cell_id, x, y, height))

    m = config.num_iab_per_cell
    ring = config.iab_ring_radius_fraction * config.cell_radius_m
    lo, hi = config.iab_height_range_m
    heights = np.linspace(lo, hi, m) if m > 1 else np.array([lo])
    offset = math.radians(config.iab_ring_angle_offset_deg)
    for cell_id in range(config.num_cells):
        cx, cy = donor_position(config, cell_id)
        add(DONOR, cell_id, cx, cy, config.donor_height_m)
        for i in range(m):
            theta = offset + 2.0 * math.pi * i / m
            add(IAB, cell_id, cx + ring * math.cos(theta),
                cy + ring * math.sin(theta), float(heights[i]))
    h = config.ue_height_m
    for cell_id in range(config.num_cells):
        cx, cy = donor_position(config, cell_id)
        if config.ue_positions is not None:
            for x, y in config.ue_positions:
                add(UE, cell_id, cx + x, cy + y, h)
            continue
        count = config.num_ues
        if config.ue_count_poisson:
            count = int(rng.poisson(config.num_ues))
        if count == 0:
            continue
        radii = config.cell_radius_m * np.sqrt(rng.random(count))
        angles = 2.0 * math.pi * rng.random(count)
        xs = cx + radii * np.cos(angles)
        ys = cy + radii * np.sin(angles)
        for i in range(count):
            add(UE, cell_id, float(xs[i]), float(ys[i]), h)
    return tuple(nodes)


def one_trial_topology(config: ScenarioConfig,
                       rng: np.random.Generator) -> Topology:
    """`iabsim.topology.build_topology` of one trial's `draw_ues` from
    ``rng``: a stack of one, taken out as its trial 0."""
    counts, uniforms = draw_ues(config, rng)
    return build_topology(config, deployment_layout(config, counts),
                          [uniforms]).trial(0)


def nodes_of(topology: Topology) -> tuple[Node, ...]:
    """A production topology's rows as `Node` objects, in id order."""
    columns = (topology.role, topology.cell, topology.x, topology.y,
               topology.height)
    return tuple(Node(i, *row)
                 for i, row in enumerate(zip(*(c.tolist() for c in columns))))


def _of_role(nodes: Iterable[Node], role: int) -> list[Node]:
    return [n for n in nodes if n.role == role]


def distance_3d(a: Node, b: Node) -> float:
    """Euclidean distance between antenna tops, in meters."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2
                     + (a.height - b.height) ** 2)


class MissingLinkError(KeyError):
    """A channel realization was asked for a link it never sampled."""


@dataclass(frozen=True)
class LinkSample:
    """One sampled link: geometry-derived and random losses, all in dB."""
    tx_id: int
    rx_id: int
    d3d_m: float
    pathloss_db: float
    shadowing_db: float
    fading_db: float
    rain_db: float


def link(realization: ChannelRealization, tx_id: int, rx_id: int) -> LinkSample:
    """One link of a realization; self pairs and unknown ids raise."""
    i = int(np.searchsorted(realization.tx_ids, tx_id))
    k = int(np.searchsorted(realization.rx_ids, rx_id))
    if (tx_id == rx_id or i == len(realization.tx_ids)
            or k == len(realization.rx_ids)
            or realization.tx_ids[i] != tx_id or realization.rx_ids[k] != rx_id):
        raise MissingLinkError(f"no sampled link for tx={tx_id} rx={rx_id}")
    return LinkSample(tx_id=tx_id, rx_id=rx_id,
                      d3d_m=float(realization.d3d_m[i, k]),
                      pathloss_db=float(realization.pathloss_db[i, k]),
                      shadowing_db=float(realization.shadowing_db[i, k]),
                      fading_db=float(realization.fading_db[i, k]),
                      rain_db=float(realization.rain_db[i, k]))


@dataclass(frozen=True)
class Association:
    ue_to_bs: dict[int, int]
    iab_to_donor: dict[int, int]


@dataclass(frozen=True)
class RbAllocation:
    ue_rbs: dict[int, frozenset[int]]
    backhaul_rbs: dict[int, frozenset[int]]
    rb_width_hz: float

    def rbs_of(self, node_id: int) -> frozenset[int]:
        if node_id in self.ue_rbs:
            return self.ue_rbs[node_id]
        return self.backhaul_rbs.get(node_id, frozenset())

    def bandwidth_hz(self, node_id: int) -> float:
        return len(self.rbs_of(node_id)) * self.rb_width_hz


@dataclass(frozen=True)
class SlotPlan:
    slots: tuple[frozenset[int], ...]

    def slot_of(self, tx_id: int) -> frozenset[int]:
        for slot in self.slots:
            if tx_id in slot:
                return slot
        raise KeyError(f"transmitter {tx_id} is in no slot")


def reference_associate(nodes: tuple[Node, ...],
                        realization: ChannelRealization) -> Association:
    """Each UE to the station of its own cell with the least pathloss +
    shadowing, the lowest id on ties; each IAB node to its cell's donor."""
    ue_to_bs = {}
    for ue in _of_role(nodes, UE):
        best_loss, best_id = math.inf, None
        for bs in nodes:
            if bs.role == UE or bs.cell_id != ue.cell_id:
                continue
            sample = link(realization, ue.id, bs.id)
            loss = sample.pathloss_db + sample.shadowing_db
            if loss < best_loss:
                best_loss, best_id = loss, bs.id
        ue_to_bs[ue.id] = best_id
    donor_of_cell = {d.cell_id: d.id for d in _of_role(nodes, DONOR)}
    iab_to_donor = {iab.id: donor_of_cell[iab.cell_id]
                    for iab in _of_role(nodes, IAB)}
    return Association(ue_to_bs=ue_to_bs, iab_to_donor=iab_to_donor)


def reference_allocate_rbs(assoc: Association, nodes: tuple[Node, ...],
                           config: ScenarioConfig) -> RbAllocation:
    """Consecutive ``rbs_per_ue`` blocks per cell in UE id order, wrapping
    around the grid; a relay's backhaul set is the union of its children's."""
    per_ue, grid = config.rbs_per_ue, config.rb_max
    ue_rbs: dict[int, frozenset[int]] = {}
    for cell_id in range(config.num_cells):
        cursor = 0
        for ue in _of_role(nodes, UE):
            if ue.cell_id == cell_id:
                ue_rbs[ue.id] = frozenset((cursor + k) % grid
                                          for k in range(per_ue))
                cursor += per_ue
    backhaul = {iab.id: frozenset().union(
                    *(ue_rbs[u] for u, bs in assoc.ue_to_bs.items()
                      if bs == iab.id))
                for iab in _of_role(nodes, IAB)}
    return RbAllocation(ue_rbs=ue_rbs, backhaul_rbs=backhaul,
                        rb_width_hz=config.rb_width_hz)


def reference_plan_slots(nodes: tuple[Node, ...], mode: str) -> SlotPlan:
    """Separated: one slot of UEs, one of IAB MTs. Simultaneous: one slot
    of all of them. Empty slots are dropped."""
    ue_ids = frozenset(u.id for u in _of_role(nodes, UE))
    iab_ids = frozenset(i.id for i in _of_role(nodes, IAB))
    groups = (ue_ids, iab_ids) if mode == "separated" else (ue_ids | iab_ids,)
    return SlotPlan(slots=tuple(s for s in groups if s))


def received_power(eirp_dbm: float, link: LinkSample,
                   rx_gain_db: float) -> float:
    """Received power in dBm for a given transmit EIRP over a sampled link."""
    return (eirp_dbm + rx_gain_db - link.pathloss_db
            - link.shadowing_db - link.rain_db - link.fading_db)


def interference_at(victim_rx: int, victim_rbs: frozenset[int],
                    co_slot_transmitters: Iterable[tuple[int, float, frozenset[int]]],
                    realization: ChannelRealization) -> float:
    """Aggregate interference at receiver ``victim_rx``, in linear
    milliwatts; each co-slot transmitter is a (node id, EIRP in dBm, RBs)
    triple.

    Each co-slot transmitter contributes its received power scaled by the
    fraction of the victim's resource blocks it overlaps. The victim's own
    transmitter must not be in the list; the receiver itself is skipped.
    """
    if not victim_rbs:
        return 0.0
    total_mw = 0.0
    n_victim = len(victim_rbs)
    for tx, eirp_dbm, rbs in co_slot_transmitters:
        if tx == victim_rx:
            continue
        overlap = len(victim_rbs & rbs) / n_victim
        if overlap == 0.0:
            continue
        p_r = received_power(eirp_dbm, link(realization, tx, victim_rx),
                             realization.rx_gain_db)
        total_mw += overlap * 10.0 ** (p_r / 10.0)
    return total_mw


def sinr(p_r_dbm: float, interference_mw: float, noise_mw: float) -> float:
    """Linear SINR: signal over interference plus thermal noise."""
    return 10.0 ** (p_r_dbm / 10.0) / (interference_mw + noise_mw)


def achievable_rate(gamma: float, bw_hz: float) -> float:
    """Shannon rate in bits/s for a linear SINR over a bandwidth."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    return bw_hz * math.log2(1.0 + gamma)


def evaluate_trial(nodes: tuple[Node, ...], assoc: Association,
                   alloc: RbAllocation, slot_plan: SlotPlan,
                   powers: Mapping[int, float], realization: ChannelRealization,
                   config: ScenarioConfig) -> np.ndarray:
    """Per-UE status codes over one channel realization, in UE id order:
    0 covered, 1 access failure, 2 backhaul failure.

    Access links are checked first; for relay-served UEs the serving relay's
    backhaul must also sustain the aggregate of its children's target rates.
    A failed backhaul marks every child of that relay a backhaul failure.
    Missing realization entries raise; nothing is silently defaulted.
    """
    rx_gain, nf, min_rate_bps = (realization.rx_gain_db, config.nf_db,
                                 config.min_rate_bps)

    access_pass: dict[int, bool] = {}
    for ue in _of_role(nodes, UE):
        bs_id = assoc.ue_to_bs[ue.id]
        rbs = alloc.rbs_of(ue.id)
        bw = alloc.bandwidth_hz(ue.id)
        p_r = received_power(powers[ue.id], link(realization, ue.id, bs_id),
                             rx_gain)
        slot = slot_plan.slot_of(ue.id)
        co = [(j, powers[j], alloc.rbs_of(j)) for j in sorted(slot) if j != ue.id]
        i_mw = interference_at(bs_id, rbs, co, realization)
        gamma = sinr(p_r, i_mw, noise_mw(bw, nf))
        access_pass[ue.id] = gamma >= min_sinr(min_rate_bps, bw)

    backhaul_pass: dict[int, bool] = {}
    for iab in _of_role(nodes, IAB):
        children = [u for u, bs in assoc.ue_to_bs.items() if bs == iab.id]
        if not children:
            backhaul_pass[iab.id] = True
            continue
        donor_id = assoc.iab_to_donor[iab.id]
        union = alloc.rbs_of(iab.id)
        bw = alloc.bandwidth_hz(iab.id)
        p_r = received_power(powers[iab.id], link(realization, iab.id, donor_id),
                             rx_gain)
        slot = slot_plan.slot_of(iab.id)
        co = [(j, powers[j], alloc.rbs_of(j)) for j in sorted(slot) if j != iab.id]
        i_mw = interference_at(donor_id, union, co, realization)
        gamma = sinr(p_r, i_mw, noise_mw(bw, nf))
        aggregate = min_rate_bps * len(children)
        backhaul_pass[iab.id] = gamma >= min_sinr(aggregate, bw)

    status = []
    for ue in _of_role(nodes, UE):
        bs = nodes[assoc.ue_to_bs[ue.id]]
        if bs.role == IAB and not backhaul_pass[bs.id]:
            status.append(2)
        elif not access_pass[ue.id]:
            status.append(1)
        else:
            status.append(0)
    return np.array(status, dtype=int)


def linear_mw(eirp_dbm) -> np.ndarray:
    """EIRPs in dBm as the linear powers in mW that the batched kernel takes."""
    return 10.0 ** (np.asarray(eirp_dbm, dtype=float) / 10.0)


def covered_share(status: np.ndarray) -> float:
    """The share of status codes that are 0 (covered); 1.0 with no UEs."""
    return np.count_nonzero(status == 0) / status.size if status.size else 1.0


def one_trial_channel(topology: Topology, config: ScenarioConfig,
                      rain_rate_mm_h: float, shadow_rng: np.random.Generator,
                      fading_rng: np.random.Generator | None
                      ) -> ChannelRealization:
    """`iabsim.channel.sample_realization` of one topology: a stack of one
    trial, its arrays taken off the trial axis as ``(n_tx, n_rx)``."""
    stack = Topology(topology.role, topology.cell, topology.x[None],
                     topology.y[None], topology.height, topology.layout)
    real = sample_realization(stack, config, (rain_rate_mm_h,), (shadow_rng,),
                              None if fading_rng is None else (fading_rng,))
    return ChannelRealization(
        real.tx_ids, real.rx_ids,
        *(getattr(real, name)[0] for name in ("d3d_m", "pathloss_db",
                                              "shadowing_db", "fading_db",
                                              "rain_db")),
        real.rain_rate_mm_h[0], real.rx_gain_db)


def trial_channel(config: ScenarioConfig, seed: int, trial: int,
                  topology: Topology) -> ChannelRealization:
    """The channel of trial ``trial`` of ``seed`` on its topology, drawn
    again from the trial's streams: the rain rate, uniform over
    ``rain_range_mm_h``, from `rain`; then `shadowing`, and `fading` when
    fading is enabled."""
    lo, hi = config.rain_range_mm_h
    rain = (float(derive_rng(seed, trial, "rain").uniform(lo, hi)) if hi > lo
            else float(lo))
    fading = (derive_rng(seed, trial, "fading") if config.fading_enabled
              else None)
    return one_trial_channel(topology, config, rain,
                             derive_rng(seed, trial, "shadowing"), fading)


def reference_evaluate(instance: ScenarioInstance, eirp_dbm: np.ndarray,
                       realization: ChannelRealization) -> np.ndarray:
    """`ScenarioInstance.evaluate` by the per-link path: the reference
    schedule and `evaluate_trial` on the instance's topology and the given
    channel of its trial, with the EIRPs keyed by `gene_ids`."""
    nodes, config = nodes_of(instance.topology), instance.config
    assoc = reference_associate(nodes, realization)
    alloc = reference_allocate_rbs(assoc, nodes, config)
    slot_plan = reference_plan_slots(nodes, config.slot_mode)
    powers = dict(zip(instance.gene_ids, np.asarray(eirp_dbm).tolist()))
    return evaluate_trial(nodes, assoc, alloc, slot_plan, powers, realization,
                          config)


def _select_full(pop: np.ndarray, fitness: np.ndarray) -> int:
    """Best index over a whole population: max fitness, then min total
    linear power, then min index."""
    total_mw = linear_mw(pop).sum(axis=1)
    return int(np.lexsort((np.arange(pop.shape[0]), total_mw, -fitness))[0])


def reference_optimize(instance: ScenarioInstance, params: GaParams,
                       rng: np.random.Generator) -> GaResult:
    """`iabsim.ga.optimize`, one generation at a time.

    Takes its draws in the order of the contract in the `iabsim.ga`
    docstring, builds each mutant in its own loop step, scores the whole
    K-row population in one call and selects over all of it.
    """
    lower, upper = instance.lower, instance.upper
    k, s, v = params.population, params.neighborhood, params.immigrants
    j = lower.size
    step = params.mutation_step_db

    pop = lower + (upper - lower) * rng.random((k, j))
    fitness = instance.batch_coverage(linear_mw(pop))
    n_evaluations = k
    best = _select_full(pop, fitness)
    queen, queen_fitness = pop[best].copy(), float(fitness[best])

    trace = []
    for _ in range(params.n_iterations):
        u = rng.random(2 * s * j + s + v * j)
        mask_u, step_u = u[:s * j], u[s * j:2 * s * j]
        forced_u, immigrant_u = u[2 * s * j:2 * s * j + s], u[2 * s * j + s:]
        pop = np.empty((k, j))
        pop[0] = queen
        for i in range(s):
            moves = mask_u[i * j:(i + 1) * j] < params.mutation_prob
            if j and not moves.any():
                moves[math.floor(forced_u[i] * j)] = True
            steps = -step + 2.0 * step * step_u[i * j:(i + 1) * j]
            pop[1 + i] = np.clip(queen + np.where(moves, steps, 0.0),
                                 lower, upper)
        for i in range(v):
            pop[1 + s + i] = lower + (upper - lower) * immigrant_u[i * j:(i + 1) * j]
        fitness = instance.batch_coverage(linear_mw(pop))
        n_evaluations += k
        best = _select_full(pop, fitness)
        queen, queen_fitness = pop[best].copy(), float(fitness[best])
        trace.append(queen_fitness)

    return GaResult(queen=queen,
                    queen_fitness=queen_fitness, trace=np.array(trace),
                    n_evaluations=n_evaluations)
