"""End-to-end two-hop uplink service coverage.

A UE is covered when its access link clears the minimum SINR for the target
rate and, if relay-served, the serving relay's backhaul link clears the
minimum SINR for the aggregate of its children's target rates. Coverage
probability is the covered fraction, averaged over Monte-Carlo trials that
re-draw geometry, shadowing, fading, and rain. All power policies of a
trial are scored on one instance, built once, and each policy draws from
its own fresh `policy` stream of the trial; the policies are thus compared
on common random numbers, a paired comparison.

Every evaluation goes through one batched kernel on a `ScenarioInstance`.
Powers are float arrays, one entry per gene in `gene_ids` order: EIRPs in
dBm at the policy boundary only, and linear mW (`to_mw`, once per batch)
in the kernel. The optimizer scores (K, J) batches with `batch_coverage`,
the back-off sweep all back-offs of a trial in one batch. `run_trial`
scores the chosen dBm powers with `evaluate`, which reads one status code
per UE off the same link-pass arrays; the trial keeps the codes on
`TrialOutcome.status` and reports their covered share. Each gene
transmits on exactly one victim link (a UE's access link, or an IAB MT's
backhaul link), so the kernel's victim rows are the gene rows, in gene
order, and the scheduler's gene-indexed arrays (each gene's receiver id,
its RB occupancy row and its slot id; see `iabsim.scheduler`) are the
victims' arrays with no reordering. The tests hold this kernel against a
per-link reference (`tests/oracle.py`) that schedules and computes the
same link budget one link at a time.

A trial's build keeps per trial only what its draws decide: positions,
losses, the association, the relays' RB rows, link constants and
``parent_row``, each UE's serving-relay exclusion and the interference
operand. The rest (gene and UE ids and rows, EIRP bounds, the co-slot mask
less its diagonal, the UE rows' minimum SINR and noise: `_gene_constants`)
is read, read-only, from the topology's `iabsim.topology.Layout`; what a
trial writes into is a copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .channel import (ChannelRealization, min_sinr, noise_mw,
                      sample_realization)
from .config import ScenarioConfig
from .rng import derive_rng
from .scheduler import allocate_rbs, associate, plan_slots
from .topology import IAB, UE, Layout, Topology, build_topology


class ScenarioInstance:
    """A frozen per-trial scenario with precomputed link-budget arrays.

    Received power is linear in transmit power, so per-link unit-EIRP
    constants are precomputed once; evaluating a batch of K candidate power
    vectors (in mW; only `evaluate` takes dBm) then reduces to one matrix
    product. This is what makes the optimizer's N*K fitness evaluations cheap.

    Every gene transmits on exactly one victim link, a UE's access link or
    an IAB MT's backhaul link, so victim row ``v`` is gene ``v``'s link and
    the rows are in gene order. A UE's gene row is its access row; its
    statuses are read at the UE rows, in `ue_ids` order. ``parent_row[r]``
    is the gene row that the r-th UE's service also depends on: its serving
    relay's backhaul row when relay-served, and its own access row when
    donor-served (``x & x == x``). A UE passes when
    ``link_pass[ue] & link_pass[parent_row]``, one gather for the batch.
    """

    def __init__(self, config: ScenarioConfig, topology: Topology,
                 assoc: np.ndarray, alloc: np.ndarray, slots: np.ndarray,
                 realization: ChannelRealization):
        self.config = config
        self.topology = topology
        self.assoc = assoc  # receiver id per gene
        self.realization = realization
        self._build_arrays(alloc, slots)

    def _build_arrays(self, alloc: np.ndarray, slots: np.ndarray) -> None:
        config, real, layout = self.config, self.realization, self.topology.layout
        width, rate, nf = config.rb_width_hz, config.min_rate_bps, config.nf_db
        # Genes are the channel's transmitter rows: UEs and IAB MTs by id.
        # Every UE holds as many RBs as every other (`allocate_rbs`), so all
        # UE rows share one demand and bandwidth.
        (self.gene_ids, ue_rows, iab_rows, self.ue_ids, self.lower,
         self.upper, co_slot, gamma_min, noise) = layout.derived(
            _gene_constants, tuple(config.ue_eirp_range_dbm),
            tuple(config.iab_eirp_range_dbm),
            np.asarray(slots, dtype=np.int64).tobytes(), rate,
            config.rbs_per_ue * width, nf)
        genes, rx = layout.tx, self.assoc
        n_genes = len(genes)
        self.n_ue = len(ue_rows)
        self._ue_rows = ue_rows
        servers = rx[ue_rows]
        self.relay_served = layout.role[servers] == IAB
        # A relay's MT is a gene: its row is where its id sits in ``genes``.
        self.parent_row = np.where(self.relay_served,
                                   np.searchsorted(genes, servers), ue_rows)
        n_children = np.bincount(self.parent_row[self.relay_served],
                                 minlength=n_genes)
        rx_col = np.searchsorted(real.rx_ids, rx)

        # The C-contiguous (J, V) interference operand: gene j's unit EIRP
        # at victim v, weighted by the share of v's RBs that j also holds.
        # The RB counts are sums of 0/1 products, exact in float32 up to
        # 2**24 (``rb_max`` is at most 275), so the shares equal those of a
        # float64 product bit for bit.
        occ = alloc.astype(np.float32)
        shared = occ @ occ.T
        n_rb = shared.diagonal().astype(float)
        overlap = shared / np.maximum(n_rb, 1.0)

        # Co-slot transmitters other than the victim's own (the diagonal)
        # and its receiver. Only a UE's receiver can be a gene (an IAB MT's
        # is a donor): its serving relay, at its parent row.
        interferes = co_slot.copy()
        interferes[self.parent_row[self.relay_served],
                   ue_rows[self.relay_served]] = False

        # Unit-EIRP received power (linear mW at 0 dBm) per (tx, victim) pair,
        # weighted by RB overlap; the self pairs (NaN) are never gathered.
        unit_mw = 10.0 ** (real.unit_rx_dbm / 10.0)
        self.sig_lin = unit_mw[np.arange(n_genes), rx_col]
        self._interf = np.where(interferes, overlap * unit_mw[:, rx_col], 0.0)
        self.interf_lin = self._interf.T  # (V, J) view; perfbench reads it

        # The thresholds come from the scalar budget of the reference path,
        # so they match it bit for bit. The UE rows are the layout's; only
        # the relay rows, a few per cell, vary.
        gamma_min, noise = gamma_min.copy(), noise.copy()
        children = n_children[iab_rows]
        for row, n, rbs in zip(iab_rows.tolist(), children.tolist(),
                               n_rb[iab_rows].tolist()):
            gamma_min[row], noise[row] = _link_constants(rate * n, rbs * width,
                                                         nf)
        self.gamma_min, self.noise_mw = gamma_min, noise
        # A relay with no children carries no demand: its backhaul is vacuous.
        self.vacuous = np.zeros(n_genes, dtype=bool)
        self.vacuous[iab_rows] = children == 0
        self._any_vacuous = bool(self.vacuous.any())

    def batch_link_sinr(self, mw: np.ndarray) -> np.ndarray:
        """Linear SINR of every victim link for a (K, J) batch in mW."""
        gamma = mw * self.sig_lin  # victim row v is gene v's link
        interference = mw @ self._interf
        interference += self.noise_mw
        gamma /= interference
        return gamma

    def _link_pass(self, mw: np.ndarray) -> np.ndarray:
        """(K, V) mask of the victim links that clear their minimum SINR."""
        link_pass = self.batch_link_sinr(mw) >= self.gamma_min
        if self._any_vacuous:
            link_pass |= self.vacuous
        return link_pass

    def batch_coverage(self, mw: np.ndarray) -> np.ndarray:
        """Coverage probability for each row of a (K, J) batch in mW."""
        if self.n_ue == 0:
            return np.ones(mw.shape[0])
        link_pass = self._link_pass(mw)
        ue_pass = link_pass.take(self._ue_rows, axis=1)
        ue_pass &= link_pass.take(self.parent_row, axis=1)
        return np.add.reduce(ue_pass, axis=1) / self.n_ue

    def evaluate(self, eirp_dbm: np.ndarray) -> np.ndarray:
        """Per-UE status codes, in `ue_ids` order, of one EIRP vector (dBm)
        in `gene_ids` order.

        The codes are 0 covered, 1 access failure and 2 backhaul failure.
        A relay-served UE whose relay's backhaul fails is a backhaul
        failure whatever its access link does.
        """
        link_pass = self._link_pass(to_mw(eirp_dbm))
        backhaul_fail = self.relay_served & ~link_pass[self.parent_row]
        return np.where(backhaul_fail, 2,
                        np.where(link_pass[self._ue_rows], 0, 1))

    def access_sinr_db(self, mw: np.ndarray) -> np.ndarray:
        """(B, n_ue) access-link SINR in dB for a (B, J) batch in mW."""
        return 10.0 * np.log10(self.batch_link_sinr(mw)[:, self._ue_rows])


def to_mw(eirp_dbm: np.ndarray) -> np.ndarray:
    """Linear power in mW of EIRPs in dBm: ``10 ** (eirp_dbm / 10)``."""
    mw = np.divide(eirp_dbm, 10.0)
    np.power(10.0, mw, out=mw)
    return mw


def build_instance(config: ScenarioConfig, seed: int,
                   trial_index: int) -> ScenarioInstance:
    """Assemble one trial: geometry, channel, association, allocation, slots.

    Every random draw comes from a stream keyed by (seed, trial, purpose);
    trials are independent and reproducible in any execution order.
    """
    topo_rng = derive_rng(seed, trial_index, "ue-positions")
    topology = build_topology(config, topo_rng)
    lo, hi = config.rain_range_mm_h
    if hi > lo:
        rain_rate = float(derive_rng(seed, trial_index, "rain").uniform(lo, hi))
    else:
        rain_rate = float(lo)
    fading_rng = derive_rng(seed, trial_index, "fading") if config.fading_enabled else None
    realization = sample_realization(
        topology, config, rain_rate,
        shadow_rng=derive_rng(seed, trial_index, "shadowing"),
        fading_rng=fading_rng)
    assoc = associate(topology, realization.long_term_loss_db)
    alloc = allocate_rbs(assoc, topology, config)
    slots = plan_slots(topology, config.slot_mode)
    return ScenarioInstance(config, topology, assoc, alloc, slots, realization)


def _link_constants(demand_bps: float, bandwidth_hz: float,
                    noise_figure_db: float) -> tuple[float, float]:
    """(minimum linear SINR, noise in mW) of a victim link; a relay with no
    children carries no demand and its backhaul is vacuous."""
    if demand_bps == 0.0:
        return 0.0, 1.0
    return (min_sinr(demand_bps, bandwidth_hz),
            noise_mw(bandwidth_hz, noise_figure_db))


def _gene_constants(layout: Layout, ue_range: tuple[float, float],
                    iab_range: tuple[float, float], slots: bytes,
                    rate: float, ue_bandwidth: float, nf: float) -> tuple:
    """What a scenario instance takes from its layout: the gene ids, the UE
    and IAB gene rows, the UE ids, each gene's lower and upper EIRP bound,
    the (J, V) mask of the transmitters that share a victim's slot (its own
    gene aside), and each gene's minimum linear SINR and noise in mW with
    the UE rows set; a trial sets the relay rows."""
    genes = layout.tx
    is_ue = layout.role[genes] == UE
    (ue_lo, ue_hi), (iab_lo, iab_hi) = ue_range, iab_range
    ids = np.frombuffer(slots, dtype=np.int64)
    co_slot = ids[:, None] == ids[None, :]
    np.fill_diagonal(co_slot, False)
    gamma_min, noise = np.zeros(genes.size), np.ones(genes.size)
    gamma_min[is_ue], noise[is_ue] = _link_constants(rate, ue_bandwidth, nf)
    return (tuple(genes.tolist()), np.flatnonzero(is_ue),
            np.flatnonzero(~is_ue), tuple(genes[is_ue].tolist()),
            np.where(is_ue, ue_lo, iab_lo), np.where(is_ue, ue_hi, iab_hi),
            co_slot, gamma_min, noise)


# A policy returns EIRPs in dBm in the instance's `gene_ids` order.
PowersPolicy = Callable[[ScenarioInstance, np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class TrialOutcome:
    trial_index: int
    coverage: float
    status: np.ndarray  # per-UE code of `ScenarioInstance.evaluate`
    gene_ids: tuple[int, ...]
    powers: np.ndarray  # EIRP in dBm per gene, in gene_ids order
    topology: Topology
    assoc: np.ndarray  # receiver id per gene, in gene_ids order


@dataclass(frozen=True)
class MonteCarloResult:
    mean_coverage: float
    per_trial: np.ndarray
    outcomes: tuple[TrialOutcome, ...]


def run_trial(config: ScenarioConfig, policies: Sequence[PowersPolicy],
              seed: int, trial_index: int) -> list[TrialOutcome]:
    """One Monte-Carlo trial, built once and scored under every policy.

    Each policy gets a fresh `policy` stream of this trial, so its outcome
    does not depend on which other policies run or in what order: the
    policies are compared on common random numbers. A policy must not
    mutate the instance.
    """
    instance = build_instance(config, seed, trial_index)
    outcomes = []
    for policy in policies:
        powers = policy(instance, derive_rng(seed, trial_index, "policy"))
        status = instance.evaluate(powers)
        n = status.size
        coverage = np.count_nonzero(status == 0) / n if n else 1.0  # vacuous
        outcomes.append(TrialOutcome(
            trial_index=trial_index, coverage=coverage, status=status,
            gene_ids=instance.gene_ids, powers=powers,
            topology=instance.topology, assoc=instance.assoc))
    return outcomes


def monte_carlo_coverage(config: ScenarioConfig,
                         policies: Sequence[Union[str, PowersPolicy]],
                         trials: int, seed: int) -> list[MonteCarloResult]:
    """Mean service coverage of each policy over independent trials.

    Each trial redraws the UE pattern and the channel, re-associates and
    re-allocates once, then applies and evaluates every policy on that one
    instance, each with its own `policy` stream: a paired comparison on
    common random numbers (see `run_trial`). A policy is a callable (instance, rng) ->
    EIRP array or one of "max" | "random" | "ga". One result is returned
    per policy, in the order given.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    from .policies import make_policy
    policies = [make_policy(p, config) if isinstance(p, str) else p
                for p in policies]
    per_policy = zip(*(run_trial(config, policies, seed, t)
                       for t in range(trials)))
    results = []
    for outcomes in per_policy:
        per_trial = np.array([o.coverage for o in outcomes])
        results.append(MonteCarloResult(mean_coverage=float(per_trial.mean()),
                                        per_trial=per_trial, outcomes=outcomes))
    return results
