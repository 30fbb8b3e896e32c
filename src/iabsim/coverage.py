"""End-to-end two-hop uplink service coverage.

A UE is covered when its access link clears the minimum SINR for the target
rate and, if relay-served, the serving relay's backhaul link clears the
minimum SINR for the aggregate of its children's target rates. Coverage
probability is the covered fraction, averaged over Monte-Carlo trials that
re-draw geometry, shadowing, fading, and rain. All power policies of a
trial are scored on one instance, built once, and each policy draws from
its own fresh `policy` stream of the trial; the policies are thus compared
on common random numbers, a paired comparison.

Every evaluation goes through one batched kernel (`_link_sinr`,
`_link_pass`, `_coverage`), run on one `ScenarioInstance` or on a group of
trials of one build block (`_Group`). Powers are float arrays, one entry per
gene in `gene_ids` order: EIRPs in dBm at the policy boundary only, and
linear mW (`to_mw`, once per batch) in the kernel. The optimizer scores
(T, K, J) batches of a group with `group_coverage` (a group of one with
`batch_coverage`), the back-off sweep all back-offs of a trial in one
batch. `run_trials` scores the chosen dBm powers of a block's trials with
`evaluate`, which reads one status code
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
operand. The rest (gene and UE ids and rows, EIRP bounds, the UE rows'
minimum SINR and noise, and the operand's entries that may be nonzero:
`_gene_constants`) is read, read-only, from the topology's
`iabsim.topology.Layout`; what a trial writes into is its own.

The trial axis. `build_trials` takes the ``ue-positions``, ``rain``,
``shadowing`` and ``fading`` stream states of all its trials from one
`iabsim.rng.trial_states` call, and `monte_carlo_coverage` and the
back-off sweep the ``policy`` states of all theirs; the states are
memoised per trial, so the sweep points of an experiment derive them
once. Each stream is its trial's own, drawn from a fresh Generator: the
draws are those of one `iabsim.rng.derive_rng` per stream. Each trial
draws its UE counts and uniforms first (`iabsim.topology.draw_ues`).
Every trial is then built in a block of T trials that drew the same
counts, and so the same layout, T = 1 included (`build_instance` builds a
block of one): the block's UEs are placed in one pass over ``(T, n)``
coordinates (`iabsim.topology.build_topology`), each trial draws its
rain, shadowing and fading from its own streams, and the block goes
through the channel, the scheduler and the instance arithmetic as one
pass over ``(T, J, R)`` arrays (J genes, R receivers). Every stacked
operation is elementwise, a gather, or a product of 0/1 RB rows, exact in
float32, so a trial's arrays are the same bit for bit whichever trials
share its block; no product of the build that decides a threshold is
stacked. A block's stacked arrays hold at most `_BLOCK_DOUBLES` entries: a
trial counts J * max(R, rb_max), its channel and RB-occupancy arrays. Its
T * J * J operand doubles exceed that only when J > max(R, rb_max).
`build_trials` hands its caller each block whole, as a list of ``(trial,
instance)``, and the policies choose the powers of a block's trials in
one call each, so the GA searches them in lockstep.

A group. `_Group` takes the arrays the kernel reads of T trials of one
block with one index over the block's trial axis: the ``(J,)`` ones as
``(T, J)``, the interference operands as ``(T, J, V)``; any subset of a
block's trials, in any order, is one index. The kernel reads a group
through the `_Height` of each batch height K it is called at, built on
first use and kept; a search calls at most four (its initial population,
the 1 + S heads, a block's g * V immigrants and a shorter last block). A
height holds C-contiguous ``(T, K, J)`` copies of the ``(J,)`` arrays, so
that each elementwise step runs as one loop over the batch and not as
T * K loops of J, and each UE's parent row as one ``(T, K, n_ue)`` flat
index into the batch's ``(T, K, V)`` link-pass mask. The interference product
is one ``(T, K, J) @ (T, J, V)`` matmul, one BLAS call per trial on that
trial's operand, and a row's product does not depend on the other rows of
its call; every other step is elementwise or a per-row gather or sum. So a
trial's rows score the same bits in a group as alone (a property test
holds this at one BLAS thread and at the default count, and with SIMD
dispatch off). A group holds its own copy of what it reads, about T * J *
(J + 4) doubles, and each height T * K * (3 * J + n_ue) words more.

The ``(J, V)`` interference operand is scattered, not multiplied out. The
entries that may be nonzero are fixed by the layout: the pairs of
distinct genes in one slot that are two UEs whose RB blocks overlap, or
that include a relay. Each UE's RB block is fixed by its rank in its cell,
so the RBs two UEs share are a layout constant too (`_block_overlap`); a
relay's depend on the UEs it serves, and come per trial from a ``(T,
n_iab, rb_max) @ (T, rb_max, J)`` RB product. Only the received powers of
the entries, and of each gene's own link, are gathered and converted to
mW. A block scatters its trials' entries once, into one C-contiguous
``(T, J, V)`` array; a trial's operand is its view of that array.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .channel import min_sinr, noise_mw, sample_realization
from .config import ScenarioConfig
from .rng import stream, trial_states
from .scheduler import _ue_blocks, allocate_rbs, associate, plan_slots
from .topology import (IAB, Layout, Topology, build_topology,
                       deployment_layout, draw_ues)

# Entries a block's stacked arrays may hold (see the module docstring): it
# bounds a block's memory, and the arrays are the same whatever its value.
_BLOCK_DOUBLES = 1 << 16


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

    Trial ``i`` of a block of trials of one layout (`build_trials`): it
    holds the layout's constants, views of the block's per-trial arrays,
    its interference operand among them, and the block and ``i``, from
    which a group of the block's trials takes its arrays (`_Group`).
    """

    def __init__(self, config: ScenarioConfig, topology: Topology,
                 block: _Block, i: int):
        c = block.constants
        self.config = config
        self.topology = topology
        self.gene_ids, self.ue_ids = c.gene_ids, c.ue_ids
        self.lower, self.upper = c.lower, c.upper
        self._ue_rows = c.ue_rows
        self.n_ue = len(c.ue_rows)
        self.assoc = block.assoc[i]  # receiver id per gene
        self.relay_served = block.relay_served[i]
        self.parent_row = block.parent_row[i]
        self.sig_lin = block.sig_lin[i]
        self.gamma_min = block.gamma_min[i]
        self.noise_mw = block.noise_mw[i]
        self._ue_cols = c.ue_cols
        self._interf = block.interf[i]
        self._block, self._index = block, i

    @property
    def interf_lin(self) -> np.ndarray:
        """The (V, J) view of the operand; perfbench reads it."""
        return self._interf.T

    def _ue_pass(self, link_pass: np.ndarray) -> np.ndarray:
        """(..., n_ue) mask of the UEs served, of a (..., V) link-pass
        mask."""
        return np.logical_and(link_pass[..., self._ue_cols],
                              link_pass.take(self.parent_row, axis=-1))

    def batch_link_sinr(self, mw: np.ndarray) -> np.ndarray:
        """Linear SINR of every victim link for a (K, J) batch in mW."""
        return _link_sinr(self, mw)

    def batch_coverage(self, mw: np.ndarray) -> np.ndarray:
        """Coverage probability for each row of a (K, J) batch in mW."""
        return _coverage(self, mw)

    def evaluate(self, eirp_dbm: np.ndarray) -> np.ndarray:
        """Per-UE status codes, in `ue_ids` order, of one EIRP vector (dBm)
        in `gene_ids` order.

        The codes are 0 covered, 1 access failure and 2 backhaul failure.
        A relay-served UE whose relay's backhaul fails is a backhaul
        failure whatever its access link does.
        """
        link_pass = _link_pass(self, to_mw(eirp_dbm))
        backhaul_fail = self.relay_served & ~link_pass[self.parent_row]
        return np.where(backhaul_fail, 2,
                        np.where(link_pass[self._ue_rows], 0, 1))

    def access_sinr_db(self, mw: np.ndarray) -> np.ndarray:
        """(B, n_ue) access-link SINR in dB for a (B, J) batch in mW."""
        return 10.0 * np.log10(self.batch_link_sinr(mw)[:, self._ue_rows])

    def coverage_bounds(self) -> tuple[int, int]:
        """(floor, ceiling): how many UEs the powers at ``lower`` cover,
        and how many any powers within the bounds can cover at most.

        A link's SINR only falls as other genes raise their power (Zander
        1992; Foschini and Miljanic 1993), so its best case is its own
        gene at ``upper`` and every other at ``lower``. The operand's
        diagonal is 0, so that link's interference is its interference at
        ``lower``: the ceiling scores each victim at ``upper_mw * sig_lin /
        (lower_mw @ operand + noise_mw)``, from the one kernel row at
        ``lower``, in the kernel's own arithmetic. A UE counts toward the
        ceiling when its access row and its ``parent_row`` both pass so.
        Rounding is monotone, and a row's product does not depend on the
        rows scored with it, so no powers score above the ceiling; and
        when the floor reaches it, ``lower`` is the GA's exact answer:
        the most coverage, at the least total power.
        """
        lower = to_mw(self.lower[None])
        interference = lower @ self._interf
        interference += self.noise_mw
        floor, ceiling = (
            int(np.count_nonzero(self._ue_pass(
                mw * self.sig_lin / interference >= self.gamma_min)))
            for mw in (lower, to_mw(self.upper)))
        return floor, ceiling


class _Group:
    """A group of T trials of one block, as the fitness kernel reads it:
    the block's arrays at the trials' indices, the ``(J,)`` ones as
    ``(T, J)``. Called on a ``(T, K, J)`` batch, it scores the batch on
    the `_Height` of that K, built on first use and kept: a search calls
    a group at a few heights only."""

    def __init__(self, instances: Sequence[ScenarioInstance]):
        first = instances[0]
        block = first._block
        if any(i._block is not block for i in instances):
            raise ValueError("a group's trials must come from one block")
        trials = [i._index for i in instances]
        self.sig_lin = block.sig_lin[trials]
        self.noise_mw = block.noise_mw[trials]
        self.gamma_min = block.gamma_min[trials]
        self.parent_row = block.parent_row[trials]
        self._interf = block.interf[trials]
        self.n_ue, self._ue_cols = first.n_ue, first._ue_cols
        self._heights: dict[int, _Height] = {}

    def __call__(self, mw: np.ndarray) -> np.ndarray:
        """(T, K) coverage of each row of a (T, K, J) batch in mW."""
        k = mw.shape[1]
        height = self._heights.get(k)
        if height is None:
            height = self._heights[k] = _Height(self, k)
        return _coverage(height, mw)


class _Height:
    """What the kernel reads of a `_Group` for ``(T, K, J)`` batches of one
    height K: C-contiguous ``(T, K, J)`` copies of its ``(T, J)`` arrays,
    so that each elementwise step runs as one contiguous loop and not as
    T * K loops of J, and each UE's parent row as a ``(T, K, n_ue)`` flat
    index into the batch's ``(T, K, V)`` link-pass mask."""

    def __init__(self, group: _Group, k: int):
        def tiled(rows: np.ndarray) -> np.ndarray:
            return np.repeat(rows[:, None], k, axis=1)

        self.sig_lin = tiled(group.sig_lin)
        self.noise_mw = tiled(group.noise_mw)
        self.gamma_min = tiled(group.gamma_min)
        self._interf = group._interf
        n_trials, n_genes = group.sig_lin.shape
        self.n_ue, self._ue_cols = group.n_ue, group._ue_cols
        # Row k of trial t starts at (t * K + k) * V in the flat mask.
        row_at = np.arange(n_trials * k).reshape(n_trials, k, 1) * n_genes
        self._parent_at = row_at + group.parent_row[:, None]

    def _ue_pass(self, link_pass: np.ndarray) -> np.ndarray:
        """(T, K, n_ue) mask of the UEs served, of a (T, K, V) link-pass
        mask: ``link_pass[t, k, ue_rows[u]] & link_pass[t, k,
        parent_row[t, u]]``."""
        return np.logical_and(link_pass[..., self._ue_cols],
                              link_pass.reshape(-1).take(self._parent_at))


def _scatter(operand_at: np.ndarray, entries: np.ndarray,
             n_genes: int) -> np.ndarray:
    """The C-contiguous (T, J, V) operands of (T, E) entries, each set at
    the flat indices ``operand_at`` of its (J, V) operand, and 0
    elsewhere."""
    interf = np.zeros((len(entries), n_genes, n_genes))
    interf.reshape(len(entries), -1)[:, operand_at] = entries
    return interf


# The fitness kernel. ``trials`` is one `ScenarioInstance`, its arrays
# (J,), with a (..., K, J) batch, or the `_Height` of a group of T trials,
# its arrays (T, K, J), with a (T, K, J) batch; each row is scored on its
# own trial's arrays, so a trial's rows get the same bits in a group as
# alone.

def _link_sinr(trials: Union[ScenarioInstance, _Height],
               mw: np.ndarray) -> np.ndarray:
    """(..., K, V) linear SINR of every victim link for a batch in mW."""
    gamma = mw * trials.sig_lin  # victim row v is gene v's link
    interference = mw @ trials._interf
    interference += trials.noise_mw
    gamma /= interference
    return gamma


def _link_pass(trials: Union[ScenarioInstance, _Height],
               mw: np.ndarray) -> np.ndarray:
    """(..., K, V) mask of the victim links that clear their minimum
    SINR."""
    return _link_sinr(trials, mw) >= trials.gamma_min


def _coverage(trials: Union[ScenarioInstance, _Height],
              mw: np.ndarray) -> np.ndarray:
    """(..., K) coverage probability of each row of a batch in mW."""
    if trials.n_ue == 0:
        return np.ones(mw.shape[:-1])
    # Counts of 0/1 summed as floats are exact: the quotients are those of
    # integer counts. A product with ones sums them faster than a reduce.
    served = trials._ue_pass(_link_pass(trials, mw)) @ np.ones(trials.n_ue)
    served /= trials.n_ue
    return served


def group_coverage(instances: Sequence[ScenarioInstance]
                   ) -> Callable[[np.ndarray], np.ndarray]:
    """The batched coverage of a group of T trials of one build block (a
    ValueError otherwise): a function from a (T, K, J) batch in mW, trial
    t's rows in its trial's gene order, to the (T, K) coverage of each row
    on its own trial, the same bits as its trial's `batch_coverage` gives
    it. A group of one calls that method, so that perfbench's tracer,
    which hooks it, counts a one-trial search's rows."""
    if len(instances) == 1:
        one = instances[0]
        return lambda mw: one.batch_coverage(mw[0])[None]
    return _Group(instances)


def to_mw(eirp_dbm: np.ndarray) -> np.ndarray:
    """Linear power in mW of EIRPs in dBm: ``10 ** (eirp_dbm / 10)``.

    The base is an array of 10.0, not the scalar: numpy's float power runs
    faster on two contiguous operands, with the same bits."""
    mw = np.divide(eirp_dbm, 10.0)
    np.power(np.full(mw.shape, 10.0), mw, out=mw)
    return mw


# The streams a trial's build draws from, in `trial_states` order.
_BUILD_TAGS = ("ue-positions", "rain", "shadowing", "fading")


def build_trials(config: ScenarioConfig, seed: int, trials: Iterable[int]
                 ) -> Iterator[list[tuple[int, ScenarioInstance]]]:
    """Build the given trials stacked, yielding each block of them as a
    list of ``(trial index, instance)``.

    Every random draw comes from a stream keyed by (seed, trial, purpose);
    trials are independent and reproducible in any execution order. The
    streams of every trial come from one `trial_states` call, and
    each trial draws its UE counts and uniforms first; the trials that
    drew the same counts (the same layout) are then built together, in
    blocks bounded by `_BLOCK_DOUBLES`, layout by layout in the order each
    first appears, so the order depends on the draws alone. Only the
    current block's arrays are kept alive.
    """
    trials = list(trials)
    states = trial_states(seed, trials, _BUILD_TAGS)
    groups: dict[tuple[int, ...], list] = {}
    for t, trial_state in zip(trials, states):
        counts, uniforms = draw_ues(config, stream(trial_state[0]))
        groups.setdefault(counts, []).append((t, uniforms, trial_state))
    for counts, members in groups.items():
        layout = deployment_layout(config, counts)
        per_trial = len(layout.tx) * max(len(layout.rx), config.rb_max)
        size = max(1, _BLOCK_DOUBLES // max(per_trial, 1))
        while members:
            # A block's draws are dropped once it is built.
            block, members[:size] = members[:size], []
            stack = build_topology(config, layout,
                                   [uniforms for _, uniforms, _ in block])
            yield _build_block(config, stack, [t for t, _, _ in block],
                               [state for _, _, state in block])


def _build_block(config: ScenarioConfig, stack: Topology,
                 trials: list[int], states: list[np.ndarray]
                 ) -> list[tuple[int, ScenarioInstance]]:
    """The trials of one layout in one pass, on their stacked topology
    (x and y of shape (T, n)) and each trial's `_BUILD_TAGS` states:
    channel, association, allocation, slots, then the instance arrays."""
    lo, hi = config.rain_range_mm_h
    rain = [float(stream(s[1]).uniform(lo, hi)) if hi > lo else float(lo)
            for s in states]
    shadow = [stream(s[2]) for s in states]
    fading = ([stream(s[3]) for s in states] if config.fading_enabled
              else None)
    layout = stack.layout
    realization = sample_realization(stack, config, rain, shadow, fading)
    assoc = associate(stack, realization.long_term_loss_db)
    alloc = allocate_rbs(assoc, stack, config)
    slots = plan_slots(stack, config.slot_mode)
    block = _trial_arrays(config, layout, assoc, alloc, slots,
                          realization.unit_rx_dbm)
    return [(t, ScenarioInstance(config, stack.trial(i), block, i))
            for i, t in enumerate(trials)]


def build_instance(config: ScenarioConfig, seed: int,
                   trial_index: int) -> ScenarioInstance:
    """Assemble one trial: geometry, channel, association, allocation,
    slots; `build_trials` of that trial alone, a block of one."""
    [[(_, instance)]] = build_trials(config, seed, (trial_index,))
    return instance


# What a scenario instance takes from its layout: see `_gene_constants`.
_GeneConstants = namedtuple("_GeneConstants", (
    "gene_ids", "ue_ids", "ue_rows", "ue_cols", "iab_rows", "lower", "upper",
    "gamma_min", "noise_mw", "operand_at", "entry_v", "gather_v",
    "gather_at", "with_relay", "relay_at", "ue_shared"))

# The arrays of a block of T trials of one layout: its `_GeneConstants`
# and the per-trial instance arrays, each (T, ...), ``interf`` the (T, J,
# V) interference operands: gene j's unit EIRP at victim v, weighted by
# the share of v's RBs that j also holds; 0 where j does not interfere.
_Block = namedtuple("_Block", (
    "constants", "assoc", "relay_served", "parent_row", "sig_lin",
    "gamma_min", "noise_mw", "interf"))


def _trial_arrays(config: ScenarioConfig, layout: Layout, assoc: np.ndarray,
                  alloc: np.ndarray, slots: np.ndarray,
                  unit_rx_dbm: np.ndarray) -> _Block:
    """The arrays of a block of T trials of one layout: ``assoc`` is
    (T, J), ``alloc`` (T, J, rb_max), ``unit_rx_dbm`` (T, J, R); ``slots``
    is the layout's (J,) slot ids."""
    width, rate, nf = config.rb_width_hz, config.min_rate_bps, config.nf_db
    c = layout.derived(
        _gene_constants, tuple(config.ue_eirp_range_dbm),
        tuple(config.iab_eirp_range_dbm),
        np.asarray(slots, dtype=np.int64).tobytes(), rate,
        config.rbs_per_ue, config.rb_max, width, nf)
    iab_rows = c.iab_rows
    n_trials, n_genes = assoc.shape
    servers = assoc.take(c.ue_rows, axis=1)
    relay_served = layout.role.take(servers) == IAB
    # A relay's MT is a gene: its row is where its id sits in ``tx``.
    parent_row = np.where(relay_served, layout.tx.searchsorted(servers),
                          c.ue_rows)
    # Flat indices into the block's (T, J) and (T, J, R) arrays: ``rows``
    # of each UE's parent row and of each relay, ``at`` of each gene's
    # receiver column. Trial t's rows start at t * J.
    gene_at = np.arange(n_trials)[:, None] * n_genes
    rows = parent_row + gene_at
    relay_rows = (iab_rows + gene_at).ravel()
    at = layout.rx.searchsorted(assoc)
    at += gene_at * len(layout.rx)
    # A relay's children are the UEs whose parent row is its own.
    children = np.bincount(rows.ravel(), minlength=n_trials * n_genes).take(
        relay_rows).reshape(n_trials, -1)

    # How many RBs each gene holds, and each relay shares with each gene:
    # sums of 0/1 values, exact in float32 up to 2**24 (``rb_max`` is at
    # most 275), so their float64 quotients equal those of a float64
    # product bit for bit.
    occ = alloc.astype(np.float32)
    shared = occ.take(iab_rows, axis=1) @ occ.swapaxes(1, 2)
    rbs = np.add.reduce(occ, axis=2)

    # Unit-EIRP received power (linear mW at 0 dBm) of the links the
    # instance reads, gathered in dBm by flat index and then converted:
    # each gene at its own receiver, then each operand entry's interferer
    # at its victim's receiver.
    at = at.take(c.gather_v, axis=1)
    at += c.gather_at
    unit_mw = unit_rx_dbm.take(at)
    unit_mw /= 10.0
    np.power(10.0, unit_mw, out=unit_mw)
    # The only self pair (NaN) gathered is a relay at the UEs it serves,
    # where it does not interfere: 0.
    np.fmax(unit_mw, 0.0, out=unit_mw)
    # Each entry weighted by the share of its victim's RBs its interferer
    # also holds: a UE pair's shared count is the layout's, a pair with a
    # relay's the trial's.
    counts = c.ue_shared
    if iab_rows.size:
        counts = np.where(c.with_relay, shared.reshape(n_trials, -1).take(
            c.relay_at, axis=1), counts)
    operand = np.divide(counts, np.maximum(rbs, 1.0).take(c.entry_v, axis=1),
                        dtype=float)
    operand *= unit_mw[:, n_genes:]
    interf = _scatter(c.operand_at, operand, n_genes)

    # The thresholds come from the scalar budget of the reference path,
    # so they match it bit for bit. The UE rows are the layout's; only
    # the relay rows, a few per cell, vary.
    gamma_min = np.repeat(c.gamma_min[None], n_trials, axis=0)
    noise = np.repeat(c.noise_mw[None], n_trials, axis=0)
    flat_gamma, flat_noise = gamma_min.reshape(-1), noise.reshape(-1)
    for row, n, n_rb in zip(relay_rows.tolist(), children.ravel().tolist(),
                            rbs.take(iab_rows, axis=1).ravel().tolist()):
        flat_gamma[row], flat_noise[row] = _link_constants(
            rate * n, n_rb * width, nf)
    return _Block(c, assoc, relay_served, parent_row, unit_mw[:, :n_genes],
                  gamma_min, noise, interf)


@lru_cache(maxsize=16)
def _block_overlap(per_ue: int, grid: int) -> np.ndarray:
    """How many RBs two UEs' blocks (see `iabsim.scheduler.allocate_rbs`)
    share, by the blocks' first RBs: a (grid + 1, grid + 1) table whose
    last row and column, for a gene that is not a UE, whose RBs a trial
    decides, are NaN. The counts are sums of 0/1 products, exact in
    float32."""
    occ = np.zeros((grid + 1, grid), dtype=np.float32)
    first = np.arange(grid)[:, None]
    occ[first, (first + np.arange(per_ue)) % grid] = 1.0
    table = occ @ occ.T
    table[grid] = table[:, grid] = np.nan
    table.setflags(write=False)
    return table


@lru_cache(maxsize=4096)
def _link_constants(demand_bps: float, bandwidth_hz: float,
                    noise_figure_db: float) -> tuple[float, float]:
    """(minimum linear SINR, noise in mW) of a victim link; a relay with no
    children carries no demand and its backhaul is vacuous. Memoised: every
    relay of every trial looks its pair up."""
    if demand_bps == 0.0:
        return 0.0, 1.0
    return (min_sinr(demand_bps, bandwidth_hz),
            noise_mw(bandwidth_hz, noise_figure_db))


def _gene_constants(layout: Layout, ue_range: tuple[float, float],
                    iab_range: tuple[float, float], slots: bytes,
                    rate: float, per_ue: int, grid: int, width: float,
                    nf: float) -> _GeneConstants:
    """The `_GeneConstants` of a layout, its slot ids and a few config
    scalars: the gene and UE ids; the UE and IAB MT rows among the genes;
    each gene's EIRP bounds in dBm; each gene's minimum linear SINR and
    noise in mW, the UE rows set (a trial sets the relays'); and the
    operand's entries that may be nonzero, in row-major order.

    An entry is an (interferer j, victim v) pair of distinct genes that
    share a slot and may share RBs: two UEs whose RB blocks, fixed by
    their ranks in their cells, overlap, or any pair with a relay, whose
    RBs a trial decides. For each: ``operand_at``, its index in a
    flattened (J, V) operand; ``entry_v``, v's row; ``with_relay``; for a
    UE pair, the RB count both hold (``ue_shared``, NaN for a pair with a
    relay); for a pair with a relay, where in a trial's flattened (n_iab,
    J) RB product its count is (``relay_at``: the relay's index, the other
    gene's row). ``gather_v``
    and ``gather_at`` list the (J, R) channel entries a trial reads, each
    gene at its own receiver and then each entry: the victim's row and the
    interferer's row offset."""
    genes = layout.tx
    n_genes, n_rx = genes.size, len(layout.rx)
    ue_rows, cols, _ = layout.derived(_ue_blocks, per_ue, grid)
    # Node ids run donors, relays, UEs, so the UE rows follow the relays'
    # and the kernel reads them as a slice; ids in another order it
    # gathers.
    ue_cols = (slice(ue_rows[0], ue_rows[-1] + 1) if ue_rows.size and
               ue_rows[-1] - ue_rows[0] + 1 == ue_rows.size else ue_rows)
    is_relay = np.ones(n_genes, dtype=bool)
    is_relay[ue_rows] = False
    iab_rows = np.flatnonzero(is_relay)
    (ue_lo, ue_hi), (iab_lo, iab_hi) = ue_range, iab_range
    ids = np.frombuffer(slots, dtype=np.int64)
    # The RB counts UE pairs share, by their blocks' first RBs; a pair
    # with a relay may share RBs.
    first = np.full(n_genes, grid)
    first[ue_rows] = cols[:, 0]
    shared = _block_overlap(per_ue, grid).take(first, axis=0).take(first,
                                                                   axis=1)
    entries = shared != 0
    if ids.size and (ids != ids[0]).any():  # not every gene in one slot
        entries &= ids[:, None] == ids
    entries.flat[::n_genes + 1] = False
    operand_at = np.flatnonzero(entries)
    j = operand_at // max(n_genes, 1)
    v = operand_at - j * n_genes
    relay_j = is_relay.take(j)
    with_relay = relay_j | is_relay.take(v)
    # The relay's index times J, plus the other gene's row.
    iab_at = np.zeros(n_genes, dtype=np.int64)
    iab_at[iab_rows] = np.arange(0, iab_rows.size * n_genes, max(n_genes, 1))
    relay_at = np.where(relay_j, iab_at.take(j) + v, iab_at.take(v) + j)
    gamma_min, noise = np.zeros(n_genes), np.ones(n_genes)
    gamma_min[ue_rows], noise[ue_rows] = _link_constants(rate, per_ue * width,
                                                         nf)
    rows = np.arange(n_genes)
    return _GeneConstants(
        gene_ids=tuple(genes.tolist()),
        ue_ids=tuple(genes.take(ue_rows).tolist()),
        ue_rows=ue_rows, ue_cols=ue_cols, iab_rows=iab_rows,
        lower=np.where(is_relay, iab_lo, ue_lo),
        upper=np.where(is_relay, iab_hi, ue_hi),
        gamma_min=gamma_min, noise_mw=noise, operand_at=operand_at,
        entry_v=v, gather_v=np.concatenate((rows, v)),
        gather_at=np.concatenate((rows, j)) * n_rx, with_relay=with_relay,
        relay_at=relay_at, ue_shared=shared.take(operand_at))


# A policy returns, for a group of trials of one block and a Generator
# per trial, each trial's EIRPs in dBm in its instance's `gene_ids` order;
# a trial's EIRPs must not depend on which other trials share its group.
PowersPolicy = Callable[[Sequence[ScenarioInstance],
                         Sequence[np.random.Generator]], list[np.ndarray]]


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


def run_trials(block: Sequence[tuple[int, ScenarioInstance]],
               policies: Sequence[PowersPolicy], policy_states: np.ndarray
               ) -> list[list[TrialOutcome]]:
    """A block of Monte-Carlo trials of one layout, each built once
    (``(trial index, instance)`` pairs, as `build_trials` yields them),
    scored under every policy: each trial's outcomes, in policy order.

    Each policy gets a fresh Generator of each trial's `policy` stream
    (``policy_states``, one `iabsim.rng.trial_states` row per trial of
    the block), so an outcome does not depend on which other policies run
    or in what order: the policies are compared on common random numbers.
    A policy must not mutate the instances.
    """
    instances = [instance for _, instance in block]
    chosen = [policy(instances, [stream(s) for s in policy_states])
              for policy in policies]
    per_trial = []
    for (t, instance), powers in zip(block, zip(*chosen, strict=True)):
        outcomes = []
        for eirp in powers:
            status = instance.evaluate(eirp)
            n = status.size
            coverage = (np.count_nonzero(status == 0) / n if n
                        else 1.0)  # vacuous
            outcomes.append(TrialOutcome(
                trial_index=t, coverage=coverage, status=status,
                gene_ids=instance.gene_ids, powers=eirp,
                topology=instance.topology, assoc=instance.assoc))
        per_trial.append(outcomes)
    return per_trial


def monte_carlo_coverage(config: ScenarioConfig,
                         policies: Sequence[Union[str, PowersPolicy]],
                         trials: int, seed: int) -> list[MonteCarloResult]:
    """Mean service coverage of each policy over independent trials.

    Each trial redraws the UE pattern and the channel, re-associates and
    re-allocates once, then applies and evaluates every policy on that one
    instance, each with its own `policy` stream: a paired comparison on
    common random numbers (see `run_trials`). The trials are built
    stacked (`build_trials`), and each policy chooses the powers of a
    block's trials in one call: the GA runs them in lockstep
    (`iabsim.ga.optimize_trials`). A policy is a `PowersPolicy` or one of
    "max" | "random" | "ga". One result is returned per policy, in the
    order given.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    from .policies import make_policy
    policies = [make_policy(p, config) if isinstance(p, str) else p
                for p in policies]
    per_trial_outcomes: list[list[TrialOutcome]] = [[] for _ in range(trials)]
    policy_states = trial_states(seed, range(trials), ("policy",))
    for block in build_trials(config, seed, range(trials)):
        block_trials = [t for t, _ in block]
        for t, outcomes in zip(block_trials, run_trials(
                block, policies, policy_states[block_trials, 0])):
            per_trial_outcomes[t] = outcomes
    results = []
    for outcomes in zip(*per_trial_outcomes):
        per_trial = np.array([o.coverage for o in outcomes])
        results.append(MonteCarloResult(mean_coverage=float(per_trial.mean()),
                                        per_trial=per_trial, outcomes=outcomes))
    return results
