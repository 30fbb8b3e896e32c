"""Link-budget stack: pathloss, shadowing, fading, rain, noise, SINR floor.

All decibel quantities follow the uplink budget

    P_r = P_eirp + G_r - L - shadowing - rain - fading   [dBm]

with urban-macro pathloss, lognormal shadowing, Rayleigh flat fading
(exponential power gain, expressed as a dB loss), and ITU-R power-law rain
attenuation scaled by path length. Each term reads its constants straight
from the ``ScenarioConfig``, whose ``validate`` checks them at config load.
The noise floor is ``noise_mw``: thermal noise over the link bandwidth plus
the receiver noise figure.

The channels of a stack of T trials that share a layout are one
``ChannelRealization`` of ``(T, n_tx, n_rx)`` arrays, sampled in one pass
(`iabsim.coverage.build_trials`; a trial built alone is a stack of one).
Rows are the transmitters (UEs and IAB nodes) and columns the receivers
(donors and IAB nodes), each in ascending node id: the topology's ``tx``
and ``rx`` rows, whose ``(T, n)`` coordinates are gathered from its
per-node arrays. The self pair of an IAB node (its MT row against its own
DU column) is not a link: it holds NaN. The link mask and the squared
height differences are built once per layout
(`iabsim.topology.Layout.derived`). ``links`` lists the other pairs as
``(tx_id, rx_id)`` rows in row-major order. Each trial has one rain rate
and its own generators: its shadowing is one ``normal(0, sigma, n)`` draw
and its fading one ``exponential(1, n)`` draw, each filling its ``n``
links in that order. A vector draw yields the same numbers as ``n``
scalar draws, so the streams match the link-by-link order. The budget
terms are combined once into ``unit_rx_dbm``, the received power of a
0 dBm transmission, in the order the budget above is written. The
arithmetic is elementwise, so a trial's numbers are the same bit for bit
whichever trials share its stack. SINR and coverage are computed from
these arrays by ``iabsim.coverage.ScenarioInstance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from importlib import resources
from typing import Optional, Sequence

import numpy as np
from numpy.random import Generator

from .config import ScenarioConfig
from .topology import Layout, Topology

SPEED_OF_LIGHT = 3e8  # m/s
THERMAL_NOISE_DBM_HZ = -174.0

_RAIN_TABLE_RESOURCE = "itu_rain_coefficients.txt"


@lru_cache(maxsize=1)
def _rain_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load (freq_GHz, k_H, gamma_H) columns from the shipped data file."""
    text = (resources.files("iabsim.data") / _RAIN_TABLE_RESOURCE).read_text()
    rows = [line.split() for line in text.splitlines()
            if line.strip() and not line.startswith("#")]
    data = np.array(rows, dtype=float)
    return data[:, 0], data[:, 1], data[:, 2]


@lru_cache(maxsize=16)
def rain_coefficients(fc_ghz: float) -> tuple[float, float]:
    """Power-law rain coefficients (k, gamma) at the carrier frequency.

    k is interpolated log-log in frequency, gamma linearly against log f,
    matching the convention of the source coefficient table. Cached per
    frequency: every trial's rain attenuation looks them up.
    """
    freqs, ks, gammas = _rain_table()
    if not freqs[0] <= fc_ghz <= freqs[-1]:
        raise ValueError(f"carrier {fc_ghz} GHz outside rain table range "
                         f"[{freqs[0]}, {freqs[-1]}]")
    lf = math.log10(fc_ghz)
    logf = np.log10(freqs)
    k = 10.0 ** float(np.interp(lf, logf, np.log10(ks)))
    gamma = float(np.interp(lf, logf, gammas))
    return k, gamma


def breakpoint_distance(config: ScenarioConfig) -> float:
    """Breakpoint distance 4 * h'_bs * h'_ut * fc / c, in meters."""
    fc_hz = config.fc_ghz * 1e9
    h = config.eff_ant_height_m
    return 4.0 * h * h * fc_hz / SPEED_OF_LIGHT


def pathloss_uma(d3d_m: float | np.ndarray, h_bs_m: float | np.ndarray,
                 h_ue_m: float | np.ndarray,
                 config: ScenarioConfig) -> float | np.ndarray:
    """Urban-macro pathloss in dB, for scalars or broadcastable arrays.

    L = 32.4 + 10*alpha*log10(d3D) + 20*log10(fc_GHz)
        - 10*log10(d_bp^2 + (h_bs - h_ue)^2)

    Distances below 1 m are clamped to the 1 m reference distance; NaN
    distances give NaN losses. With ``pathloss_literal`` the last term drops
    its log10 (a dimensionally-broken variant kept for comparison only).
    """
    d = np.asarray(d3d_m, dtype=float)
    if np.fmin.reduce(d, axis=None, initial=np.inf) <= 0:  # NaN passes
        raise ValueError(f"d3d_m must be > 0, got {d[d <= 0].flat[0]}")
    d_bp = breakpoint_distance(config)
    bp_term = d_bp ** 2 + np.square(np.subtract(h_bs_m, h_ue_m))
    # 32.4 + 10*alpha*log10(d) + 20*log10(fc), in that order.
    loss = np.log10(np.maximum(d, 1.0))
    loss *= 10.0 * config.alpha
    loss += 32.4
    loss += 20.0 * math.log10(config.fc_ghz)
    if config.pathloss_literal:
        return loss - 10.0 * bp_term
    return loss - 10.0 * np.log10(bp_term)


def rain_attenuation(rain_rate_mm_h: float, path_km: float | np.ndarray,
                     config: ScenarioConfig) -> float | np.ndarray:
    """Total rain loss in dB: k * R^gamma [dB/km] times path length.

    k and gamma are ``rain_k`` and ``rain_gamma``, or the table's
    coefficients at ``fc_ghz`` where those are None. ``path_km`` may be a
    scalar or an array.
    """
    if rain_rate_mm_h < 0:
        raise ValueError(f"rain_rate_mm_h must be >= 0, got {rain_rate_mm_h}")
    path = np.asarray(path_km)
    if (path < 0).any():
        raise ValueError(f"path_km must be >= 0, got {path[path < 0].flat[0]}")
    k, gamma = config.rain_k, config.rain_gamma
    if k is None or gamma is None:
        table_k, table_gamma = rain_coefficients(config.fc_ghz)
        k = table_k if k is None else k
        gamma = table_gamma if gamma is None else gamma
    return k * rain_rate_mm_h ** gamma * path_km


def sample_shadowing(rng: np.random.Generator, config: ScenarioConfig,
                     size: Optional[int] = None) -> float | np.ndarray:
    """Lognormal shadowing: zero-mean normal in dB, one value or ``size``."""
    return rng.normal(0.0, config.shadow_std_db, size)


def sample_fading(rng: np.random.Generator,
                  size: Optional[int] = None) -> float | np.ndarray:
    """Rayleigh flat-fading loss in dB, one value or ``size``.

    The power gain g is exponential with unit mean; the budget subtracts
    -10*log10(g), so deep fades are large positive losses and the sample can
    be negative (a fading gain).
    """
    return -10.0 * np.log10(rng.exponential(1.0, size))


def noise_mw(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise over a bandwidth plus the receiver noise figure, in mW."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth_hz must be > 0, got {bandwidth_hz}")
    total_dbm = (THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(bandwidth_hz)
                 + noise_figure_db)
    return 10.0 ** (total_dbm / 10.0)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """Sampled losses of a stack of trials, one ``(T, n_tx, n_rx)`` array
    per budget term, and one rain rate per trial.

    ``tx_ids`` and ``rx_ids`` label the rows and columns in ascending id;
    self pairs hold NaN. ``unit_rx_dbm`` is derived: the received power in
    dBm of a 0 dBm transmission over each link. No trial reads ``links``,
    so it is computed on its first read.
    """
    tx_ids: np.ndarray
    rx_ids: np.ndarray
    d3d_m: np.ndarray
    pathloss_db: np.ndarray
    shadowing_db: np.ndarray
    fading_db: np.ndarray
    rain_db: np.ndarray
    rain_rate_mm_h: tuple[float, ...]
    rx_gain_db: float
    unit_rx_dbm: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "unit_rx_dbm",
                           0.0 + self.rx_gain_db - self.pathloss_db
                           - self.shadowing_db - self.rain_db - self.fading_db)

    @cached_property
    def links(self) -> np.ndarray:
        """The ``(n_links, 2)`` array of ``(tx_id, rx_id)`` pairs, in the
        row-major order the random terms are drawn in."""
        rows, cols = np.nonzero(self.tx_ids[:, None] != self.rx_ids[None, :])
        return np.column_stack((self.tx_ids[rows], self.rx_ids[cols]))

    @property
    def long_term_loss_db(self) -> np.ndarray:
        """Pathloss + shadowing; the association metric (no fading, no rain)."""
        return self.pathloss_db + self.shadowing_db


def _link_layout(layout: Layout) -> tuple:
    """The layout constants of a channel: the ``(n_tx, n_rx)`` mask of the
    links (all pairs but an IAB node's self pair) and their count, the
    squared height difference of each link (NaN on a self pair, so the
    distance is NaN there), the receiver and transmitter heights as a row
    and a column, and the fading of a trial without it (0 on each link,
    NaN elsewhere)."""
    tx, rx = layout.tx, layout.rx
    linked = tx[:, None] != rx[None, :]
    h_tx, h_rx = layout.height[tx][:, None], layout.height[rx][None, :]
    no_fading = np.where(linked, 0.0, np.nan)
    return (linked, int(np.count_nonzero(linked)),
            np.square(h_tx - h_rx) + no_fading, h_rx, h_tx, no_fading)


def sample_realization(topology: Topology, config: ScenarioConfig,
                       rain_rate_mm_h: Sequence[float],
                       shadow_rng: Sequence[Generator],
                       fading_rng: Optional[Sequence[Generator]]
                       ) -> ChannelRealization:
    """Sample every uplink-relevant link of a stack of T trials, in a fixed
    order.

    The topology's x and y have shape ``(T, n)``; the rain rates and the
    generators hold one entry per trial (see the module docstring). Links
    run from every transmitter (UE or IAB node) to every receiver (donor or
    IAB node), both cells included, so interference toward any victim
    receiver is always available. ``fading_rng=None`` disables fading.
    """
    layout = topology.layout
    tx_ids, rx_ids = layout.tx, layout.rx
    linked, n_links, dh2, h_rx, h_tx, no_fading = layout.derived(_link_layout)
    x, y = topology.x, topology.y
    d2 = np.square(x.take(tx_ids, axis=1)[:, :, None]
                   - x.take(rx_ids, axis=1)[:, None, :])
    d2 += np.square(y.take(tx_ids, axis=1)[:, :, None]
                    - y.take(rx_ids, axis=1)[:, None, :])
    d2 += dh2
    d3d = np.sqrt(d2, out=d2)
    pathloss = pathloss_uma(d3d, h_rx, h_tx, config)
    shadowing = np.full(d3d.shape, np.nan)
    fading = np.empty(d3d.shape)
    fading[...] = no_fading
    rain = d3d / 1e3
    for i, rate in enumerate(rain_rate_mm_h):
        shadowing[i][linked] = sample_shadowing(shadow_rng[i], config, n_links)
        if fading_rng is not None:
            fading[i][linked] = sample_fading(fading_rng[i], n_links)
        # k * R^gamma over 1 km, times each path in km.
        rain[i] *= rain_attenuation(rate, 1.0, config)
    return ChannelRealization(tx_ids, rx_ids, d3d, pathloss, shadowing,
                              fading, rain, tuple(rain_rate_mm_h),
                              config.rx_gain_db)


def min_sinr(rate_bps: float, bw_hz: float) -> float:
    """Minimum linear SINR sustaining a target rate; inverse of the rate.

    From an exponent of 1024, 2**x overflows a double: the SINR is inf, and
    no link can meet it."""
    if bw_hz <= 0:
        raise ValueError(f"bw_hz must be > 0, got {bw_hz}")
    x = rate_bps / bw_hz
    return math.inf if x >= 1024 else 2.0 ** x - 1.0
