"""A closed-form oracle for the whole Monte-Carlo pipeline.

One cell, no relays, four UEs at fixed positions, max power and
orthogonal RBs: each UE's access link is noise-limited, and with Rayleigh
fading (unit-mean exponential power gain g) it clears its minimum SINR
gamma with probability

    p = E_{S,R}[exp(-gamma N / (P G 10^(-(PL + S + rain(R)) / 10)))]

over the lognormal shadowing S ~ N(0, sigma) in dB and the uniform rain
rate R. The expectation is taken by Gauss quadrature: Hermite-Gauss
(probabilists', 80 nodes) for S, Gauss-Legendre (40 nodes) for R. The
Monte-Carlo share of covered trials must lie within 4.5 binomial standard
errors of p for every UE and seed. The design (positions, rate, trials,
seeds, bound) was fixed before the first run.

With fading and shadowing off and one rain rate, each UE is covered in
every trial or in none, as its hand-computed SNR clears gamma.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from numpy.polynomial.legendre import leggauss

from iabsim.channel import min_sinr, noise_mw, pathloss_uma, rain_coefficients
from iabsim.config import ScenarioConfig
from iabsim.coverage import monte_carlo_coverage

POSITIONS = ((20.0, 0.0), (60.0, 0.0), (120.0, 0.0), (180.0, 0.0))
TRIALS = 4000
Z_BOUND = 4.5


def analytic_config(**kw):
    base = dict(num_cells=1, num_iab_per_cell=0, num_ues=len(POSITIONS),
                ue_positions=POSITIONS, min_rate_bps=72e6)
    base.update(kw)
    return ScenarioConfig(**base)


def link_terms(config):
    """Per UE: the mean received SNR in linear units before shadowing,
    rain and fading (P G 10^(-PL/10) / N), its path in km, and gamma."""
    width = config.rbs_per_ue * config.rb_width_hz
    gamma = min_sinr(config.min_rate_bps, width)
    noise = noise_mw(width, config.nf_db)
    xy = np.array(POSITIONS)
    d3d = np.sqrt(np.sum(xy ** 2, axis=1)
                  + (config.donor_height_m - config.ue_height_m) ** 2)
    pathloss = pathloss_uma(d3d, config.donor_height_m, config.ue_height_m,
                            config)
    snr0 = 10.0 ** ((config.ue_eirp_range_dbm[1] + config.rx_gain_db
                     - pathloss) / 10.0) / noise
    return snr0, d3d / 1e3, gamma


def rain_db(config, rate, path_km):
    k, exponent = rain_coefficients(config.fc_ghz)
    return k * rate ** exponent * path_km


def coverage_probability(config):
    """p per UE, by quadrature over shadowing and rain."""
    snr0, path_km, gamma = link_terms(config)
    s_nodes, s_weights = hermegauss(80)
    s_weights = s_weights / math.sqrt(2.0 * math.pi)
    r_nodes, r_weights = leggauss(40)
    lo, hi = config.rain_range_mm_h
    rates = (lo + hi) / 2.0 + (hi - lo) / 2.0 * r_nodes
    r_weights = r_weights / 2.0
    # (UE, shadowing node, rain node)
    loss_db = (config.shadow_std_db * s_nodes[None, :, None]
               + rain_db(config, rates[None, None, :], path_km[:, None, None]))
    mean_snr = snr0[:, None, None] * 10.0 ** (-loss_db / 10.0)
    p = np.exp(-gamma / mean_snr)
    return np.einsum("usr,s,r->u", p, s_weights, r_weights)


@pytest.mark.parametrize("seed", [1, 2])
def test_monte_carlo_coverage_matches_closed_form(seed):
    config = analytic_config(seed=seed, trials=TRIALS)
    assert len(POSITIONS) * config.rbs_per_ue <= config.rb_max  # orthogonal
    [result] = monte_carlo_coverage(config, ("max",), TRIALS, seed)
    covered = np.array([o.status == 0 for o in result.outcomes])
    assert covered.shape == (TRIALS, len(POSITIONS))
    p_hat = covered.mean(axis=0)
    p = coverage_probability(config)
    se = np.sqrt(p * (1.0 - p) / TRIALS)
    assert np.all(np.abs(p_hat - p) <= Z_BOUND * se), (p_hat, p)


def test_without_fading_or_shadowing_each_ue_is_all_or_nothing():
    config = analytic_config(fading_enabled=False, shadow_std_db=0.0,
                             rain_range_mm_h=(15.0, 15.0), trials=20)
    snr0, path_km, gamma = link_terms(config)
    snr_db = 10.0 * np.log10(snr0) - rain_db(config, 15.0, path_km)
    expected = snr_db >= 10.0 * math.log10(gamma)
    # Each UE clears or misses gamma by a margin, so rounding decides none.
    assert np.all(np.abs(snr_db - 10.0 * math.log10(gamma)) > 0.1)
    assert expected.any() and not expected.all()
    [result] = monte_carlo_coverage(config, ("max",), config.trials,
                                    config.seed)
    covered = np.array([o.status == 0 for o in result.outcomes])
    assert np.array_equal(covered, np.tile(expected, (config.trials, 1)))
