"""Link-budget tests against independent hand/brute-force evaluations."""

import math

import numpy as np
import pytest

from iabsim.channel import (ChannelRealization, breakpoint_distance,
                            min_sinr, noise_mw, pathloss_uma, rain_attenuation,
                            rain_coefficients, sample_fading,
                            sample_shadowing)
from iabsim.config import ScenarioConfig
from iabsim.rng import derive_rng
from oracle import (LinkSample, MissingLinkError, achievable_rate,
                    interference_at, link, one_trial_channel,
                    one_trial_topology, received_power, sinr)

CONFIG = ScenarioConfig()


# Independent oracle: the published regression for the horizontal-polarization
# rain coefficients (four/five Gaussian terms plus a log-linear part).
_KH = ([-5.33980, -0.35351, -0.23789, -0.94158],
       [-0.10008, 1.26970, 0.86036, 0.64552],
       [1.13098, 0.45400, 0.15354, 0.16817],
       -0.18961, 0.71147)
_AH = ([-0.14318, 0.29591, 0.32177, -5.37610, 16.1721],
       [1.82442, 0.77564, 0.63773, -0.96230, -3.29980],
       [-0.55187, 0.19822, 0.13164, 1.47828, 3.43990],
       0.67849, -1.95537)


def oracle_rain_coefficients(f_ghz):
    lf = math.log10(f_ghz)
    a, b, c, m, cc = _KH
    k = 10 ** (sum(ai * math.exp(-(((lf - bi) / ci) ** 2))
                   for ai, bi, ci in zip(a, b, c)) + m * lf + cc)
    a, b, c, m, cc = _AH
    gamma = sum(ai * math.exp(-(((lf - bi) / ci) ** 2))
                for ai, bi, ci in zip(a, b, c)) + m * lf + cc
    return k, gamma


class TestBreakpointDistance:
    def test_default_28ghz(self):
        assert breakpoint_distance(CONFIG) == pytest.approx(
            4 * 28e9 / 3e8, rel=1e-12)
        assert breakpoint_distance(CONFIG) == pytest.approx(373.3333333, rel=1e-9)

    def test_linear_in_frequency(self):
        doubled = ScenarioConfig(fc_ghz=56.0)
        assert breakpoint_distance(doubled) == pytest.approx(
            2 * breakpoint_distance(CONFIG), rel=1e-12)

    def test_zero_effective_height(self):
        assert breakpoint_distance(ScenarioConfig(eff_ant_height_m=0.0)) == 0.0


class TestPathloss:
    def test_hand_evaluation_100m(self):
        # Independent term-by-term evaluation at d3D = 100 m.
        d_bp = 4 * 1 * 1 * 28e9 / 3e8
        expected = (32.4 + 10 * 4 * math.log10(100.0)
                    + 20 * math.log10(28.0)
                    - 10 * math.log10(d_bp ** 2 + (25.0 - 1.5) ** 2))
        got = pathloss_uma(100.0, 25.0, 1.5, CONFIG)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(89.88405142339428, rel=1e-9)

    def test_distance_decade_adds_40db(self):
        base = pathloss_uma(30.0, 25.0, 1.5, CONFIG)
        assert pathloss_uma(300.0, 25.0, 1.5, CONFIG) - base == \
            pytest.approx(40.0, abs=1e-9)

    def test_pure_function(self):
        assert pathloss_uma(123.4, 25.0, 1.5, CONFIG) == \
            pathloss_uma(123.4, 25.0, 1.5, CONFIG)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            pathloss_uma(0.0, 25.0, 1.5, CONFIG)
        with pytest.raises(ValueError):
            pathloss_uma(-5.0, 25.0, 1.5, CONFIG)

    def test_clamps_below_reference_distance(self):
        assert pathloss_uma(0.2, 25.0, 1.5, CONFIG) == \
            pathloss_uma(1.0, 25.0, 1.5, CONFIG)

    def test_literal_variant(self):
        literal = ScenarioConfig(pathloss_literal=True)
        d_bp = 4 * 28e9 / 3e8
        expected = (32.4 + 40 * math.log10(100.0) + 20 * math.log10(28.0)
                    - 10 * (d_bp ** 2 + 23.5 ** 2))
        assert pathloss_uma(100.0, 25.0, 1.5, literal) == \
            pytest.approx(expected, rel=1e-12)

    def test_strictly_increasing_in_distance(self):
        distances = np.linspace(1.0, 10_000.0, 200)
        losses = [pathloss_uma(d, 25.0, 1.5, CONFIG) for d in distances]
        assert all(b > a for a, b in zip(losses, losses[1:]))
        assert all(math.isfinite(v) for v in losses)


class TestRain:
    def test_zero_rate_zero_loss(self):
        assert rain_attenuation(0.0, 5.0, CONFIG) == 0.0

    def test_coefficients_match_regression_oracle(self):
        for f in (1.0, 10.0, 28.0, 40.0, 99.0):
            k, gamma = rain_coefficients(f)
            k_ref, gamma_ref = oracle_rain_coefficients(f)
            assert k == pytest.approx(k_ref, rel=2e-4)
            assert gamma == pytest.approx(gamma_ref, abs=2e-4)

    def test_28ghz_hand_value(self):
        # 20 mm/h over 0.2 km with table coefficients at 28 GHz.
        k, gamma = rain_coefficients(28.0)
        expected = k * 20.0 ** gamma * 0.2
        got = rain_attenuation(20.0, 0.2, CONFIG)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(0.74509684, rel=1e-6)

    def test_linear_in_path(self):
        one = rain_attenuation(17.0, 1.0, CONFIG)
        assert rain_attenuation(17.0, 2.0, CONFIG) == pytest.approx(2 * one)

    def test_monotone_in_rate_and_path(self):
        rates = np.linspace(0.0, 50.0, 25)
        vals = [rain_attenuation(r, 1.0, CONFIG) for r in rates]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        paths = np.linspace(0.0, 10.0, 25)
        vals = [rain_attenuation(20.0, p, CONFIG) for p in paths]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_out_of_table_frequency_rejected(self):
        with pytest.raises(ValueError):
            rain_coefficients(0.1)


class TestSamples:
    def test_shadowing_moments(self):
        rng = derive_rng(123, "shadow-test")
        draws = np.array([sample_shadowing(rng, CONFIG) for _ in range(100_000)])
        assert -0.05 < draws.mean() < 0.05
        assert 3.95 < draws.std() < 4.05

    def test_fading_unit_mean_power_gain(self):
        rng = derive_rng(77, "fade-test")
        gains = np.array([10 ** (-sample_fading(rng) / 10)
                          for _ in range(100_000)])
        assert 0.99 < gains.mean() < 1.01

    def test_fixed_seed_identical_sequence(self):
        a = [sample_fading(derive_rng(5, "f")) for _ in range(1)]
        b = [sample_fading(derive_rng(5, "f")) for _ in range(1)]
        assert a == b
        seq1 = [sample_shadowing(derive_rng(5, 0, "s"), CONFIG) for _ in range(3)]
        seq2 = [sample_shadowing(derive_rng(5, 0, "s"), CONFIG) for _ in range(3)]
        assert seq1 == seq2


def make_link(pl=89.88405142339428, shadow=0.0, fade=0.0, rain=0.0):
    return LinkSample(tx_id=0, rx_id=1, d3d_m=100.0, pathloss_db=pl,
                      shadowing_db=shadow, fading_db=fade, rain_db=rain)


class TestReceivedPower:
    def test_hand_example(self):
        assert received_power(43.0, make_link(), CONFIG.rx_gain_db) == \
            pytest.approx(-21.884051423394283, rel=1e-9)

    def test_identity_with_no_losses(self):
        assert received_power(17.0, make_link(pl=0.0), 0.0) == 17.0

    def test_linear_in_eirp(self):
        base = received_power(30.0, make_link(), CONFIG.rx_gain_db)
        assert received_power(33.0, make_link(), CONFIG.rx_gain_db) == \
            pytest.approx(base + 3.0, abs=1e-12)

    def test_term_by_term_decomposition(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pl, sh, fa, ra = rng.uniform(0, 120), rng.normal(0, 4), \
                rng.normal(0, 5), rng.uniform(0, 2)
            link = make_link(pl=pl, shadow=sh, fade=fa, rain=ra)
            eirp = rng.uniform(23, 53)
            expected = eirp + CONFIG.rx_gain_db - pl - sh - ra - fa
            assert received_power(eirp, link, CONFIG.rx_gain_db) == \
                pytest.approx(expected, abs=1e-9)


RX = 99  # the victim receiver's node id
LINK_FIELDS = ("d3d_m", "pathloss_db", "shadowing_db", "fading_db", "rain_db")


def _fake_realization(entries):
    """An array realization holding the given {(tx, rx): LinkSample} links."""
    tx_ids = sorted({tx for tx, _ in entries})
    rx_ids = sorted({rx for _, rx in entries})
    arrays = {name: np.full((len(tx_ids), len(rx_ids)), np.nan)
              for name in LINK_FIELDS}
    for (tx, rx), link in entries.items():
        for name in LINK_FIELDS:
            arrays[name][tx_ids.index(tx), rx_ids.index(rx)] = getattr(link, name)
    return ChannelRealization(tx_ids=np.array(tx_ids, dtype=int),
                              rx_ids=np.array(rx_ids, dtype=int),
                              rain_rate_mm_h=0.0,
                              rx_gain_db=CONFIG.rx_gain_db, **arrays)


class TestInterference:
    def test_no_transmitters_zero(self):
        real = _fake_realization({})
        assert interference_at(RX, frozenset({0, 1}), [], real) == 0.0

    def test_unit_conversion_minus_90dbm(self):
        # Pathloss chosen so the arriving power is exactly -90 dBm at 0 dBm
        # EIRP with 25 dB receive gain.
        link = LinkSample(1, 99, 10.0, 115.0, 0.0, 0.0, 0.0)
        real = _fake_realization({(1, 99): link})
        got = interference_at(RX, frozenset({0, 1}),
                              [(1, 0.0, frozenset({0, 1}))], real)
        assert got == pytest.approx(1e-9, rel=1e-12)

    def test_two_equal_interferers_double(self):
        link = lambda i: LinkSample(i, 99, 10.0, 100.0, 0.0, 0.0, 0.0)
        real = _fake_realization({(1, 99): link(1), (2, 99): link(2)})
        rbs = frozenset({0, 1})
        one = interference_at(RX, rbs, [(1, 20.0, rbs)], real)
        both = interference_at(RX, rbs,
                               [(1, 20.0, rbs), (2, 20.0, rbs)], real)
        assert both == pytest.approx(2 * one, rel=1e-12)

    def test_partial_overlap_fraction(self):
        link = LinkSample(1, 99, 10.0, 100.0, 0.0, 0.0, 0.0)
        real = _fake_realization({(1, 99): link})
        full = interference_at(RX, frozenset({0, 1}),
                               [(1, 20.0, frozenset({0, 1}))], real)
        half = interference_at(RX, frozenset({0, 1}),
                               [(1, 20.0, frozenset({1, 7}))], real)
        assert half == pytest.approx(full / 2, rel=1e-12)

    def test_disjoint_additivity(self):
        rng = np.random.default_rng(8)
        txs = range(1, 7)
        entries = {(t, RX): LinkSample(t, RX, 10.0, float(rng.uniform(80, 120)),
                                       0.0, 0.0, 0.0) for t in txs}
        real = _fake_realization(entries)
        rbs = frozenset({0, 1, 2})
        group_a = [(t, 25.0, rbs) for t in txs[:3]]
        group_b = [(t, 25.0, rbs) for t in txs[3:]]
        ia = interference_at(RX, rbs, group_a, real)
        ib = interference_at(RX, rbs, group_b, real)
        iab = interference_at(RX, rbs, group_a + group_b, real)
        assert iab == pytest.approx(ia + ib, rel=1e-12)

    def test_missing_link_raises(self):
        real = _fake_realization({})
        with pytest.raises(MissingLinkError):
            interference_at(RX, frozenset({0}),
                            [(1, 20.0, frozenset({0}))], real)


class TestSinrRate:
    def test_noise_level_2_88mhz(self):
        noise = noise_mw(bandwidth_hz=2.88e6, noise_figure_db=5.0)
        assert 10 * math.log10(noise) == \
            pytest.approx(-104.4060751224077, rel=1e-12)

    def test_signal_at_noise_floor(self):
        noise = noise_mw(2.88e6, 5.0)
        assert sinr(10 * math.log10(noise), 0.0, noise) == \
            pytest.approx(1.0, rel=1e-12)

    def test_interference_equal_to_noise(self):
        noise = noise_mw(2.88e6, 5.0)
        assert sinr(10 * math.log10(noise), noise, noise) == \
            pytest.approx(0.5, rel=1e-12)

    def test_rate_trivials(self):
        assert achievable_rate(1.0, 400e6) == pytest.approx(400e6)
        assert achievable_rate(15.0, 5.76e6) == pytest.approx(23.04e6)
        assert achievable_rate(0.0, 1e6) == 0.0

    def test_min_sinr_trivial_and_hand_value(self):
        assert min_sinr(2.88e6, 2.88e6) == pytest.approx(1.0)
        assert min_sinr(64e3, 2.88e6) == \
            pytest.approx(0.015522512504275054, rel=1e-9)

    def test_min_sinr_unreachable_rate_is_inf(self):
        # 2**x overflows a double from x = 1024: such a link never passes.
        bw = 2.88e6
        assert min_sinr(1024 * bw, bw) == math.inf
        assert min_sinr(1e13, bw) == math.inf
        for x in (1023.999, 1000.0, 1.5):
            assert min_sinr(x * bw, bw) == 2.0 ** (x * bw / bw) - 1.0

    def test_round_trip_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            gamma = rng.uniform(1e-6, 100.0)
            bw = rng.uniform(1e5, 4e8)
            back = min_sinr(achievable_rate(gamma, bw), bw)
            assert back == pytest.approx(gamma, rel=1e-12)

    def test_rate_strictly_increasing_in_sinr(self):
        gammas = np.linspace(0.0, 50.0, 100)
        rates = [achievable_rate(g, 1e6) for g in gammas]
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestRealization:
    def test_covers_all_uplink_pairs_and_is_finite(self):
        cfg = ScenarioConfig(num_ues=6, num_cells=2, trials=1)
        topo = one_trial_topology(cfg, derive_rng(2))
        real = one_trial_channel(topo, CONFIG, 18.0, derive_rng(2, "s"),
                                 derive_rng(2, "f"))
        for tx in topo.tx.tolist():
            for rx in topo.rx.tolist():
                if tx == rx:
                    continue
                sample = link(real, tx, rx)
                assert math.isfinite(sample.pathloss_db)
                assert sample.rain_db >= 0.0
                assert sample.pathloss_db > 0.0

    def test_fading_disabled_is_zero(self):
        cfg = ScenarioConfig(num_ues=2, trials=1)
        topo = one_trial_topology(cfg, derive_rng(2))
        real = one_trial_channel(topo, CONFIG, 0.0, derive_rng(2, "s"), None)
        assert all(link(real, tx, rx).fading_db == 0.0
                   for tx, rx in real.links.tolist())

    def test_missing_pair_raises(self):
        cfg = ScenarioConfig(num_ues=2, trials=1)
        topo = one_trial_topology(cfg, derive_rng(2))
        real = one_trial_channel(topo, CONFIG, 0.0, derive_rng(2, "s"), None)
        with pytest.raises(MissingLinkError):
            link(real, 500, 501)
