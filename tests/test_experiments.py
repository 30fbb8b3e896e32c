"""Experiment harness tests: CSV outputs, determinism, summaries, CLI."""

import functools
import hashlib
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import iabsim.experiments as experiments
import iabsim.topology as topology
from iabsim.cli import main
from iabsim.config import ScenarioConfig, config_lines, load_config
from iabsim.coverage import build_instance, to_mw
from iabsim.experiments import (ExperimentSpec, crossing_point, read_csv,
                                run_experiment, summarize)
from iabsim.policies import make_policy
from iabsim.rng import derive_rng


def tiny_config(**kw):
    base = dict(num_ues=3, num_cells=1, trials=2, seed=5,
                ga_iterations=5, ga_population=6, ga_neighborhood=2,
                sweep_ues=(0, 3), sweep_backoff_db=(0.0, 40.0),
                powercdf_rates_bps=(64e3,), trace_seeds=2,
                min_rate_bps=1e6, rb_max=16)
    base.update(kw)
    return ScenarioConfig(**base)


def run(tmp_path, name, config, **spec_kw):
    out = str(tmp_path / f"{name}.csv")
    spec = ExperimentSpec(name=name, out=out, **spec_kw)
    return run_experiment(spec, config)


class TestGaTrace:
    def test_rows_and_monotone_columns(self, tmp_path):
        paths = run(tmp_path, "ga-trace", tiny_config())
        _, _, columns, data, _ = read_csv(paths[0])
        assert columns[0] == "iteration"
        assert len(columns) == 3  # two seeds
        assert data.shape[0] == 5
        for j in range(1, 3):
            assert np.all(np.diff(data[:, j]) >= 0)


class TestCoverageVsUes:
    def test_columns_and_vacuous_row(self, tmp_path):
        paths = run(tmp_path, "coverage-vs-ues", tiny_config(),
                    rbs_values=(2,))
        assert len(paths) == 1
        _, _, columns, data, _ = read_csv(paths[0])
        assert columns == ["num_ues", "coverage_optimized",
                           "coverage_max_power", "coverage_random_power"]
        zero_row = data[data[:, 0] == 0][0]
        assert tuple(zero_row[1:]) == (1.0, 1.0, 1.0)

    def test_two_rb_variants(self, tmp_path):
        paths = run(tmp_path, "coverage-vs-ues", tiny_config())
        assert len(paths) == 2
        assert paths[0].endswith("_rb2.csv")
        assert paths[1].endswith("_rb4.csv")


class TestCoverageVsSinr:
    def test_columns_and_mode_ordering(self, tmp_path):
        cfg = tiny_config(num_ues=6, num_cells=2, power_policy="max",
                          trials=3)
        paths = run(tmp_path, "coverage-vs-sinr", cfg)
        _, _, columns, data, _ = read_csv(paths[0])
        assert columns == ["backoff_db", "sep_median_sinr_db", "sep_coverage",
                           "sim_median_sinr_db", "sim_coverage"]
        sep = data[:, columns.index("sep_coverage")]
        sim = data[:, columns.index("sim_coverage")]
        assert np.all(sep >= sim)  # same powers, superset interferers

    def test_matches_one_build_per_trial_when_layouts_are_evicted(
            self, tmp_path):
        # Poisson counts draw many layouts; with a layout cache of one, the
        # separated-slot and the simultaneous-slot runs evict and rebuild
        # layouts as they go. The two runs must still pair each trial with
        # itself, as one build per trial and slot mode does.
        cfg = tiny_config(num_ues=2, num_cells=2, ue_count_poisson=True,
                          power_policy="max", trials=12,
                          sweep_backoff_db=(0.0, 10.0, 20.0))
        rows = {}
        small_cache = functools.lru_cache(maxsize=1)(
            topology._layout.__wrapped__)
        with mock.patch.object(topology, "_layout", small_cache), \
                mock.patch.object(experiments, "_write_csv",
                                  lambda *args: rows.setdefault("rows",
                                                                args[4])):
            run(tmp_path, "coverage-vs-sinr", cfg)
        # More misses than layouts and their infrastructure: some were
        # evicted and built again.
        layouts = {build_instance(cfg, cfg.seed, t).topology.layout.key
                   for t in range(cfg.trials)}
        assert small_cache.cache_info().misses > len(layouts) + 1

        backoffs = np.asarray(cfg.sweep_backoff_db)
        policy = make_policy("max", cfg)
        per_trial = []
        for t in range(cfg.trials):
            sep = build_instance(cfg.replace(slot_mode="separated"),
                                 cfg.seed, t)
            sim = build_instance(cfg.replace(slot_mode="simultaneous"),
                                 cfg.seed, t)
            [powers] = policy([sep], [derive_rng(cfg.seed, t, "policy")])
            mw = to_mw(powers - backoffs[:, None])
            per_trial.append((sep.batch_coverage(mw), sim.batch_coverage(mw),
                              sep.access_sinr_db(mw), sim.access_sinr_db(mw)))
        cov_sep, cov_sim = (np.mean([r[k] for r in per_trial], axis=0)
                            for k in (0, 1))
        sinr_sep, sinr_sim = (
            np.median(np.concatenate([r[k] for r in per_trial], axis=1),
                      axis=1) for k in (2, 3))
        expected = [[backoffs[i], sinr_sep[i], cov_sep[i], sinr_sim[i],
                     cov_sim[i]] for i in range(len(backoffs))]
        assert np.array_equal(np.array(rows["rows"]), np.array(expected))


class TestIntercell:
    def test_columns(self, tmp_path):
        paths = run(tmp_path, "intercell", tiny_config(power_policy="max"))
        _, _, columns, data, _ = read_csv(paths[0])
        assert columns == ["num_ues", "coverage_1cell", "coverage_2cell"]
        assert np.all((data[:, 1:] >= 0) & (data[:, 1:] <= 1))


class TestPowerCdf:
    def test_rows_within_role_bounds(self, tmp_path):
        paths = run(tmp_path, "power-cdf", tiny_config())
        _, _, columns, data, raw = read_csv(paths[0])
        role_col = columns.index("role")
        eirp_col = columns.index("eirp_dbm")
        server_col = columns.index("server_role")
        assert raw, "expected data rows"
        for row in raw:
            eirp = float(row[eirp_col])
            if row[role_col] == "ue":
                assert 23.0 <= eirp <= 43.0
                assert row[server_col] in ("donor", "iab")
            else:
                assert 35.0 <= eirp <= 53.0


# SHA-256 of every CSV each experiment writes at tiny_config(). A change
# that alters an output must re-pin its digest on purpose. ga-trace,
# coverage-vs-ues and power-cdf run the GA, but at this config no bytes
# follow its draw order: ga-trace and coverage-vs-ues read 1.0 throughout,
# and every power-cdf trial's powers at the lower bounds already reach its
# coverage ceiling, so the GA policy returns the lower bounds unsearched.
GOLDEN = {
    "ga-trace": {
        "out.csv": "13a57b320d78c75ba003867d0682fe8a1983277614671af804c9f51a9ee6b5ca"},
    "coverage-vs-ues": {
        "out_rb2.csv": "cd395c642529ed17525382bb8d65ef0f0d9b5df7406c386b86779e1f02156dce",
        "out_rb4.csv": "e492cd83bce33a7d13b8a13a8c28bfeeb57b99324bc5a5eb8a2e5ff4dd9eb825"},
    "coverage-vs-sinr": {
        "out.csv": "d191c34bed9cf72b03c1b05ef1c5b7daaf51dc9809d973422b9431890da99bb8"},
    "intercell": {
        "out.csv": "def7e03feffdf8d074012a109c2637d21e7620f96ad0867e3b0dd751b8e11ead"},
    "power-cdf": {
        "out.csv": "f3f70fe9ec7011b84d57d3329655c6f57b94515d2f6d1550390d3db8cca092b5"},
}


# A harder config where the GA's draws show in ga-trace and coverage-vs-ues:
# the rb2 curve at 10 UEs reads 0.6 / 0.25 / 0.25 (optimized, max, random)
# and the first ga-trace column climbs from 0.4 to 0.5.
def ga_sensitive_config():
    return tiny_config(num_ues=10, sweep_ues=(5, 10), min_rate_bps=20e6,
                       ga_iterations=20)


GOLDEN_GA = {
    "ga-trace": {
        "out.csv": "2411e2826f5e08d39ac015cccff78e82d9c230c501d40cc8a5ff550231911f82"},
    "coverage-vs-ues": {
        "out_rb2.csv": "e4853eb80da8be15e7888436e24a75026433aab1efb1f549b77614dbfae0d4e3",
        "out_rb4.csv": "77d2200cac78708155bc35e3fa45522bd957d25df3d6268ba215b007c43243fd"},
}

# power-cdf at the GA-sensitive config's own rate, where neither trial's
# powers at the lower bounds reach its coverage ceiling: the GA searches
# both, and this digest pins the powers it chooses.
GOLDEN_GA_POWERS = {
    "out.csv": "d7ea85399550af7d4d44bb089de7d392deca75e188e1706fa7d30c6424ea41f5"}


def csv_digests(tmp_path, name, config):
    paths = run_experiment(
        ExperimentSpec(name=name, out=str(tmp_path / "out.csv")), config)
    return {os.path.basename(p): hashlib.sha256(Path(p).read_bytes()).hexdigest()
            for p in paths}


class TestFingerprints:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_csv_digest(self, tmp_path, name):
        assert csv_digests(tmp_path, name, tiny_config()) == GOLDEN[name]

    @pytest.mark.parametrize("name", sorted(GOLDEN_GA))
    def test_ga_sensitive_digest(self, tmp_path, name):
        assert csv_digests(tmp_path, name, ga_sensitive_config()) == GOLDEN_GA[name]

    def test_ga_sensitive_power_digest(self, tmp_path):
        config = ga_sensitive_config().replace(powercdf_rates_bps=(20e6,))
        assert csv_digests(tmp_path, "power-cdf", config) == GOLDEN_GA_POWERS


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config()
        a = run(tmp_path, "ga-trace", cfg)[0]
        data_a = Path(a).read_bytes()
        b_out = str(tmp_path / "again.csv")
        run_experiment(ExperimentSpec("ga-trace", b_out), cfg)
        assert Path(b_out).read_bytes() == data_a

    def test_header_reproduces_file(self, tmp_path):
        cfg = tiny_config(num_ues=4, power_policy="max")
        first = run(tmp_path, "intercell", cfg)[0]
        header_lines = []
        with open(first) as fh:
            for line in fh:
                if not line.startswith("#"):
                    break
                body = line[1:].strip()
                if "=" in body and not body.startswith("experiment"):
                    header_lines.append(body)
        cfg_file = tmp_path / "from_header.cfg"
        cfg_file.write_text("\n".join(header_lines) + "\n")
        reloaded = load_config(str(cfg_file))
        second = str(tmp_path / "reproduced.csv")
        run_experiment(ExperimentSpec("intercell", second), reloaded)
        assert Path(second).read_bytes() == Path(first).read_bytes()


class TestFailureCleanup:
    def test_partial_outputs_removed(self, tmp_path, monkeypatch):
        cfg = tiny_config()
        calls = {"n": 0}
        real = experiments.monte_carlo_coverage

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > len(cfg.sweep_ues):  # first file complete
                raise RuntimeError("injected failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "monte_carlo_coverage", flaky)
        out = str(tmp_path / "cov.csv")
        with pytest.raises(RuntimeError):
            run_experiment(ExperimentSpec("coverage-vs-ues", out), cfg)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("rbs_values, kept", [
        ((2,), ["cov_rb2.csv", "cov_rb4.csv"]),
        ((2, 4), ["cov.csv"])])
    def test_files_the_run_does_not_write_are_kept(self, tmp_path, monkeypatch,
                                                   rbs_values, kept):
        # One RBs-per-UE value writes cov.csv, two write cov_rb2.csv and
        # cov_rb4.csv; a failed run removes its own files and no other.
        def fail(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(experiments, "monte_carlo_coverage", fail)
        for name in ("cov.csv", "cov_rb2.csv", "cov_rb4.csv"):
            (tmp_path / name).write_text("an earlier output\n")
        spec = ExperimentSpec("coverage-vs-ues", str(tmp_path / "cov.csv"),
                              rbs_values=rbs_values)
        with pytest.raises(RuntimeError):
            run_experiment(spec, tiny_config())
        assert sorted(os.listdir(tmp_path)) == kept


class TestSummarize:
    def _fixture(self, tmp_path, rows):
        path = str(tmp_path / "fix.csv")
        experiments._write_csv(path, tiny_config(), "coverage-vs-ues",
                               ["num_ues", "coverage_optimized",
                                "coverage_max_power",
                                "coverage_random_power"], rows)
        return path

    def test_crossing_interpolation(self):
        x = np.array([10.0, 20.0, 30.0])
        assert crossing_point(x, np.array([0.9, 0.8, 0.6]), 0.7) == \
            pytest.approx(25.0)
        assert crossing_point(x, np.array([0.9, 0.8, 0.75]), 0.7) is None
        assert crossing_point(x, np.array([0.5, 0.4, 0.3]), 0.7) == 10.0

    def test_dominant_optimized_reports_gain(self, tmp_path):
        rows = [[10, 0.95, 0.70, 0.65], [20, 0.80, 0.50, 0.45],
                [30, 0.60, 0.30, 0.25]]
        report = summarize(self._fixture(tmp_path, rows))
        assert "positive gain at 70%" in report

    @pytest.mark.parametrize("rows, present, absent", [
        # Every column reads 1: no crossing and no gain is reported.
        ([[10, 1.0, 1.0, 1.0], [20, 1.0, 1.0, 1.0]],
         ["coverage_optimized: no 70% crossing reported",
          "no gain or loss reported at 70%: coverage_optimized, "
          "coverage_max_power, coverage_random_power flat in every row"],
         ["above 70% at every swept count", "no gain at 70%",
          "positive gain at 70%", "supports"]),
        # One flat baseline: the other columns keep their crossings, and
        # the comparison is withheld.
        ([[10, 0.95, 1.0, 0.8], [20, 0.6, 1.0, 0.5]],
         ["coverage_optimized: supports 17.14 UEs at 70% coverage",
          "coverage_max_power: no 70% crossing reported",
          "no gain or loss reported at 70%: coverage_max_power flat"],
         ["above 70% at every swept count", "no gain at 70%",
          "positive gain at 70%"]),
        # Normal curves: crossings, the never-crossed count, and the gain.
        ([[10, 0.95, 0.8, 0.75], [20, 0.9, 0.6, 0.5]],
         ["coverage_optimized: above 70% at every swept count",
          "coverage_max_power: supports 15.00 UEs at 70% coverage",
          "optimized power shows positive gain at 70%: 20.00 vs 15.00 UEs"],
         ["no 70% crossing reported", "no gain", "degenerate"]),
        ([[10, 0.75, 0.8, 0.75], [20, 0.5, 0.6, 0.5]],
         ["no gain at 70%: optimized 12.00 vs best baseline 15.00 UEs"],
         ["no 70% crossing reported", "positive gain", "degenerate"]),
    ], ids=["all flat", "one flat", "gain", "no gain"])
    def test_flat_columns_report_no_crossing_or_gain(self, tmp_path, rows,
                                                     present, absent):
        path = self._fixture(tmp_path, rows)
        before = Path(path).read_bytes()
        report = summarize(path)
        for text in present:
            assert text in report
        for text in absent:
            assert text not in report
        assert Path(path).read_bytes() == before

    def test_sinr_curve_above_target_says_so(self, tmp_path):
        # Coverage at or above 70% at every back-off: no crossing to report,
        # and the report says why rather than that the curve never crosses.
        path = str(tmp_path / "sinr.csv")
        experiments._write_csv(path, tiny_config(), "coverage-vs-sinr",
                               ["backoff_db", "sep_median_sinr_db",
                                "sep_coverage", "sim_median_sinr_db",
                                "sim_coverage"],
                               [[0.0, 20.0, 1.0, 18.0, 0.7],
                                [6.0, 14.0, 0.9, 12.0, 0.7],
                                [12.0, 8.0, 0.8, 6.0, 0.4]])
        report = summarize(path).splitlines()
        assert ("  sep: coverage stays at or above 70% at every swept back-off"
                in report)
        assert report[2].startswith("  sim: median access SINR at 70% coverage")
        assert not any("never crosses" in line for line in report)
        assert not any("degenerate" in line for line in report)

    @pytest.mark.parametrize("flat", [1.0, 0.0])
    def test_flat_sinr_column_reports_no_crossing_or_gap(self, tmp_path,
                                                         flat):
        # A mode whose coverage reads 0 or 1 in every row is flagged: it
        # has no crossing to report, and no SINR gap is reported against
        # the other mode, which keeps its crossing.
        path = str(tmp_path / "sinr.csv")
        experiments._write_csv(path, tiny_config(), "coverage-vs-sinr",
                               ["backoff_db", "sep_median_sinr_db",
                                "sep_coverage", "sim_median_sinr_db",
                                "sim_coverage"],
                               [[0.0, 20.0, flat, 18.0, 0.9],
                                [6.0, 14.0, flat, 12.0, 0.7],
                                [12.0, 8.0, flat, 6.0, 0.4]])
        report = summarize(path).splitlines()
        assert report[1] == "  sep: no 70% crossing reported (flat in every row)"
        assert report[2].startswith("  sim: median access SINR at 70% coverage")
        assert f"  degenerate: sep_coverage reads {flat:g} in every row" in report
        assert not any("SINR gap" in line or "stays at or above" in line
                       or "sep: median access SINR" in line for line in report)

    def test_identical_cell_columns_zero_delta(self, tmp_path):
        path = str(tmp_path / "ic.csv")
        experiments._write_csv(path, tiny_config(), "intercell",
                               ["num_ues", "coverage_1cell", "coverage_2cell"],
                               [[5, 0.9, 0.9], [10, 0.8, 0.8]])
        report = summarize(path)
        assert "0.0000" in report

    def test_missing_column_exits_1_naming_file_and_column(self, tmp_path,
                                                            capsys):
        path = str(tmp_path / "ic.csv")
        experiments._write_csv(path, tiny_config(), "intercell",
                               ["num_ues", "coverage_1cell"], [[5, 0.9]])
        assert main(["summarize", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert path in err and "'coverage_2cell'" in err

    @pytest.mark.parametrize("row", ["5,0.9", "5,0.9,0.8,0.1"])
    def test_row_of_the_wrong_width_exits_1_naming_file_and_line(
            self, tmp_path, capsys, row):
        path = str(tmp_path / "ic.csv")
        experiments._write_csv(path, tiny_config(), "intercell",
                               ["num_ues", "coverage_1cell", "coverage_2cell"],
                               [[5, 0.9, 0.9]])
        lines = Path(path).read_text().splitlines(keepends=True)
        Path(path).write_text("".join(lines) + row + "\n")
        assert main(["summarize", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert path in err and f"line {len(lines) + 1} " in err

    @pytest.mark.parametrize("name, columns, rows, flagged", [
        ("coverage-vs-ues", ["num_ues", "coverage_optimized",
                             "coverage_max_power", "coverage_random_power"],
         [[5, 1.0, 1.0, 0.0], [10, 0.9, 1.0, 0.0]],
         ["coverage_max_power reads 1", "coverage_random_power reads 0"]),
        ("intercell", ["num_ues", "coverage_1cell", "coverage_2cell"],
         [[5, 1.0, 1.0], [10, 1.0, 0.99]], ["coverage_1cell reads 1"]),
        ("coverage-vs-sinr", ["backoff_db", "sep_median_sinr_db",
                              "sep_coverage", "sim_median_sinr_db",
                              "sim_coverage"],
         [[0.0, 20.0, 0.0, 18.0, 0.0], [6.0, 14.0, 0.0, 12.0, 0.0]],
         ["sep_coverage reads 0", "sim_coverage reads 0",
          "sep_coverage equals sim_coverage"]),
        ("coverage-vs-sinr", ["backoff_db", "sep_median_sinr_db",
                              "sep_coverage", "sim_median_sinr_db",
                              "sim_coverage"],
         [[0.0, 20.0, 0.9, 18.0, 0.9], [6.0, 14.0, 0.5, 12.0, 0.5]],
         ["sep_coverage equals sim_coverage"]),
        ("coverage-vs-sinr", ["backoff_db", "sep_median_sinr_db",
                              "sep_coverage", "sim_median_sinr_db",
                              "sim_coverage"],
         [[0.0, 20.0, 0.9, 18.0, 0.9], [6.0, 14.0, 0.5, 12.0, 0.4]], []),
        ("ga-trace", ["iteration", "best_coverage_s1", "best_coverage_s2",
                      "best_coverage_s3"],
         [[1, 0.5, 0.25, 1.0], [2, 0.75, 0.25, 1.0], [3, 0.75, 0.5, 1.0]],
         ["best_coverage_s3 is final at iteration 1"]),
        ("ga-trace", ["iteration", "best_coverage_s1"],
         [[1, 0.5], [2, 0.5]], ["best_coverage_s1 is final at iteration 1"]),
        ("ga-trace", ["iteration", "best_coverage_s1"],
         [[1, 0.5], [2, 0.75]], []),
        ("power-cdf", ["min_rate_bps", "trial", "node_id", "role",
                       "server_role", "eirp_dbm"],
         [[5e6, 0, 2, "iab", "donor", 35.0], [5e6, 0, 3, "ue", "iab", 23.0],
          [5e6, 1, 2, "iab", "donor", 35.0], [5e6, 1, 3, "ue", "iab", 30.5],
          [8e7, 0, 2, "iab", "donor", 40.0], [8e7, 0, 3, "ue", "iab", 23.0],
          [8e7, 1, 2, "iab", "donor", 36.0], [8e7, 1, 3, "ue", "iab", 23.0]],
         ["rate 5000000 bps, iab: the EIRPs have zero IQR",
          "rate 80000000 bps, ue: the EIRPs have zero IQR"]),
        ("power-cdf", ["min_rate_bps", "trial", "node_id", "role",
                       "server_role", "eirp_dbm"],
         [[5e6, 0, 3, "ue", "donor", 23.0], [5e6, 1, 3, "ue", "donor", 24.0]],
         []),
    ])
    def test_degenerate_columns_are_flagged(self, tmp_path, name, columns,
                                            rows, flagged):
        path = str(tmp_path / "flat.csv")
        experiments._write_csv(path, tiny_config(), name, columns, rows)
        before = Path(path).read_bytes()
        report = summarize(path).splitlines()
        flags = [line for line in report if line.startswith("  degenerate: ")]
        assert len(flags) == len(flagged)
        for flag, text in zip(flags, flagged):
            assert text in flag
        assert Path(path).read_bytes() == before

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("# not an experiment\n")
        with pytest.raises(Exception):
            summarize(str(path))


class TestSummarizeNoRows:
    @pytest.mark.parametrize("name", experiments.EXPERIMENT_NAMES)
    def test_header_only_file(self, tmp_path, capsys, name):
        [path, *_] = run(tmp_path, name, tiny_config(power_policy="max"))
        lines = Path(path).read_text().splitlines(keepends=True)
        n_header = sum(line.startswith("#") for line in lines) + 1
        Path(path).write_text("".join(lines[:n_header]))
        assert main(["summarize", path]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["  no data rows"]


class TestUnreachableRate:
    """A rate whose minimum SINR overflows a double covers no UE."""

    @pytest.mark.parametrize("kw", [{"min_rate_bps": 1e13},
                                    {"scs_khz": 0.001}])
    def test_ga_trace_exits_0_with_zero_coverage(self, tmp_path, kw):
        cfg_path = tmp_path / "rate.cfg"
        cfg_path.write_text("\n".join(config_lines(tiny_config(**kw))) + "\n")
        out = str(tmp_path / "trace.csv")
        assert main(["run", "ga-trace", "--config", str(cfg_path),
                     "--out", out]) == 0
        _, _, _, data, _ = read_csv(out)
        assert data.shape[0] == 5 and np.all(data[:, 1:] == 0.0)


class TestCli:
    def test_run_and_summarize_roundtrip(self, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        code = main(["run", "ga-trace", "--trials", "1", "--ues", "2",
                     "--seed", "3", "--out", out])
        assert code == 0
        assert os.path.exists(out)
        assert main(["summarize", out]) == 0
        captured = capsys.readouterr()
        assert "ga-trace" in captured.out

    def test_cli_overrides_applied(self, tmp_path):
        out = str(tmp_path / "t.csv")
        code = main(["run", "ga-trace", "--ues", "2", "--seed", "11",
                     "--trials", "1", "--cells", "2", "--policy", "max",
                     "--slot-mode", "simultaneous", "--out", out])
        assert code == 0
        _, header, _, _, _ = read_csv(out)
        assert header["num_ues"] == "2"
        assert header["num_cells"] == "2"
        assert header["slot_mode"] == "simultaneous"
        assert header["power_policy"] == "max"

    def test_validation_error_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "x.csv")
        code = main(["run", "ga-trace", "--cells", "2", "--ues", "-3",
                     "--out", out])
        assert code == 1
        assert "num_ues" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["coverage-vs-ues", "intercell"])
    def test_ue_sweep_over_fixed_positions_exits_1_naming_sweep_ues(
            self, tmp_path, capsys, name):
        positions = ((20.0, 0.0), (60.0, 0.0), (120.0, 0.0), (180.0, 0.0))
        cfg_path = tmp_path / "fixed.cfg"
        cfg_path.write_text("\n".join(config_lines(tiny_config(
            num_ues=4, ue_positions=positions, sweep_ues=(4, 5)))) + "\n")
        out = tmp_path / "out.csv"
        code = main(["run", name, "--config", str(cfg_path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "sweep_ues" in err and "at 4" in err
        assert os.listdir(tmp_path) == ["fixed.cfg"]

    def test_ue_sweep_of_the_fixed_count_runs(self, tmp_path):
        positions = ((20.0, 0.0), (60.0, 0.0), (120.0, 0.0), (180.0, 0.0))
        config = tiny_config(num_ues=4, ue_positions=positions,
                             sweep_ues=(4,), power_policy="max")
        [path] = run(tmp_path, "intercell", config)
        _, _, _, data, _ = read_csv(path)
        assert data[:, 0].tolist() == [4.0]

    def test_workers_flag_is_unknown(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["run", "ga-trace", "--workers", "2", "--out", str(out)])
        assert code == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_exit_code(self, tmp_path):
        out = str(tmp_path / "x.csv")
        code = main(["run", "ga-trace", "--config", "/nonexistent.cfg",
                     "--out", out])
        assert code == 1

    def test_runtime_error_exit_code(self, tmp_path, monkeypatch):
        import iabsim.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_experiment", boom)
        code = main(["run", "ga-trace", "--out", str(tmp_path / "x.csv")])
        assert code == 2
