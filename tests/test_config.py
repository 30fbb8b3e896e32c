"""Config parsing, precedence, and validation tests."""

import dataclasses
import math

import pytest

from iabsim.config import (DOMAINS, PAIR, POINTS, SCALAR, TUPLE, ConfigError,
                           ScenarioConfig, config_lines, load_config,
                           parse_config_file)


class TestDefaults:
    def test_empty_file_yields_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing but a comment\n\n")
        cfg = load_config(str(path))
        assert cfg == ScenarioConfig()

    def test_standard_parameter_set(self):
        cfg = load_config()
        assert cfg.fc_ghz == 28.0
        assert cfg.bw_mhz == 400.0
        assert cfg.scs_khz == 120.0
        assert (cfg.rb_min, cfg.rb_max) == (24, 270)
        assert cfg.cell_radius_m == 200.0
        assert cfg.alpha == 4.0
        assert cfg.shadow_std_db == 4.0
        assert cfg.nf_db == 5.0
        assert cfg.rx_gain_db == 25.0
        assert cfg.donor_height_m == 25.0
        assert cfg.iab_height_range_m == (21.0, 24.0)
        assert cfg.ue_height_m == 1.5
        assert cfg.ue_eirp_range_dbm == (23.0, 43.0)
        assert cfg.iab_eirp_range_dbm == (35.0, 53.0)
        assert cfg.rain_range_mm_h == (15.0, 20.0)
        assert cfg.min_rate_bps == 64e3
        assert cfg.num_iab_per_cell == 4
        assert cfg.eff_ant_height_m == 1.0
        assert cfg.rb_width_hz == 12 * 120e3


class TestFileParsing:
    def test_key_value_and_comments(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(
            "# scenario\n"
            "num_ues = 19\n"
            "slot_mode = simultaneous\n"
            "ue_eirp_range_dbm = [20, 40]\n"
            "fading_enabled = false\n"
            "donor_spacing_m = 500\n")
        cfg = load_config(str(path))
        assert cfg.num_ues == 19
        assert cfg.slot_mode == "simultaneous"
        assert cfg.ue_eirp_range_dbm == (20.0, 40.0)
        assert cfg.fading_enabled is False
        assert cfg.donor_spacing_m == 500.0

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frequency_ghz = 28\n")
        with pytest.raises(ConfigError, match="frequency_ghz"):
            load_config(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_ues 19\n")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(str(path))

    def test_inverted_range_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("ue_eirp_range_dbm = [50, 40]\n")
        with pytest.raises(ConfigError, match="ue_eirp_range_dbm"):
            load_config(str(path))

    def test_out_of_range_value_named(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("num_cells = 5\n")
        with pytest.raises(ConfigError, match="num_cells"):
            load_config(str(path))

    def test_ue_positions_literal(self, tmp_path):
        path = tmp_path / "pos.cfg"
        path.write_text("num_ues = 2\nue_positions = [(10, 0), (0, -20)]\n")
        cfg = load_config(str(path))
        assert cfg.ue_positions == ((10.0, 0.0), (0.0, -20.0))

    def test_position_count_mismatch(self, tmp_path):
        path = tmp_path / "pos.cfg"
        path.write_text("num_ues = 3\nue_positions = [(10, 0)]\n")
        with pytest.raises(ConfigError, match="ue_positions"):
            load_config(str(path))


class TestPrecedence:
    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("num_ues = 10\nseed = 4\n")
        cfg = load_config(str(path), {"num_ues": 19})
        assert cfg.num_ues == 19
        assert cfg.seed == 4

    def test_cli_only(self):
        cfg = load_config(None, {"num_ues": "19", "slot_mode": "separated"})
        assert cfg.num_ues == 19

    def test_cli_unknown_key(self):
        with pytest.raises(ConfigError, match="nope"):
            load_config(None, {"nope": 3})


class TestRoundTrip:
    def test_config_lines_reparse_identically(self, tmp_path):
        cfg = load_config(None, {"num_ues": 7, "rain_range_mm_h": [16, 16],
                                 "power_policy": "ga"})
        path = tmp_path / "echo.cfg"
        path.write_text("\n".join(config_lines(cfg)) + "\n")
        assert load_config(str(path)) == cfg

    def test_round_trip_with_positions(self, tmp_path):
        cfg = load_config(None, {"num_ues": 2,
                                 "ue_positions": ((5.0, 1.0), (9.0, -2.0))})
        path = tmp_path / "echo.cfg"
        path.write_text("\n".join(config_lines(cfg)) + "\n")
        assert load_config(str(path)) == cfg


class TestValidation:
    def test_ga_population_bounds(self):
        with pytest.raises(ConfigError, match="ga_neighborhood"):
            load_config(None, {"ga_population": 10, "ga_neighborhood": 10})

    def test_rbs_exceed_grid(self):
        with pytest.raises(ConfigError, match="rbs_per_ue"):
            load_config(None, {"rbs_per_ue": 300})

    def test_grid_exceeds_bandwidth(self):
        with pytest.raises(ConfigError, match="rb_max"):
            load_config(None, {"rb_max": 280})

    @pytest.mark.parametrize("value", [0, -1])
    def test_min_rate_must_be_positive(self, value):
        with pytest.raises(ConfigError, match="min_rate_bps"):
            load_config(None, {"min_rate_bps": value})

    def test_position_outside_cell(self):
        with pytest.raises(ConfigError, match="outside"):
            load_config(None, {"num_ues": 1, "ue_positions": ((500.0, 0.0),)})


FLOAT_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig)
              if isinstance(getattr(ScenarioConfig(), f.name), float)]


class TestNonFinite:
    # Covers fc_ghz, min_rate_bps, cell_radius_m and shadow_std_db, where a
    # NaN once passed validation, and every other float field.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_float_field_rejects(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig().replace(**{key: value})

    @pytest.mark.parametrize("key, value", [
        ("rain_k", math.inf), ("donor_spacing_m", math.nan),
        ("ue_eirp_range_dbm", (23.0, math.inf)),
        ("sweep_backoff_db", (0.0, math.nan)),
        ("ue_positions", ((math.nan, 0.0),))])
    def test_optional_and_tuple_fields_reject(self, key, value):
        kw = {"num_ues": 1} if key == "ue_positions" else {}
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig().replace(**kw, **{key: value})

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN"])
    def test_file_value_parsed_as_float_and_rejected(self, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(f"fc_ghz = {text}\n")
        parsed = parse_config_file(str(path))["fc_ghz"]
        assert isinstance(parsed, float) and not math.isfinite(parsed)
        with pytest.raises(ConfigError, match="fc_ghz"):
            load_config(str(path))

    def test_file_list_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("ue_eirp_range_dbm = [nan, 40]\n")
        assert math.isnan(parse_config_file(str(path))["ue_eirp_range_dbm"][0])
        with pytest.raises(ConfigError, match="ue_eirp_range_dbm"):
            load_config(str(path))

    def test_file_value_exits_1(self, tmp_path, capsys):
        from iabsim.cli import main
        path = tmp_path / "bad.cfg"
        path.write_text("min_rate_bps = nan\n")
        code = main(["run", "ga-trace", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "min_rate_bps" in capsys.readouterr().err


RANGE_KEYS = ["ue_eirp_range_dbm", "iab_eirp_range_dbm", "iab_height_range_m",
              "rain_range_mm_h"]


class TestRangeArity:
    @pytest.mark.parametrize("value", [(1.0, 2.0, 3.0), (1.0,), 5.0])
    @pytest.mark.parametrize("key", RANGE_KEYS)
    def test_code_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig().replace(**{key: value})

    @pytest.mark.parametrize("key", RANGE_KEYS)
    def test_file_value_rejected(self, tmp_path, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = [1, 2, 3]\n")
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))

    def test_file_value_exits_1(self, tmp_path, capsys):
        from iabsim.cli import main
        path = tmp_path / "bad.cfg"
        path.write_text("ue_eirp_range_dbm = [1, 2, 3]\n")
        code = main(["run", "ga-trace", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "ue_eirp_range_dbm" in capsys.readouterr().err


class TestNonNumericRange:
    @pytest.mark.parametrize("value", [("a", 40.0), (23.0, None), (True, 40.0)])
    @pytest.mark.parametrize("key", RANGE_KEYS)
    def test_code_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig().replace(**{key: value})

    @pytest.mark.parametrize("key", RANGE_KEYS)
    def test_file_value_rejected(self, tmp_path, key):
        path = tmp_path / "bad.cfg"
        path.write_text(f'{key} = ["a", 40]\n')
        with pytest.raises(ConfigError, match=key):
            load_config(str(path))

    def test_cli_override_rejected(self):
        with pytest.raises(ConfigError, match="ue_eirp_range_dbm"):
            load_config(cli_overrides={"ue_eirp_range_dbm": ["a", 40]})

    def test_file_value_exits_1(self, tmp_path, capsys):
        from iabsim.cli import main
        path = tmp_path / "bad.cfg"
        path.write_text('ue_eirp_range_dbm = ["a", 40]\n')
        code = main(["run", "ga-trace", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "ue_eirp_range_dbm" in capsys.readouterr().err


INT_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig)
            if f.type == "int"]


class TestIntegral:
    @pytest.mark.parametrize("value", [(3.5,), (5, 2.5), (4.0,)])
    def test_code_sweep_rejected(self, value):
        with pytest.raises(ConfigError, match="sweep_ues"):
            ScenarioConfig().replace(sweep_ues=value)

    @pytest.mark.parametrize("key", INT_KEYS)
    def test_code_int_field_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig().replace(**{key: 2.5})

    def test_file_sweep_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("sweep_ues = [3.5]\n")
        with pytest.raises(ConfigError, match="sweep_ues"):
            parse_config_file(str(path))

    def test_file_integral_floats_accepted(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text("sweep_ues = [3.0, 5]\nnum_ues = 4.0\n")
        cfg = load_config(str(path))
        assert cfg.sweep_ues == (3, 5) and cfg.num_ues == 4
        assert all(type(v) is int for v in cfg.sweep_ues + (cfg.num_ues,))

    @pytest.mark.parametrize("line", ["sweep_ues = [3.5]", "num_ues = 2.5",
                                      "sweep_ues = [nan]", "num_ues = inf"])
    def test_file_value_exits_1(self, tmp_path, capsys, line):
        from iabsim.cli import main
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        code = main(["run", "ga-trace", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert line.split()[0] in capsys.readouterr().err


class TestNonNumericTuple:
    @pytest.mark.parametrize("value", [("a",), (1.0, None), (True,)])
    @pytest.mark.parametrize("key", ["sweep_backoff_db", "powercdf_rates_bps"])
    def test_code_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig().replace(**{key: value})

    @pytest.mark.parametrize("value", [(("a", 0.0),), ((1.0,),),
                                       ((1.0, 2.0, 3.0),), (5.0,)])
    def test_code_positions_rejected(self, value):
        with pytest.raises(ConfigError, match="ue_positions"):
            ScenarioConfig().replace(ue_positions=value, num_ues=1)

    @pytest.mark.parametrize("text, key", [
        ('powercdf_rates_bps = ["a"]', "powercdf_rates_bps"),
        ('sweep_backoff_db = ["x"]', "sweep_backoff_db"),
        ('num_ues = 1\nue_positions = [("a", 0.0)]', "ue_positions")])
    def test_file_value_exits_1(self, tmp_path, capsys, text, key):
        from iabsim.cli import main
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        code = main(["run", "power-cdf", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestChannelAndSeedChecks:
    """The rain law, the carrier's place in the rain table, the GA
    neighborhood and the seed are checked at config load, by key."""

    @pytest.mark.parametrize("key, value", [
        ("rain_k", 0.0), ("rain_k", -1.0), ("rain_k", "abc"),
        ("rain_gamma", 0.0), ("rain_gamma", 2.0), ("rain_gamma", -0.5),
        ("fc_ghz", 0.5), ("fc_ghz", 500.0),
        ("ga_neighborhood", -1), ("seed", -1)])
    def test_code_value_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ScenarioConfig().replace(**{key: value})

    @pytest.mark.parametrize("kw", [{"rain_k": 0.5}, {"rain_gamma": 1.0}])
    def test_out_of_table_carrier_with_one_coefficient_rejected(self, kw):
        with pytest.raises(ConfigError, match="fc_ghz"):
            ScenarioConfig().replace(fc_ghz=500.0, **kw)

    def test_out_of_table_carrier_with_both_coefficients_accepted(self):
        cfg = ScenarioConfig().replace(fc_ghz=500.0, rain_k=0.5, rain_gamma=1.0)
        assert (cfg.rain_k, cfg.rain_gamma) == (0.5, 1.0)

    @pytest.mark.parametrize("line", ["rain_k = -1", "rain_gamma = 3",
                                      "fc_ghz = 500", "ga_neighborhood = -1",
                                      "seed = -1"])
    def test_file_value_exits_1(self, tmp_path, capsys, line):
        from iabsim.cli import main
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        code = main(["run", "ga-trace", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert line.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


NUMBER_KEYS = [f.name for f in dataclasses.fields(ScenarioConfig)
               if f.type in ("float", "Optional[float]")]


class TestNonNumericFloat:
    """Every float field, optional ones included, must hold a real number;
    a string or a bool is rejected by key at config load."""

    @pytest.mark.parametrize("key", NUMBER_KEYS)
    def test_rejected_by_key(self, tmp_path, capsys, key):
        from iabsim.cli import main
        for value in ("abc", True):
            with pytest.raises(ConfigError, match=key):
                ScenarioConfig().replace(**{key: value})
        with pytest.raises(ConfigError, match=key):
            load_config(cli_overrides={key: "abc"})
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = abc\n")
        code = main(["run", "ga-trace", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()
        if getattr(ScenarioConfig(), key) is None:  # optional keeps None
            assert getattr(ScenarioConfig().replace(**{key: None}), key) is None


# ---------------------------------------------------------------------------
# Tests generated from the domain table: every field, every bound, every kind
# ---------------------------------------------------------------------------

DEFAULTS = ScenarioConfig()
WRONG_KIND = {float: ("abc", True), int: (2.5, True, "abc"),
              bool: (1, "abc"), str: (1, True)}


def test_every_field_has_a_domain():
    fields = [f.name for f in dataclasses.fields(ScenarioConfig)]
    assert [key for key in fields if key not in DOMAINS] == []
    assert list(DOMAINS) == fields


def _place(key, entry, last=False):
    """The value of ``key`` with ``entry`` in one entry, the rest default."""
    domain, default = DOMAINS[key], getattr(DEFAULTS, key)
    if domain.shape == SCALAR:
        return entry
    if domain.shape == POINTS:
        return ((entry, 0.0),)
    values = list(default)
    values[-1 if last else 0] = entry
    return tuple(values)


def _outside(key):
    """(label, value) of ``key`` just outside each of its bounds and its
    choices, of the wrong kind, and of the wrong shape; for a float field,
    also an int too large for a double."""
    d = DOMAINS[key]
    step = 1 if d.kind is int else None

    def below(b):
        return b - step if step else math.nextafter(float(b), -math.inf)

    def above(b):
        return b + step if step else math.nextafter(float(b), math.inf)

    exact = int if d.kind is int else float
    if d.gt is not None:
        yield f"gt{d.gt}", _place(key, exact(d.gt))
    if d.ge is not None:
        yield f"ge{d.ge}", _place(key, below(d.ge))
    if d.lt is not None:
        yield f"lt{d.lt}", _place(key, exact(d.lt), last=True)
    if d.le is not None:
        yield f"le{d.le}", _place(key, above(d.le), last=True)
    if d.choices:
        yield "choice", "bogus" if d.kind is str else max(d.choices) + 1
    if d.kind is float:
        yield "int-beyond-double", _place(key, 10**400)
    for wrong in WRONG_KIND[d.kind]:
        yield f"kind-{type(wrong).__name__}", _place(key, wrong)
    if not d.optional:
        yield "none", None
    if d.shape == PAIR:
        yield "inverted", tuple(reversed(getattr(DEFAULTS, key)))
        yield "arity", getattr(DEFAULTS, key) * 2
    if d.shape == TUPLE:
        yield "empty", ()
    if d.shape == POINTS:
        yield "arity", ((1.0,),)
    if d.shape != SCALAR:
        yield "scalar", 5.0


CASES = [pytest.param(key, value, id=f"{key}-{label}")
         for key in DOMAINS for label, value in _outside(key)]


def _rendered(key, value):
    """The text of ``key = value`` as a config file or a CLI flag gives it."""
    [line] = [line for line in config_lines(dataclasses.replace(
        DEFAULTS, **{key: value})) if line.startswith(f"{key} = ")]
    return line.partition(" = ")[2]


class TestDomains:
    """Each case is one value just outside a field's domain. It must raise a
    ConfigError naming the key on every route: code, file and CLI."""

    @pytest.mark.parametrize("key, value", CASES)
    def test_code(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            ScenarioConfig().replace(**{key: value})

    @pytest.mark.parametrize("key, value", CASES)
    def test_config_file_exits_1(self, tmp_path, capsys, key, value):
        from iabsim.cli import main
        path = tmp_path / "bad.cfg"
        path.write_text(f"{key} = {_rendered(key, value)}\n")
        code = main(["run", "ga-trace", "--config", str(path),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("key, value", CASES)
    def test_cli_override(self, key, value):
        for override in (_rendered(key, value), value):
            with pytest.raises(ConfigError, match=f"^{key} must be"):
                load_config(cli_overrides={key: override})


class TestRejectedBeforeAnyTrial:
    """Values that once ran (a bool read as a number, a negative height) or
    failed mid-run under another key (a bad sweep entry) fail at load, by
    their own key, before the first trial runs."""

    @pytest.mark.parametrize("line", [
        "fc_ghz = true", "num_ues = true", "seed = false",
        "sweep_ues = [5, -3]", "powercdf_rates_bps = [64e3, -5]",
        "sweep_backoff_db = []", "sweep_ues = []", "powercdf_rates_bps = []",
        "donor_height_m = -1", "ue_height_m = 0",
        "iab_height_range_m = [-1, 24]", "fc_ghz = 1" + "0" * 400,
        "num_ues = 1000000000", "num_ues = 1" + "0" * 400,
        "sweep_ues = [5, 1" + "0" * 400 + "]", "trials = 1000000000"])
    def test_config_file_exits_1(self, tmp_path, capsys, monkeypatch, line):
        import iabsim.cli as cli
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda *a: runs.append(a))
        path = tmp_path / "bad.cfg"
        path.write_text(line + "\n")
        code = cli.main(["run", "coverage-vs-ues", "--config", str(path),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert f"{line.split()[0]} must be" in capsys.readouterr().err
        assert runs == []

    def test_entries_share_the_scalar_domains(self):
        assert DOMAINS["sweep_ues"].ge == DOMAINS["num_ues"].ge == 0
        assert DOMAINS["sweep_ues"].le == DOMAINS["num_ues"].le
        assert DOMAINS["powercdf_rates_bps"].gt == DOMAINS["min_rate_bps"].gt == 0


class TestOversizedInt:
    """An int given from code that is too long for Python to print (past
    its 4300-digit int-to-str limit) is rejected by key, shown by its digit
    count."""

    @pytest.mark.parametrize("key", ["num_ues", "fc_ghz", "rb_max",
                                     "trace_seeds"])
    def test_scalar_names_the_key(self, key):
        with pytest.raises(ConfigError,
                           match=f"^{key} must be .*, got an integer of 5001 digits$"):
            ScenarioConfig().replace(**{key: 10**5000})

    def test_digit_count_is_exact(self):
        for value, digits in ((10**5000 - 1, 5000), (-(10**4400), 4401)):
            with pytest.raises(ConfigError, match=f"of {digits} digits$"):
                ScenarioConfig().replace(num_ues=value)

    def test_list_entry_and_cross_field_rules(self):
        with pytest.raises(ConfigError, match=r"^sweep_ues must be .*, got "
                           r"\[5, an integer of 5001 digits\]$"):
            ScenarioConfig().replace(sweep_ues=(5, 10**5000))
        for key in ("rbs_per_ue", "ga_neighborhood"):
            with pytest.raises(ConfigError,
                               match=f"^{key} \\(an integer of 5001 digits\\)"):
                ScenarioConfig().replace(**{key: 10**5000})
