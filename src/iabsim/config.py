"""Scenario configuration: defaults, file parsing, validation.

A scenario is fully described by a ScenarioConfig. Defaults correspond to
the standard urban-macro parameter set (28 GHz carrier, 400 MHz channel,
200 m cells, 4 fixed relay nodes per cell). A config file is line-oriented
``key = value`` text with ``#`` comments; CLI flags override file values.
"""

from __future__ import annotations

import ast
import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Any, Optional


class ConfigError(ValueError):
    """Raised for unknown keys, malformed files, or out-of-range values."""


@dataclass
class ScenarioConfig:
    # Radio / channel
    fc_ghz: float = 28.0
    bw_mhz: float = 400.0
    scs_khz: float = 120.0
    # Nothing reads rb_min. It stays because every CSV header lists every
    # field, so removing it changes every output; it goes with a re-pin.
    rb_min: int = 24
    rb_max: int = 270
    alpha: float = 4.0
    shadow_std_db: float = 4.0
    nf_db: float = 5.0
    rx_gain_db: float = 25.0
    eff_ant_height_m: float = 1.0
    rain_range_mm_h: tuple[float, float] = (15.0, 20.0)
    # None: interpolate from the shipped ITU-R coefficient table at fc.
    rain_k: Optional[float] = None
    rain_gamma: Optional[float] = None
    fading_enabled: bool = True
    # Reproduce the dimensionally-broken pathloss variant (no log10 on the
    # breakpoint term) for comparison runs.
    pathloss_literal: bool = False

    # Geometry
    cell_radius_m: float = 200.0
    num_cells: int = 1
    donor_height_m: float = 25.0
    iab_height_range_m: tuple[float, float] = (21.0, 24.0)
    ue_height_m: float = 1.5
    num_iab_per_cell: int = 4
    iab_ring_radius_fraction: float = 0.5
    iab_ring_angle_offset_deg: float = 0.0
    # None: adjacent cells, donors 2r apart (tangent disks).
    donor_spacing_m: Optional[float] = None

    # Traffic / users
    num_ues: int = 19
    ue_count_poisson: bool = False
    # Fixed per-cell UE offsets (x, y) relative to the donor; overrides
    # random placement. Length must equal num_ues.
    ue_positions: Optional[tuple[tuple[float, float], ...]] = None
    min_rate_bps: float = 64e3
    rbs_per_ue: int = 2

    # Power
    ue_eirp_range_dbm: tuple[float, float] = (23.0, 43.0)
    iab_eirp_range_dbm: tuple[float, float] = (35.0, 53.0)
    power_policy: str = "max"  # max | random | ga

    # Scheduling
    slot_mode: str = "separated"  # separated | simultaneous

    # GA hyperparameters
    ga_iterations: int = 200
    ga_population: int = 20
    ga_neighborhood: int = 10
    ga_mutation_step_db: float = 3.0
    ga_mutation_prob: float = 0.15

    # Monte-Carlo
    trials: int = 200
    seed: int = 1

    # Experiment sweeps (documented defaults, not measurement facts)
    sweep_ues: tuple[int, ...] = (5, 10, 15, 20, 25, 30, 35, 40)
    sweep_backoff_db: tuple[float, ...] = tuple(float(b) for b in range(0, 64, 4))
    powercdf_rates_bps: tuple[float, ...] = (64e3, 1e6)
    trace_seeds: int = 4

    @property
    def rb_width_hz(self) -> float:
        return 12.0 * self.scs_khz * 1e3

    def replace(self, **kwargs: Any) -> "ScenarioConfig":
        cfg = dataclasses.replace(self, **kwargs)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            number = f.type == "float" or (f.type == "Optional[float]"
                                           and value is not None)
            if number and not _is_real(value):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
            if not all(math.isfinite(v) for v in _floats(value)):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
            if f.type == "int" and not _is_int(value):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if not (isinstance(self.sweep_ues, (tuple, list))
                and all(_is_int(v) for v in self.sweep_ues)):
            raise ConfigError(f"sweep_ues entries must be integers, got "
                              f"{self.sweep_ues!r}")
        for key in ("sweep_backoff_db", "powercdf_rates_bps"):
            value = getattr(self, key)
            if not (isinstance(value, (tuple, list))
                    and all(_is_real(v) for v in value)):
                raise ConfigError(f"{key} entries must be numbers, got {value!r}")
        if self.ue_positions is not None and not (
                isinstance(self.ue_positions, (tuple, list))
                and all(isinstance(p, (tuple, list)) and len(p) == 2
                        and all(_is_real(c) for c in p)
                        for p in self.ue_positions)):
            raise ConfigError(f"ue_positions must be (x, y) number pairs, got "
                              f"{self.ue_positions!r}")
        _check_positive(self, "fc_ghz", "bw_mhz", "scs_khz", "cell_radius_m")
        _check_nonneg(self, "shadow_std_db", "num_ues", "num_iab_per_cell",
                      "iab_ring_angle_offset_deg", "ga_neighborhood", "seed")
        if self.alpha < 2:
            raise ConfigError(f"alpha must be >= 2, got {self.alpha}")
        if self.rain_k is not None and not self.rain_k > 0:
            raise ConfigError(f"rain_k must be > 0, got {self.rain_k!r}")
        if self.rain_gamma is not None and not 0 < self.rain_gamma < 2:
            raise ConfigError(
                f"rain_gamma must be in (0, 2), got {self.rain_gamma!r}")
        if self.rain_k is None or self.rain_gamma is None:
            from .channel import rain_coefficients  # channel imports config
            try:
                rain_coefficients(self.fc_ghz)
            except ValueError as exc:
                raise ConfigError(f"fc_ghz: {exc}; set rain_k and rain_gamma "
                                  f"to use this carrier") from None
        if self.num_cells not in (1, 2):
            raise ConfigError(f"num_cells must be 1 or 2, got {self.num_cells}")
        if self.rb_max < 1:
            raise ConfigError(f"rb_max must be >= 1, got {self.rb_max}")
        if self.rbs_per_ue < 1:
            raise ConfigError(f"rbs_per_ue must be >= 1, got {self.rbs_per_ue}")
        if self.rbs_per_ue > self.rb_max:
            raise ConfigError(
                f"rbs_per_ue ({self.rbs_per_ue}) exceeds the RB grid ({self.rb_max})")
        if self.rb_max * self.rb_width_hz > self.bw_mhz * 1e6 + 1e-6:
            raise ConfigError(
                f"rb_max ({self.rb_max}) does not fit in bw_mhz ({self.bw_mhz})")
        if self.min_rate_bps <= 0:
            raise ConfigError(f"min_rate_bps must be > 0, got {self.min_rate_bps}")
        if not 0 < self.iab_ring_radius_fraction <= 1:
            raise ConfigError(
                "iab_ring_radius_fraction must be in (0, 1], got "
                f"{self.iab_ring_radius_fraction}")
        for key in ("ue_eirp_range_dbm", "iab_eirp_range_dbm",
                    "iab_height_range_m", "rain_range_mm_h"):
            value = getattr(self, key)
            if not (isinstance(value, (tuple, list)) and len(value) == 2
                    and all(_is_real(v) for v in value)):
                raise ConfigError(f"{key} must be two numbers [lo, hi], got {value!r}")
            lo, hi = value
            if lo > hi:
                raise ConfigError(f"{key} is inverted: [{lo}, {hi}]")
        if self.rain_range_mm_h[0] < 0:
            raise ConfigError(f"rain_range_mm_h must be >= 0, got {self.rain_range_mm_h}")
        if self.slot_mode not in ("separated", "simultaneous"):
            raise ConfigError(f"slot_mode must be separated|simultaneous, got "
                              f"{self.slot_mode!r}")
        if self.power_policy not in ("max", "random", "ga"):
            raise ConfigError(f"power_policy must be max|random|ga, got "
                              f"{self.power_policy!r}")
        if self.ue_positions is not None:
            if len(self.ue_positions) != self.num_ues:
                raise ConfigError(
                    f"ue_positions has {len(self.ue_positions)} entries but "
                    f"num_ues = {self.num_ues}")
            r = self.cell_radius_m
            for x, y in self.ue_positions:
                if x * x + y * y > r * r + 1e-6:
                    raise ConfigError(
                        f"ue_positions entry ({x}, {y}) lies outside the cell radius {r}")
        if self.donor_spacing_m is not None and self.donor_spacing_m <= 0:
            raise ConfigError(f"donor_spacing_m must be > 0, got {self.donor_spacing_m}")
        if self.ga_population < 2:
            raise ConfigError(f"ga_population must be >= 2, got {self.ga_population}")
        if self.ga_neighborhood >= self.ga_population:
            raise ConfigError(
                f"ga_neighborhood ({self.ga_neighborhood}) must be smaller than "
                f"ga_population ({self.ga_population})")
        if self.ga_iterations < 1:
            raise ConfigError(f"ga_iterations must be >= 1, got {self.ga_iterations}")
        if not 0 < self.ga_mutation_prob <= 1:
            raise ConfigError(
                f"ga_mutation_prob must be in (0, 1], got {self.ga_mutation_prob}")
        if self.ga_mutation_step_db <= 0:
            raise ConfigError(
                f"ga_mutation_step_db must be > 0, got {self.ga_mutation_step_db}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.trace_seeds < 1:
            raise ConfigError(f"trace_seeds must be >= 1, got {self.trace_seeds}")


def _floats(value: Any):
    """Every float in a field value, nested tuples included."""
    if isinstance(value, tuple):
        for v in value:
            yield from _floats(v)
    elif isinstance(value, float):
        yield value


def _is_int(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_positive(cfg: ScenarioConfig, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be > 0, got {getattr(cfg, key)}")


def _check_nonneg(cfg: ScenarioConfig, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) < 0:
            raise ConfigError(f"{key} must be >= 0, got {getattr(cfg, key)}")


_FIELD_TYPES = {f.name: f for f in dataclasses.fields(ScenarioConfig)}


def _coerce(key: str, raw: Any) -> Any:
    """Coerce a parsed literal to the declared field shape."""
    f = _FIELD_TYPES[key]
    default = f.default if f.default is not dataclasses.MISSING else None
    if f.default_factory is not dataclasses.MISSING:  # pragma: no cover
        default = f.default_factory()
    if isinstance(raw, (list, tuple)):
        if key == "ue_positions":
            try:
                return tuple((float(x), float(y)) for x, y in raw)
            except (TypeError, ValueError):
                raise ConfigError(f"{key}: expected a list of (x, y) pairs, got {raw!r}")
        try:
            converted = tuple(float(v) for v in raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: expected numbers, got {raw!r}") from None
        if key == "sweep_ues":
            if not all(v.is_integer() for v in converted):
                raise ConfigError(f"{key}: expected integers, got {raw!r}")
            converted = tuple(int(v) for v in converted)
        return converted
    if isinstance(default, bool) or f.type == "bool":
        if isinstance(raw, bool):
            return raw
        raise ConfigError(f"{key}: expected true/false, got {raw!r}")
    if isinstance(raw, (int, float)):
        if isinstance(default, int) and not isinstance(default, bool):
            if not float(raw).is_integer():
                raise ConfigError(f"{key}: expected an integer, got {raw!r}")
            return int(raw)
        return float(raw)
    if isinstance(raw, str):
        return raw
    raise ConfigError(f"{key}: cannot interpret value {raw!r}")


class _NonFinite(ast.NodeTransformer):
    """Reads the bare names nan and inf, alone or in a list, as floats, so
    that they reach validation and are rejected there by key."""

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id.lower() in ("nan", "inf", "infinity"):
            return ast.Constant(float(node.id))
        return node


def _parse_value(key: str, text: str) -> Any:
    text = text.strip()
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key!r}")
    low = text.lower()
    if low in ("true", "false"):
        return _coerce(key, low == "true")
    if low in ("none", "null"):
        return None
    try:
        literal = ast.literal_eval(_NonFinite().visit(ast.parse(text, mode="eval")))
    except (ValueError, SyntaxError):
        literal = text.strip("\"'")
    return _coerce(key, literal)


def parse_config_file(path: str) -> dict[str, Any]:
    """Parse a ``key = value`` config file into an override dict."""
    overrides: dict[str, Any] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: malformed line (expected "
                                  f"'key = value'): {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            overrides[key] = _parse_value(key, value)
    return overrides


def load_config(path: Optional[str] = None,
                cli_overrides: Optional[dict[str, Any]] = None) -> ScenarioConfig:
    """Build a ScenarioConfig: defaults <- file <- CLI, validated."""
    values: dict[str, Any] = {}
    if path is not None:
        values.update(parse_config_file(path))
    for key, value in (cli_overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key: {key!r}")
        if isinstance(value, str):
            value = _parse_value(key, value)
        elif isinstance(value, (list, tuple)):
            value = _coerce(key, value)
        values[key] = value
    cfg = ScenarioConfig(**values)
    cfg.validate()
    return cfg


def config_lines(cfg: ScenarioConfig) -> list[str]:
    """Render the fully resolved config as parseable ``key = value`` lines."""
    lines = []
    for f in dataclasses.fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            rendered = "[" + ", ".join(_render_scalar(v) for v in value) + "]"
        else:
            rendered = _render_scalar(value)
        lines.append(f"{f.name} = {rendered}")
    return lines


def _render_scalar(value: Any) -> str:
    if isinstance(value, tuple):  # nested (x, y) pairs
        return "(" + ", ".join(_render_scalar(v) for v in value) + ")"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)
