"""Scenario configuration: defaults, domains, file parsing, validation.

A scenario is fully described by a ScenarioConfig. Defaults correspond to
the standard urban-macro parameter set (28 GHz carrier, 400 MHz channel,
200 m cells, 4 fixed relay nodes per cell). A config file is line-oriented
``key = value`` text with ``#`` comments; CLI flags override file values.

Each field is declared by ``_field(default, kind, ...)``, which puts its
domain (kind, shape, bounds, choices) next to its default. That domain is
the only copy: parsing converts by it, ``validate`` checks every field
against it, and the CLI reads its choices from it. ``validate`` spells out
only the rules that relate two fields. A new field needs a default and a
domain entry: ``test_every_field_has_a_domain`` in ``tests/test_config.py``
fails for a field without one, and the tests generated from the table then
cover its bounds and kind.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import Any, Optional


class ConfigError(ValueError):
    """Raised for unknown keys, malformed files, or out-of-range values."""


# Domain shapes: one value, a [lo, hi] pair with lo <= hi, a non-empty
# tuple, or a tuple of (x, y) points.
SCALAR, PAIR, TUPLE, POINTS = "scalar", "pair", "tuple", "points"
_KIND_NAMES = {float: "a finite number", int: "an integer",
               bool: "true or false", str: "text"}


@dataclass(frozen=True)
class Domain:
    """The values a field may hold. ``kind`` (float, int, bool or str) is
    the type of each entry, and ``choices`` and the bounds (> gt, >= ge,
    < lt, <= le) apply to each entry. A bool is never a number."""
    kind: type
    shape: str = SCALAR
    choices: tuple = ()
    gt: Optional[float] = None
    ge: Optional[float] = None
    lt: Optional[float] = None
    le: Optional[float] = None
    optional: bool = False  # None is allowed

    def check(self, key: str, value: Any) -> None:
        """Raise a ConfigError naming ``key`` unless ``value`` is in the domain."""
        if not ((value is None and self.optional) or self._holds(value)):
            raise ConfigError(
                f"{key} must be {self.describe()}, got {_shown(value)}")

    def _holds(self, value: Any) -> bool:
        if self.shape == SCALAR:
            return self._entry_holds(value)
        if not isinstance(value, (tuple, list)):
            return False
        if self.shape == POINTS:
            return all(isinstance(p, (tuple, list)) and len(p) == 2
                       and all(map(self._entry_holds, p)) for p in value)
        if not (value and all(map(self._entry_holds, value))):
            return False
        return self.shape == TUPLE or (len(value) == 2 and value[0] <= value[1])

    def _entry_holds(self, v: Any) -> bool:
        if isinstance(v, bool) != (self.kind is bool):
            return False
        if self.kind is float:
            try:
                finite = isinstance(v, numbers.Real) and math.isfinite(v)
            except OverflowError:  # an int beyond the range of a double
                finite = False
            if not finite:
                return False
        elif not isinstance(v, numbers.Integral if self.kind is int else self.kind):
            return False
        return ((not self.choices or v in self.choices)
                and (self.gt is None or v > self.gt)
                and (self.ge is None or v >= self.ge)
                and (self.lt is None or v < self.lt)
                and (self.le is None or v <= self.le))

    def describe(self) -> str:
        what = ("one of " + "|".join(map(str, self.choices)) if self.choices
                else _KIND_NAMES[self.kind])
        what = " and ".join([what] + [
            f"{op} {bound}" for op, bound in (
                (">", self.gt), (">=", self.ge), ("<", self.lt), ("<=", self.le))
            if bound is not None])
        what = {SCALAR: "{}", PAIR: "[lo, hi] with lo <= hi, each {}",
                TUPLE: "a non-empty list, each {}",
                POINTS: "a list of (x, y) pairs, each {}"}[self.shape].format(what)
        return what + " or none" if self.optional else what


def _shown(value: Any) -> str:
    """``repr(value)``, but an int too long for Python to print (past its
    int-to-str digit limit) is shown by its digit count, alone or in a list."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            n = abs(value)
            d = int((n.bit_length() - 1) * math.log10(2))  # digits - 1, or - 2
            return f"an integer of {d + 1 + (n >= 10 ** (d + 1))} digits"
        return "[" + ", ".join(map(_shown, value)) + "]"


def _field(default: Any, kind: type, shape: str = SCALAR, **domain: Any) -> Any:
    """A field with ``default`` and its Domain; a None default makes it
    optional."""
    return dataclasses.field(default=default, metadata={"domain": Domain(
        kind, shape, optional=default is None, **domain)})


@dataclass
class ScenarioConfig:
    # Radio / channel
    fc_ghz: float = _field(28.0, float, gt=0)
    bw_mhz: float = _field(400.0, float, gt=0)
    scs_khz: float = _field(120.0, float, gt=0)
    # Nothing reads rb_min. It stays because every CSV header lists every
    # field, so removing it changes every output; it goes with a re-pin.
    rb_min: int = _field(24, int)
    # NR's largest resource grid is 275 RBs (3GPP TS 38.211).
    rb_max: int = _field(270, int, ge=1, le=275)
    alpha: float = _field(4.0, float, ge=2)
    shadow_std_db: float = _field(4.0, float, ge=0)
    nf_db: float = _field(5.0, float)
    rx_gain_db: float = _field(25.0, float)
    eff_ant_height_m: float = _field(1.0, float)
    rain_range_mm_h: tuple[float, float] = _field((15.0, 20.0), float, PAIR, ge=0)
    # None: interpolate from the shipped ITU-R coefficient table at fc.
    rain_k: Optional[float] = _field(None, float, gt=0)
    rain_gamma: Optional[float] = _field(None, float, gt=0, lt=2)
    fading_enabled: bool = _field(True, bool)
    # Reproduce the dimensionally-broken pathloss variant (no log10 on the
    # breakpoint term) for comparison runs.
    pathloss_literal: bool = _field(False, bool)

    # Geometry
    cell_radius_m: float = _field(200.0, float, gt=0)
    num_cells: int = _field(1, int, choices=(1, 2))
    donor_height_m: float = _field(25.0, float, gt=0)
    iab_height_range_m: tuple[float, float] = _field((21.0, 24.0), float, PAIR, gt=0)
    ue_height_m: float = _field(1.5, float, gt=0)
    # The bounds of num_iab_per_cell, num_ues and ga_population keep one
    # trial well under 1 GiB: two cells of 1000 UEs (Poisson mean) and 100
    # relays each, scored in batches of 1000 GA rows, peak at about 0.2 GiB.
    num_iab_per_cell: int = _field(4, int, ge=0, le=100)
    iab_ring_radius_fraction: float = _field(0.5, float, gt=0, le=1)
    iab_ring_angle_offset_deg: float = _field(0.0, float, ge=0)
    # None: adjacent cells, donors 2r apart (tangent disks).
    donor_spacing_m: Optional[float] = _field(None, float, gt=0)

    # Traffic / users
    num_ues: int = _field(19, int, ge=0, le=1000)  # per cell; see num_iab_per_cell
    ue_count_poisson: bool = _field(False, bool)
    # Fixed per-cell UE offsets (x, y) relative to the donor; overrides
    # random placement. Length must equal num_ues.
    ue_positions: Optional[tuple[tuple[float, float], ...]] = _field(None, float, POINTS)
    min_rate_bps: float = _field(64e3, float, gt=0)
    rbs_per_ue: int = _field(2, int, ge=1)

    # Power
    ue_eirp_range_dbm: tuple[float, float] = _field((23.0, 43.0), float, PAIR)
    iab_eirp_range_dbm: tuple[float, float] = _field((35.0, 53.0), float, PAIR)
    power_policy: str = _field("max", str, choices=("max", "random", "ga"))

    # Scheduling
    slot_mode: str = _field("separated", str, choices=("separated", "simultaneous"))

    # GA hyperparameters
    ga_iterations: int = _field(200, int, ge=1, le=100_000)  # a trace double each
    ga_population: int = _field(20, int, ge=2, le=1000)  # see num_iab_per_cell
    ga_neighborhood: int = _field(10, int, ge=0)
    ga_mutation_step_db: float = _field(3.0, float, gt=0)
    ga_mutation_prob: float = _field(0.15, float, gt=0, le=1)

    # Monte-Carlo
    # Every trial's outcome is kept: about 4 kB at the default sizes, so
    # 0.4 GB at the bound.
    trials: int = _field(200, int, ge=1, le=100_000)
    seed: int = _field(1, int, ge=0)

    # Experiment sweeps (documented defaults, not measurement facts). Their
    # entries share the domains of num_ues and min_rate_bps.
    sweep_ues: tuple[int, ...] = _field((5, 10, 15, 20, 25, 30, 35, 40), int,
                                        TUPLE, ge=0, le=1000)
    sweep_backoff_db: tuple[float, ...] = _field(
        tuple(float(b) for b in range(0, 64, 4)), float, TUPLE)
    powercdf_rates_bps: tuple[float, ...] = _field((64e3, 1e6), float, TUPLE, gt=0)
    # A GA run and a CSV column per seed: about 0.4 GB at both bounds.
    trace_seeds: int = _field(4, int, ge=1, le=100)

    @property
    def rb_width_hz(self) -> float:
        return 12.0 * self.scs_khz * 1e3

    def replace(self, **kwargs: Any) -> "ScenarioConfig":
        cfg = dataclasses.replace(self, **kwargs)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Check every field against its domain, then the rules that relate
        fields; a ConfigError names the key at fault."""
        for key, domain in DOMAINS.items():
            domain.check(key, getattr(self, key))
        if self.rbs_per_ue > self.rb_max:
            raise ConfigError(
                f"rbs_per_ue ({_shown(self.rbs_per_ue)}) exceeds the RB grid "
                f"({self.rb_max})")
        if self.rb_max * self.rb_width_hz > self.bw_mhz * 1e6 + 1e-6:
            raise ConfigError(
                f"rb_max ({self.rb_max}) does not fit in bw_mhz ({self.bw_mhz})")
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
        if self.ga_neighborhood >= self.ga_population:
            raise ConfigError(
                f"ga_neighborhood ({_shown(self.ga_neighborhood)}) must be "
                f"smaller than ga_population ({self.ga_population})")
        if self.rain_k is None or self.rain_gamma is None:
            from .channel import rain_coefficients  # channel imports config
            try:
                rain_coefficients(self.fc_ghz)
            except ValueError as exc:
                raise ConfigError(f"fc_ghz: {exc}; set rain_k and rain_gamma "
                                  f"to use this carrier") from None


DOMAINS: dict[str, Domain] = {f.name: f.metadata["domain"]
                              for f in dataclasses.fields(ScenarioConfig)
                              if "domain" in f.metadata}


def _coerce(key: str, raw: Any) -> Any:
    """Convert a parsed literal to its field's declared kind: a number to a
    float, or to an int when integral, and a list to a tuple. An entry of
    another kind (a bool or text for a number, a fraction for an integer)
    raises a ConfigError naming the key; ``validate`` checks the rest."""
    if key not in DOMAINS:
        raise ConfigError(f"unknown config key: {key!r}")
    domain = DOMAINS[key]
    if domain.shape == SCALAR or not isinstance(raw, (list, tuple)):
        return _convert(key, domain, raw)
    if domain.shape == POINTS:
        return tuple(tuple(_convert(key, domain, c) for c in p)
                     if isinstance(p, (list, tuple)) else p for p in raw)
    return tuple(_convert(key, domain, v) for v in raw)


def _convert(key: str, domain: Domain, raw: Any) -> Any:
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    if domain.kind is float and number:
        with contextlib.suppress(OverflowError):  # an int too large for a float
            return float(raw)
    if domain.kind is int and number and (isinstance(raw, int) or raw.is_integer()):
        return int(raw)
    if domain.kind in (bool, str) and isinstance(raw, domain.kind):
        return raw
    if raw is None or isinstance(raw, (list, tuple)):
        return raw  # validate names a None or a wrong shape
    raise ConfigError(f"{key} must be {domain.describe()}, got {raw!r}")


class _NonFinite(ast.NodeTransformer):
    """Reads the bare names nan and inf, alone or in a list, as floats, so
    that they reach validation and are rejected there by key."""

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id.lower() in ("nan", "inf", "infinity"):
            return ast.Constant(float(node.id))
        return node


def _parse_value(key: str, text: str) -> Any:
    text = text.strip()
    low = text.lower()
    if low in ("true", "false", "none", "null"):
        return _coerce(key, {"true": True, "false": False}.get(low))
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
        values[key] = (_parse_value(key, value) if isinstance(value, str)
                       else _coerce(key, value))
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
