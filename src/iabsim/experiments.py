"""Experiment runner: deterministic CSV outputs and summary statistics.

Five experiments are available:

  ga-trace         per-iteration best coverage of the power optimizer,
                   one column per seed (convergence ladders)
  coverage-vs-ues  coverage vs UE count for optimized / max / random
                   power, one file per RBs-per-UE value; each trial is
                   built once and all three policies are scored on it
                   (common random numbers)
  coverage-vs-sinr coverage vs median access SINR under separated vs
                   simultaneous access/backhaul slots, swept by applying a
                   network-wide EIRP back-off after power selection
  intercell        one-cell vs two-cell coverage vs UE count
  power-cdf        optimized per-node EIRPs across trials, labeled by role
                   and serving station, for several minimum data rates

Every output starts with a comment header carrying the fully resolved
config; re-running with the same header settings reproduces the file
byte-for-byte. Partial files are removed on failure.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import ConfigError, ScenarioConfig, config_lines
from .coverage import build_instance, build_trials, monte_carlo_coverage, to_mw
from .ga import GaParams, optimize
from .policies import make_policy
from .rng import derive_rng, stream, trial_states
from .topology import ROLE_NAMES

EXPERIMENT_NAMES = ("ga-trace", "coverage-vs-ues", "coverage-vs-sinr",
                    "intercell", "power-cdf")


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    out: str
    rbs_values: tuple[int, ...] = (2, 4)  # coverage-vs-ues variants

    def __post_init__(self) -> None:
        if self.name not in EXPERIMENT_NAMES:
            raise ConfigError(f"unknown experiment {self.name!r}; expected one "
                              f"of {', '.join(EXPERIMENT_NAMES)}")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".10g")
    return str(value)


def _write_csv(path: str, config: ScenarioConfig, experiment: str,
               columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# iabsim experiment output\n")
        fh.write(f"# experiment = {experiment}\n")
        for line in config_lines(config):
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Individual experiments
# ---------------------------------------------------------------------------

def run_ga_trace(config: ScenarioConfig, spec: ExperimentSpec) -> list[str]:
    """Optimizer convergence: one best-coverage column per seed."""
    params = GaParams.from_config(config)
    seeds = [config.seed + k for k in range(config.trace_seeds)]

    def one(seed: int) -> np.ndarray:
        instance = build_instance(config, seed, 0)
        rng = derive_rng(seed, 0, "policy")
        return optimize(instance, params, rng).trace

    traces = [one(seed) for seed in seeds]
    columns = ["iteration"] + [f"best_coverage_s{s}" for s in seeds]
    rows = [[it + 1] + [t[it] for t in traces]
            for it in range(params.n_iterations)]
    _write_csv(spec.out, config, "ga-trace", columns, rows)
    return [spec.out]


def run_coverage_vs_ues(config: ScenarioConfig,
                        spec: ExperimentSpec) -> list[str]:
    """Coverage vs UE count for the optimized and baseline power policies,
    one file per RBs-per-UE value (`_outputs`)."""
    paths = _outputs(spec)
    for rbs, path in zip(spec.rbs_values, paths):
        cfg_rb = config.replace(rbs_per_ue=rbs)
        rows = []
        for num_ues in _sweep_ues(config):
            cfg = cfg_rb.replace(num_ues=num_ues)
            results = monte_carlo_coverage(cfg, ("ga", "max", "random"),
                                           cfg.trials, cfg.seed)
            rows.append([num_ues] + [r.mean_coverage for r in results])
        _write_csv(path, cfg_rb, "coverage-vs-ues",
                   ["num_ues", "coverage_optimized", "coverage_max_power",
                    "coverage_random_power"], rows)
    return paths


def _sweep_ues(config: ScenarioConfig) -> tuple[int, ...]:
    """``sweep_ues``, checked first: fixed ``ue_positions`` fix the count."""
    fixed = config.ue_positions
    if fixed is not None and set(config.sweep_ues) - {len(fixed)}:
        raise ConfigError(f"sweep_ues {list(config.sweep_ues)} sweeps the UE "
                          f"count, but ue_positions fixes it at {len(fixed)}")
    return config.sweep_ues


def run_coverage_vs_sinr(config: ScenarioConfig,
                         spec: ExperimentSpec) -> list[str]:
    """Coverage vs median access SINR, separated vs simultaneous slots.

    Powers are selected per trial under separated operation (via the
    configured policy) and the same vector is evaluated in both slot modes,
    so the comparison isolates the slot structure. The operating point is
    swept by a network-wide EIRP back-off applied at evaluation time.
    """
    backoffs = np.asarray(config.sweep_backoff_db, dtype=float)
    cfg_sep = config.replace(slot_mode="separated")
    cfg_sim = config.replace(slot_mode="simultaneous")
    policy = make_policy(config.power_policy, cfg_sep)

    # The slot mode changes no draw and no layout, and `build_trials`
    # orders its trials by their draws alone, so both builds yield the
    # trials in the same order; the results are kept in trial order.
    trials = range(config.trials)
    policy_states = trial_states(config.seed, trials, ("policy",))
    results: list = [None] * config.trials
    for (trial, inst_sep), (sim_trial, inst_sim) in zip(
            build_trials(cfg_sep, config.seed, trials),
            build_trials(cfg_sim, config.seed, trials), strict=True):
        assert sim_trial == trial, (trial, sim_trial)
        arr = policy(inst_sep, stream(policy_states[trial, 0]))
        mw = to_mw(arr - backoffs[:, None])  # one row per back-off
        results[trial] = (
            inst_sep.batch_coverage(mw), inst_sim.batch_coverage(mw),
            inst_sep.access_sinr_db(mw), inst_sim.access_sinr_db(mw))
    cov_sep = np.mean([r[0] for r in results], axis=0)
    cov_sim = np.mean([r[1] for r in results], axis=0)
    sinr_sep = np.median(np.concatenate([r[2] for r in results], axis=1), axis=1)
    sinr_sim = np.median(np.concatenate([r[3] for r in results], axis=1), axis=1)
    rows = [[backoffs[i], sinr_sep[i], cov_sep[i], sinr_sim[i], cov_sim[i]]
            for i in range(len(backoffs))]
    _write_csv(spec.out, config, "coverage-vs-sinr",
               ["backoff_db", "sep_median_sinr_db", "sep_coverage",
                "sim_median_sinr_db", "sim_coverage"], rows)
    return [spec.out]


def run_intercell(config: ScenarioConfig, spec: ExperimentSpec) -> list[str]:
    """One-cell vs two-cell coverage across the UE sweep."""
    rows = []
    for num_ues in _sweep_ues(config):
        cov = []
        for cells in (1, 2):
            cfg = config.replace(num_ues=num_ues, num_cells=cells)
            [res] = monte_carlo_coverage(cfg, (config.power_policy,),
                                         cfg.trials, cfg.seed)
            cov.append(res.mean_coverage)
        rows.append([num_ues, cov[0], cov[1]])
    _write_csv(spec.out, config, "intercell",
               ["num_ues", "coverage_1cell", "coverage_2cell"], rows)
    return [spec.out]


def run_power_cdf(config: ScenarioConfig, spec: ExperimentSpec) -> list[str]:
    """Optimized per-node EIRPs across trials for several minimum rates."""
    rows = []
    for rate in config.powercdf_rates_bps:
        cfg = config.replace(min_rate_bps=rate)
        [res] = monte_carlo_coverage(cfg, ("ga",), cfg.trials, cfg.seed)
        for outcome in res.outcomes:
            role = outcome.topology.role.tolist()
            for node_id, rx, eirp in zip(outcome.gene_ids,
                                         outcome.assoc.tolist(),
                                         outcome.powers.tolist()):
                rows.append([rate, outcome.trial_index, node_id,
                             ROLE_NAMES[role[node_id]],
                             ROLE_NAMES[role[rx]], eirp])
    _write_csv(spec.out, config, "power-cdf",
               ["min_rate_bps", "trial", "node_id", "role", "server_role",
                "eirp_dbm"], rows)
    return [spec.out]


def _outputs(spec: ExperimentSpec) -> list[str]:
    """The files a run of ``spec`` writes: ``out``, but coverage-vs-ues
    with other than one RBs-per-UE value writes one file per value,
    ``out`` with ``_rb<value>`` before its extension."""
    if spec.name != "coverage-vs-ues" or len(spec.rbs_values) == 1:
        return [spec.out]
    stem, ext = os.path.splitext(spec.out)
    return [f"{stem}_rb{rbs}{ext or '.csv'}" for rbs in spec.rbs_values]


_RUNNERS = {
    "ga-trace": run_ga_trace,
    "coverage-vs-ues": run_coverage_vs_ues,
    "coverage-vs-sinr": run_coverage_vs_sinr,
    "intercell": run_intercell,
    "power-cdf": run_power_cdf,
}


def run_experiment(spec: ExperimentSpec, config: ScenarioConfig) -> list[str]:
    """Run one experiment, returning the written CSV paths.

    On any failure each file the run writes (`_outputs`), complete or
    partial, is removed before the error propagates; no other file is.
    """
    try:
        return _RUNNERS[spec.name](config, spec)
    except BaseException:
        for path in _outputs(spec):
            for p in (path, path + ".tmp"):
                if os.path.exists(p):
                    os.remove(p)
        raise


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def read_csv(path: str) -> tuple[str, dict[str, str], list[str], np.ndarray,
                                 list[list[str]]]:
    """Parse an experiment CSV: (experiment, header kv, columns, numeric data,
    raw rows). A data row with other than one field per column raises a
    ConfigError naming the file and the line."""
    experiment = ""
    header: dict[str, str] = {}
    columns: list[str] = []
    raw_rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    key, value = key.strip(), value.strip()
                    if key == "experiment":
                        experiment = value
                    else:
                        header[key] = value
                continue
            if not line:
                continue
            if not columns:
                columns = line.split(",")
                continue
            row = line.split(",")
            if len(row) != len(columns):
                raise ConfigError(f"{path}: line {number} has {len(row)} "
                                  f"fields, the header {len(columns)}")
            raw_rows.append(row)
    if not columns:
        raise ConfigError(f"{path}: no column header found")
    numeric = np.array([[_to_float(v) for v in row] for row in raw_rows]) \
        if raw_rows else np.empty((0, len(columns)))
    return experiment, header, columns, numeric, raw_rows


def _to_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return np.nan


def crossing_point(x: np.ndarray, y: np.ndarray, target: float) -> Optional[float]:
    """Interpolated x where a (typically falling) curve crosses the target.

    Scanning in x order, the last downward crossing is returned; None when
    the curve never dips below the target, and the first x when it starts
    below it.
    """
    if y.size == 0:
        return None
    if y[0] < target:
        return float(x[0])
    crossing = None
    for i in range(len(x) - 1):
        y0, y1 = y[i], y[i + 1]
        if y0 >= target > y1:
            frac = (y0 - target) / (y0 - y1)
            crossing = float(x[i] + frac * (x[i + 1] - x[i]))
    return crossing


def summarize(path: str) -> str:
    """Headline statistics and degeneracy flags of an experiment CSV."""
    experiment, _, columns, data, raw = read_csv(path)

    def column(name: str) -> int:
        if name not in columns:
            raise ConfigError(f"{path}: a {experiment} file needs a column "
                              f"{name!r}")
        return columns.index(name)

    lines = [f"summary of {os.path.basename(path)} ({experiment or 'unknown'})"]
    if not raw:
        lines.append("  no data rows")
    elif experiment == "coverage-vs-ues":
        ues = data[:, column("num_ues")]
        crossings: dict[str, Optional[float]] = {}
        for col in ("coverage_optimized", "coverage_max_power",
                    "coverage_random_power"):
            cov = data[:, column(col)]
            cross = crossing_point(ues, cov, 0.7)
            crossings[col] = cross
            if cross is None:
                lines.append(f"  {col}: above 70% at every swept count "
                             f"(supports >= {int(ues[-1])} UEs)")
            else:
                lines.append(f"  {col}: supports {cross:.2f} UEs at 70% coverage")
        best_base = _effective_crossing(crossings["coverage_max_power"], ues)
        best_base = max(best_base,
                        _effective_crossing(crossings["coverage_random_power"], ues))
        opt = _effective_crossing(crossings["coverage_optimized"], ues)
        if opt > best_base:
            lines.append(f"  optimized power shows positive gain at 70%: "
                         f"{opt:.2f} vs {best_base:.2f} UEs "
                         f"({opt / best_base:.2f}x)" if best_base > 0 else
                         f"  optimized power shows positive gain at 70%")
        else:
            lines.append(f"  no gain at 70%: optimized {opt:.2f} vs best "
                         f"baseline {best_base:.2f} UEs")
    elif experiment == "coverage-vs-sinr":
        gaps = {}
        for mode in ("sep", "sim"):
            cov = data[:, column(f"{mode}_coverage")]
            sinr = data[:, column(f"{mode}_median_sinr_db")]
            cross = crossing_point(np.arange(len(cov), dtype=float), cov, 0.7)
            if cross is None:
                gaps[mode] = None
                lines.append(f"  {mode}: coverage stays at or above 70% at "
                             f"every swept back-off")
            else:
                i = int(cross)
                frac = cross - i
                value = sinr[i] if i + 1 >= len(sinr) else \
                    sinr[i] + frac * (sinr[i + 1] - sinr[i])
                gaps[mode] = value
                lines.append(f"  {mode}: median access SINR at 70% coverage = "
                             f"{value:.2f} dB")
        if gaps.get("sep") is not None and gaps.get("sim") is not None:
            lines.append(f"  SINR gap at 70% (separated - simultaneous): "
                         f"{gaps['sep'] - gaps['sim']:.2f} dB")
    elif experiment == "intercell":
        c1 = data[:, column("coverage_1cell")]
        c2 = data[:, column("coverage_2cell")]
        delta = float(np.max(np.abs(c1 - c2))) if len(c1) else 0.0
        lines.append(f"  max |coverage(1 cell) - coverage(2 cells)| = {delta:.4f}")
    elif experiment == "ga-trace":
        for j, col in enumerate(columns[1:], start=1):
            trace = data[:, j]
            final = trace[-1]
            first = int(np.argmax(trace >= final)) + 1
            lines.append(f"  {col}: final best {final:.4f}, reached at "
                         f"iteration {first}")
    elif experiment == "power-cdf":
        rates = sorted(set(data[:, column("min_rate_bps")]))
        role_col = column("role")
        eirp_col = column("eirp_dbm")
        rate_col = column("min_rate_bps")
        for rate in rates:
            for role in ("ue", "iab"):
                values = np.array([
                    float(row[eirp_col]) for row in raw
                    if row[role_col] == role and float(row[rate_col]) == rate])
                if values.size:
                    q1, q3 = np.percentile(values, [25, 75])
                    lines.append(f"  rate {rate:.0f} bps, {role}: median "
                                 f"{np.median(values):.2f} dBm, IQR "
                                 f"{q3 - q1:.2f} dB")
    else:
        lines.append(f"  {len(raw)} data rows, columns: {', '.join(columns)}")
    if raw and experiment in ("coverage-vs-ues", "intercell",
                              "coverage-vs-sinr"):
        for j, col in enumerate(columns):
            flat = data[0, j] if np.all(data[:, j] == data[0, j]) else None
            if "coverage" in col and flat in (0.0, 1.0):
                lines.append(f"  degenerate: {col} reads {flat:g} in every row")
        if experiment == "coverage-vs-sinr" and np.array_equal(
                data[:, column("sep_coverage")], data[:, column("sim_coverage")]):
            lines.append("  degenerate: sep_coverage equals sim_coverage in "
                         "every row")
    return "\n".join(lines)


def _effective_crossing(cross: Optional[float], ues: np.ndarray) -> float:
    return float(ues[-1]) if cross is None else cross
