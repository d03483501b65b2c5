"""Configuration loading and the command-line interface.

Configs are JSON with five sections (``market``, ``marks``, ``grid``,
``experiment``, ``output``); every omitted key takes its benchmark default,
every given value must be of its default's kind, unknown keys are rejected
with their path, and an empty file is the full benchmark.  The quoted
``spread`` is the round-trip cost ``2*zeta``.

Commands: ``solve`` (value surface + policy tables + summary),
``simulate`` (paths under the solved policy), ``evaluate`` (paired agent
comparison + solver-consistency check), ``sweep`` (signal-probability
sweep), ``check`` (fast self-diagnostics).  Exit codes: 0 success, 2
configuration error, 3 numerical-stability error, 4 failed consistency or
diagnostic check.

Every summary and report embeds the config hash and the base seed.  The
hash covers what the config builds: the solver inputs
(``hjb.solver_inputs``) and the converted ``experiment`` and ``output``
sections, without ``threads`` and ``directory``; so spellings that build
the same run (``1`` or ``1.0``) hash the same.  Solutions carry only their
solver inputs.  Every output is byte-identical across reruns and worker
counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import Callable, Dict, Optional

import click
import numpy as np

from . import (SCHEMA_VERSION, __version__, evaluation, hjb, order_flow,
               policy as policy_mod)
from .hjb import Grid, StabilityError, check_stability
from .market_core import (MarketParams, MarketState, check_elasticity,
                          price_impact)
from .order_flow import MarkModel, benchmark_mark_model

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]

_AGENTS = ("table", "do-nothing", "immediate", "twap")

# Each default declares its key's type (see _KINDS); the null default of
# marks.custom is checked in _build.  The market section is MarketParams'
# defaults, with the quoted spread 2*zeta in place of zeta.
_DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "market": {f.name: f.default for f in fields(MarketParams)
               if f.name != "zeta"} | {"spread": 2 * MarketParams.zeta},
    "marks": {
        "signal_prob": 0.2,
        "post_fraction": 0.75,
        "custom": None,
    },
    "grid": {
        "d_t": 0.005,
        "d_lambda": 1.0,
        "q_min": -12.0,
        "q_max": 12.0,
    },
    "experiment": {
        "n_sim": 10000,
        "base_seed": 2024,
        "lambda0": 0.0,
        "q0": -8.0,
        "p0": 100.0,
        "x0": 0.0,
        "target_q": 0.0,
        "p_hat_values": [0.0, 0.1, 0.2, 0.3, 0.4],
        "agents": list(_AGENTS),
        "threads": 1,
        "record_events": False,
    },
    "output": {
        "directory": "out",
        "histogram_bin_width": 0.05,
    },
}

SOLUTION_SIGNAL = "solution_signal.npz"
SOLUTION_NOSIGNAL = "solution_nosignal.npz"


class ConfigError(Exception):
    """Invalid or unreadable configuration."""


def _is_number(val) -> bool:
    """A number a float holds: not NaN or infinite (``json`` reads both as
    ``NaN``/``Infinity``) and no integer too large for a float."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and abs(val) <= sys.float_info.max)


# type of a default -> (test of a given value, what the value must be)
_KINDS = {bool: (lambda val: isinstance(val, bool), "true or false"),
          int: (lambda val: _is_number(val) and val % 1 == 0,
                "a whole number"),
          float: (_is_number, "a number"),
          str: (lambda val: isinstance(val, str), "a string"),
          list: (lambda val: isinstance(val, list), "a list")}


def _merge(defaults: dict, given: dict, path: str = "") -> dict:
    """The defaults with the given values in, each of its default's kind."""
    out = dict(defaults)
    for key, val in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key: {path}{key}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"config key {path}{key} must be a section")
            val = _merge(default, val, f"{path}{key}.")
        admits, kind = _KINDS.get(type(default), (None, None))
        if admits and not admits(val):
            raise ConfigError(f"config key {path}{key} must be {kind}")
        out[key] = val
    return out


def _typed(merged: dict, section: str) -> dict:
    """A merged config section with each int- or float-defaulted number in
    that type."""
    defaults = _DEFAULTS[section]
    return {key: type(defaults[key])(val)
            if type(defaults[key]) in (int, float) else val
            for key, val in merged[section].items()}


@dataclass
class RunConfig:
    """Resolved run configuration: the objects built from the merged JSON,
    and the ``experiment`` and ``output`` sections in their defaults'
    types."""

    params: MarketParams
    marks: MarkModel
    grid: Grid
    experiment: dict
    output: dict

    def initial_state(self) -> MarketState:
        exp = self.experiment
        return MarketState(lam=exp["lambda0"], q=exp["q0"], p=exp["p0"],
                           x=exp["x0"])

    def config_hash(self) -> str:
        """Hash of what the config built: the solver inputs and the
        experiment and output sections (no threading, no directory)."""
        canon = hjb.solver_inputs(self.params, self.marks, self.grid)
        canon["experiment"] = {key: val for key, val
                               in self.experiment.items() if key != "threads"}
        canon["output"] = {key: val for key, val in self.output.items()
                           if key != "directory"}
        blob = json.dumps(canon, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def stamp(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config_hash": self.config_hash(),
            "base_seed": self.experiment["base_seed"],
        }


def _build(merged: dict) -> RunConfig:
    market = _typed(merged, "market")
    spread = market.pop("spread")
    if spread < 0.0:
        raise ConfigError("market.spread must be >= 0")
    try:
        params = MarketParams(zeta=spread / 2.0, **market)
    except ValueError as exc:
        raise ConfigError(f"market section invalid: {exc}") from exc

    marks_cfg = _typed(merged, "marks")
    custom = marks_cfg["custom"]
    if custom is not None and not (isinstance(custom, list) and all(
            isinstance(mark, list) and len(mark) == 3
            and all(map(_is_number, mark)) for mark in custom)):
        raise ConfigError("config key marks.custom must be null or a list "
                          "of [eta, rho, nu] number triples")
    try:
        if custom is not None:
            marks = MarkModel(
                tuple(order_flow.Mark(eta=float(e), rho=float(r), nu=float(v))
                      for e, r, v in custom),
                marks_cfg["signal_prob"])
        else:
            marks = benchmark_mark_model(
                signal_prob=marks_cfg["signal_prob"],
                post_fraction=marks_cfg["post_fraction"])
    except ValueError as exc:
        raise ConfigError(f"marks section invalid: {exc}") from exc

    try:
        grid = Grid.from_params(params, **_typed(merged, "grid"))
    except ValueError as exc:
        raise ConfigError(f"grid section invalid: {exc}") from exc

    exp = _typed(merged, "experiment")
    for key, low in (("n_sim", 1), ("threads", 1), ("base_seed", 0)):
        if exp[key] < low:
            raise ConfigError(f"experiment.{key} must be >= {low}")
    if exp["base_seed"] >= 2 ** 64:
        raise ConfigError("experiment.base_seed must fit in 64 bits")
    if not params.lambda_lower <= exp["lambda0"] <= params.lambda_upper:
        raise ConfigError("experiment.lambda0 outside the liquidity band")
    if not all(_is_number(p) and 0 <= p <= 1 for p in exp["p_hat_values"]):
        raise ConfigError(
            "experiment.p_hat_values must be a list of numbers in [0, 1]")
    exp["p_hat_values"] = [float(p) for p in exp["p_hat_values"]]
    if not all(a in _AGENTS for a in exp["agents"]):
        raise ConfigError(f"experiment.agents must list only {_AGENTS}")
    if "twap" in exp["agents"]:
        try:
            policy_mod.TwapAgent(exp["target_q"], exp["q0"], params)
        except ValueError as exc:
            raise ConfigError(
                f"experiment.target_q - q0 for twap: {exc}") from exc
    # the solve and the table agent read q0 at its nearest inventory node
    q0 = exp["q0"]
    if abs(grid.q_values[grid.q_index(q0)] - q0) > hjb._TOL * max(1, abs(q0)):
        raise ConfigError(f"experiment.q0 ({q0!r}) must be an inventory node: "
                          f"a whole number of lots from grid.q_min "
                          f"({grid.q_min!r}) to grid.q_max ({grid.q_max!r})")
    output = _typed(merged, "output")
    if output["histogram_bin_width"] <= 0.0:
        raise ConfigError("output.histogram_bin_width must be > 0")
    return RunConfig(params=params, marks=marks, grid=grid, experiment=exp,
                     output=output)


def load_config(path: Optional[str],
                flags: Optional[dict] = None) -> RunConfig:
    """Load a JSON config; ``None`` or an empty file is the full benchmark.
    ``flags`` maps sections to values that replace the given ones unless
    ``None`` (the command-line overrides)."""
    if path is None:
        text = "{}"
    else:
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not text.strip():
        text = "{}"
    try:
        given = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(given, dict):
        raise ConfigError("config must be a JSON object")
    if "schema_version" in given and given["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {given['schema_version']}; "
            f"this build reads version {SCHEMA_VERSION}")
    for section, values in (flags or {}).items():
        # a section that is not an object is left for _merge to reject
        if isinstance(given.setdefault(section, {}), dict):
            given[section].update((key, val) for key, val in values.items()
                                  if val is not None)
    return _build(_merge(_DEFAULTS, given))


def _json_ssr(ssr: float) -> Optional[float]:
    """A signal sharpe ratio as JSON writes it: ``None`` (``null``) where
    it is undefined (NaN)."""
    return None if np.isnan(ssr) else ssr


def _q_symmetry_residual(surface: hjb.ValueSurface) -> Optional[float]:
    grid = surface.grid
    if abs(grid.q_min + grid.q_max) > 1e-9:
        return None
    return float(np.max(np.abs(surface.values
                               - surface.values[:, :, ::-1])))


def _stored_solution(path: str, config: RunConfig, marks: MarkModel):
    """The solution at ``path`` if it exists, is readable and was solved for
    the config's market and grid with ``marks``, else ``None``."""
    if not os.path.exists(path):
        return None
    try:
        surface, pol = hjb.load_solution(path)
    except ValueError:
        return None
    inputs = hjb.solver_inputs(config.params, marks, config.grid)
    if any(surface.meta.get(key) != value for key, value in inputs.items()):
        return None
    return surface, pol


def _solve_or_load(config: RunConfig, fname: str, marks: MarkModel):
    """The solution stored as ``fname`` in the output directory when it
    matches the solver inputs; otherwise solve, save there and return it."""
    path = os.path.join(config.output["directory"], fname)
    solution = _stored_solution(path, config, marks)
    if solution is None:
        solution = hjb.solve(config.params, marks, config.grid)
        hjb.save_solution(path, *solution)
    return solution


def _solve_pair(config: RunConfig):
    """The configured and the signal-free solutions, solved or reloaded."""
    return (_solve_or_load(config, SOLUTION_SIGNAL, config.marks),
            _solve_or_load(config, SOLUTION_NOSIGNAL,
                           config.marks.with_signal_prob(0.0)))


def _experiment(config: RunConfig, marks: MarkModel, agents: dict,
                n_sim: Optional[int] = None, path_log=None):
    """``evaluation.run_experiment`` on the configured experiment section
    (``n_sim`` paths when given, else the configured count)."""
    exp = config.experiment
    return evaluation.run_experiment(
        config.params, marks, agents, n_sim or exp["n_sim"],
        exp["base_seed"], config.initial_state(), target_q=exp["target_q"],
        threads=exp["threads"],
        histogram_bin_width=config.output["histogram_bin_width"],
        path_log=path_log)


def _run_solve(config: RunConfig) -> int:
    out_dir = config.output["directory"]
    os.makedirs(out_dir, exist_ok=True)
    stability = check_stability(config.grid, config.params, config.marks)
    (surface, _), (surface0, _) = _solve_pair(config)
    exp = config.experiment

    summary = dict(config.stamp())
    summary["stability_number"] = stability
    summary["q_symmetry_residual"] = _q_symmetry_residual(surface)
    summary["w_start"] = surface.start_value(exp["lambda0"], exp["q0"])
    if config.params.alpha > 0.0:
        ce = hjb.certainty_equivalent(surface.values[-1, 1:, :],
                                      surface0.values[-1, 1:, :],
                                      config.params.alpha)
        grid = config.grid
        summary["max_certainty_equivalent"] = float(np.max(ce))
        with open(os.path.join(out_dir, "ce_table.csv"), "w",
                  newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["lambda", "q", "certainty_equivalent"])
            for i, lam in enumerate(grid.lam_values[1:]):
                for j, q in enumerate(grid.q_values):
                    writer.writerow([repr(float(lam)), repr(float(q)),
                                     repr(float(ce[i, j]))])
    evaluation.write_json(os.path.join(out_dir, "solve_summary.json"),
                          summary)
    click.echo(f"solved; w at start = {summary['w_start']:.6f}; "
               f"q-symmetry residual = {summary['q_symmetry_residual']}")
    return 0


def _make_agents(config: RunConfig, table_policy: hjb.Policy,
                 reference_policy: hjb.Policy) -> Dict[str, object]:
    exp = config.experiment
    params = config.params
    target_q = exp["target_q"]
    agents: Dict[str, object] = {}
    for name in exp["agents"]:
        if name == "table":
            agents[name] = policy_mod.TablePolicyAgent(table_policy, params)
        elif name == "do-nothing":
            agents[name] = policy_mod.DoNothingAgent()
        elif name == "immediate":
            agents[name] = policy_mod.ImmediateExecutionAgent(target_q, params)
        elif name == "twap":
            agents[name] = policy_mod.TwapAgent(target_q, exp["q0"], params)
    agents["table-nosignal"] = policy_mod.TablePolicyAgent(
        reference_policy, params, name="table-nosignal")
    return agents


def _run_simulate(config: RunConfig) -> int:
    # the stored solution must already sit in the output directory, so a
    # refused run creates nothing
    out_dir = config.output["directory"]
    path = os.path.join(out_dir, SOLUTION_SIGNAL)
    if not os.path.exists(path):
        raise ConfigError(
            f"policy file not found: {path} (run `artifact solve` first)")
    solution = _stored_solution(path, config, config.marks)
    if solution is None:
        raise ConfigError(
            f"policy file {path} is unreadable or was solved for other "
            f"market, mark or grid settings than this config (run "
            f"`artifact solve` again)")
    exp = config.experiment
    agents = {"table": policy_mod.TablePolicyAgent(solution[1], config.params)}
    if exp["record_events"]:
        with open(os.path.join(out_dir, "paths.csv"), "w",
                  newline="") as handle:
            path_log = csv.writer(handle)
            path_log.writerow(order_flow.PATH_LOG_COLUMNS)
            report = _experiment(config, config.marks, agents,
                                 path_log=path_log)["table"]
    else:
        report = _experiment(config, config.marks, agents)["table"]
    report.config_echo.update(config.stamp())
    evaluation.write_report_json(
        report, os.path.join(out_dir, "simulate_report.json"))
    evaluation.write_wealth_csv(
        report, os.path.join(out_dir, "simulate_wealth.csv"))
    click.echo(f"simulated {exp['n_sim']} paths; "
               f"mean wealth = {report.mean:.4f}")
    return 0


def _two_paths(config: RunConfig) -> None:
    if config.experiment["n_sim"] < 2:  # for the check's standard error
        raise ConfigError("experiment.n_sim must be >= 2 for the "
                          "consistency check")


def _run_evaluate(config: RunConfig) -> int:
    _two_paths(config)
    out_dir = config.output["directory"]
    os.makedirs(out_dir, exist_ok=True)
    (surface, pol), (surface0, pol0) = _solve_pair(config)
    agents = _make_agents(config, pol, pol0)
    reports = _experiment(config, config.marks, agents)
    if "table" in reports and "table-nosignal" in reports:
        reports["table"].ssr = _json_ssr(evaluation.signal_sharpe_ratio(
            reports["table"].wealth, reports["table-nosignal"].wealth))
    summary = dict(config.stamp())
    summary["agents"] = {}
    for name, report in reports.items():
        report.config_echo.update(config.stamp())
        evaluation.write_report_json(
            report, os.path.join(out_dir, f"eval_{name}.json"))
        evaluation.write_wealth_csv(
            report, os.path.join(out_dir, f"eval_{name}_wealth.csv"))
        summary["agents"][name] = {
            "mean": report.mean, "variance": report.variance,
            "speculation_fraction": report.speculation_fraction,
            "ssr": report.ssr,
        }
    code = 0
    if "table" in reports:
        result = evaluation.consistency_check(
            surface, reports["table"], config.initial_state())
        summary["consistency"] = asdict(result)
        if not result.passed:
            click.echo(
                f"consistency check FAILED: solver {result.solver_value:.6g} "
                f"vs simulation {result.mc_mean:.6g} "
                f"(error {result.abs_error:.3g} > tolerance "
                f"{result.tolerance:.3g})", err=True)
            code = 4
    evaluation.write_json(os.path.join(out_dir, "eval_summary.json"),
                          summary)
    if "table" not in reports:
        click.echo("evaluation complete; consistency check skipped (table "
                   "is not among experiment.agents)")
    elif code == 0:
        click.echo("evaluation complete; consistency check passed")
    return code


def _run_sweep(config: RunConfig) -> int:
    out_dir = config.output["directory"]
    os.makedirs(out_dir, exist_ok=True)

    def table_report(p_hat: float) -> evaluation.EvalReport:
        # the signal-free and the configured solutions keep the names
        # `solve` gives them, so a sweep reuses what `solve` wrote
        fname = {config.marks.signal_prob: SOLUTION_SIGNAL,
                 0.0: SOLUTION_NOSIGNAL}.get(p_hat, f"solution_p{p_hat!r}.npz")
        marks = config.marks.with_signal_prob(p_hat)
        _, pol = _solve_or_load(config, fname, marks)
        return _experiment(config, marks, {
            "table": policy_mod.TablePolicyAgent(pol, config.params)})["table"]

    ref = table_report(0.0)
    columns = ("p_hat", "mean", "variance", "ssr", "speculation_fraction",
               "breaker_fraction")
    rows = []
    for p_hat in config.experiment["p_hat_values"]:
        report = ref if p_hat == 0.0 else table_report(p_hat)
        ssr = evaluation.signal_sharpe_ratio(report.wealth, ref.wealth)
        rows.append((p_hat, report.mean, report.variance, ssr,
                     report.speculation_fraction, report.breaker_fraction))

    with open(os.path.join(out_dir, "ssr_sweep.csv"), "w",
              newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    summary = dict(config.stamp())
    summary["rows"] = [dict(zip(columns, row), ssr=_json_ssr(row[3]))
                       for row in rows]
    evaluation.write_json(os.path.join(out_dir, "sweep_summary.json"),
                          summary)
    click.echo(f"swept {len(rows)} signal probabilities")
    return 0


def _run_check(config: RunConfig) -> int:
    _two_paths(config)
    params = config.params
    marks = config.marks
    failures = []

    def expect(cond: bool, label: str) -> None:
        click.echo(f"  [{'ok' if cond else 'FAIL'}] {label}")
        if not cond:
            failures.append(label)

    click.echo("market primitives:")
    stability = check_stability(config.grid, params, marks)
    expect(stability <= 1.0, f"stability number {stability:.4f} <= 1")
    lam_grid = np.linspace(params.lambda_lower, params.lambda_upper, 17)
    label = "volatility elasticity on the band"
    try:
        elastic = bool(np.all(check_elasticity(params, marks, lam_grid)))
    except ValueError as exc:   # undefined, e.g. without market orders
        elastic, label = False, f"{label} ({exc})"
    expect(elastic, label)
    rng = np.random.Generator(np.random.Philox(key=np.array([7, 0],
                                                            dtype=np.uint64)))
    worst = 0.0
    for _ in range(200):
        delta = float(rng.integers(1, 6)) * params.lot_size
        lam = float(rng.uniform(params.lambda_lower + 2 * delta,
                                params.lambda_upper))
        split = float(rng.uniform(0.0, delta))
        whole = price_impact(delta, lam, params)
        parts = price_impact(split, lam, params) \
            + price_impact(delta - split, lam - split, params)
        worst = max(worst, abs(whole - parts))
    expect(worst <= 1e-12, f"impact splitting residual {worst:.2e}")

    click.echo("solver invariants:")
    surface, pol = hjb.solve(params, marks, config.grid)
    res = _q_symmetry_residual(surface)
    if res is not None:
        expect(res <= 1e-8, f"inventory symmetry residual {res:.2e}")
    mono_t = float(np.min(np.diff(surface.values, axis=0)))
    expect(mono_t >= -1e-10, f"monotone in horizon (min step {mono_t:.2e})")
    mono_lam = float(np.min(np.diff(surface.values[:, 1:, :], axis=1)))
    expect(mono_lam >= -1e-10,
           f"monotone in liquidity (min step {mono_lam:.2e})")
    expect(bool(np.all(surface.values < 0.0)) if params.alpha > 0.0 else True,
           "negative reduced values")

    click.echo("simulation consistency (reduced sample):")
    report = _experiment(
        config, marks, {"table": policy_mod.TablePolicyAgent(pol, params)},
        n_sim=min(config.experiment["n_sim"], 2000))["table"]
    result = evaluation.consistency_check(surface, report,
                                          config.initial_state())
    expect(result.passed,
           f"solver vs simulation ({result.abs_error:.3g} <= "
           f"{result.tolerance:.3g})")

    if failures:
        click.echo(f"{len(failures)} check(s) failed", err=True)
        return 4
    click.echo("all checks passed")
    return 0


def _common_options(fn):
    fn = click.option("--config", "-c", "config_path", type=click.Path(),
                      default=None, help="JSON config (empty = benchmark)")(fn)
    fn = click.option("--out", "-o", "out_dir", type=click.Path(),
                      default=None, help="output directory override")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="base seed override")(fn)
    fn = click.option("--threads", type=int, default=None,
                      help="most worker processes (one per block of 1024 "
                           "paths)")(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="artifact")
def main() -> None:
    """Liquidity-driven order-flow model: solver, simulator, evaluation."""


def _command(mode: str, runner: Callable[[RunConfig], int], doc: str,
             with_n_sim: bool = False) -> None:
    """Register ``artifact <mode>``: its flags are merged into the config,
    which is loaded once, and ``runner``'s code is the exit code."""

    def execute(config_path, out_dir, seed, threads, n_sim=None) -> None:
        flags = {"experiment": {"base_seed": seed, "threads": threads,
                                "n_sim": n_sim},
                 "output": {"directory": out_dir}}
        try:
            code = runner(load_config(config_path, flags))
        except ConfigError as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(2)
        except StabilityError as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(3)
        sys.exit(code)

    execute.__doc__ = doc
    if with_n_sim:
        execute = click.option("--n-sim", type=int, default=None,
                               help="path count override")(execute)
    main.command(mode)(_common_options(execute))


_command("solve", _run_solve,
         "Solve the control problem; write the surface, policy and summary.")
_command("simulate", _run_simulate,
         "Simulate paths under the solved policy (requires `solve` output).",
         with_n_sim=True)
_command("evaluate", _run_evaluate,
         "Paired agent comparison plus the solver-consistency check.",
         with_n_sim=True)
_command("sweep", _run_sweep, "Sweep the signal probability; write the SSR table.",
         with_n_sim=True)
_command("check", _run_check,
         "Fast self-diagnostics (invariants + reduced consistency check).")


if __name__ == "__main__":
    main()
