"""Configuration loading and the command-line interface.

Configs are JSON with four sections (``market``, ``marks``, ``grid``,
``experiment``, ``output``); every omitted key takes its benchmark default,
unknown keys are rejected with their path, and an empty file is the full
benchmark.  The quoted ``spread`` is the round-trip cost ``2*zeta``.

Commands: ``solve`` (value surface + policy tables + summary),
``simulate`` (paths under the solved policy), ``evaluate`` (paired agent
comparison + solver-consistency check), ``sweep`` (signal-probability
sweep), ``check`` (fast self-diagnostics).  Exit codes: 0 success, 2
configuration error, 3 numerical-stability error, 4 failed consistency or
diagnostic check.

Every output embeds the config hash (over the resolved scientific content;
thread counts and directories excluded) and the base seed, and is
byte-identical across reruns and worker counts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass
from typing import Dict, Optional

import click
import numpy as np

from . import __version__, evaluation, hjb, order_flow, policy as policy_mod
from .hjb import Grid, StabilityError, check_stability
from .market_core import (MarketParams, MarketState, check_elasticity,
                          price_impact)
from .order_flow import MarkModel, benchmark_mark_model

__all__ = ["ConfigError", "RunConfig", "load_config", "run", "main"]

SCHEMA_VERSION = 1

_DEFAULTS = {
    "schema_version": SCHEMA_VERSION,
    "market": {
        "theta_f": 20.0,
        "kappa_f": 0.01,
        "theta_g": 40.0,
        "kappa_g": 0.01,
        "theta_iota": 0.01,
        "kappa_iota": -0.0002,
        "spread": 0.01,
        "sigma_auction": 0.3,
        "alpha": 0.1,
        "lambda_lower": -40.0,
        "lambda_upper": 40.0,
        "lot_size": 1.0,
        "horizon": 1.0,
    },
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
        "mode": "solve",
        "n_sim": 10000,
        "base_seed": 2024,
        "lambda0": 0.0,
        "q0": -8.0,
        "p0": 100.0,
        "x0": 0.0,
        "target_q": 0.0,
        "p_hat_values": [0.0, 0.1, 0.2, 0.3, 0.4],
        "agents": ["table", "do-nothing", "immediate", "twap"],
        "threads": 1,
        "record_events": False,
        "spread_override": None,
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


def _merge(defaults: dict, given: dict, path: str = "") -> dict:
    out = {}
    for key, default in defaults.items():
        if key in given:
            val = given[key]
            if isinstance(default, dict) and default and not isinstance(val, dict):
                raise ConfigError(f"config key {path}{key} must be a section")
            if isinstance(default, dict) and default:
                out[key] = _merge(default, val, f"{path}{key}.")
            else:
                out[key] = val
        else:
            out[key] = default
    for key in given:
        if key not in defaults:
            raise ConfigError(f"unknown config key: {path}{key}")
    return out


@dataclass
class RunConfig:
    """Resolved run configuration (raw dict plus constructed objects)."""

    raw: dict
    params: MarketParams
    marks: MarkModel
    grid: Grid

    @property
    def experiment(self) -> dict:
        return self.raw["experiment"]

    @property
    def output(self) -> dict:
        return self.raw["output"]

    @property
    def mode(self) -> str:
        return self.raw["experiment"]["mode"]

    def initial_state(self) -> MarketState:
        exp = self.experiment
        return MarketState(lam=float(exp["lambda0"]), q=float(exp["q0"]),
                           p=float(exp["p0"]), x=float(exp["x0"]))

    def config_hash(self) -> str:
        """Hash of the scientific content (no directories, no threading)."""
        canon = json.loads(json.dumps(self.raw))
        canon["experiment"].pop("threads", None)
        canon["output"].pop("directory", None)
        blob = json.dumps(canon, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def stamp(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config_hash": self.config_hash(),
            "base_seed": int(self.experiment["base_seed"]),
        }


def _build(raw: dict) -> RunConfig:
    market = dict(raw["market"])
    spread_override = raw["experiment"]["spread_override"]
    if spread_override is not None:
        market["spread"] = float(spread_override)
        raw = json.loads(json.dumps(raw))
        raw["market"]["spread"] = float(spread_override)
        raw["experiment"]["spread_override"] = None
    spread = float(market.pop("spread"))
    if spread < 0.0:
        raise ConfigError("market.spread must be >= 0")
    try:
        params = MarketParams(zeta=spread / 2.0, **market)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"market section invalid: {exc}") from exc

    marks_cfg = raw["marks"]
    try:
        if marks_cfg["custom"] is not None:
            marks = MarkModel(
                tuple(order_flow.Mark(eta=float(e), rho=float(r), nu=float(v))
                      for e, r, v in marks_cfg["custom"]),
                float(marks_cfg["signal_prob"]))
        else:
            marks = benchmark_mark_model(
                signal_prob=float(marks_cfg["signal_prob"]),
                post_fraction=float(marks_cfg["post_fraction"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"marks section invalid: {exc}") from exc

    gc = raw["grid"]
    try:
        grid = Grid.from_params(params, d_t=float(gc["d_t"]),
                                d_lambda=float(gc["d_lambda"]),
                                q_min=float(gc["q_min"]),
                                q_max=float(gc["q_max"]))
    except ValueError as exc:
        raise ConfigError(f"grid section invalid: {exc}") from exc

    exp = raw["experiment"]
    if exp["n_sim"] < 1:
        raise ConfigError("experiment.n_sim must be >= 1")
    if exp["threads"] < 1:
        raise ConfigError("experiment.threads must be >= 1")
    if not 0 <= int(exp["base_seed"]) < 2 ** 64:
        raise ConfigError("experiment.base_seed must fit in 64 bits")
    lam0 = float(exp["lambda0"])
    if lam0 < params.lambda_lower or lam0 > params.lambda_upper:
        raise ConfigError("experiment.lambda0 outside the liquidity band")
    return RunConfig(raw=raw, params=params, marks=marks, grid=grid)


def load_config(path: Optional[str]) -> RunConfig:
    """Load a JSON config; ``None`` or an empty file is the full benchmark."""
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
    raw = _merge(_DEFAULTS, given)
    return _build(raw)


def _apply_overrides(config: RunConfig, mode: str, out_dir: Optional[str],
                     seed: Optional[int], threads: Optional[int],
                     n_sim: Optional[int] = None) -> RunConfig:
    raw = json.loads(json.dumps(config.raw))
    raw["experiment"]["mode"] = mode
    if out_dir is not None:
        raw["output"]["directory"] = out_dir
    if seed is not None:
        raw["experiment"]["base_seed"] = int(seed)
    if threads is not None:
        raw["experiment"]["threads"] = int(threads)
    if n_sim is not None:
        raw["experiment"]["n_sim"] = int(n_sim)
    return _build(raw)


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def _q_symmetry_residual(surface: hjb.ValueSurface) -> Optional[float]:
    grid = surface.grid
    if abs(grid.q_min + grid.q_max) > 1e-9:
        return None
    return float(np.max(np.abs(surface.values
                               - surface.values[:, :, ::-1])))


def _solved_for(meta: dict, config: RunConfig, marks: MarkModel) -> bool:
    """Whether a loaded solution was solved for the config's solver inputs."""
    return all(meta.get(key) == value for key, value in hjb.solver_inputs(
        config.params, marks, config.grid).items())


def _solve_pair(config: RunConfig, out_dir: str):
    """Solve (or reload) the configured and the signal-free problems."""
    solutions = {}
    for fname, p_hat in ((SOLUTION_SIGNAL, config.marks.signal_prob),
                         (SOLUTION_NOSIGNAL, 0.0)):
        path = os.path.join(out_dir, fname)
        marks = config.marks.with_signal_prob(p_hat)
        if os.path.exists(path):
            surface, pol = hjb.load_solution(path)
            if _solved_for(surface.meta, config, marks):
                solutions[fname] = (surface, pol)
                continue
        surface, pol = hjb.solve(config.params, marks, config.grid,
                                 meta=config.stamp())
        hjb.save_solution(path, surface, pol)
        solutions[fname] = (surface, pol)
    return solutions[SOLUTION_SIGNAL], solutions[SOLUTION_NOSIGNAL]


def _ce_surface(surface_with: hjb.ValueSurface,
                surface_without: hjb.ValueSurface) -> np.ndarray:
    k = surface_with.grid.n_steps
    return hjb.certainty_equivalent(surface_with.values[k, 1:, :],
                                    surface_without.values[k, 1:, :],
                                    surface_with.alpha)


def _run_solve(config: RunConfig) -> int:
    out_dir = config.output["directory"]
    os.makedirs(out_dir, exist_ok=True)
    stability = check_stability(config.grid, config.params, config.marks)
    (surface, _), (surface0, _) = _solve_pair(config, out_dir)
    exp = config.experiment

    summary = dict(config.stamp())
    summary["stability_number"] = stability
    summary["q_symmetry_residual"] = _q_symmetry_residual(surface)
    summary["w_start"] = surface.start_value(float(exp["lambda0"]),
                                             float(exp["q0"]))
    if config.params.alpha > 0.0:
        ce = _ce_surface(surface, surface0)
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
    _write_json(os.path.join(out_dir, "solve_summary.json"), summary)
    click.echo(f"solved; w at start = {summary['w_start']:.6f}; "
               f"q-symmetry residual = {summary['q_symmetry_residual']}")
    return 0


def _make_agents(config: RunConfig, table_policy: hjb.Policy,
                 reference_policy: Optional[hjb.Policy] = None) -> Dict[str, object]:
    exp = config.experiment
    params = config.params
    target_q = float(exp["target_q"])
    q0 = float(exp["q0"])
    agents: Dict[str, object] = {}
    for name in exp["agents"]:
        if name == "table":
            agents[name] = policy_mod.TablePolicyAgent(table_policy, params)
        elif name == "do-nothing":
            agents[name] = policy_mod.DoNothingAgent()
        elif name == "immediate":
            agents[name] = policy_mod.ImmediateExecutionAgent(target_q, params)
        elif name == "twap":
            agents[name] = policy_mod.TwapAgent(target_q, q0, params)
        else:
            raise ConfigError(f"unknown agent {name!r} in experiment.agents")
    if reference_policy is not None:
        agents["table-nosignal"] = policy_mod.TablePolicyAgent(
            reference_policy, params, name="table-nosignal")
    return agents


def _run_simulate(config: RunConfig) -> int:
    out_dir = config.output["directory"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, SOLUTION_SIGNAL)
    if not os.path.exists(path):
        raise ConfigError(
            f"policy file not found: {path} (run `artifact solve` first)")
    _, pol = hjb.load_solution(path)
    if not _solved_for(pol.meta, config, config.marks):
        raise ConfigError(
            f"policy file {path} was solved for other market, mark or grid "
            f"settings than this config (run `artifact solve` again)")
    exp = config.experiment
    agent = policy_mod.TablePolicyAgent(pol, config.params)
    n_sim = int(exp["n_sim"])
    if exp["record_events"]:
        paths = [order_flow.simulate_path(
            config.params, config.marks, agent, config.initial_state(),
            order_flow.make_path_seed(int(exp["base_seed"]), i),
            record_events=True) for i in range(n_sim)]
        order_flow.write_path_log(paths,
                                  os.path.join(out_dir, "paths.csv"))
    reports = evaluation.run_experiment(
        config.params, config.marks, {"table": agent}, n_sim,
        int(exp["base_seed"]), config.initial_state(),
        target_q=float(exp["target_q"]), threads=int(exp["threads"]),
        histogram_bin_width=float(config.output["histogram_bin_width"]))
    report = reports["table"]
    report.config_echo.update(config.stamp())
    evaluation.write_report_json(
        report, os.path.join(out_dir, "simulate_report.json"))
    evaluation.write_wealth_csv(
        report, os.path.join(out_dir, "simulate_wealth.csv"))
    click.echo(f"simulated {n_sim} paths; mean wealth = {report.mean:.4f}")
    return 0


def _run_evaluate(config: RunConfig) -> int:
    out_dir = config.output["directory"]
    os.makedirs(out_dir, exist_ok=True)
    (surface, pol), (surface0, pol0) = _solve_pair(config, out_dir)
    exp = config.experiment
    agents = _make_agents(config, pol, reference_policy=pol0)
    reports = evaluation.run_experiment(
        config.params, config.marks, agents, int(exp["n_sim"]),
        int(exp["base_seed"]), config.initial_state(),
        target_q=float(exp["target_q"]), threads=int(exp["threads"]),
        histogram_bin_width=float(config.output["histogram_bin_width"]))
    if "table" in reports and "table-nosignal" in reports:
        reports["table"].ssr = evaluation.signal_sharpe_ratio(
            reports["table"].wealth, reports["table-nosignal"].wealth)
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
            surface, reports["table"], config.params.alpha,
            config.initial_state())
        summary["consistency"] = asdict(result)
        if not result.passed:
            click.echo(
                f"consistency check FAILED: solver {result.solver_value:.6g} "
                f"vs simulation {result.mc_mean:.6g} "
                f"(error {result.abs_error:.3g} > tolerance "
                f"{result.tolerance:.3g})", err=True)
            code = 4
    _write_json(os.path.join(out_dir, "eval_summary.json"), summary)
    if code == 0:
        click.echo("evaluation complete; consistency check passed")
    return code


def _run_sweep(config: RunConfig) -> int:
    out_dir = config.output["directory"]
    os.makedirs(out_dir, exist_ok=True)
    exp = config.experiment
    initial = config.initial_state()
    n_sim = int(exp["n_sim"])
    seed = int(exp["base_seed"])
    threads = int(exp["threads"])
    target_q = float(exp["target_q"])

    marks0 = config.marks.with_signal_prob(0.0)
    _, pol0 = hjb.solve(config.params, marks0, config.grid,
                        meta=config.stamp())
    ref = evaluation.run_experiment(
        config.params, marks0,
        {"ref": policy_mod.TablePolicyAgent(pol0, config.params)},
        n_sim, seed, initial, target_q=target_q, threads=threads)["ref"]

    rows = []
    for p_hat in exp["p_hat_values"]:
        p_hat = float(p_hat)
        if p_hat == 0.0:
            report = ref
        else:
            marks = config.marks.with_signal_prob(p_hat)
            _, pol = hjb.solve(config.params, marks, config.grid,
                               meta=config.stamp())
            report = evaluation.run_experiment(
                config.params, marks,
                {"table": policy_mod.TablePolicyAgent(pol, config.params)},
                n_sim, seed, initial, target_q=target_q,
                threads=threads)["table"]
        ssr = evaluation.signal_sharpe_ratio(report.wealth, ref.wealth)
        rows.append((p_hat, report.mean, report.variance, ssr,
                     report.speculation_fraction, report.breaker_fraction))

    with open(os.path.join(out_dir, "ssr_sweep.csv"), "w",
              newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["p_hat", "mean", "variance", "ssr",
                         "speculation_fraction", "breaker_fraction"])
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
    summary = dict(config.stamp())
    summary["rows"] = [dict(zip(("p_hat", "mean", "variance", "ssr",
                                 "speculation_fraction",
                                 "breaker_fraction"), row)) for row in rows]
    _write_json(os.path.join(out_dir, "sweep_summary.json"), summary)
    click.echo(f"swept {len(rows)} signal probabilities")
    return 0


def _run_check(config: RunConfig) -> int:
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
    verdicts = check_elasticity(params, marks, lam_grid)
    expect(bool(np.all(verdicts)), "volatility elasticity on the band")
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
    surface, pol = hjb.solve(params, marks, config.grid, meta=config.stamp())
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
    exp = config.experiment
    n_check = min(int(exp["n_sim"]), 2000)
    report = evaluation.run_experiment(
        params, marks, {"table": policy_mod.TablePolicyAgent(pol, params)},
        n_check, int(exp["base_seed"]), config.initial_state(),
        target_q=float(exp["target_q"]),
        threads=int(exp["threads"]))["table"]
    result = evaluation.consistency_check(surface, report, params.alpha,
                                          config.initial_state())
    expect(result.passed,
           f"solver vs simulation ({result.abs_error:.3g} <= "
           f"{result.tolerance:.3g})")

    if failures:
        click.echo(f"{len(failures)} check(s) failed", err=True)
        return 4
    click.echo("all checks passed")
    return 0


_RUNNERS = {
    "solve": _run_solve,
    "simulate": _run_simulate,
    "evaluate": _run_evaluate,
    "sweep": _run_sweep,
    "check": _run_check,
}


def run(config: RunConfig) -> int:
    """Execute the configured mode; returns the process exit code."""
    runner = _RUNNERS.get(config.mode)
    if runner is None:
        raise ConfigError(f"unknown mode {config.mode!r}")
    return runner(config)


def _execute(mode: str, config_path: Optional[str], out_dir: Optional[str],
             seed: Optional[int], threads: Optional[int],
             n_sim: Optional[int] = None) -> None:
    try:
        config = load_config(config_path)
        config = _apply_overrides(config, mode, out_dir, seed, threads,
                                  n_sim)
        code = run(config)
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(2)
    except StabilityError as exc:
        click.echo(f"numerical error: {exc}", err=True)
        sys.exit(3)
    sys.exit(code)


def _common_options(fn):
    fn = click.option("--config", "-c", "config_path", type=click.Path(),
                      default=None, help="JSON config (empty = benchmark)")(fn)
    fn = click.option("--out", "-o", "out_dir", type=click.Path(),
                      default=None, help="output directory override")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="base seed override")(fn)
    fn = click.option("--threads", type=int, default=None,
                      help="worker count override")(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="artifact")
def main() -> None:
    """Liquidity-driven order-flow model: solver, simulator, evaluation."""


@main.command("solve")
@_common_options
def _cmd_solve(config_path, out_dir, seed, threads):
    """Solve the control problem; write the surface, policy and summary."""
    _execute("solve", config_path, out_dir, seed, threads)


@main.command("simulate")
@_common_options
@click.option("--n-sim", type=int, default=None, help="path count override")
def _cmd_simulate(config_path, out_dir, seed, threads, n_sim):
    """Simulate paths under the solved policy (requires `solve` output)."""
    _execute("simulate", config_path, out_dir, seed, threads, n_sim)


@main.command("evaluate")
@_common_options
@click.option("--n-sim", type=int, default=None, help="path count override")
def _cmd_evaluate(config_path, out_dir, seed, threads, n_sim):
    """Paired agent comparison plus the solver-consistency check."""
    _execute("evaluate", config_path, out_dir, seed, threads, n_sim)


@main.command("sweep")
@_common_options
@click.option("--n-sim", type=int, default=None, help="path count override")
def _cmd_sweep(config_path, out_dir, seed, threads, n_sim):
    """Sweep the signal probability; write the SSR table."""
    _execute("sweep", config_path, out_dir, seed, threads, n_sim)


@main.command("check")
@_common_options
def _cmd_check(config_path, out_dir, seed, threads):
    """Fast self-diagnostics (invariants + reduced consistency check)."""
    _execute("check", config_path, out_dir, seed, threads)


if __name__ == "__main__":
    main()
