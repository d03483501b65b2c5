"""Shared fixtures: benchmark market, solved desk-grid policies, and the
heavyweight Monte-Carlo runs reused across test modules.

Everything derives from fixed seeds, so repeated runs are bit-identical.
Session scope keeps the expensive artifacts (four desk solves, several
10,000-path experiments) to one build each.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from artifact.evaluation import run_experiment
from artifact.hjb import Grid, solve
from artifact.market_core import MarketParams, MarketState
from artifact.order_flow import (benchmark_mark_model, make_path_seed,
                                 simulate_paths, vbar_bound)
from artifact.policy import TablePolicyAgent

settings.register_profile(
    "artifact",
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("artifact")

BASE_SEED = 2024
N_SIM = 10_000


@pytest.fixture(scope="session")
def bench_params():
    """Benchmark market: spread 0.01 (zeta = 0.005)."""
    return MarketParams()


@pytest.fixture(scope="session")
def narrow_params(bench_params):
    """Benchmark market with the narrow spread 0.002 (zeta = 0.001)."""
    return dataclasses.replace(bench_params, zeta=0.001)


@pytest.fixture(scope="session")
def marks_signal():
    """Benchmark mark model with signal probability 0.2."""
    return benchmark_mark_model(signal_prob=0.2)


@pytest.fixture(scope="session")
def marks_blind():
    """Benchmark mark model with signals switched off."""
    return benchmark_mark_model(signal_prob=0.0)


@pytest.fixture(scope="session")
def desk_grid(bench_params):
    """Benchmark desk grid: dT = 0.005, dLambda = 1, q in [-12, 12]."""
    return Grid.from_params(bench_params, d_t=0.005, d_lambda=1.0,
                            q_min=-12.0, q_max=12.0)


@pytest.fixture(scope="session")
def tiny_solution(bench_params, marks_signal):
    """(surface, policy) on the coarse CLI-test grid: dT = 0.01,
    dLambda = 4, q in [-2, 2], with signals."""
    grid = Grid.from_params(bench_params, d_t=0.01, d_lambda=4.0,
                            q_min=-2.0, q_max=2.0)
    return solve(bench_params, marks_signal, grid)


@pytest.fixture(scope="session")
def solved_signal(bench_params, marks_signal, desk_grid):
    """(surface, policy) at the benchmark spread with signals."""
    return solve(bench_params, marks_signal, desk_grid)


@pytest.fixture(scope="session")
def solved_blind(bench_params, marks_blind, desk_grid):
    """(surface, policy) at the benchmark spread without signals."""
    return solve(bench_params, marks_blind, desk_grid)


@pytest.fixture(scope="session")
def start_short():
    """Acquisition programme start: 8 lots short, liquidity at rest."""
    return MarketState(lam=0.0, q=-8.0, p=100.0, x=0.0)


@pytest.fixture(scope="session")
def start_flat():
    """Flat start: no inventory to execute."""
    return MarketState(lam=0.0, q=0.0, p=100.0, x=0.0)


@pytest.fixture(scope="session")
def passive_path_stats(bench_params, marks_blind, start_short):
    """Per-path statistics over 10,000 do-nothing benchmark paths."""
    paths = simulate_paths(bench_params, marks_blind, None, start_short,
                           [make_path_seed(7, i) for i in range(N_SIM)])
    return {
        "turnover": np.array([rec.inventory_variation + rec.market_volume
                              + rec.cancel_volume for rec in paths]),
        "qv": np.array([rec.price_qv for rec in paths]),
        "iv": np.array([rec.integrated_variance for rec in paths]),
        "live_mo": np.array([rec.n_live_market for rec in paths],
                            dtype=float),
        "vbar": np.array([vbar_bound(start_short.lam, rec, bench_params)
                          for rec in paths]),
        "min_lambda": np.array([rec.min_lambda for rec in paths]),
    }


def table_report(params, marks, policy, initial, n_sim=N_SIM,
                 seed=BASE_SEED):
    """One 10,000-path experiment for the tabulated policy."""
    agent = TablePolicyAgent(policy, params)
    return run_experiment(params, marks, {"table": agent}, n_sim, seed,
                          initial, target_q=0.0, threads=1)["table"]


@pytest.fixture(scope="session")
def report_signal(bench_params, marks_signal, solved_signal, start_short):
    """10,000 paths: informed policy in the signal market, q0 = -8."""
    return table_report(bench_params, marks_signal, solved_signal[1],
                        start_short)


@pytest.fixture(scope="session")
def report_blind(bench_params, marks_blind, solved_blind, start_short):
    """10,000 paths: uninformed policy, no signals, q0 = -8."""
    return table_report(bench_params, marks_blind, solved_blind[1],
                        start_short)


@pytest.fixture(scope="session")
def report_blind_flat(bench_params, marks_blind, solved_blind, start_flat):
    """10,000 paths: uninformed policy, no signals, q0 = 0."""
    return table_report(bench_params, marks_blind, solved_blind[1],
                        start_flat)


@pytest.fixture(scope="session")
def narrow_policies(narrow_params, marks_signal, marks_blind, desk_grid):
    """Narrow-spread desk-grid policies keyed by "signal" and "blind"."""
    _, pol_signal = solve(narrow_params, marks_signal, desk_grid)
    _, pol_blind = solve(narrow_params, marks_blind, desk_grid)
    return {"signal": pol_signal, "blind": pol_blind}


@pytest.fixture(scope="session")
def narrow_reports(narrow_params, marks_signal, marks_blind, narrow_policies,
                   start_short, start_flat):
    """Narrow-spread experiments keyed by (signal?, start inventory)."""
    pol_signal = narrow_policies["signal"]
    pol_blind = narrow_policies["blind"]
    out = {}
    for label, initial in (("short", start_short), ("flat", start_flat)):
        out["signal", label] = table_report(narrow_params, marks_signal,
                                            pol_signal, initial)
        out["blind", label] = table_report(narrow_params, marks_blind,
                                           pol_blind, initial)
    return out
