"""Liquidity-driven order-flow market: simulation, control, evaluation.

The package models a market whose order flow is driven by a scalar
liquidity level: market orders consume it, posted limit orders replenish
it, and arrival intensities, price impact and price volatility are all
functions of it.  A trader receives advance signals of a fraction of the
incoming events and controls inventory through lattice trades, subject to
a circuit breaker at a liquidity floor and a terminal auction.

Modules
-------
market_core
    Closed-form primitives: intensities, impact, costs, state transitions.
order_flow
    Marked-Poisson event simulation with thinning, signals and the breaker,
    a block of paths at a time.
hjb
    Backward-induction solver for the reduced value surface and policy.
policy
    Agents: tabulated optimal policy and reference baselines.
evaluation
    Paired Monte-Carlo experiments, signal value metrics, diagnostics.
cli
    JSON-configured command line (`artifact solve|simulate|evaluate|sweep|check`).
"""

import os
import sys

# Nothing in the package calls BLAS, yet OpenBLAS starts a pool of worker
# threads when numpy is first imported, and the idle pool only burns CPU at
# every launch.  One thread unless the caller exported a value; once numpy
# is loaded the variable is no longer read.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
# version of the config and of every output file's layout
SCHEMA_VERSION = 1

from .market_core import (
    MarketParams,
    MarketState,
    apply_shock_detailed,
    check_elasticity,
    clip_to_liquidity,
    impact_cost,
    price_impact,
    price_volatility,
    terminal_wealth,
    utility,
)
from .order_flow import (
    EventRecord,
    Mark,
    MarkModel,
    PathRecord,
    benchmark_mark_model,
    make_path_seed,
    simulate_path,
    simulate_paths,
    vbar_bound,
    write_path_log,
)
from .hjb import (
    Grid,
    Policy,
    StabilityError,
    ValueSurface,
    certainty_equivalent,
    check_stability,
    impulse_step,
    interpolate_lambda,
    load_solution,
    save_solution,
    solve,
    terminal_condition,
    transport_step,
)
from .policy import (
    Agent,
    DoNothingAgent,
    ImmediateExecutionAgent,
    TablePolicyAgent,
    TwapAgent,
)
from .evaluation import (
    ConsistencyResult,
    EvalReport,
    consistency_check,
    detect_speculation,
    run_experiment,
    signal_sharpe_ratio,
)
from .cli import ConfigError, RunConfig, load_config
