"""Liquidity-driven order-flow market: simulation, control, evaluation.

The package models a market whose order flow is driven by a scalar
liquidity level: market orders consume it, posted limit orders replenish
it, and arrival intensities, price impact and price volatility are all
functions of it.  A trader receives advance signals of a fraction of the
incoming events and controls inventory through lattice trades, subject to
a circuit breaker at a liquidity floor and a terminal auction.  The
modules are the API (``from artifact import hjb``): the package itself
defines only ``__version__`` and ``SCHEMA_VERSION``.

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
# threads when numpy is first imported, and the idle pool only burns CPU.
# One thread unless the caller exported a value (read only at that import).
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
# version of the config and of every output file's layout
SCHEMA_VERSION = 1
