"""Monte-Carlo evaluation: paired experiments, signal value, diagnostics.

Experiments simulate a set of agents over a common collection of seeded
paths: path ``i`` of every agent uses the same 128-bit stream key, so the
candidate event streams coincide and comparisons are paired.  Each block
of paths is drawn once, and one event loop simulates it for every agent
at once (``order_flow.simulate_block``: lanes are agents × paths, and each
agent's hooks see only its own lanes).  The block's per-lane columns of
wealth, speculation and breaker flags are cut into one row per agent and
joined in path order, and every statistic is reduced single-threaded from
those columns, which makes results bit-identical whatever the worker
count.  A run of one agent can also log its events: each block's rows go
to a csv writer as soon as the block is simulated, so the log never holds
more than one block.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
# futures.ProcessPoolExecutor imports multiprocessing when first read, so
# only runs that start a pool pay for it
from concurrent import futures
from dataclasses import asdict, dataclass
from typing import Dict, Optional

import numpy as np

from . import SCHEMA_VERSION
from .hjb import ValueSurface
from .market_core import MarketParams, MarketState, utility
from .order_flow import (BLOCK_PATHS, MarkModel, PathRecord, draw_candidates,
                         make_path_seed, simulate_block, write_path_log)
# one path at a time, for callers that time or trace single paths
from .order_flow import simulate_path  # noqa: F401

__all__ = [
    "EvalReport",
    "ConsistencyResult",
    "run_experiment",
    "signal_sharpe_ratio",
    "detect_speculation",
    "consistency_check",
    "report_to_dict",
    "write_json",
    "write_report_json",
    "write_wealth_csv",
]

CONSISTENCY_REL_TOLERANCE = 0.02  # share of |value| allowed beyond 3 SE


@dataclass
class EvalReport:
    """Summary of one agent's simulated wealth distribution."""

    agent: str
    n_sim: int
    base_seed: int
    wealth: np.ndarray
    mean: float
    variance: float            # population (1/n) variance
    speculation_fraction: float
    breaker_fraction: float
    histogram_edges: np.ndarray
    histogram_counts: np.ndarray
    config_echo: dict
    ssr: Optional[float] = None


@dataclass(frozen=True)
class ConsistencyResult:
    """Solver-versus-simulation agreement diagnostic."""

    passed: bool
    solver_value: float
    mc_mean: float
    mc_se: float
    abs_error: float
    tolerance: float


def detect_speculation(path: PathRecord):
    """Whether the path (or each lane of a block) trades both ways.

    Counts the executed signal- and state-based trades plus the implicit
    terminal liquidation of whatever inventory remains at the horizon
    (the execution programme always completes, by trade or by auction).
    A monotone execution towards the target never flags; any roundtrip
    does.
    """
    q_t = path.terminal_state.q
    bought = (path.n_buy_trades > 0) | (q_t < 0.0)
    sold = (path.n_sell_trades > 0) | (q_t > 0.0)
    return bought & sold


def _histogram(wealth: np.ndarray, bin_width: float):
    lo = math.floor(float(np.min(wealth)) / bin_width)
    hi = math.floor(float(np.max(wealth)) / bin_width) + 1
    edges = np.arange(lo, hi + 1) * bin_width
    counts, _ = np.histogram(wealth, bins=edges)
    return edges, counts


# A pool worker's experiment inputs, handed over once by the initializer.
_shared: tuple = ()


def _share(*inputs) -> None:
    global _shared
    _shared = inputs


def _simulate_chunk(paths: range, inputs: tuple = ()) -> list:
    """Every agent's path outcomes on ``paths``, one block at a time: per
    block, its wealth, speculation and breaker columns as ``(agents,
    paths)`` arrays.  A ``path_log`` writer gets each block's event rows
    before the next block is drawn."""
    params, marks, agents, initial, base_seed, path_log = inputs or _shared
    blocks = []
    for start in range(paths.start, paths.stop, BLOCK_PATHS):
        ids = range(start, min(start + BLOCK_PATHS, paths.stop))
        rec = simulate_block(
            params, marks, list(agents.values()), initial, draw_candidates(
                params, marks, [make_path_seed(base_seed, i) for i in ids]),
            record_events=path_log is not None)
        if path_log is not None:
            write_path_log(path_log, rec.events, start)
        # lane a * n + b is agent a on path b: row a of an (agents, n) view
        blocks.append([column.reshape(len(agents), -1) for column in (
            rec.terminal_wealth, detect_speculation(rec),
            np.isfinite(rec.breaker_time))])
        del rec  # before the next block is drawn: one block in memory
    return blocks


def run_experiment(params: MarketParams, marks: MarkModel,
                   agents: Dict[str, object], n_sim: int, base_seed: int,
                   initial: MarketState, *, target_q: float = 0.0,
                   threads: int = 1, histogram_bin_width: float = 0.05,
                   path_log=None) -> Dict[str, EvalReport]:
    """Simulate every agent over the same ``n_sim`` seeded paths.

    Returns one report per agent (insertion order preserved).  Given a
    ``csv.writer`` as ``path_log``, the experiment must have one agent,
    and each block's events are written to it as rows of
    ``order_flow.PATH_LOG_COLUMNS`` (no header) as soon as the block is
    simulated, so the rows come in path order.  At most ``threads``
    workers share one process pool, and never more than one per block of
    ``BLOCK_PATHS`` paths: a block costs about as many event steps as its
    busiest path has candidates whatever its width, so splitting one
    block between processes pays those steps twice.  An experiment of one
    block, one that logs events (its rows are written in path order, by
    this process), or ``threads=1`` runs in this process.
    Each worker receives the inputs once and one contiguous range of path
    indices, on which it simulates every agent in one event loop per
    block.  Results are independent of the worker count because path
    seeds are absolute and statistics are reduced from the path-ordered
    arrays in one thread.
    """
    if n_sim <= 0:
        raise ValueError("n_sim must be positive")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if path_log is not None and len(agents) != 1:
        raise ValueError("an event log takes the paths of exactly one agent")
    inputs = (params, marks, agents, initial, base_seed, path_log)
    workers = (1 if path_log is not None
               else min(threads, -(-n_sim // BLOCK_PATHS)))
    if workers == 1:
        chunks = [_simulate_chunk(range(n_sim), inputs)]
    else:
        size = -(-n_sim // workers)
        ranges = [range(s, min(s + size, n_sim))
                  for s in range(0, n_sim, size)]
        # a pool forks all its workers up front: one per range, no idle ones
        with futures.ProcessPoolExecutor(len(ranges), initializer=_share,
                                         initargs=inputs) as pool:
            chunks = list(pool.map(_simulate_chunk, ranges))
    columns = (np.concatenate(blocks, axis=1) for blocks in zip(
        *(block for chunk in chunks for block in chunk)))
    reports: Dict[str, EvalReport] = {}
    # one row of each (agents, paths) column per agent
    for name, wealth, spec, brk in zip(agents, *columns):
        edges, counts = _histogram(wealth, histogram_bin_width)
        reports[name] = EvalReport(
            agent=name,
            n_sim=n_sim,
            base_seed=base_seed,
            wealth=wealth,
            mean=float(np.mean(wealth)),
            variance=float(np.var(wealth)),
            speculation_fraction=float(np.mean(spec)),
            breaker_fraction=float(np.mean(brk)),
            histogram_edges=edges,
            histogram_counts=counts,
            config_echo={
                "schema_version": SCHEMA_VERSION,
                "params": asdict(params),
                "marks": marks.fingerprint(),
                "initial": {"lam": initial.lam, "q": initial.q,
                            "p": initial.p, "x": initial.x},
                "n_sim": n_sim,
                "base_seed": base_seed,
                "target_q": target_q,
                "agent": name,
            },
        )
    return reports


def signal_sharpe_ratio(with_signal: np.ndarray,
                        without_signal: np.ndarray) -> float:
    """Mean wealth gain of the informed run per unit of its wealth spread.

    ``(mean(with) - mean(without)) / std(with)`` with the population
    standard deviation.  NaN (with a warning) when the informed wealth is
    degenerate.
    """
    w1 = np.asarray(with_signal, dtype=float)
    w0 = np.asarray(without_signal, dtype=float)
    sd = float(np.std(w1))
    if sd == 0.0:
        warnings.warn("degenerate wealth sample: signal sharpe ratio "
                      "undefined (zero spread)", stacklevel=2)
        return float("nan")
    return float((np.mean(w1) - np.mean(w0)) / sd)


def consistency_check(surface: ValueSurface, report: EvalReport,
                      initial: MarketState) -> ConsistencyResult:
    """Compare the solved start value with the simulated mean utility.

    The solver's value at the initial state must match the Monte-Carlo mean
    of terminal utility, under the surface's risk aversion, within three
    standard errors plus ``CONSISTENCY_REL_TOLERANCE * |value|``.  The
    surface and the report must describe the same market, and a standard
    error needs two paths (hard errors otherwise).
    """
    if report.n_sim < 2:
        raise ValueError("the consistency check needs at least two paths")
    echo = report.config_echo
    if echo["params"] != surface.meta["params"]:
        raise ValueError("report and surface disagree on market parameters")
    if echo["marks"] != surface.meta["marks"]:
        raise ValueError("report and surface disagree on the mark model")
    ini = echo["initial"]
    for key, val in (("lam", initial.lam), ("q", initial.q),
                     ("p", initial.p), ("x", initial.x)):
        if ini[key] != val:
            raise ValueError(f"report simulated initial {key}={ini[key]}, "
                             f"check asked for {val}")

    w0 = surface.start_value(initial.lam, initial.q)
    alpha = surface.alpha
    book = initial.x + initial.p * initial.q
    if alpha > 0.0:
        solver_value = w0 * math.exp(-alpha * book)
    else:
        solver_value = w0 + book
    utilities = utility(report.wealth, alpha)
    mc_mean = float(np.mean(utilities))
    mc_se = float(np.std(utilities, ddof=1) / math.sqrt(len(utilities)))
    abs_error = abs(mc_mean - solver_value)
    tolerance = 3.0 * mc_se + CONSISTENCY_REL_TOLERANCE * abs(solver_value)
    return ConsistencyResult(
        passed=bool(abs_error <= tolerance),
        solver_value=solver_value,
        mc_mean=mc_mean,
        mc_se=mc_se,
        abs_error=abs_error,
        tolerance=tolerance,
    )


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready view of a report; the per-path wealth goes to the CSV."""
    return {
        "schema_version": SCHEMA_VERSION,
        "agent": report.agent,
        "n_sim": report.n_sim,
        "base_seed": report.base_seed,
        "mean": report.mean,
        "variance": report.variance,
        "speculation_fraction": report.speculation_fraction,
        "breaker_fraction": report.breaker_fraction,
        "ssr": report.ssr,
        "histogram": {
            "edges": [float(e) for e in report.histogram_edges],
            "counts": [int(c) for c in report.histogram_counts],
        },
        "config_echo": report.config_echo,
    }


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as sorted, indented JSON.  A NaN or infinity,
    which JSON parsers refuse, is a ``ValueError`` before the file opens."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as handle:
        handle.write(text + "\n")


def write_report_json(report: EvalReport, path) -> None:
    write_json(path, report_to_dict(report))


def write_wealth_csv(report: EvalReport, path) -> None:
    """Per-path terminal wealth, one row per path in path order."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["path_index", "wealth"])
        for i, w in enumerate(report.wealth):
            writer.writerow([i, repr(float(w))])
