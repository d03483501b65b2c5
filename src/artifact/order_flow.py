"""Event-driven simulation of the marked order flow.

Candidate events arrive as a marked Poisson stream at the constant
dominating rate ``R = f(lambda_upper) + g(lambda_lower)``; each candidate
carries a mark (its volumes), a thinning coordinate ``y`` uniform on
``[0, R)``, and a visibility coordinate ``u`` uniform on ``[0, 1)``.  A
candidate with market-order volume is live iff ``y <= f(lam-)``; one with
limit volume is live iff ``y <= g(lam-)``.  A live event signals the
trader iff ``u`` is below the trader's signal probability, and the trader
can trade just before the event's volume lands; after every event the
trader may additionally rebalance, and between events at fixed time ticks.

Because neither the dominating rate nor the drawn coordinates depend on
the trader, the candidate stream for a given seed is identical across
policies and signal probabilities — paired comparisons share their random
numbers by construction.

Randomness is counter-based (Philox) keyed by a single 128-bit integer
seed; ``make_path_seed`` packs a base seed and a path index into one key,
so any path can be regenerated bit-exactly in isolation.

Paths are simulated a block at a time: ``draw_candidates`` packs the
candidate streams of up to ``BLOCK_PATHS`` paths into event-major arrays,
and ``simulate_block`` runs one event loop for every agent of an
experiment over the whole block.  The loop's lanes are agents × paths:
lane ``a * n_paths + b`` is agent ``a`` on path ``b``, and the market state
and every path accumulator are arrays with one entry per lane.  Each agent's
hooks are called on its own contiguous share of the lanes and see only
those, signaled at that agent's probability.  Each lane does exactly the
arithmetic its path would do alone with its agent, in the same order, so a
lane depends neither on the block nor on the other agents it ran with.
The result is one ``PathRecord`` of per-lane arrays; ``simulate_path``
alone reads a lane back as scalars.

A block can also log its events, one row per candidate or trader impulse,
as columns: each event step appends the arrays of the lanes it logged, and
one stable sort by lane at the end of the block puts each lane's rows in
the order they happened.  ``write_path_log`` writes a block's rows as the
lines of ``paths.csv``, so a recorded run holds one block's log at a time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .market_core import (
    MarketParams,
    MarketState,
    apply_shock_detailed,
    _max0,
    terminal_wealth,
)

__all__ = [
    "Mark",
    "MarkModel",
    "benchmark_mark_model",
    "PathRecord",
    "make_path_seed",
    "BLOCK_PATHS",
    "CandidateBlock",
    "draw_candidates",
    "simulate_block",
    "simulate_path",
    "write_path_log",
    "PATH_LOG_COLUMNS",
    "EVENT_KINDS",
]

PATH_LOG_COLUMNS = ("path_id", "t", "kind", "z", "gamma", "eta", "rho",
                    "lambda", "q", "p", "x")
#: An event log's columns: the lane, then those of ``PATH_LOG_COLUMNS``
#: after the path id.  ``kind`` indexes ``EVENT_KINDS`` and ``gamma`` is
#: the trader's executed trade: the signal trade plus the state-based one.
_LOG_COLUMNS = ("lane",) + PATH_LOG_COLUMNS[1:]
EVENT_KINDS = ("market", "post", "cancel", "impulse")
_IMPULSE = EVENT_KINDS.index("impulse")
_WRITE_ROWS = 4096  # rows write_path_log turns into Python objects at once

#: Paths drawn and simulated together.  A block runs one lane per agent
#: and path (agents × paths lanes), but its size counts paths.  Every event
#: step costs a fixed number of numpy calls, so blocks much smaller than
#: this lose to per-call overhead; the fixed size bounds the memory of the
#: packed draws however many paths a run asks for.
BLOCK_PATHS = 1024


@dataclass(frozen=True)
class Mark:
    """One mark of the event measure: volumes and probability weight.

    ``eta`` is the signed market-order volume, ``rho`` the signed limit
    volume (positive = post, negative = cancellation); exactly one of the
    two is non-zero.  ``nu`` is the mark's probability weight.
    """

    eta: float
    rho: float
    nu: float
    label: str = ""

    def __post_init__(self) -> None:
        if (self.eta != 0.0) == (self.rho != 0.0):
            raise ValueError(
                f"mark {self.label!r}: exactly one of eta={self.eta} and "
                f"rho={self.rho} must be non-zero"
            )
        if self.nu < 0.0:
            raise ValueError(f"mark {self.label!r}: nu must be >= 0")

    @property
    def kind(self) -> str:
        """``"market"``, ``"post"`` or ``"cancel"``."""
        if self.eta != 0.0:
            return "market"
        return "post" if self.rho > 0.0 else "cancel"

    @property
    def signal(self) -> int:
        """Signal a visible live event of this mark sends the trader.

        Liquidity-taking events (market orders and cancellations) signal
        ``-1``, liquidity provision (posts) signals ``+1``.
        """
        return 1 if self.kind == "post" else -1


@dataclass(frozen=True)
class MarkModel:
    """Finite mark distribution plus the signal probability.

    The weights must sum to one (tolerance 1e-9; they are renormalized to
    machine-exact unity).  A positive mean limit volume ``sum nu*rho > 0``
    keeps the book resilient; models violating it are accepted with a
    warning because degenerate configurations (e.g. market-orders only)
    are legitimate in stress tests.
    """

    marks: tuple
    signal_prob: float = 0.0

    def __post_init__(self) -> None:
        if not self.marks:
            raise ValueError("mark model needs at least one mark")
        if not 0.0 <= self.signal_prob <= 1.0:
            raise ValueError(
                f"signal_prob must lie in [0, 1], got {self.signal_prob}")
        marks = tuple(self.marks)
        total = math.fsum(m.nu for m in marks)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mark weights must sum to 1, got {total!r}")
        nus = np.array([m.nu for m in marks], dtype=float)
        nus /= nus.sum()
        # the inverse-CDF table numpy's Generator.choice builds from p=nus
        cdf = np.cumsum(nus)
        cdf /= cdf[-1]
        # the marks as a tuple; what derives from them is outside eq, hash
        vars(self).update(
            marks=marks, nus=nus, _cdf=cdf, n_marks=len(marks),
            etas=np.array([m.eta for m in marks], dtype=float),
            rhos=np.array([m.rho for m in marks], dtype=float))
        resilience = float(np.sum(nus * self.rhos))
        if resilience <= 0.0:
            warnings.warn(
                f"mean limit volume sum(nu*rho) = {resilience} is not "
                "positive; the book is not resilient", stacklevel=2)

    def mark_indices(self, u: np.ndarray) -> np.ndarray:
        """Mark indices of the uniforms ``u``: drawing ``u = gen.random(n)``
        gives the indices ``gen.choice(n_marks, size=n, p=nus)`` would, from
        the same stream, without re-validating ``p``."""
        return self._cdf.searchsorted(u, side="right")

    def with_signal_prob(self, signal_prob: float) -> "MarkModel":
        return MarkModel(self.marks, signal_prob)

    def fingerprint(self) -> dict:
        """JSON-serializable summary used to match solutions to runs."""
        return {
            "signal_prob": self.signal_prob,
            "marks": [[m.eta, m.rho, m.nu] for m in self.marks],
        }


def benchmark_mark_model(signal_prob: float = 0.2,
                         post_fraction: float = 0.75) -> MarkModel:
    """The benchmark twelve-mark model.

    Market orders of +-1, +-2, +-3 lots carry half the total weight (sizes
    1 and 2 twice as likely as size 3, both directions equally likely); the
    other half is limit flow of 1, 2 or 3 lots (same size profile), split
    ``post_fraction`` posts versus cancellations.
    """
    if not 0.0 <= post_fraction <= 1.0:
        raise ValueError("post_fraction must lie in [0, 1]")
    size_probs = {1.0: 0.4, 2.0: 0.4, 3.0: 0.2}
    marks = []
    for size, ps in size_probs.items():
        for sign in (1.0, -1.0):
            marks.append(Mark(eta=sign * size, rho=0.0, nu=0.5 * ps * 0.5,
                              label=f"mo{'+' if sign > 0 else '-'}{int(size)}"))
    for size, ps in size_probs.items():
        marks.append(Mark(eta=0.0, rho=size, nu=0.5 * ps * post_fraction,
                          label=f"post+{int(size)}"))
        marks.append(Mark(eta=0.0, rho=-size, nu=0.5 * ps * (1.0 - post_fraction),
                          label=f"cancel-{int(size)}"))
    return MarkModel(tuple(marks), signal_prob)


def make_path_seed(base_seed: int, path_index: int) -> int:
    """Pack a base seed and a path index into one 128-bit stream key."""
    if not 0 <= base_seed < 2 ** 64:
        raise ValueError("base_seed must fit in 64 bits")
    if not 0 <= path_index < 2 ** 64:
        raise ValueError("path_index must fit in 64 bits")
    return (base_seed << 64) | path_index


def _philox_key(seed: int) -> np.ndarray:
    if not 0 <= seed < 2 ** 128:
        raise ValueError("seed must be a non-negative 128-bit integer")
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, seed >> 64], dtype=np.uint64)


def _streams(seeds: Sequence[int]):
    """One generator, rewound to the start of each seed's Philox stream in
    turn: it draws what ``Generator(Philox(key=...))`` would, without the
    entropy read each new ``Philox`` pays before its key is set."""
    gen = np.random.Generator(np.random.Philox(key=_philox_key(0)))
    start = gen.bit_generator.state
    for seed in seeds:
        start["state"]["key"] = _philox_key(seed)
        gen.bit_generator.state = start
        yield gen


@dataclass(frozen=True)
class PathRecord:
    """Summary and event log of simulated paths.

    The fields are scalars for one path, or equal-length arrays with one
    entry per lane for a block (see ``simulate_block``); the terminal state
    is then a ``MarketState`` of arrays.  ``events`` is a block's event
    log when it was recorded (see ``simulate_block``), else ``None``.
    """

    terminal_state: MarketState
    terminal_wealth: float
    auction_draw: float
    breaker_time: float           # +inf if the breaker never fired
    n_candidates: int
    n_live_market: int
    n_live_limit: int
    n_signals: int
    n_buy_trades: int             # explicit executed buys (signal/state-based)
    n_sell_trades: int
    inventory_variation: float    # sum |executed trader trades|
    market_volume: float          # sum |executed external market orders|
    cancel_volume: float          # sum executed cancellations
    min_lambda: float
    events: Optional[dict] = None


@dataclass(frozen=True)
class CandidateBlock:
    """The candidate streams of a block of paths, packed end to end.

    Path ``b``'s candidates are entries ``starts[b]`` to
    ``starts[b] + counts[b] - 1`` of ``times``, ``ys``, ``marks`` and
    ``visibility``, in event order; one entry of padding follows the last
    path.  The streams depend on no agent and on no signal probability, so
    one block serves every agent of an experiment.
    """

    counts: np.ndarray        # candidates per path
    starts: np.ndarray        # offset of each path's first candidate
    times: np.ndarray         # sorted event times
    ys: np.ndarray            # thinning coordinates
    marks: np.ndarray         # mark indices
    visibility: np.ndarray    # visibility coordinates
    auction: np.ndarray       # terminal auction draw per path


def draw_candidates(params: MarketParams, marks: MarkModel,
                    seeds: Sequence[int]) -> CandidateBlock:
    """Draw and pack the candidate streams of the paths keyed by ``seeds``.

    Each path's draw order from its own counter-based stream is fixed:
    candidate count, event times, mark indices, thinning coordinates,
    visibility coordinates, auction draw.  The four coordinates of a
    path's ``n`` candidates are ``4 n`` uniforms taken in one call, in that
    order; the times are then sorted.  The draws never depend on the
    policy or on ``marks.signal_prob``, so different policies and signal
    probabilities on the same seed see identical candidate streams.
    """
    horizon = params.horizon
    rate_bar = params.f(params.lambda_upper) + params.g(params.lambda_lower)
    n_paths = len(seeds)
    # the block's candidate total is Poisson: six standard deviations of
    # room leave growing the arrays to the rare block that needs it
    mean = n_paths * rate_bar * horizon
    size = int(mean + 6.0 * math.sqrt(mean)) + 1
    arrays = (np.zeros(size), np.zeros(size),
              np.zeros(size, dtype=np.min_scalar_type(marks.n_marks - 1)),
              np.zeros(size))
    counts = np.zeros(n_paths, dtype=np.intp)
    starts = np.zeros(n_paths, dtype=np.intp)
    auction = np.zeros(n_paths)
    # one path's uniforms, grown to the longest path so far: a buffer for
    # the whole block would take 32 bytes per candidate, more than the
    # packed draws themselves
    scratch = np.empty(0)
    end = 0
    for b, gen in enumerate(_streams(seeds)):
        n = int(gen.poisson(rate_bar * horizon))
        if end + n >= size:
            extra = end + n + 1 - size + int(math.sqrt(mean))
            arrays = tuple(np.concatenate([a, np.zeros(extra, a.dtype)])
                           for a in arrays)
            size += extra
        if 4 * n > scratch.size:
            scratch = np.empty(4 * n)
        u = gen.random(out=scratch[:4 * n])
        times, ys, idx, visibility = (a[end:end + n] for a in arrays)
        # gen.uniform(0, w) is 0.0 + w * u, and adding +0.0 to a
        # non-negative product is exact
        np.multiply(horizon, u[:n], out=times)
        times.sort()
        idx[:] = marks.mark_indices(u[n:2 * n])
        np.multiply(rate_bar, u[2 * n:3 * n], out=ys)
        visibility[:] = u[3 * n:]
        auction[b] = gen.standard_normal()
        counts[b], starts[b] = n, end
        end += n
    return CandidateBlock(counts, starts, *(a[:end + 1] for a in arrays),
                          auction)


class _Block:
    """Market state and accumulators of a block's lanes, as arrays.

    Lane ``a * n_paths + b`` is agent ``a`` on path ``b``; a ``None`` agent
    is a passive trader, whose lanes are never asked.
    """

    def __init__(self, params: MarketParams, agents, initial: MarketState,
                 n_paths: int, record: bool) -> None:
        self.params = params
        self.agents = tuple(agents)
        self.trading = any(agent is not None for agent in self.agents)
        # the first lane of each agent, and one past the last lane
        self.cuts = np.arange(len(self.agents) + 1) * n_paths
        n_lanes = len(self.agents) * n_paths
        self.lam = np.full(n_lanes, initial.lam, dtype=float)
        self.q = np.full(n_lanes, initial.q, dtype=float)
        self.p = np.full(n_lanes, initial.p, dtype=float)
        self.x = np.full(n_lanes, initial.x, dtype=float)
        self.halted = np.zeros(n_lanes, dtype=bool)
        self.v_q = np.zeros(n_lanes)
        self.v_m = np.zeros(n_lanes)
        self.v_lminus = np.zeros(n_lanes)
        self.n_buy = np.zeros(n_lanes, dtype=np.intp)
        self.n_sell = np.zeros(n_lanes, dtype=np.intp)
        self.min_lam = self.lam.copy()
        self.breaker_time = np.full(n_lanes, math.inf)
        self.rows = None
        if record:
            # rows of no lane, which give each column its dtype
            self.rows = []
            self.log(np.arange(0), 0.0, 0)

    def state(self, idx: np.ndarray) -> MarketState:
        return MarketState(lam=self.lam[idx], q=self.q[idx], p=self.p[idx],
                           x=self.x[idx], halted=self.halted[idx])

    def _parts(self, idx: np.ndarray):
        """Each trading agent's share of the sorted lanes ``idx``.

        Yields ``(agent, part, state)``: ``idx[part]`` are the agent's
        lanes, contiguous because lanes are grouped by agent, and ``state``
        is their market state.  The state is gathered once for all agents.
        """
        state = self.state(idx)
        if len(self.agents) == 1:
            yield self.agents[0], slice(None), state
            return
        bounds = idx.searchsorted(self.cuts).tolist()
        for agent, lo, hi in zip(self.agents, bounds, bounds[1:]):
            if agent is not None and lo < hi:
                part = slice(lo, hi)
                yield agent, part, MarketState(
                    lam=state.lam[part], q=state.q[part], p=state.p[part],
                    x=state.x[part], halted=state.halted[part])

    def on_signal(self, idx: np.ndarray, t: np.ndarray,
                  z: np.ndarray) -> np.ndarray:
        """Signal trades on lanes ``idx``; 0 on passive lanes."""
        gamma = np.zeros(len(idx))
        for agent, part, state in self._parts(idx):
            gamma[part] = agent.on_signal(t[part], state, z[part])
        return gamma

    def on_state(self, idx: np.ndarray, t: np.ndarray) -> np.ndarray:
        """State-based trades on lanes ``idx``; 0 on passive lanes."""
        delta = np.zeros(len(idx))
        for agent, part, state in self._parts(idx):
            delta[part] = agent.on_state(t[part], state)
        return delta

    def next_impulse(self, idx: np.ndarray, t_from: np.ndarray,
                     t_to: np.ndarray) -> tuple:
        """``(t_imp, delta)`` on lanes ``idx``; no impulse on passive lanes."""
        t_imp, delta = np.full(len(idx), math.inf), np.zeros(len(idx))
        for agent, part, state in self._parts(idx):
            t_imp[part], delta[part] = agent.next_impulse(t_from[part],
                                                          t_to[part], state)
        return t_imp, delta

    def shock(self, idx: np.ndarray, t: np.ndarray, gamma, eta=0.0,
              rho=0.0) -> tuple:
        """Apply and book one shock on lanes ``idx``; returns what executed.

        The result is ``(executed_gamma, executed_eta, executed_rho)``.
        """
        new, g_exec, e_exec, r_exec, _, _ = apply_shock_detailed(
            self.state(idx), gamma, eta, rho, self.params)
        self.lam[idx], self.q[idx], self.p[idx], self.x[idx] = \
            new.lam, new.q, new.p, new.x
        self.halted[idx] = new.halted
        self.n_buy[idx] += g_exec > 0.0
        self.n_sell[idx] += g_exec < 0.0
        self.v_q[idx] += np.abs(g_exec)
        self.v_m[idx] += np.abs(e_exec)
        self.v_lminus[idx] += _max0(-r_exec)
        fired = new.halted & np.isinf(self.breaker_time[idx])
        self.breaker_time[idx[fired]] = t[fired]
        low = self.min_lam[idx]
        self.min_lam[idx] = np.where(new.lam < low, new.lam, low)
        return g_exec, e_exec, r_exec

    def trade(self, idx: np.ndarray, t: np.ndarray, delta) -> None:
        """Execute stand-alone trader trades at times ``t``."""
        executed = self.shock(idx, t, delta)[0]
        if self.rows is not None:
            # logged as a candidate's signal trade plus rebalance would be:
            # 0.0 + -0.0 is 0.0
            self.log(idx, t, _IMPULSE, trade=0.0 + executed)

    def tick_impulses(self, idx: np.ndarray, t_from: np.ndarray,
                      t_to: np.ndarray) -> None:
        """Execute state-based trades at policy ticks strictly inside each
        lane's window ``(t_from, t_to)``."""
        while True:
            open_ = ~self.halted[idx]
            idx, t_from, t_to = idx[open_], t_from[open_], t_to[open_]
            if not idx.size:
                return
            t_imp, delta = self.next_impulse(idx, t_from, t_to)
            hit = t_imp < math.inf
            idx, t_to, t_from, delta = idx[hit], t_to[hit], t_imp[hit], \
                delta[hit]
            trades = delta != 0.0
            if trades.any():
                self.trade(idx[trades], t_from[trades], delta[trades])

    def log(self, idx, t, kind, z=0, trade=0.0, eta=0.0, rho=0.0) -> None:
        """Append one row per lane in ``idx``, with its post-event state; a
        scalar stands for a column of that value."""
        self.rows.append(
            [np.broadcast_to(v, idx.shape) for v in (idx, t, kind, z, trade,
                                                     eta, rho)]
            + [a[idx] for a in (self.lam, self.q, self.p, self.x)])

    def event_log(self) -> Optional[dict]:
        """The logged rows by column (``_LOG_COLUMNS``), each lane's in the
        order they happened; ``None`` unless the block records events."""
        if self.rows is None:
            return None
        order = np.concatenate([row[0] for row in self.rows]).argsort(
            kind="stable")
        return {name: np.concatenate(column)[order]
                for name, column in zip(_LOG_COLUMNS, zip(*self.rows))}


def simulate_block(params: MarketParams, marks: MarkModel, agents: Sequence,
                   initial: MarketState, candidates: CandidateBlock, *,
                   record_events: bool = False) -> PathRecord:
    """Simulate the paths of one candidate block for each of ``agents``.

    Every agent is any object with the array hooks ``on_signal(t, state,
    z)``, ``on_state(t, state)`` and ``next_impulse(t_from, t_to, state)``
    (see ``policy``), or ``None`` for a passive trader.  An agent with a
    ``signal_prob`` attribute (a ``TablePolicyAgent``: the probability its
    table was solved for) is signaled at that probability, every other
    agent at ``marks.signal_prob``.  One event loop runs over
    ``len(agents) * n_paths`` lanes over ``[0, horizon]``; each hook is
    called with the agent's own lanes only.  Returns one ``PathRecord`` of
    per-lane arrays, in lane order: entry ``a * n_paths + b`` is agent
    ``a`` on path ``b``.  Each entry is reproducible bit-exactly from
    ``(seed, agent)`` alone.  With ``record_events`` its ``events`` is the
    event log: a dict of equal-length columns named as in
    ``PATH_LOG_COLUMNS`` but with ``lane`` for ``path_id``, one row per
    candidate (halted, thinned or live, with zero volumes unless live) and
    per executed trader impulse, sorted by lane and in event order within
    a lane.
    """
    if initial.lam < params.lambda_lower or initial.lam > params.lambda_upper:
        raise ValueError(
            f"initial liquidity {initial.lam} outside "
            f"[{params.lambda_lower}, {params.lambda_upper}]")
    if initial.halted:
        raise ValueError("initial state must not be halted")

    horizon = params.horizon
    n_agents = len(agents)
    # the block's per-path arrays, one copy per agent
    counts, starts, auction = (np.tile(a, n_agents) for a in (
        candidates.counts, candidates.starts, candidates.auction))
    n_lanes = len(counts)
    is_mo = marks.etas != 0.0
    eta_of = np.where(is_mo, marks.etas, 0.0)
    rho_of = np.where(is_mo, 0.0, marks.rhos)
    signal_of = np.array([m.signal for m in marks.marks])
    kind_of = np.array([EVENT_KINDS.index(m.kind) for m in marks.marks])
    block = _Block(params, agents, initial, len(candidates.counts),
                   record_events)
    signal_prob = np.repeat([getattr(agent, "signal_prob", marks.signal_prob)
                             for agent in agents], len(candidates.counts))
    n_live_mo = np.zeros(n_lanes, dtype=np.intp)
    n_live_limit = np.zeros(n_lanes, dtype=np.intp)
    n_signals = np.zeros(n_lanes, dtype=np.intp)
    every = np.arange(n_lanes)

    if block.trading:
        d0 = block.on_state(every, np.zeros(n_lanes))
        trades = d0 != 0.0
        if trades.any():
            block.trade(every[trades], np.zeros(int(trades.sum())),
                        d0[trades])

    # Step k runs each lane's tick window up to its k-th candidate, then the
    # candidate; a lane with k candidates runs its last window, up to the
    # horizon, at step k.
    t_prev = np.zeros(n_lanes)
    for k in range(int(counts.max(initial=0)) + 1):
        idx = np.flatnonzero(counts >= k)
        pos = starts[idx] + k
        has = counts[idx] > k
        t = np.where(has, candidates.times[pos], horizon)
        if block.trading:
            block.tick_impulses(idx, t_prev[idx], t)
        t_prev[idx] = t
        idx, pos, t = idx[has], pos[has], t[has]
        if not idx.size:
            continue
        e = candidates.marks[pos]
        y = candidates.ys[pos]
        halted = block.halted[idx]
        run = ~halted
        lam = block.lam[idx[run]]
        mo = is_mo[e]
        rate = np.empty(len(idx))
        rate[run] = np.where(mo[run], params.f(lam), params.g(lam))
        live = run & (y <= rate)
        if block.rows is not None and not live.all():
            block.log(idx[~live], t[~live], kind_of[e[~live]])
        if not live.any():
            continue
        idx, pos, t, e, y, mo = (a[live] for a in (idx, pos, t, e, y, mo))
        n_live_mo[idx] += mo
        n_live_limit[idx] += ~mo
        z = np.where(candidates.visibility[pos] < signal_prob[idx],
                     signal_of[e], 0)
        n_signals[idx] += z != 0
        gamma = np.zeros(len(idx))
        if block.trading:
            ask = (z != 0) & (t < horizon)
            if ask.any():
                gamma[ask] = block.on_signal(idx[ask], t[ask], z[ask])
        g_exec, e_exec, r_exec = block.shock(idx, t, gamma, eta_of[e],
                                             rho_of[e])
        delta_r = np.zeros(len(idx))
        if block.trading:
            open_ = ~block.halted[idx]
            if open_.any():
                ask = block.on_state(idx[open_], t[open_])
                trades = ask != 0.0
                if trades.any():
                    where = np.flatnonzero(open_)[trades]
                    ask[trades] = block.shock(idx[where], t[where],
                                              ask[trades])[0]
                delta_r[open_] = ask
        if block.rows is not None:
            block.log(idx, t, kind_of[e], z, g_exec + delta_r, e_exec, r_exec)

    state = block.state(every)
    return PathRecord(
        state, terminal_wealth(state, params, auction), auction,
        block.breaker_time, counts, n_live_mo, n_live_limit, n_signals,
        block.n_buy, block.n_sell, block.v_q, block.v_m, block.v_lminus,
        block.min_lam, block.event_log())


def simulate_path(params: MarketParams, marks: MarkModel, policy,
                  initial: MarketState, seed: int) -> PathRecord:
    """Simulate the one path keyed by ``seed`` (see ``simulate_block``);
    its record holds Python scalars."""
    rec = simulate_block(params, marks, [policy], initial,
                         draw_candidates(params, marks, [seed]))
    return PathRecord(
        MarketState(*(getattr(rec.terminal_state, f.name)[0].item()
                      for f in fields(MarketState))),
        *(getattr(rec, f.name)[0].item() for f in fields(PathRecord)[1:-1]))


def write_path_log(writer, events: dict, first_path: int = 0) -> None:
    """Write the event log of a one-agent block to the csv ``writer``.

    One row per logged event, in the columns ``PATH_LOG_COLUMNS``: lane
    ``b`` is path ``first_path + b``, and the kind is spelled out.  csv
    writes each float as its ``repr``.  The rows are converted to Python
    objects ``_WRITE_ROWS`` at a time, which bounds the memory they take.
    """
    for lo in range(0, len(events["lane"]), _WRITE_ROWS):
        part = {name: column[lo:lo + _WRITE_ROWS].tolist()
                for name, column in events.items()}
        writer.writerows(zip(
            [lane + first_path for lane in part["lane"]], part["t"],
            map(EVENT_KINDS.__getitem__, part["kind"]),
            *(part[name] for name in PATH_LOG_COLUMNS[3:])))
