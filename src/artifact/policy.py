"""Trading agents: the tabulated optimal policy and reference baselines.

The simulator runs a block of paths at once, so an agent's hooks see the
market as a ``MarketState`` whose fields are arrays with one entry per path
asked about, and return one value per path:

* ``on_signal(t, state, z)`` — trades executed just ahead of signaled
  events (``z = -1`` liquidity taking, ``z = +1`` provision);
* ``on_state(t, state)`` — rebalancing trades after events land (and once
  at ``t = 0`` before any event);
* ``next_impulse(t_from, t_to, state)`` — ``(t_imp, delta)``: the first
  scheduled trade strictly inside each path's inter-event window, with
  ``t_imp = inf`` (and ``delta = 0``) where a path has none.

``t``, ``t_from``, ``t_to`` and ``z`` are arrays aligned with the state.
Every path's answer depends on that path's inputs alone.  The agents of an
experiment share one event loop, but each agent is asked about its own
paths only.  All trades are lattice volumes (multiples of the lot size);
the market fills one that overshoots the floor down to it and halts.  The
baselines clip theirs at the floor, so they never halt.
"""

from __future__ import annotations

import numpy as np

from .hjb import SIGNALS, Policy
from .market_core import MarketParams, MarketState, clip_to_liquidity

__all__ = [
    "Agent",
    "DoNothingAgent",
    "ImmediateExecutionAgent",
    "TwapAgent",
    "TablePolicyAgent",
]


def _no_impulse(state: MarketState) -> tuple:
    return np.full(np.shape(state.q), np.inf), np.zeros(np.shape(state.q))


class Agent:
    """Base agent: never trades."""

    name = "do-nothing"

    def on_signal(self, t, state: MarketState, z) -> np.ndarray:
        return np.zeros(np.shape(state.q))

    def on_state(self, t, state: MarketState) -> np.ndarray:
        return np.zeros(np.shape(state.q))

    def next_impulse(self, t_from, t_to, state: MarketState) -> tuple:
        return _no_impulse(state)


class DoNothingAgent(Agent):
    """Holds the initial inventory untouched until the terminal auction."""


class ImmediateExecutionAgent(Agent):
    """Trades straight to the target inventory at the first opportunity.

    The full remaining gap executes at ``t = 0`` (clipped at the liquidity
    floor); any clipped remainder is retried after each subsequent event.
    """

    name = "immediate"

    def __init__(self, target_q: float, params: MarketParams):
        self.target_q = target_q
        self.params = params

    def on_state(self, t, state):
        gap = self.target_q - state.q
        return np.where(gap == 0.0, 0.0, clip_to_liquidity(
            gap, state.lam, self.params.lambda_lower))


class TwapAgent(Agent):
    """Executes the inventory gap in equal lots at equally spaced times.

    The gap ``target_q - initial_q`` is split into single-lot trades at
    times ``k * horizon / m`` for ``k = 1..m``; the last one lands at the
    horizon itself, where the simulator no longer trades, so it is placed
    just before (one part in 1e6 of the horizon earlier).
    """

    name = "twap"

    def __init__(self, target_q: float, initial_q: float,
                 params: MarketParams):
        self.target_q = target_q
        self.params = params
        gap = target_q - initial_q
        lot = params.lot_size
        m = round(abs(gap) / lot)
        if abs(m * lot - abs(gap)) > 1e-9:
            raise ValueError("inventory gap must be a whole number of lots")
        sign = 1.0 if gap > 0 else -1.0
        eps = params.horizon * 1e-6
        self.schedule = tuple(
            (min(k * params.horizon / m, params.horizon - eps), sign * lot)
            for k in range(1, m + 1)) if m else ()
        self._times = np.array([t_k for t_k, _ in self.schedule])
        self._lot = sign * lot

    def next_impulse(self, t_from, t_to, state):
        if not self.schedule:
            return _no_impulse(state)
        # the schedule is increasing: the first tick after t_from is the
        # only one that can fall inside the window
        k = np.minimum(self._times.searchsorted(t_from, side="right"),
                       len(self._times) - 1)
        t_k = self._times[k]
        hit = (t_from < t_k) & (t_k < t_to) & (state.q != self.target_q)
        lot = clip_to_liquidity(self._lot, state.lam, self.params.lambda_lower)
        return np.where(hit, t_k, np.inf), np.where(hit, lot, 0.0)


class TablePolicyAgent(Agent):
    """Feedback agent reading trades from a solved policy table.

    Lookups round the state to the nearest grid node (time slices by
    time-to-go, liquidity and inventory by nearest node); the stored trade
    goes out unclipped, as the solver valued it.  At and after the horizon
    the agent stops trading (``on_state`` at exactly the horizon reports
    the full remaining liquidation, which the terminal auction realizes).
    ``signal_prob`` is the signal probability the table was solved for,
    from its metadata; the simulator signals the agent's paths at it,
    whatever the experiment's mark model says.
    """

    name = "table"

    def __init__(self, policy: Policy, params: MarketParams,
                 name: str = "table"):
        self.policy = policy
        self.grid = policy.grid
        self.params = params
        self.name = name
        self.signal_prob = policy.meta["marks"]["signal_prob"]
        # _next_trade[k, i, j]: the largest slice 0 < k' <= k with a non-zero
        # delta_star[k', i, j], or 0 if there is none.  Slices count time to
        # go, so k' is the first tick at or after slice k where (i, j) trades.
        n_steps = self.grid.n_steps
        ticks = np.arange(n_steps + 1, dtype=np.min_scalar_type(n_steps))
        self._next_trade = np.maximum.accumulate(
            (policy.delta_star != 0.0) * ticks[:, None, None], axis=0)

    def _nodes(self, state: MarketState) -> tuple:
        return self.grid.lambda_index(state.lam), self.grid.q_index(state.q)

    def on_signal(self, t, state, z):
        slot = np.searchsorted(SIGNALS, z)
        if np.any(np.take(SIGNALS, slot, mode="clip") != z):
            raise ValueError(f"signal z must be one of {SIGNALS}, got {z}")
        k = self.grid.time_index(t, self.params.horizon)
        i, j = self._nodes(state)
        return np.where(k > 0, self.policy.gamma_star[k, i, j, slot], 0.0)

    def on_state(self, t, state):
        k = self.grid.time_index(t, self.params.horizon)
        i, j = self._nodes(state)
        return np.where(k > 0, self.policy.delta_star[k, i, j], -state.q)

    def next_impulse(self, t_from, t_to, state):
        horizon = self.params.horizon
        d_t = self.grid.d_t
        # earliest tick strictly after t_from: largest k with T - k*d_t > t_from
        k = np.ceil((horizon - t_from) / d_t - 1e-9).astype(np.intp) - 1
        i, j = self._nodes(state)
        k = np.where(k < 1, 0, self._next_trade[np.maximum(k, 0), i, j])
        t_k = horizon - k * d_t
        hit = (k != 0) & (t_k < t_to - 1e-12)
        delta = self.policy.delta_star[k, i, j]
        return np.where(hit, t_k, np.inf), np.where(hit, delta, 0.0)
