"""Trading agents: the tabulated optimal policy and reference baselines.

An agent exposes three hooks the simulator calls:

* ``on_signal(t, state, z)`` — trade executed just ahead of a signaled
  event (``z = -1`` liquidity taking, ``z = +1`` provision);
* ``on_state(t, state)`` — rebalancing trade after an event lands (and
  once at ``t = 0`` before any event);
* ``next_impulse(t_from, t_to, state)`` — first scheduled trade strictly
  inside an inter-event window, or ``None``.

All trades are lattice volumes (multiples of the lot size) and are clipped
at the liquidity floor before execution.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

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


class Agent:
    """Base agent: never trades."""

    name = "do-nothing"

    def on_signal(self, t: float, state: MarketState, z: int) -> float:
        return 0.0

    def on_state(self, t: float, state: MarketState) -> float:
        return 0.0

    def next_impulse(self, t_from: float, t_to: float,
                     state: MarketState) -> Optional[Tuple[float, float]]:
        return None


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

    def on_state(self, t: float, state: MarketState) -> float:
        gap = self.target_q - state.q
        if gap == 0.0:
            return 0.0
        return clip_to_liquidity(gap, state.lam, self.params.lambda_lower)


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

    def next_impulse(self, t_from, t_to, state):
        for t_k, lot in self.schedule:
            if t_from < t_k < t_to:
                if state.q == self.target_q:
                    return None
                return t_k, clip_to_liquidity(lot, state.lam,
                                              self.params.lambda_lower)
        return None


class TablePolicyAgent(Agent):
    """Feedback agent reading trades from a solved policy table.

    Lookups round the state to the nearest grid node (time slices by
    time-to-go, liquidity and inventory by nearest node) and clip the
    stored trade at the liquidity floor.  At and after the horizon the
    agent stops trading (``on_state`` at exactly the horizon reports the
    full remaining liquidation, which the terminal auction realizes).
    """

    name = "table"

    def __init__(self, policy: Policy, params: MarketParams,
                 name: str = "table"):
        self.policy = policy
        self.grid = policy.grid
        self.params = params
        self.name = name
        # _next_trade[k, i, j]: the largest slice 0 < k' <= k with a non-zero
        # delta_star[k', i, j], or 0 if there is none.  Slices count time to
        # go, so k' is the first tick at or after slice k where (i, j) trades.
        n_steps = self.grid.n_steps
        ticks = np.arange(n_steps + 1, dtype=np.min_scalar_type(n_steps))
        self._next_trade = np.maximum.accumulate(
            (policy.delta_star != 0.0) * ticks[:, None, None], axis=0)

    def _slice(self, t: float) -> int:
        return self.grid.time_index(t, self.params.horizon)

    def _lookup(self, table, t: float, state: MarketState, *extra) -> float:
        k = self._slice(t)
        if k <= 0:
            return 0.0
        i = self.grid.lambda_index(state.lam)
        j = self.grid.q_index(state.q)
        return float(table[(k, i, j) + extra])

    def on_signal(self, t: float, state: MarketState, z: int) -> float:
        if z not in SIGNALS:
            raise ValueError(f"signal z must be one of {SIGNALS}, got {z}")
        trade = self._lookup(self.policy.gamma_star, t, state,
                             SIGNALS.index(z))
        return clip_to_liquidity(trade, state.lam, self.params.lambda_lower)

    def on_state(self, t: float, state: MarketState) -> float:
        if self._slice(t) <= 0:
            return clip_to_liquidity(-state.q, state.lam,
                                     self.params.lambda_lower)
        trade = self._lookup(self.policy.delta_star, t, state)
        return clip_to_liquidity(trade, state.lam, self.params.lambda_lower)

    def next_impulse(self, t_from, t_to, state):
        horizon = self.params.horizon
        d_t = self.grid.d_t
        # earliest tick strictly after t_from: largest k with T - k*d_t > t_from
        k = math.ceil((horizon - t_from) / d_t - 1e-9) - 1
        if k < 1:
            return None
        i = self.grid.lambda_index(state.lam)
        j = self.grid.q_index(state.q)
        k = int(self._next_trade[k, i, j])
        if k == 0:
            return None
        t_k = horizon - k * d_t
        if t_k >= t_to - 1e-12:
            return None
        return t_k, clip_to_liquidity(float(self.policy.delta_star[k, i, j]),
                                      state.lam, self.params.lambda_lower)
