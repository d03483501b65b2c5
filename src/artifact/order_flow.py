"""Event-driven simulation of the marked order flow.

Candidate events arrive as a marked Poisson stream at the constant
dominating rate ``R = f(lambda_upper) + g(lambda_lower)``; each candidate
carries a mark (its volumes), a thinning coordinate ``y`` uniform on
``[0, R)``, and a visibility coordinate uniform on ``[0, 1)``.  A candidate
with market-order volume is live iff ``y <= f(lam-)``; one with limit
volume is live iff ``y <= g(lam-)``.  Live events may emit a signal to the
trader (with probability ``signal_prob`` via the visibility coordinate),
who can trade just before the event's volume lands; after every event the
trader may additionally rebalance, and between events at fixed time ticks.

Because the dominating rate never depends on the trader, the candidate
stream for a given seed is identical across policies — paired comparisons
share their random numbers by construction.

Randomness is counter-based (Philox) keyed by a single 128-bit integer
seed; ``make_path_seed`` packs a base seed and a path index into one key,
so any path can be regenerated bit-exactly in isolation.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .market_core import (
    MarketParams,
    MarketState,
    ShockTriple,
    apply_shock_detailed,
    terminal_wealth,
)

__all__ = [
    "Mark",
    "MarkModel",
    "benchmark_mark_model",
    "EventRecord",
    "PathRecord",
    "emit_signal",
    "make_path_seed",
    "simulate_path",
    "vbar_bound",
    "write_path_log",
    "PATH_LOG_COLUMNS",
]

PATH_LOG_COLUMNS = ("path_id", "t", "kind", "z", "gamma", "eta", "rho",
                    "lambda", "q", "p", "x")


@dataclass(frozen=True)
class Mark:
    """One mark of the event measure: volumes and probability weight.

    ``eta`` is the signed market-order volume, ``rho`` the signed limit
    volume (positive = post, negative = cancellation); exactly one of the
    two may be non-zero.  ``nu`` is the mark's probability weight.
    """

    eta: float
    rho: float
    nu: float
    label: str = ""

    def __post_init__(self) -> None:
        if self.eta != 0.0 and self.rho != 0.0:
            raise ValueError(
                f"mark {self.label!r}: eta={self.eta} and rho={self.rho} "
                "cannot both be non-zero"
            )
        if self.nu < 0.0:
            raise ValueError(f"mark {self.label!r}: nu must be >= 0")

    @property
    def kind(self) -> str:
        if self.eta != 0.0:
            return "market"
        if self.rho > 0.0:
            return "post"
        if self.rho < 0.0:
            return "cancel"
        return "null"


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
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "_nus", nus)
        object.__setattr__(self, "_etas",
                           np.array([m.eta for m in marks], dtype=float))
        object.__setattr__(self, "_rhos",
                           np.array([m.rho for m in marks], dtype=float))
        resilience = float(np.sum(nus * self._rhos))
        if resilience <= 0.0:
            warnings.warn(
                f"mean limit volume sum(nu*rho) = {resilience} is not "
                "positive; the book is not resilient", stacklevel=2)

    @property
    def nus(self) -> np.ndarray:
        return self._nus

    @property
    def etas(self) -> np.ndarray:
        return self._etas

    @property
    def rhos(self) -> np.ndarray:
        return self._rhos

    @property
    def n_marks(self) -> int:
        return len(self.marks)

    @property
    def mean_limit_volume(self) -> float:
        return float(np.sum(self._nus * self._rhos))

    @property
    def nu_market(self) -> float:
        """Total weight of market-order marks."""
        return float(np.sum(self._nus[self._etas != 0.0]))

    @property
    def nu_limit(self) -> float:
        """Total weight of limit (post/cancel) marks."""
        return float(np.sum(self._nus[self._rhos != 0.0]))

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


def emit_signal(event_kind: str, visible: bool) -> int:
    """Signal sent to the trader ahead of a live event.

    Liquidity-taking events (market orders and cancellations) signal ``-1``,
    liquidity provision (posts) signals ``+1``; an invisible event signals
    ``0`` (nothing is delivered).
    """
    if event_kind not in ("market", "post", "cancel"):
        raise ValueError(f"unknown event kind {event_kind!r}")
    if not visible:
        return 0
    return 1 if event_kind == "post" else -1


def make_path_seed(base_seed: int, path_index: int) -> int:
    """Pack a base seed and a path index into one 128-bit stream key."""
    if not 0 <= base_seed < 2 ** 64:
        raise ValueError("base_seed must fit in 64 bits")
    if not 0 <= path_index < 2 ** 64:
        raise ValueError("path_index must fit in 64 bits")
    return (base_seed << 64) | path_index


def _philox(seed: int) -> np.random.Generator:
    if not 0 <= seed < 2 ** 128:
        raise ValueError("seed must be a non-negative 128-bit integer")
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, seed >> 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class EventRecord:
    """Full anatomy of one processed candidate (or trader impulse)."""

    time: float
    kind: str           # market / post / cancel / impulse
    outcome: str        # live / thinned / halted / trade
    z: int
    mark_index: int     # -1 for trader impulses
    y: float
    gamma: float        # executed signal trade
    eta: float          # executed market-order volume
    rho: float          # executed net limit volume
    delta_r: float      # executed state-based trade after the event
    pre_state: MarketState
    post_state: MarketState


@dataclass(frozen=True)
class PathRecord:
    """Scalar summary (and optional event log) of one simulated path."""

    seed: int
    initial_state: MarketState
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
    price_qv: float               # sum of squared price jumps
    integrated_variance: float    # integral of sigma^2(lam_t) dt up to halt
    vbar_rho_sum: float           # sum |rho(e)| over candidates with y <= g(floor)
    min_lambda: float
    events: tuple = ()


class _PathAccounting:
    """Mutable per-path state and accumulators for the event loop."""

    def __init__(self, params: MarketParams, marks: MarkModel,
                 state: MarketState, record: bool) -> None:
        self.params = params
        self.state = state
        self.record = record
        self.events: list = []
        self.t_seg = 0.0
        self.integ_var = 0.0
        self.qv = 0.0
        self.v_q = 0.0
        self.v_m = 0.0
        self.v_lminus = 0.0
        self.n_buy = 0
        self.n_sell = 0
        self.min_lam = state.lam
        self.breaker_time = math.inf
        # sum_e nu_e * I(eta_e, lam)^2 is quadratic in lam because the
        # impact of a fixed volume is affine in lam: precompute its
        # coefficients so sigma^2(lam) costs one exp per segment.
        a = np.abs(marks.etas)
        b = params.theta_iota * a - 0.5 * params.kappa_iota * a * a
        m = params.kappa_iota * a
        nus = marks.nus
        self._isq_c0 = float(np.sum(nus * b * b))
        self._isq_c1 = float(np.sum(nus * 2.0 * b * m))
        self._isq_c2 = float(np.sum(nus * m * m))

    def _sigma2(self, lam: float) -> float:
        isq = self._isq_c0 + lam * (self._isq_c1 + lam * self._isq_c2)
        return self.params.f(lam) * isq

    def advance(self, t: float) -> None:
        """Accumulate the variance integral up to time ``t``."""
        if not self.state.halted and t > self.t_seg:
            self.integ_var += self._sigma2(self.state.lam) * (t - self.t_seg)
        self.t_seg = max(self.t_seg, t)

    def _tally_trade(self, executed: float) -> None:
        if executed > 0.0:
            self.n_buy += 1
        elif executed < 0.0:
            self.n_sell += 1
        self.v_q += abs(executed)

    def _post_step(self, t: float, outcome) -> None:
        self.qv += outcome.price_jump_gamma ** 2 + outcome.price_jump_eta ** 2
        if outcome.triggered and math.isinf(self.breaker_time):
            self.breaker_time = t
        self.min_lam = min(self.min_lam, self.state.lam)

    def apply_trade(self, t: float, delta: float) -> None:
        """Execute a stand-alone trader trade at time ``t``."""
        self.advance(t)
        pre = self.state
        out = apply_shock_detailed(pre, ShockTriple(gamma=delta), self.params)
        self.state = out.state
        self._tally_trade(out.executed_gamma)
        self._post_step(t, out)
        if self.record:
            self.events.append(EventRecord(
                time=t, kind="impulse", outcome="trade", z=0, mark_index=-1,
                y=math.nan, gamma=0.0, eta=0.0, rho=0.0,
                delta_r=out.executed_gamma, pre_state=pre,
                post_state=self.state))

    def apply_event(self, t: float, mark_index: int, kind: str, y: float,
                    z: int, shock: ShockTriple, policy) -> None:
        """Execute one live candidate: signal trade, volumes, state trade."""
        self.advance(t)
        pre = self.state
        out = apply_shock_detailed(pre, shock, self.params)
        state = out.state
        if state.lam > self.params.lambda_upper:
            # posted liquidity beyond the cap is discarded
            state = replace(state, lam=self.params.lambda_upper)
        self.state = state
        self._tally_trade(out.executed_gamma)
        self.v_m += abs(out.executed_eta)
        self.v_lminus += max(-out.executed_rho, 0.0)
        self._post_step(t, out)

        delta_r = 0.0
        if policy is not None and not self.state.halted:
            delta_r = float(policy.on_state(t, self.state))
            if delta_r != 0.0:
                out2 = apply_shock_detailed(
                    self.state, ShockTriple(gamma=delta_r), self.params)
                self.state = out2.state
                delta_r = out2.executed_gamma
                self._tally_trade(delta_r)
                self.qv += out2.price_jump_gamma ** 2
                if out2.triggered and math.isinf(self.breaker_time):
                    self.breaker_time = t
                self.min_lam = min(self.min_lam, self.state.lam)

        if self.record:
            self.events.append(EventRecord(
                time=t, kind=kind, outcome="live", z=z, mark_index=mark_index,
                y=y, gamma=out.executed_gamma, eta=out.executed_eta,
                rho=out.executed_rho, delta_r=delta_r, pre_state=pre,
                post_state=self.state))

    def skip(self, t: float, mark_index: int, kind: str, y: float,
             outcome: str) -> None:
        self.advance(t)
        if self.record:
            self.events.append(EventRecord(
                time=t, kind=kind, outcome=outcome, z=0, mark_index=mark_index,
                y=y, gamma=0.0, eta=0.0, rho=0.0, delta_r=0.0,
                pre_state=self.state, post_state=self.state))


def _run_tick_impulses(acc: _PathAccounting, policy, t_from: float,
                       t_to: float) -> None:
    """Execute state-based trades at policy ticks strictly inside the window."""
    if policy is None:
        return
    while not acc.state.halted:
        nxt = policy.next_impulse(t_from, t_to, acc.state)
        if nxt is None:
            return
        t_imp, delta = nxt
        if delta != 0.0:
            acc.apply_trade(t_imp, delta)
        t_from = t_imp


def simulate_path(params: MarketParams, marks: MarkModel, policy,
                  initial: MarketState, seed: int, *,
                  record_events: bool = False) -> PathRecord:
    """Simulate one path of the market over ``[0, horizon]``.

    ``policy`` is any object with methods ``on_signal(t, state, z)``,
    ``on_state(t, state)`` and ``next_impulse(t_from, t_to, state)`` (see
    ``policy.Agent``), or ``None`` for a passive trader.  The returned
    record is reproducible bit-exactly from ``(seed, policy)``.

    Draw order from the seeded counter-based stream is fixed: candidate
    count, sorted event times, mark indices, thinning coordinates,
    visibility coordinates, auction draw.  The draws never depend on the
    policy, so different policies on the same seed see identical candidate
    streams.
    """
    if initial.lam < params.lambda_lower or initial.lam > params.lambda_upper:
        raise ValueError(
            f"initial liquidity {initial.lam} outside "
            f"[{params.lambda_lower}, {params.lambda_upper}]")
    if initial.halted:
        raise ValueError("initial state must not be halted")

    horizon = params.horizon
    rate_bar = params.f(params.lambda_upper) + params.g(params.lambda_lower)
    gen = _philox(seed)
    n = int(gen.poisson(rate_bar * horizon))
    times = np.sort(gen.uniform(0.0, horizon, n))
    mark_idx = gen.choice(marks.n_marks, size=n, p=marks.nus)
    ys = gen.uniform(0.0, rate_bar, n)
    vis = gen.uniform(0.0, 1.0, n)
    auction_draw = float(gen.standard_normal())

    g_floor = params.g(params.lambda_lower)
    etas, rhos = marks.etas, marks.rhos
    acc = _PathAccounting(params, marks, initial, record_events)
    vbar_rho_sum = 0.0
    n_live_mo = 0
    n_live_limit = 0
    n_signals = 0

    if policy is not None:
        d0 = float(policy.on_state(0.0, acc.state))
        if d0 != 0.0:
            acc.apply_trade(0.0, d0)

    t_prev = 0.0
    for i in range(n):
        t = float(times[i])
        e = int(mark_idx[i])
        yv = float(ys[i])
        if yv <= g_floor:
            vbar_rho_sum += abs(rhos[e])
        _run_tick_impulses(acc, policy, t_prev, t)
        t_prev = t
        is_mo = etas[e] != 0.0
        kind = "market" if is_mo else ("post" if rhos[e] > 0.0 else "cancel")
        if acc.state.halted:
            acc.skip(t, e, kind, yv, "halted")
            continue
        live = yv <= (params.f(acc.state.lam) if is_mo
                      else params.g(acc.state.lam))
        if not live:
            acc.skip(t, e, kind, yv, "thinned")
            continue
        if is_mo:
            n_live_mo += 1
        else:
            n_live_limit += 1
        z = emit_signal(kind, bool(vis[i] < marks.signal_prob))
        if z != 0:
            n_signals += 1
        gamma_req = 0.0
        if z != 0 and policy is not None and t < horizon:
            gamma_req = float(policy.on_signal(t, acc.state, z))
        shock = ShockTriple(gamma=gamma_req,
                            eta=etas[e] if is_mo else 0.0,
                            rho=rhos[e] if not is_mo else 0.0)
        acc.apply_event(t, e, kind, yv, z, shock, policy)

    _run_tick_impulses(acc, policy, t_prev, horizon)
    acc.advance(horizon)

    wealth = terminal_wealth(acc.state, params, auction_draw)
    return PathRecord(
        seed=seed,
        initial_state=initial,
        terminal_state=acc.state,
        terminal_wealth=wealth,
        auction_draw=auction_draw,
        breaker_time=acc.breaker_time,
        n_candidates=n,
        n_live_market=n_live_mo,
        n_live_limit=n_live_limit,
        n_signals=n_signals,
        n_buy_trades=acc.n_buy,
        n_sell_trades=acc.n_sell,
        inventory_variation=acc.v_q,
        market_volume=acc.v_m,
        cancel_volume=acc.v_lminus,
        price_qv=acc.qv,
        integrated_variance=acc.integ_var,
        vbar_rho_sum=vbar_rho_sum,
        min_lambda=acc.min_lam,
        events=tuple(acc.events),
    )


def vbar_bound(initial_lambda: float, path: PathRecord,
               params: MarketParams) -> float:
    """Pathwise dominating volume for total liquidity turnover.

    ``initial_lambda - lambda_lower`` plus the absolute limit volumes of
    every candidate whose thinning coordinate falls below ``g(lambda_lower)``
    dominates the realized ``inventory_variation + market_volume +
    cancel_volume`` on the same path, whatever the policy.
    """
    return (initial_lambda - params.lambda_lower) + path.vbar_rho_sum


def write_path_log(paths: Sequence[PathRecord], file) -> None:
    """Write recorded events as CSV (one row per candidate or impulse).

    Columns: ``path_id, t, kind, z, gamma, eta, rho, lambda, q, p, x``
    with executed volumes and the post-event state.  Paths must have been
    simulated with ``record_events=True`` to have rows here.
    """
    own = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    handle = open(file, "w", newline="") if own else file
    try:
        writer = csv.writer(handle)
        writer.writerow(PATH_LOG_COLUMNS)
        for pid, path in enumerate(paths):
            for ev in path.events:
                st = ev.post_state
                writer.writerow([
                    pid, repr(float(ev.time)), ev.kind, ev.z,
                    repr(float(ev.gamma + ev.delta_r)), repr(float(ev.eta)),
                    repr(float(ev.rho)), repr(float(st.lam)),
                    repr(float(st.q)), repr(float(st.p)), repr(float(st.x)),
                ])
    finally:
        if own:
            handle.close()
