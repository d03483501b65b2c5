"""Independent numerical oracles backing the test-suite.

Everything here is computed from first principles — Gauss-Legendre
quadrature of the marginal impact, brute-force enumeration of the product
mark space, exhaustive dynamic programming over block-trade sequences —
without touching the closed forms or kernels under test.  There are four
exceptions: ``price_volatility``, a closed form only the tests use;
``vbar_bound``, ``integrated_variance`` and ``quadratic_variation``, which
derive the quantities of acceptance criteria 3 and 4 from a candidate block
and a recorded event log; ``simulate_paths``, which runs the block engine
over any number of paths, a block at a time; and the path simulator at the
end, the scalar, one-path-at-a-time event loop the block engine replaced,
kept as the reference its records and event log must equal field for
field.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from artifact import order_flow
from artifact.market_core import (MarketState, _FLOOR_TOL, impact_cost,
                                  price_impact, squared_impact_coefficients)
from artifact.order_flow import CandidateBlock, PathRecord

# Cached Gauss-Legendre rule.  The integrands below are polynomials of
# degree <= 3 in the integration variable, so a 64-point rule is exact to
# machine precision (and orders of magnitude past what the tolerances ask).
_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def marginal_impact(lam, params):
    """Affine marginal impact, evaluated directly from the parameters."""
    return params.theta_iota + params.kappa_iota * np.asarray(lam, float)


def impact_oracle(delta, lam, params):
    """Quadrature value of the permanent price impact of a trade."""
    a = abs(delta)
    if a == 0.0:
        return 0.0
    z = 0.5 * a * (_GL_X + 1.0)
    val = 0.5 * a * float(np.dot(_GL_W, marginal_impact(lam - z, params)))
    return val if delta > 0 else -val


def cost_oracle(delta, lam, params):
    """Nested-quadrature value of the cash friction of a trade."""
    a = abs(delta)
    if a == 0.0:
        return 0.0
    u = 0.5 * a * (_GL_X + 1.0)                   # outer nodes in [0, a]
    z = 0.5 * u[:, None] * (_GL_X[None, :] + 1.0)  # inner nodes in [0, u]
    inner = 0.5 * u * (marginal_impact(lam - z, params) @ _GL_W)
    return 0.5 * a * float(np.dot(_GL_W, inner))


def volatility_oracle(lam, params):
    """Price volatility by brute-force enumeration of the product marks.

    The benchmark order flow is the product law: a signed size component
    (+-1, +-2 with weight 0.2 each, +-3 with weight 0.1 each), an
    independent limit-order size (1, 2 with weight 0.4, 3 with weight 0.2)
    and an independent class toss (weight 0.5 each) that decides whether
    the size component executes as a market order.  Only the market-order
    branch moves the price.
    """
    p1 = {1: 0.2, 2: 0.2, 3: 0.1}
    p2 = {1: 0.4, 2: 0.4, 3: 0.2}
    p3 = {0: 0.5, 1: 0.5}
    total = 0.0
    for e1 in (-3, -2, -1, 1, 2, 3):
        for e2 in (1, 2, 3):
            for e3 in (0, 1):
                nu = p1[abs(e1)] * p2[e2] * p3[e3]
                eta = e1 * (1 - e3)
                total += nu * impact_oracle(eta, lam, params) ** 2
    rate = params.theta_f * math.exp(params.kappa_f * lam)
    return math.sqrt(rate * total)


def price_volatility(lam, marks, params):
    """Instantaneous price volatility at liquidity ``lam``, in closed form.

    The squared volatility is the market-order intensity times the
    mark-averaged squared impact,
    ``sigma^2(lam) = f(lam) * sum_e nu(e) * I(eta(e), lam)^2``
    (see ``squared_impact_coefficients``).  Accepts scalar or array ``lam``.
    Not an oracle: it is built from the coefficients under test, and
    ``volatility_oracle`` checks it.
    """
    c0, c1, c2 = squared_impact_coefficients(params, marks)
    lam_arr = np.asarray(lam, dtype=float)
    return np.sqrt(params.f(lam_arr) * (c0 + lam_arr * (c1 + lam_arr * c2)))


def terminal_oracle(lam, q, params, frozen=False):
    """Reduced terminal value from the explicit wealth formula.

    ``frozen=True`` evaluates the halted-market row: liquidation friction
    at the floor and the full inventory exposed to the auction.
    """
    floor = params.lambda_lower
    lam_eff = floor if frozen else lam
    cost = params.zeta * abs(q) + cost_oracle(q, lam_eff, params)
    if frozen:
        exposed = abs(q)
    else:
        exposed = max(abs(q) - max(lam - floor, 0.0), 0.0)
    risk = 0.5 * params.alpha ** 2 * params.sigma_auction ** 2 * exposed ** 2
    return -math.exp(params.alpha * cost + risk)


def impulse_dp_oracle(params, lam_values, q_values, n_rounds):
    """Zero-event-rate value surface by exhaustive block-trade scan.

    ``lam_values`` are the live integer liquidity rows (floor .. top) and
    ``q_values`` the integer inventory nodes; unit lot and liquidity steps
    are assumed so every feasible trade stays on the lattice.  One trade is
    allowed per round; a trade overshooting the floor fills partially down
    to the floor and halts (continuation from the frozen row).  Returns the
    value map after ``n_rounds`` rounds plus the frozen-row values.
    """
    floor = params.lambda_lower
    qs = [float(q) for q in q_values]
    lams = [float(l) for l in lam_values]
    frozen = {q: terminal_oracle(floor, q, params, frozen=True) for q in qs}
    values = {(lam, q): terminal_oracle(lam, q, params)
              for lam in lams for q in qs}
    n_max = len(qs) - 1
    for _ in range(n_rounds):
        nxt = {}
        for (lam, q), best in values.items():
            for n in range(-n_max, n_max + 1):
                if n == 0:
                    continue
                raw = lam - abs(n)
                if raw < floor - 1.0:
                    continue
                if raw < floor:
                    # partial fill to the floor, market halts
                    g = math.copysign(lam - floor, n)
                    q_next = q + g
                    if q_next < qs[0] or q_next > qs[-1]:
                        continue
                    cont = frozen[q_next]
                else:
                    g = float(n)
                    q_next = q + g
                    if q_next < qs[0] or q_next > qs[-1]:
                        continue
                    cont = values[(raw, q_next)]
                jump = (-params.zeta * abs(g) - cost_oracle(g, lam, params)
                        + impact_oracle(g, lam, params) * (q + g))
                cand = cont * math.exp(-params.alpha * jump)
                if cand > best:
                    best = cand
            nxt[(lam, q)] = best
        values = nxt
    return values, frozen


def transport_oracle(w, grid, params, marks):
    """One generator step by a per-node loop, with the best signal trades.

    At each live row and inventory node the invisible branch (weight
    ``1 - p``) lands every mark with no trade.  Each visible branch (weight
    ``p``, one per signal) scans the lattice trades in the order ``0, -1,
    +1, -2, +2, ...`` and keeps a later trade only when its sum over the
    branch's marks, added in mark order, is strictly greater.  The trade
    executes ahead of the event.  A trade that overshoots the floor by at
    most one liquidity step fills to the floor and halts the market: the
    event's own volume does not execute.  Otherwise a market order executes
    up to the floor and moves the price by its own impact too.  Continuation
    values are interpolated linearly in liquidity, clamped at the cap; a
    landing below the floor is the halted market and reads the frozen row.

    Returns the new slice (frozen row unchanged), the best trade per node
    and signal (``(n_lambda, n_q, 2)``, signals ``-1, +1``; the unclipped
    lattice volume) and the gap between the best two candidates relative
    to the best (``inf`` with a single candidate).
    """
    lam_values = [float(v) for v in grid.lam_values]
    q_values = [float(v) for v in grid.q_values]
    frozen, cap = lam_values[0], lam_values[-1]
    floor, d_lam, d_q = params.lambda_lower, grid.d_lambda, grid.d_q
    p_hat = marks.signal_prob
    n_max = len(q_values) - 1
    scan = [0] + [s * k for k in range(1, n_max + 1) for s in (-1, 1)]
    impact = {}

    def impact_of(g, lam):
        if (g, lam) not in impact:
            impact[g, lam] = (impact_oracle(g, lam, params),
                              cost_oracle(g, lam, params))
        return impact[g, lam]

    def continuation(lam, j):
        if lam < floor - _FLOOR_TOL:
            return float(w[0, j])
        pos = (min(max(lam, frozen), cap) - frozen) / d_lam
        lo = min(int(math.floor(pos + 1e-9)), len(lam_values) - 1)
        frac = pos - lo
        if frac <= 1e-9:
            return float(w[lo, j])
        return (1.0 - frac) * float(w[lo, j]) + frac * float(w[lo + 1, j])

    def landing(lam, q, g, mark):
        """Jump-weighted continuation of trade ``g`` then ``mark``."""
        raw = lam - abs(g)
        halted = raw < floor - 1e-9
        g_exec = math.copysign(lam - floor, g) if halted else g
        j = round((q + g_exec - q_values[0]) / d_q)
        lam1 = lam - abs(g_exec)
        move, friction = impact_of(g_exec, lam)
        if halted:
            lam_next = raw
        elif mark.eta != 0.0:
            eta_exec = math.copysign(min(abs(mark.eta),
                                         max(lam1 - floor, 0.0)), mark.eta)
            move += impact_of(eta_exec, lam1)[0]
            lam_next = lam1 - abs(mark.eta)
        else:
            lam_next = lam1 + mark.rho
        jump = -params.zeta * abs(g_exec) - friction + move * (q + g_exec)
        cont = continuation(lam_next, j)
        if params.alpha > 0.0:
            return cont * math.exp(-params.alpha * jump)
        return cont + jump

    def admissible(lam, q, g):
        raw = lam - abs(g)
        if raw < frozen - 1e-9:
            return False
        g_exec = math.copysign(lam - floor, g) if raw < floor - 1e-9 else g
        j = (q + g_exec - q_values[0]) / d_q
        return abs(j - round(j)) <= 1e-9 and 0 <= round(j) <= n_max

    out = np.array(w, dtype=float)
    trades = np.zeros(w.shape + (2,))
    gaps = np.full(w.shape + (2,), np.inf)
    for i in range(1, len(lam_values)):
        lam = lam_values[i]
        rates = [params.f(lam) if m.eta != 0.0 else params.g(lam)
                 for m in marks.marks]
        total_rate = sum(m.nu * r for m, r in zip(marks.marks, rates))
        for j, q in enumerate(q_values):
            acc = 0.0
            for m, r in zip(marks.marks, rates):
                acc += (1.0 - p_hat) * m.nu * r * landing(lam, q, 0.0, m)
            for s, z in enumerate((-1, 1)):
                branch = [(m, r) for m, r in zip(marks.marks, rates)
                          if m.signal == z]
                best, second, best_g = -math.inf, -math.inf, 0.0
                for n in scan:
                    g = n * d_q
                    if not admissible(lam, q, g):
                        continue
                    value = 0.0
                    for m, r in branch:
                        value += p_hat * m.nu * r * landing(lam, q, g, m)
                    if value > best:
                        best, second, best_g = value, best, g
                    elif value > second:
                        second = value
                acc += best
                trades[i, j, s] = best_g
                if second > -math.inf:
                    gaps[i, j, s] = (best - second) / max(abs(best), 1e-300)
            out[i, j] = w[i, j] + grid.d_t * (acc - total_rate * w[i, j])
    return out, trades, gaps


def euler_thinning_oracle(params, marks, initial_lam, n_paths, dt, seed):
    """Fixed-step thinning simulator, independent of the event-driven one.

    Each step carries at most one candidate (Bernoulli at the dominating
    rate) with mark drawn from the mark law and a thinning coordinate
    uniform on the dominating band.  Executions follow the market rules:
    market orders and cancellations drain liquidity (clipped at the floor;
    an overshoot halts the path), posts replenish up to the cap.  Returns
    per-path live market-order counts, f-band candidate counts, and the
    integral of f along the (frozen-after-halt) liquidity path.
    """
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    floor, cap = params.lambda_lower, params.lambda_upper
    rate_bar = params.f(cap) + params.g(floor)
    n_steps = int(round(params.horizon / dt))
    etas = np.asarray(marks.etas)
    rhos = np.asarray(marks.rhos)
    nus = np.asarray(marks.nus)
    lam = np.full(n_paths, float(initial_lam))
    halted = np.zeros(n_paths, dtype=bool)
    live_mo = np.zeros(n_paths)
    fband = np.zeros(n_paths)
    int_f = np.zeros(n_paths)
    for _ in range(n_steps):
        f_lam = params.f(lam)
        g_lam = params.g(lam)
        int_f += f_lam * dt
        hit = rng.random(n_paths) < rate_bar * dt
        e = rng.choice(len(nus), size=n_paths, p=nus)
        y = rng.random(n_paths) * rate_bar
        fband += hit & (y <= f_lam)
        act = hit & ~halted
        is_mo = etas[e] != 0.0
        rho = rhos[e]
        mo = act & is_mo & (y <= f_lam)
        live_mo += mo
        lim = act & ~is_mo & (y <= g_lam)
        drain = (np.where(mo, np.abs(etas[e]), 0.0)
                 + np.where(lim & (rho < 0.0), -rho, 0.0))
        room = np.maximum(lam - floor, 0.0)
        halted = halted | (drain > room + 1e-12)
        lam = lam - np.minimum(drain, room)
        lam = np.where(lim & (rho > 0.0), np.minimum(lam + rho, cap), lam)
    return {"live_mo": live_mo, "fband": fband, "int_f": int_f}


def vbar_bound(initial_lambda, candidates, params, marks):
    """Pathwise dominating volume for total liquidity turnover.

    ``initial_lambda - lambda_lower`` plus the absolute limit volumes of
    every candidate whose thinning coordinate falls below ``g(lambda_lower)``
    dominates the realized ``inventory_variation + market_volume +
    cancel_volume`` on the same path, whatever the policy.  Read from a
    ``CandidateBlock``, one entry per path.  The volumes are added in event
    order, as a running sum does: ``np.cumsum`` is sequential, and the
    zeros of the candidates above ``g(lambda_lower)`` leave it unchanged.
    """
    below = np.where(candidates.ys <= params.g(params.lambda_lower),
                     np.abs(marks.rhos)[candidates.marks], 0.0)
    sums = [np.cumsum(below[lo:lo + n])[-1] if n else 0.0 for lo, n in
            zip(candidates.starts.tolist(), candidates.counts.tolist())]
    return (initial_lambda - params.lambda_lower) + np.array(sums)


def _previous(events, initial_value, column):
    """Each logged row's ``column`` value before the row: the previous row's
    in the same lane, or ``initial_value`` for a lane's first row."""
    lane, value = events["lane"], events[column]
    before = np.empty_like(value)
    before[1:] = value[:-1]
    first = np.ones(lane.size, dtype=bool)
    first[1:] = lane[1:] != lane[:-1]
    before[first] = initial_value
    return before


def integrated_variance(params, marks, initial, record):
    """``integral sigma^2(lam_t) dt`` up to the halt, per lane, from a
    recorded block (``simulate_block(..., record_events=True)``).

    The liquidity is constant between a lane's logged rows.  Each row ends
    a segment that starts at the previous row, or at ``t = 0`` with the
    initial liquidity; a final segment runs from the last row to the
    horizon.  A segment counts when it has positive width and starts before
    the lane's breaker time, and it adds ``f(lam) * Isq(lam) * dt`` (see
    ``squared_impact_coefficients``).  ``np.bincount`` adds the rows of a
    lane in order, so the sum is the engine's running one.
    """
    events = record.events
    c0, c1, c2 = squared_impact_coefficients(params, marks)

    def variance(lam, t_from, t_to):
        return params.f(lam) * (c0 + lam * (c1 + lam * c2)) * (t_to - t_from)

    lane, t = events["lane"], events["t"]
    t_from = _previous(events, 0.0, "t")
    lam = _previous(events, initial.lam, "lambda")
    counted = (t > t_from) & (t_from < record.breaker_time[lane])
    sums = np.bincount(lane[counted], minlength=record.breaker_time.size,
                       weights=variance(lam[counted], t_from[counted],
                                        t[counted]))
    # the final segment, from each lane's last row (or t = 0) to the horizon
    last = np.ones(lane.size, dtype=bool)
    last[:-1] = lane[:-1] != lane[1:]
    t_last = np.zeros(sums.size)
    lam_last = np.full(sums.size, initial.lam)
    t_last[lane[last]], lam_last[lane[last]] = t[last], events["lambda"][last]
    final = (params.horizon > t_last) & (t_last < record.breaker_time)
    sums[final] += variance(lam_last[final], t_last[final], params.horizon)
    return sums


def quadratic_variation(initial, record):
    """``sum (dP)^2`` per lane, from a recorded block: the squared steps of
    the logged price, the first from the initial price.  A row of a
    trading lane can combine the price jumps of a trade and an order."""
    events = record.events
    step = events["p"] - _previous(events, initial.p, "p")
    return np.bincount(events["lane"], weights=step * step,
                       minlength=record.breaker_time.size)


def paired_mean_gain(a, b):
    """Paired mean difference and its standard error."""
    d = np.asarray(a, float) - np.asarray(b, float)
    return float(d.mean()), float(d.std(ddof=1) / math.sqrt(len(d)))


def paired_variance_gain(a, b):
    """Paired population-variance difference and a delta-method SE."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    ca = (a - a.mean()) ** 2
    cb = (b - b.mean()) ** 2
    d = ca - cb
    return (float(a.var() - b.var()),
            float(d.std(ddof=1) / math.sqrt(len(d))))


def next_impulse_walk(agent, t_from, t_to, state):
    """Reference for ``TablePolicyAgent.next_impulse``: walk the ticks.

    Starts at the earliest tick strictly after ``t_from`` and looks up the
    stored state trade at each tick in turn, stopping at the first tick not
    strictly before ``t_to`` or the first non-zero trade, which it returns
    as stored.
    """
    grid, horizon = agent.grid, agent.params.horizon
    i = int(grid.lambda_index(state.lam))
    j = int(grid.q_index(state.q))
    k = math.ceil((horizon - t_from) / grid.d_t - 1e-9) - 1
    while k >= 1:
        t_k = horizon - k * grid.d_t
        if t_k >= t_to - 1e-12:
            return None
        slice_k = grid.time_index(t_k, horizon)
        if t_k > t_from and slice_k > 0:
            trade = float(agent.policy.delta_star[slice_k, i, j])
            if trade != 0.0:
                return t_k, trade
        k -= 1
    return None


# ---------------------------------------------------------------------------
# the scalar path simulator
# ---------------------------------------------------------------------------

def _sgn(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


def clip_oracle(delta: float, lam: float, lambda_lower: float) -> float:
    """Scalar ``market_core.clip_to_liquidity``."""
    if lam - abs(delta) >= lambda_lower - _FLOOR_TOL:
        return delta
    return _sgn(delta) * max(lam - lambda_lower, 0.0)


def shock_oracle(state, gamma, eta, rho, params) -> tuple:
    """Scalar ``market_core.apply_shock_detailed``, one branch per case."""
    if eta != 0.0 and rho != 0.0:
        raise ValueError(
            f"degenerate shock: eta={eta} and rho={rho} cannot both be "
            "non-zero in one event")
    if state.halted:
        return state, 0.0, 0.0, 0.0, 0.0, 0.0

    lam0, q0, p0, x0 = state.lam, state.q, state.p, state.x
    floor = params.lambda_lower

    g_exec = clip_oracle(gamma, lam0, floor)
    lam1 = lam0 - abs(g_exec)
    pj_g = price_impact(g_exec, lam0, params)
    q1 = q0 + g_exec
    x1 = x0 - p0 * g_exec - params.zeta * abs(g_exec) \
        - impact_cost(g_exec, lam0, params)

    if lam0 - abs(gamma) < floor - _FLOOR_TOL:
        return (MarketState(lam=lam1, q=q1, p=p0 + pj_g, x=x1, halted=True),
                g_exec, 0.0, 0.0, pj_g, 0.0)

    e_exec = clip_oracle(eta, lam1, floor)
    pj_e = price_impact(e_exec, lam1, params)
    lam2 = lam1 - abs(e_exec)

    if eta != 0.0 and lam1 - abs(eta) < floor - _FLOOR_TOL:
        r_exec = 0.0
        lam3 = lam2
        halted = True
    else:
        cancel = max(-rho, 0.0)
        post = max(rho, 0.0)
        c_exec = min(cancel, max(lam2 - floor, 0.0))
        r_exec = post - c_exec
        lam3 = min(lam2 - c_exec + post, params.lambda_upper)
        halted = cancel > 0.0 and lam2 - cancel < floor - _FLOOR_TOL

    new = MarketState(lam=lam3, q=q1, p=p0 + pj_g + pj_e, x=x1, halted=halted)
    return new, g_exec, e_exec, r_exec, pj_g, pj_e


def terminal_wealth_oracle(state, params, auction_draw) -> float:
    """Scalar ``market_core.terminal_wealth``."""
    lam, q, p, x = state.lam, state.q, state.p, state.x
    exposed = max(abs(q) - max(lam - params.lambda_lower, 0.0), 0.0)
    return (x + p * q
            + params.sigma_auction * auction_draw * _sgn(q) * exposed
            - params.zeta * abs(q)
            - impact_cost(q, lam, params))


class ScalarHooks:
    """One-path view of an agent's array hooks, for the scalar simulator."""

    def __init__(self, agent):
        self.agent = agent

    @staticmethod
    def _state(state):
        return MarketState(*(np.array([v]) for v in (
            state.lam, state.q, state.p, state.x, state.halted)))

    def on_signal(self, t, state, z):
        return float(self.agent.on_signal(np.array([t]), self._state(state),
                                          np.array([z]))[0])

    def on_state(self, t, state):
        return float(self.agent.on_state(np.array([t]),
                                         self._state(state))[0])

    def next_impulse(self, t_from, t_to, state):
        t_imp, delta = self.agent.next_impulse(
            np.array([t_from]), np.array([t_to]), self._state(state))
        if not t_imp[0] < math.inf:
            return None
        return float(t_imp[0]), float(delta[0])


@dataclass(frozen=True)
class OracleRecord(PathRecord):
    """A scalar path's ``PathRecord``, with the running sums behind
    criteria 3 and 4, which the block engine leaves to ``vbar_bound``,
    ``integrated_variance`` and ``quadratic_variation``."""

    price_qv: float = 0.0             # sum of squared price jumps
    integrated_variance: float = 0.0  # integral of sigma^2(lam_t) dt to halt
    vbar_rho_sum: float = 0.0         # sum |rho(e)| over y <= g(floor)


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
    post_state: MarketState

    def log_row(self) -> tuple:
        """The event projected onto the block event log's columns after the
        lane (``order_flow.PATH_LOG_COLUMNS[1:]``): the executed trader
        trade is the signal trade plus the state-based one, as the log
        sums them."""
        st = self.post_state
        return (self.time, self.kind, self.z, self.gamma + self.delta_r,
                self.eta, self.rho, st.lam, st.q, st.p, st.x)


class _PathAccounting:
    """Mutable per-path state and accumulators for the event loop."""

    def __init__(self, params, marks, state, record) -> None:
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
        self._isq_c0, self._isq_c1, self._isq_c2 = \
            squared_impact_coefficients(params, marks)

    def advance(self, t: float) -> None:
        """Accumulate the variance integral up to time ``t``."""
        if not self.state.halted and t > self.t_seg:
            lam = self.state.lam
            isq = self._isq_c0 + lam * (self._isq_c1 + lam * self._isq_c2)
            self.integ_var += self.params.f(lam) * isq * (t - self.t_seg)
        self.t_seg = max(self.t_seg, t)

    def _shock(self, t: float, gamma: float, eta: float,
               rho: float) -> tuple:
        """Apply and book one shock at time ``t``; returns what executed.

        The result is ``(executed_gamma, executed_eta, executed_rho)``.
        """
        self.state, g_exec, e_exec, r_exec, pj_g, pj_e = \
            shock_oracle(self.state, gamma, eta, rho, self.params)
        if g_exec > 0.0:
            self.n_buy += 1
        elif g_exec < 0.0:
            self.n_sell += 1
        self.v_q += abs(g_exec)
        self.v_m += abs(e_exec)
        self.v_lminus += max(-r_exec, 0.0)
        self.qv += pj_g ** 2 + pj_e ** 2
        if self.state.halted and math.isinf(self.breaker_time):
            self.breaker_time = t
        self.min_lam = min(self.min_lam, self.state.lam)
        return g_exec, e_exec, r_exec

    def apply_trade(self, t: float, delta: float) -> None:
        """Execute a stand-alone trader trade at time ``t``."""
        self.advance(t)
        executed = self._shock(t, delta, 0.0, 0.0)[0]
        if self.record:
            self.events.append(EventRecord(
                time=t, kind="impulse", outcome="trade", z=0, mark_index=-1,
                y=math.nan, gamma=0.0, eta=0.0, rho=0.0, delta_r=executed,
                post_state=self.state))

    def apply_event(self, t: float, mark_index: int, kind: str, y: float,
                    z: int, gamma: float, eta: float, rho: float,
                    policy) -> None:
        """Execute one live candidate: signal trade, volumes, state trade."""
        self.advance(t)
        g_exec, e_exec, r_exec = self._shock(t, gamma, eta, rho)

        delta_r = 0.0
        if policy is not None and not self.state.halted:
            delta_r = float(policy.on_state(t, self.state))
            if delta_r != 0.0:
                delta_r = self._shock(t, delta_r, 0.0, 0.0)[0]

        if self.record:
            self.events.append(EventRecord(
                time=t, kind=kind, outcome="live", z=z, mark_index=mark_index,
                y=y, gamma=g_exec, eta=e_exec, rho=r_exec, delta_r=delta_r,
                post_state=self.state))

    def skip(self, t: float, mark_index: int, kind: str, y: float,
             outcome: str) -> None:
        self.advance(t)
        if self.record:
            self.events.append(EventRecord(
                time=t, kind=kind, outcome=outcome, z=0, mark_index=mark_index,
                y=y, gamma=0.0, eta=0.0, rho=0.0, delta_r=0.0,
                post_state=self.state))


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


def path_draws(params, marks, seed: int) -> tuple:
    """One path's draws, one call per coordinate in the documented order.

    Returns ``(times, mark_idx, ys, vis, auction_draw)``: the sorted event
    times, the mark indices from ``gen.choice``, the thinning and
    visibility coordinates from ``gen.uniform``, and the auction draw.
    """
    rate_bar = params.f(params.lambda_upper) + params.g(params.lambda_lower)
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, seed >> 64], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    n = int(gen.poisson(rate_bar * params.horizon))
    times = np.sort(gen.uniform(0.0, params.horizon, n))
    mark_idx = gen.choice(marks.n_marks, size=n, p=marks.nus)
    ys = gen.uniform(0.0, rate_bar, n)
    vis = gen.uniform(0.0, 1.0, n)
    return times, mark_idx, ys, vis, float(gen.standard_normal())


def draw_candidates(params, marks, seeds) -> CandidateBlock:
    """Reference packing of the paths keyed by ``seeds``, one path at a
    time from ``path_draws``."""
    draws = [path_draws(params, marks, seed) for seed in seeds]
    counts = np.array([len(d[0]) for d in draws], dtype=np.intp)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.intp)

    def packed(column: int) -> np.ndarray:
        """One coordinate of every path, end to end, and a zero of padding."""
        return np.append(np.concatenate([d[column] for d in draws]), 0)

    return CandidateBlock(
        counts=counts, starts=starts, times=packed(0), ys=packed(2),
        marks=packed(1).astype(np.min_scalar_type(marks.n_marks - 1)),
        visibility=packed(3), auction=np.array([d[4] for d in draws]))


def simulate_paths(params, marks, agent, initial, seeds) -> PathRecord:
    """The block engine on the paths keyed by ``seeds``,
    ``order_flow.BLOCK_PATHS`` at a time (read at each call), joined into
    one record of per-path arrays in seed order, zero-length for no seeds;
    it logs no events."""
    size = order_flow.BLOCK_PATHS
    blocks = [order_flow.simulate_block(
        params, marks, [agent], initial,
        order_flow.draw_candidates(params, marks, seeds[lo:lo + size]))
        for lo in range(0, max(len(seeds), 1), size)]
    return PathRecord(
        MarketState(*(np.concatenate([getattr(rec.terminal_state, f.name)
                                      for rec in blocks])
                      for f in fields(MarketState))),
        *(np.concatenate([getattr(rec, f.name) for rec in blocks])
          for f in fields(PathRecord)[1:-1]))


def simulate_path(params, marks, policy, initial, seed: int, *,
                  record_events: bool = False) -> OracleRecord:
    """Reference simulation of one path, one scalar event at a time.

    ``policy`` is an agent with array hooks (wrapped in ``ScalarHooks``)
    or ``None``.  Marks are drawn with ``gen.choice``, as before the block
    engine cached the mark CDF.  With ``record_events`` the record's
    ``events`` is the path's tuple of ``EventRecord``s, else ``None``.
    """
    if initial.lam < params.lambda_lower or initial.lam > params.lambda_upper:
        raise ValueError(
            f"initial liquidity {initial.lam} outside "
            f"[{params.lambda_lower}, {params.lambda_upper}]")
    if initial.halted:
        raise ValueError("initial state must not be halted")
    # a table agent is signaled at the probability its table was solved for
    signal_prob = getattr(policy, "signal_prob", marks.signal_prob)
    if policy is not None:
        policy = ScalarHooks(policy)

    horizon = params.horizon
    times, mark_idx, ys, vis, auction_draw = path_draws(params, marks, seed)
    n = len(times)
    # Python scalars from here on: the event loop does scalar arithmetic only
    times, mark_idx, ys, vis = (a.tolist() for a in (times, mark_idx, ys, vis))

    g_floor = params.g(params.lambda_lower)
    etas, rhos = marks.etas.tolist(), marks.rhos.tolist()
    kinds = [m.kind for m in marks.marks]
    signals = [m.signal for m in marks.marks]
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
    for t, e, yv, vis_i in zip(times, mark_idx, ys, vis):
        if yv <= g_floor:
            vbar_rho_sum += abs(rhos[e])
        _run_tick_impulses(acc, policy, t_prev, t)
        t_prev = t
        is_mo = etas[e] != 0.0
        kind = kinds[e]
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
        z = signals[e] if vis_i < signal_prob else 0
        if z != 0:
            n_signals += 1
        gamma_req = 0.0
        if z != 0 and policy is not None and t < horizon:
            gamma_req = float(policy.on_signal(t, acc.state, z))
        acc.apply_event(t, e, kind, yv, z, gamma_req,
                        etas[e] if is_mo else 0.0,
                        rhos[e] if not is_mo else 0.0, policy)

    _run_tick_impulses(acc, policy, t_prev, horizon)
    acc.advance(horizon)

    wealth = terminal_wealth_oracle(acc.state, params, auction_draw)
    return OracleRecord(
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
        min_lambda=acc.min_lam,
        events=tuple(acc.events) if record_events else None,
        price_qv=acc.qv,
        integrated_variance=acc.integ_var,
        vbar_rho_sum=vbar_rho_sum,
    )
