"""Independent numerical oracles backing the test-suite.

Everything here is computed from first principles — Gauss-Legendre
quadrature of the marginal impact, brute-force enumeration of the product
mark space, exhaustive dynamic programming over block-trade sequences —
without touching the closed forms or kernels under test.
"""

import math

import numpy as np

from artifact.market_core import clip_to_liquidity

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
    event's own volume does not execute and the value continues at the
    trade's raw post-trade liquidity.  Otherwise a market order executes up
    to the floor and moves the price by its own impact too.  Continuation
    values are interpolated linearly in liquidity, clamped to the grid.

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
    strictly before ``t_to`` or the first non-zero trade.
    """
    grid, horizon = agent.grid, agent.params.horizon
    i = grid.lambda_index(state.lam)
    j = grid.q_index(state.q)
    k = math.ceil((horizon - t_from) / grid.d_t - 1e-9) - 1
    while k >= 1:
        t_k = horizon - k * grid.d_t
        if t_k >= t_to - 1e-12:
            return None
        slice_k = grid.time_index(t_k, horizon)
        if t_k > t_from and slice_k > 0:
            trade = float(agent.policy.delta_star[slice_k, i, j])
            if trade != 0.0:
                return t_k, clip_to_liquidity(trade, state.lam,
                                              agent.params.lambda_lower)
        k -= 1
    return None
