"""Closed-form market primitives.

The market is summarized by a scalar liquidity level ``lam`` that buffers
price impact: market orders and cancellations consume liquidity, posted
limit orders replenish it.  Price impact of a trade of signed volume
``delta`` executed against liquidity ``lam`` is the integral of a marginal
impact function ``iota`` over the consumed depth, and the cash friction of
the same trade is the integral of the impact itself.  Both integrals have
closed forms for the affine marginal impact used throughout; a quadrature
fallback handles user-supplied marginal impact functions.

A circuit breaker freezes the market when an executed liquidity-taking
volume would push ``lam`` strictly below ``lambda_lower``: the offending
volume is filled partially (down to the floor exactly) and all subsequent
activity stops until the terminal auction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "MarketParams",
    "MarketState",
    "ShockTriple",
    "ShockOutcome",
    "price_impact",
    "impact_cost",
    "arrival_rates",
    "price_volatility",
    "check_elasticity",
    "clip_to_liquidity",
    "apply_shock",
    "apply_shock_detailed",
    "terminal_wealth",
    "utility",
]

#: Absolute tolerance for liquidity-floor comparisons.  Volumes and grid
#: levels are O(1)-O(100), so 1e-9 is far below one lot and far above
#: accumulated float64 noise.
_FLOOR_TOL = 1e-9


@dataclass(frozen=True)
class MarketParams:
    """Static market and preference parameters.

    Parameters
    ----------
    theta_f, kappa_f
        Market-order arrival intensity ``f(lam) = theta_f * exp(kappa_f*lam)``.
        ``kappa_f > 0`` makes order flow self-exciting in liquidity.
    theta_g, kappa_g
        Limit-order/cancellation intensity ``g(lam) = theta_g * exp(-kappa_g*lam)``,
        decreasing in liquidity (resilience).
    theta_iota, kappa_iota
        Affine marginal price impact ``iota(lam) = theta_iota + kappa_iota*lam``,
        required to be non-negative on ``[lambda_lower, lambda_upper]``.
    zeta
        Proportional transaction cost per lot (half the quoted spread).
    sigma_auction
        Standard deviation of the terminal-auction price noise per lot.
    alpha
        Absolute risk aversion of the exponential utility; ``alpha = 0``
        selects the risk-neutral (linear utility) variant.
    lambda_lower, lambda_upper
        Liquidity floor (circuit-breaker level) and cap.
    lot_size
        Trade quantum; all trader volumes are integer multiples of it.
    horizon
        Terminal time ``T``.
    """

    theta_f: float = 20.0
    kappa_f: float = 0.01
    theta_g: float = 40.0
    kappa_g: float = 0.01
    theta_iota: float = 0.01
    kappa_iota: float = -0.0002
    zeta: float = 0.005
    sigma_auction: float = 0.3
    alpha: float = 0.1
    lambda_lower: float = -40.0
    lambda_upper: float = 40.0
    lot_size: float = 1.0
    horizon: float = 1.0

    def __post_init__(self) -> None:
        if self.theta_f < 0.0:
            raise ValueError(f"theta_f must be >= 0, got {self.theta_f}")
        if self.theta_g < 0.0:
            raise ValueError(f"theta_g must be >= 0, got {self.theta_g}")
        if self.kappa_f < 0.0:
            raise ValueError(f"kappa_f must be >= 0, got {self.kappa_f}")
        if self.kappa_g < 0.0:
            raise ValueError(f"kappa_g must be >= 0, got {self.kappa_g}")
        if self.zeta < 0.0:
            raise ValueError(f"zeta must be >= 0, got {self.zeta}")
        if self.sigma_auction < 0.0:
            raise ValueError(f"sigma_auction must be >= 0, got {self.sigma_auction}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not self.lambda_lower < self.lambda_upper:
            raise ValueError(
                "lambda_lower must be strictly below lambda_upper, got "
                f"[{self.lambda_lower}, {self.lambda_upper}]"
            )
        if self.lot_size <= 0.0:
            raise ValueError(f"lot_size must be > 0, got {self.lot_size}")
        if self.horizon < 0.0:
            raise ValueError(f"horizon must be >= 0, got {self.horizon}")
        # iota is affine, so non-negativity on the interval reduces to the
        # endpoints.
        for lam in (self.lambda_lower, self.lambda_upper):
            if self.iota(lam) < 0.0:
                raise ValueError(
                    "marginal impact iota must be non-negative on "
                    f"[{self.lambda_lower}, {self.lambda_upper}]; "
                    f"iota({lam}) = {self.iota(lam)}"
                )

    def f(self, lam):
        """Market-order intensity at liquidity ``lam`` (scalar or array)."""
        if isinstance(lam, (float, int)):
            return self.theta_f * math.exp(self.kappa_f * lam)
        return self.theta_f * np.exp(self.kappa_f * np.asarray(lam, dtype=float))

    def g(self, lam):
        """Limit-order/cancellation intensity at liquidity ``lam``."""
        if isinstance(lam, (float, int)):
            return self.theta_g * math.exp(-self.kappa_g * lam)
        return self.theta_g * np.exp(-self.kappa_g * np.asarray(lam, dtype=float))

    def iota(self, lam):
        """Marginal price impact at liquidity ``lam``."""
        if isinstance(lam, (float, int)):
            return self.theta_iota + self.kappa_iota * lam
        return self.theta_iota + self.kappa_iota * np.asarray(lam, dtype=float)


@dataclass(frozen=True)
class MarketState:
    """Instantaneous market/trader state.

    Attributes
    ----------
    lam
        Current liquidity level.
    q
        Trader inventory in lots (signed).
    p
        Current price per lot.
    x
        Trader cash.
    halted
        True once the circuit breaker has fired; the market then stays
        frozen (no trades, no external volumes) until the terminal auction.
    """

    lam: float
    q: float
    p: float
    x: float
    halted: bool = False


@dataclass(frozen=True)
class ShockTriple:
    """One event's volumes: trader trade, external market order, limit flow.

    ``gamma`` is the trader's signed trade, ``eta`` the signed volume of an
    external market order, and ``rho`` the signed limit-order-book change
    (positive = posted liquidity, negative = cancellation).  A single event
    carries either market-order volume or limit volume, never both.
    """

    gamma: float = 0.0
    eta: float = 0.0
    rho: float = 0.0

    def __post_init__(self) -> None:
        if self.eta != 0.0 and self.rho != 0.0:
            raise ValueError(
                f"degenerate shock: eta={self.eta} and rho={self.rho} cannot "
                "both be non-zero in one event"
            )


@dataclass(frozen=True)
class ShockOutcome:
    """Executed volumes and resulting state of one applied shock."""

    state: MarketState
    executed_gamma: float
    executed_eta: float
    executed_rho: float
    price_jump_gamma: float
    price_jump_eta: float
    triggered: bool


def _sgn(v: float) -> float:
    if v > 0.0:
        return 1.0
    if v < 0.0:
        return -1.0
    return 0.0


def _gauss_legendre(func, a: float, b: float, order: int = 64) -> float:
    """Fixed-order Gauss-Legendre integral of a vectorized ``func`` on [a,b]."""
    if b == a:
        return 0.0
    nodes, weights = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return float(half * np.sum(weights * func(mid + half * nodes)))


def price_impact(delta, lam, params: MarketParams,
                 iota: Optional[Callable] = None):
    """Price displacement of a trade ``delta`` executed at liquidity ``lam``.

    Equals ``sgn(delta) * integral_0^{|delta|} iota(lam - z) dz``: the trade
    walks the book, consuming depth as it goes.  With the affine marginal
    impact this is the closed quadratic form; a user-supplied ``iota``
    (vectorized callable) is integrated by fixed-order Gauss-Legendre
    quadrature instead.

    Accepts scalars or broadcastable arrays for ``delta`` and ``lam``
    (closed form only).
    """
    if iota is not None:
        d = float(delta)
        return _sgn(d) * _gauss_legendre(lambda z: iota(float(lam) - z),
                                         0.0, abs(d))
    a = np.abs(delta)
    full = (params.theta_iota + params.kappa_iota * np.asarray(lam, dtype=float)
            ) * a - 0.5 * params.kappa_iota * a * a
    out = np.sign(delta) * full
    if np.ndim(out) == 0:
        return float(out)
    return out


def impact_cost(delta, lam, params: MarketParams,
                iota: Optional[Callable] = None):
    """Cumulative impact friction ``integral_0^{|delta|} I(z, lam) dz``.

    This is the cash lost to walking the book (beyond the proportional
    cost), an even, non-negative function of ``delta`` whenever ``iota`` is
    non-negative over the traversed range.  Closed cubic form for the affine
    marginal impact; nested quadrature for a user-supplied ``iota``.
    """
    if iota is not None:
        d = abs(float(delta))
        lam_f = float(lam)

        def inner(z):
            z = np.atleast_1d(z)
            return np.array(
                [price_impact(zi, lam_f, params, iota=iota) for zi in z]
            )

        return _gauss_legendre(inner, 0.0, d)
    a = np.abs(delta)
    out = 0.5 * (params.theta_iota
                 + params.kappa_iota * np.asarray(lam, dtype=float)) * a * a \
        - params.kappa_iota * a * a * a / 6.0
    if np.ndim(out) == 0:
        return float(out)
    return out


def arrival_rates(lam, params: MarketParams):
    """Pair ``(f(lam), g(lam))`` of market-order and limit-flow intensities."""
    return params.f(lam), params.g(lam)


def price_volatility(lam, marks, params: MarketParams):
    """Instantaneous price volatility at liquidity ``lam``.

    The squared volatility is the market-order intensity times the
    mark-averaged squared impact,
    ``sigma^2(lam) = f(lam) * sum_e nu(e) * I(eta(e), lam)^2``.
    ``marks`` is any object exposing ``etas`` and ``nus`` arrays (see
    ``order_flow.MarkModel``).  Accepts scalar or array ``lam``.
    """
    lam_arr = np.asarray(lam, dtype=float)
    etas = np.asarray(marks.etas, dtype=float)
    nus = np.asarray(marks.nus, dtype=float)
    imp = price_impact(etas.reshape(-1, *([1] * lam_arr.ndim)),
                       lam_arr[None, ...], params)
    var = params.f(lam_arr) * np.sum(nus.reshape(-1, *([1] * lam_arr.ndim))
                                     * np.square(imp), axis=0)
    out = np.sqrt(var)
    if np.ndim(lam) == 0:
        return float(out)
    return out


def check_elasticity(params: MarketParams, marks,
                     lambda_grid: Sequence[float]) -> np.ndarray:
    """Verify the volatility-elasticity condition pointwise on a grid.

    At each ``lam`` the condition is ``0 < r(lam) < 1`` with
    ``r = (f'/f) / (-d/dlam log Isq)`` where ``Isq(lam)`` is the
    mark-averaged squared impact ``sum_e nu(e) I(eta(e), lam)^2``.  It makes
    the squared-impact decay dominate the intensity growth, so the price
    volatility ``sigma(lam)`` is strictly decreasing in liquidity.

    ``f'/f`` is ``kappa_f`` exactly; the logarithmic derivative of ``Isq``
    is formed by a central difference with step ``1e-4``.  Returns a boolean
    verdict per grid point.  Raises ``ValueError`` if ``Isq`` vanishes at
    any probed point (the ratio is undefined there); a zero or negative
    denominator (e.g. ``kappa_iota = 0``) yields a ``False`` verdict, as
    does ``kappa_f = 0``.
    """
    etas = np.asarray(marks.etas, dtype=float)
    nus = np.asarray(marks.nus, dtype=float)

    def isq(lam_pts):
        imp = price_impact(etas[:, None], np.asarray(lam_pts, float)[None, :],
                           params)
        return np.sum(nus[:, None] * np.square(imp), axis=0)

    grid = np.asarray(lambda_grid, dtype=float)
    h = 1e-4
    center = isq(grid)
    if np.any(center <= 0.0):
        bad = grid[np.asarray(center <= 0.0)][0]
        raise ValueError(
            f"mark-averaged squared impact vanishes at lam={bad}; "
            "elasticity is undefined for an impact-free mark model"
        )
    hi = isq(grid + h)
    lo = isq(grid - h)
    if np.any(hi <= 0.0) or np.any(lo <= 0.0):
        raise ValueError("squared impact vanishes inside the difference stencil")
    dlog = (hi - lo) / (2.0 * h) / center
    denom = -dlog
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom > 0.0, params.kappa_f / denom, np.inf)
    return (denom > 0.0) & (ratio > 0.0) & (ratio < 1.0)


def clip_to_liquidity(delta: float, lam: float, lambda_lower: float) -> float:
    """Largest partial execution of ``delta`` that keeps ``lam`` above floor.

    Returns ``delta`` unchanged when ``lam - |delta| >= lambda_lower``;
    otherwise the same-signed volume that depletes liquidity to exactly
    ``lambda_lower`` (zero if liquidity is already at or below the floor).
    """
    if lam - abs(delta) >= lambda_lower - _FLOOR_TOL:
        return delta
    return _sgn(delta) * max(lam - lambda_lower, 0.0)


def apply_shock_detailed(state: MarketState, shock: ShockTriple,
                         params: MarketParams,
                         breaker: bool = True) -> ShockOutcome:
    """Apply one event's volumes to the state, reporting executions.

    Sequencing within the event: the trader's trade ``gamma`` executes
    first, then the external market-order volume ``eta`` against the
    post-trade liquidity, then the limit flow ``rho``.  With
    ``breaker=True`` every liquidity-taking volume is clipped at the floor
    (``clip_to_liquidity``); an *unclipped* volume that would push
    liquidity strictly below the floor triggers the halt, in which case the
    trader's partial fill still executes but the same event's external
    volumes are suppressed, and the returned state is frozen at the floor.
    With ``breaker=False`` volumes execute in full with no floor.

    Cash and price update with the executed volumes: the trader pays the
    pre-event price, the proportional cost and the impact friction; the
    price moves by the impact of the trader's fill plus that of the
    external market order against the reduced book.
    """
    if state.halted and breaker:
        return ShockOutcome(state, 0.0, 0.0, 0.0, 0.0, 0.0, False)

    lam0, q0, p0, x0 = state.lam, state.q, state.p, state.x
    floor = params.lambda_lower
    gamma, eta, rho = shock.gamma, shock.eta, shock.rho

    if not breaker:
        pj_g = price_impact(gamma, lam0, params)
        pj_e = price_impact(eta, lam0 - abs(gamma), params)
        new = MarketState(
            lam=lam0 - abs(gamma) - abs(eta) + rho,
            q=q0 + gamma,
            p=p0 + pj_g + pj_e,
            x=x0 - p0 * gamma - params.zeta * abs(gamma)
            - impact_cost(gamma, lam0, params),
            halted=state.halted,
        )
        return ShockOutcome(new, gamma, eta, rho, pj_g, pj_e, False)

    g_exec = clip_to_liquidity(gamma, lam0, floor)
    trader_trig = lam0 - abs(gamma) < floor - _FLOOR_TOL
    lam1 = lam0 - abs(g_exec)
    pj_g = price_impact(g_exec, lam0, params)
    q1 = q0 + g_exec
    x1 = x0 - p0 * g_exec - params.zeta * abs(g_exec) \
        - impact_cost(g_exec, lam0, params)

    if trader_trig:
        return ShockOutcome(
            MarketState(lam=lam1, q=q1, p=p0 + pj_g, x=x1, halted=True),
            g_exec, 0.0, 0.0, pj_g, 0.0, True,
        )

    e_exec = clip_to_liquidity(eta, lam1, floor)
    mo_trig = eta != 0.0 and lam1 - abs(eta) < floor - _FLOOR_TOL
    pj_e = price_impact(e_exec, lam1, params)
    lam2 = lam1 - abs(e_exec)

    cancel = max(-rho, 0.0)
    post = max(rho, 0.0)
    if mo_trig:
        r_exec = 0.0
        lam3 = lam2
        triggered = True
    else:
        c_exec = min(cancel, max(lam2 - floor, 0.0))
        cancel_trig = cancel > 0.0 and lam2 - cancel < floor - _FLOOR_TOL
        r_exec = post - c_exec
        lam3 = lam2 - c_exec + post
        triggered = cancel_trig

    new = MarketState(lam=lam3, q=q1, p=p0 + pj_g + pj_e, x=x1,
                      halted=triggered)
    return ShockOutcome(new, g_exec, e_exec, r_exec, pj_g, pj_e, triggered)


def apply_shock(state: MarketState, shock: ShockTriple, params: MarketParams,
                breaker: bool = True) -> MarketState:
    """State after one event (see ``apply_shock_detailed`` for sequencing)."""
    return apply_shock_detailed(state, shock, params, breaker=breaker).state


def terminal_wealth(state: MarketState, params: MarketParams,
                    auction_draw: float) -> float:
    """Cash after liquidating the terminal inventory at time ``T``.

    The inventory ``q`` is marked at the current price; the part of ``|q|``
    not covered by available liquidity above the floor clears in an auction
    whose price deviates by ``sigma_auction * auction_draw`` per lot in the
    adverse-exposure direction ``sgn(q)``.  The usual proportional cost and
    impact friction apply to the full liquidation.
    """
    lam, q, p, x = state.lam, state.q, state.p, state.x
    exposed = max(abs(q) - max(lam - params.lambda_lower, 0.0), 0.0)
    return (x + p * q
            + params.sigma_auction * auction_draw * _sgn(q) * exposed
            - params.zeta * abs(q)
            - impact_cost(q, lam, params))


def utility(x, alpha: float):
    """Exponential utility ``-exp(-alpha*x)`` (``alpha>0``) or linear (``alpha=0``)."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0.0:
        out = np.asarray(x, dtype=float)
        return float(out) if np.ndim(x) == 0 else out
    out = -np.exp(-alpha * np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out
