"""Closed-form market primitives.

The market is summarized by a scalar liquidity level ``lam`` that buffers
price impact: market orders and cancellations consume liquidity, posted
limit orders replenish it.  Price impact of a trade of signed volume
``delta`` executed against liquidity ``lam`` is the integral of a marginal
impact function ``iota`` over the consumed depth, and the cash friction of
the same trade is the integral of the impact itself.  Both integrals have
closed forms for the affine marginal impact used throughout.

Liquidity lives on the band ``[lambda_lower, lambda_upper]``, and
``apply_shock_detailed`` enforces both ends.  At the floor a circuit breaker
freezes the market when an executed liquidity-taking volume would push
``lam`` strictly below ``lambda_lower``: the offending volume is filled
partially (down to the floor exactly) and all subsequent activity stops
until the terminal auction.  At the cap, posted liquidity beyond
``lambda_upper`` is discarded.

This module is the one home of the floor rule (``overshoots``,
``clip_to_liquidity``), the auction exposure and the impact closed forms;
the simulator and the solver (``hjb``) both call them.  Everything works
elementwise on arrays; scalars take the same path and give ``np.float64``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MarketParams",
    "MarketState",
    "price_impact",
    "impact_cost",
    "squared_impact_coefficients",
    "check_elasticity",
    "overshoots",
    "clip_to_liquidity",
    "apply_shock_detailed",
    "auction_exposure",
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
        return self.theta_iota + self.kappa_iota * np.asarray(lam, dtype=float)


@dataclass(frozen=True)
class MarketState:
    """Instantaneous market/trader state.

    The fields are scalars for one path, or equal-length arrays with one
    entry per path for a block of paths (see ``order_flow.simulate_block``).

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


def price_impact(delta, lam, params: MarketParams):
    """Price displacement of a trade ``delta`` executed at liquidity ``lam``.

    Equals ``sgn(delta) * integral_0^{|delta|} iota(lam - z) dz``: the trade
    walks the book, consuming depth as it goes.  With the affine marginal
    impact this is the closed quadratic form.

    Accepts scalars or broadcastable arrays for ``delta`` and ``lam``.
    """
    a = np.abs(delta)
    full = (params.theta_iota + params.kappa_iota * np.asarray(lam, dtype=float)
            ) * a - 0.5 * params.kappa_iota * a * a
    return np.sign(delta) * full


def impact_cost(delta, lam, params: MarketParams):
    """Cumulative impact friction ``integral_0^{|delta|} I(z, lam) dz``.

    This is the cash lost to walking the book (beyond the proportional
    cost), an even, non-negative function of ``delta`` whenever ``iota`` is
    non-negative over the traversed range.  Closed cubic form for the affine
    marginal impact.
    """
    a = np.abs(delta)
    return 0.5 * (params.theta_iota
                  + params.kappa_iota * np.asarray(lam, dtype=float)) * a * a \
        - params.kappa_iota * a * a * a / 6.0


@functools.lru_cache(maxsize=64)
def squared_impact_coefficients(params: MarketParams, marks):
    """Coefficients ``(c0, c1, c2)`` of the mark-averaged squared impact.

    ``Isq(lam) = sum_e nu(e) * I(eta(e), lam)^2`` is quadratic in ``lam``
    because the impact of a fixed volume is affine in ``lam``:
    ``Isq(lam) = c0 + lam * (c1 + lam * c2)``.  ``marks`` is a hashable
    object exposing ``etas`` and ``nus`` arrays (see
    ``order_flow.MarkModel``); the result is cached per ``(params, marks)``.
    """
    a = np.abs(marks.etas)
    b = params.theta_iota * a - 0.5 * params.kappa_iota * a * a
    m = params.kappa_iota * a
    nus = marks.nus
    return (float(np.sum(nus * b * b)), float(np.sum(nus * 2.0 * b * m)),
            float(np.sum(nus * m * m)))


def check_elasticity(params: MarketParams, marks,
                     lambda_grid: Sequence[float]) -> np.ndarray:
    """Verify the volatility-elasticity condition pointwise on a grid.

    At each ``lam`` the condition is ``0 < r(lam) < 1`` with
    ``r = (f'/f) / (-d/dlam log Isq)`` where ``Isq(lam)`` is the
    mark-averaged squared impact ``sum_e nu(e) I(eta(e), lam)^2``.  It makes
    the squared-impact decay dominate the intensity growth, so the price
    volatility ``sigma(lam)`` is strictly decreasing in liquidity.

    ``f'/f`` is ``kappa_f`` and the logarithmic derivative of the quadratic
    ``Isq`` is ``(c1 + 2 c2 lam) / Isq``, both exact.  Returns a boolean
    verdict per grid point.  Raises ``ValueError`` if ``Isq`` vanishes at
    any grid point (the ratio is undefined there); a zero or negative
    denominator (e.g. ``kappa_iota = 0``) yields a ``False`` verdict, as
    does ``kappa_f = 0``.
    """
    c0, c1, c2 = squared_impact_coefficients(params, marks)
    grid = np.asarray(lambda_grid, dtype=float)
    isq = c0 + grid * (c1 + grid * c2)
    if np.any(isq <= 0.0):
        bad = grid[isq <= 0.0][0]
        raise ValueError(
            f"mark-averaged squared impact vanishes at lam={bad}; "
            "elasticity is undefined for an impact-free mark model"
        )
    denom = -(c1 + 2.0 * c2 * grid) / isq
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom > 0.0, params.kappa_f / denom, np.inf)
    return (denom > 0.0) & (ratio > 0.0) & (ratio < 1.0)


def _max0(v):
    """Elementwise ``max(v, 0.0)`` with Python's tie rule (``v`` on ties)."""
    return np.where(v < 0.0, 0.0, v)


def overshoots(lam, volume, lambda_lower: float):
    """Whether taking ``volume`` (>= 0) from ``lam`` leaves liquidity
    below the floor (by more than ``_FLOOR_TOL``): such a raw volume is
    filled partially (``clip_to_liquidity``) and halts the market."""
    return np.subtract(lam, volume) < lambda_lower - _FLOOR_TOL


def clip_to_liquidity(delta, lam, lambda_lower: float):
    """Largest partial execution of ``delta`` that keeps ``lam`` above floor.

    Returns ``delta`` unchanged unless it ``overshoots`` the floor;
    otherwise the same-signed volume that depletes liquidity to exactly
    ``lambda_lower`` (zero if liquidity is already at or below the floor).
    Elementwise over scalars or broadcastable arrays.
    """
    headroom = _max0(np.subtract(lam, lambda_lower))
    return np.where(overshoots(lam, np.abs(delta), lambda_lower),
                    np.sign(delta) * headroom, delta)


def apply_shock_detailed(state: MarketState, gamma, eta, rho,
                         params: MarketParams) -> tuple:
    """Apply one event's volumes to the state, reporting executions.

    ``gamma`` is the trader's signed trade, ``eta`` the signed volume of an
    external market order and ``rho`` the signed limit-order-book change
    (positive = posted liquidity, negative = cancellation); one event
    carries market-order volume or limit volume, never both.  Returns
    ``(state, executed_gamma, executed_eta, executed_rho, price_jump_gamma,
    price_jump_eta)``; a halted state is returned unchanged with nothing
    executed.  Elementwise: the state's fields and the volumes may be
    arrays over a block of paths (or scalars), and every path follows the
    rules below on its own.

    Sequencing within the event: the trader's trade ``gamma`` executes
    first, then the external market-order volume ``eta`` against the
    post-trade liquidity, then the limit flow ``rho``.  Every
    liquidity-taking volume is clipped at the floor
    (``clip_to_liquidity``); an *unclipped* volume that would push
    liquidity strictly below the floor triggers the halt, in which case the
    trader's partial fill still executes but the same event's external
    volumes are suppressed, and the returned state is frozen at the floor.
    Posts still execute in full, but liquidity stops at the cap.

    Cash and price update with the executed volumes: the trader pays the
    pre-event price, the proportional cost and the impact friction; the
    price moves by the impact of the trader's fill plus that of the
    external market order against the reduced book.
    """
    if np.any((np.asarray(eta) != 0.0) & (np.asarray(rho) != 0.0)):
        raise ValueError(
            f"degenerate shock: eta={eta} and rho={rho} cannot both be "
            "non-zero in one event")
    lam0, q0, p0, x0 = state.lam, state.q, state.p, state.x
    floor = params.lambda_lower

    g_exec = clip_to_liquidity(gamma, lam0, floor)
    lam1 = lam0 - np.abs(g_exec)
    pj_g = price_impact(g_exec, lam0, params)
    q1 = q0 + g_exec
    x1 = x0 - p0 * g_exec - params.zeta * np.abs(g_exec) \
        - impact_cost(g_exec, lam0, params)
    # the trader's unclipped trade overshoots: the event's volumes are
    # suppressed and the market freezes after the partial fill
    halt_g = overshoots(lam0, np.abs(gamma), floor)

    e_exec = np.where(halt_g, 0.0, clip_to_liquidity(eta, lam1, floor))
    pj_e = np.where(halt_g, 0.0, price_impact(e_exec, lam1, params))
    lam2 = lam1 - np.abs(e_exec)
    halt_e = ~halt_g & (np.asarray(eta) != 0.0) \
        & overshoots(lam1, np.abs(eta), floor)

    cancel = _max0(np.negative(rho))
    post = _max0(rho)
    room = _max0(lam2 - floor)
    c_exec = np.where(room < cancel, room, cancel)
    lam3 = lam2 - c_exec + post
    lam3 = np.where(params.lambda_upper < lam3, params.lambda_upper, lam3)
    halt_c = (cancel > 0.0) & overshoots(lam2, cancel, floor)

    r_exec = np.where(halt_g | halt_e, 0.0, post - c_exec)
    lam = np.where(halt_g, lam1, np.where(halt_e, lam2, lam3))
    p = np.where(halt_g, p0 + pj_g, p0 + pj_g + pj_e)
    was = state.halted
    if not np.any(was):
        new = MarketState(lam=lam, q=q1, p=p, x=x1,
                          halted=halt_g | halt_e | halt_c)
        return new, g_exec, e_exec, r_exec, pj_g, pj_e
    new = MarketState(lam=np.where(was, lam0, lam), q=np.where(was, q0, q1),
                      p=np.where(was, p0, p), x=np.where(was, x0, x1),
                      halted=was | halt_g | halt_e | halt_c)
    return (new,) + tuple(np.where(was, 0.0, v)
                          for v in (g_exec, e_exec, r_exec, pj_g, pj_e))


def auction_exposure(q, lam, lambda_lower: float):
    """Lots of the terminal inventory ``q`` that clear in the auction: the
    part of ``|q|`` not covered by the liquidity above the floor."""
    return _max0(np.abs(q) - _max0(np.subtract(lam, lambda_lower)))


def terminal_wealth(state: MarketState, params: MarketParams, auction_draw):
    """Cash after liquidating the terminal inventory at time ``T``.

    The inventory ``q`` is marked at the current price; the
    ``auction_exposure`` clears in an auction whose price deviates by
    ``sigma_auction * auction_draw`` per lot in the adverse-exposure
    direction ``sgn(q)``.  The usual proportional cost and impact friction
    apply to the full liquidation.  Elementwise over scalars or arrays.
    """
    lam, q, p, x = state.lam, state.q, state.p, state.x
    exposed = auction_exposure(q, lam, params.lambda_lower)
    return (x + p * q
            + params.sigma_auction * auction_draw * np.sign(q) * exposed
            - params.zeta * np.abs(q)
            - impact_cost(q, lam, params))


def utility(x, alpha: float):
    """Exponential utility ``-exp(-alpha*x)`` (``alpha>0``) or linear (``alpha=0``)."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    x = np.asarray(x, dtype=float)
    return x[()] if alpha == 0.0 else -np.exp(-alpha * x)
