"""Finite-difference solver for the signal-trading control problem.

The value of exponential utility of terminal wealth factorizes as
``v(t, lam, q, p, x) = w(t, lam, q) * |U_alpha(x + p*q)|`` (additively,
``v = w + x + p*q``, in the risk-neutral case), reducing the problem to a
function ``w`` on a (time-to-go, liquidity, inventory) grid.  ``w`` is
computed by an explicit scheme walking backward from the terminal
condition: each step applies the event generator (every mark, weighted by
its thinned intensity, with the trader's best signal-response trade inside
the visible branches) and then an impulse comparison allowing a state-based
block trade.  Liquidity values below the floor are represented by a single
frozen row one step below the floor, which the scheme never updates: it is
the halted market.

Grids are regular; trades live on the inventory lattice; liquidity
arguments falling between nodes are linearly interpolated, clamped at the
cap and floored at the frozen row.

The kernels precompute every gather of a step on one stacked
``(trade, row, q)`` layout, trades in the scan order ``0, -1, +1, -2, +2,
...``: per mark, the flat indices of the interpolation rows and their
multipliers, with intensity, branch weight and utility jump folded in.  A
step loops over marks only, adding each mark's lower-row, upper-row and (for
``alpha = 0``) additive terms in mark order, so every node's float sum is
formed in the same order whatever the layout.  The best trade per node is
the first maximum over the trade axis, so a later trade in scan order
replaces an earlier one only when strictly better.  The scheme stays
monotone with positive coefficients under the stability bound, which is
what its convergence rests on (Barles and Souganidis, 1991).
"""

from __future__ import annotations

import io
import json
import math
import warnings
import zipfile
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from . import SCHEMA_VERSION
from .market_core import MarketParams, _sgn, impact_cost, price_impact
from .order_flow import MarkModel

__all__ = [
    "SIGNALS",
    "Grid",
    "StabilityError",
    "ValueSurface",
    "Policy",
    "terminal_condition",
    "transport_step",
    "impulse_step",
    "solve",
    "solver_inputs",
    "interpolate_lambda",
    "certainty_equivalent",
    "save_solution",
    "load_solution",
]

_TOL = 1e-9

#: Signal values in the order of the last axis of ``Policy.gamma_star``.
SIGNALS = (-1, 1)


class StabilityError(RuntimeError):
    """Raised when the explicit time step violates the stability bound."""


def _integer_multiple(span: float, step: float, what: str) -> int:
    n = round(span / step)
    if abs(n * step - span) > _TOL * max(1.0, abs(span)):
        raise ValueError(f"{what} ({span}) must be an integer multiple of "
                         f"its step ({step})")
    return int(n)


@dataclass(frozen=True)
class Grid:
    """Regular solver grid.

    Liquidity nodes run from one step below the floor (the frozen,
    breaker-halted row) up to the cap; inventory nodes from ``q_min`` to
    ``q_max`` in lot steps; time slices are indexed by time-to-go, slice
    ``k`` sitting ``k * d_t`` before the horizon (slice 0 is terminal).
    """

    d_t: float
    d_lambda: float
    d_q: float
    lambda_lower: float
    lambda_upper: float
    q_min: float
    q_max: float
    horizon: float

    def __post_init__(self) -> None:
        for name in ("d_t", "d_lambda", "d_q"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")
        if not self.lambda_lower < self.lambda_upper:
            raise ValueError("lambda_lower must be strictly below lambda_upper")
        if self.q_min > self.q_max:
            raise ValueError("q_min must not exceed q_max")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be > 0")
        n_lam_span = _integer_multiple(self.lambda_upper - self.lambda_lower,
                                       self.d_lambda, "liquidity span")
        n_q_span = _integer_multiple(self.q_max - self.q_min, self.d_q,
                                     "inventory span")
        n_steps = _integer_multiple(self.horizon, self.d_t, "horizon")
        lam_values = (self.lambda_lower - self.d_lambda
                      + self.d_lambda * np.arange(n_lam_span + 2))
        q_values = self.q_min + self.d_q * np.arange(n_q_span + 1)
        object.__setattr__(self, "_lam_values", lam_values)
        object.__setattr__(self, "_q_values", q_values)
        object.__setattr__(self, "_n_steps", n_steps)
        # a Python float, so the simulator's per-event lookups stay scalar
        object.__setattr__(self, "_lam_origin", float(lam_values[0]))

    @classmethod
    def from_params(cls, params: MarketParams, d_t: float, d_lambda: float,
                    q_min: float, q_max: float) -> "Grid":
        return cls(d_t=d_t, d_lambda=d_lambda, d_q=params.lot_size,
                   lambda_lower=params.lambda_lower,
                   lambda_upper=params.lambda_upper,
                   q_min=q_min, q_max=q_max, horizon=params.horizon)

    @property
    def lam_values(self) -> np.ndarray:
        """Liquidity nodes; index 0 is the frozen (halted) row."""
        return self._lam_values

    @property
    def q_values(self) -> np.ndarray:
        return self._q_values

    @property
    def n_lambda(self) -> int:
        return len(self._lam_values)

    @property
    def n_q(self) -> int:
        return len(self._q_values)

    @property
    def n_steps(self) -> int:
        return self._n_steps

    @property
    def time_to_go(self) -> np.ndarray:
        return self.d_t * np.arange(self._n_steps + 1)

    def lambda_index(self, lam: float) -> int:
        """Nearest liquidity node index (never the frozen row)."""
        i = round((lam - self._lam_origin) / self.d_lambda)
        return int(min(max(i, 1), len(self._lam_values) - 1))

    def q_index(self, q: float) -> int:
        i = round((q - self.q_min) / self.d_q)
        return int(min(max(i, 0), len(self._q_values) - 1))

    def time_index(self, t: float, horizon: float) -> int:
        """Nearest time-to-go slice for wall-clock time ``t``."""
        k = round((horizon - t) / self.d_t)
        return int(min(max(k, 0), self._n_steps))


@dataclass
class ValueSurface:
    """Solved reduced value ``w`` on the grid.

    ``values[k, i, j]`` is ``w`` at time-to-go ``k*d_t``, liquidity node
    ``i`` (0 = frozen row) and inventory node ``j``.  For ``alpha > 0`` all
    values are negative and the full value at a state is
    ``values * -exp(-alpha*(x + p*q))``; for ``alpha = 0`` it is
    ``values + x + p*q``.
    """

    grid: Grid
    values: np.ndarray
    alpha: float
    meta: dict

    def start_value(self, lam: float, q: float) -> float:
        """``w`` at the full horizon for an off-grid liquidity level."""
        slice_t = self.values[self.grid.n_steps]
        col = interpolate_lambda(slice_t, lam, self.grid)
        return float(col[self.grid.q_index(q)])


@dataclass
class Policy:
    """Optimal trades tabulated on the grid.

    ``gamma_star[k, i, j, s]`` is the signal-response trade at time-to-go
    ``k*d_t``, liquidity node ``i``, inventory node ``j``, for signal
    ``z = SIGNALS[s]``.  ``delta_star[k, i, j]``
    is the state-based block trade (0 = none).  Stored trades are the
    unclipped lattice volumes; execution clips them at the liquidity floor.
    """

    grid: Grid
    gamma_star: np.ndarray
    delta_star: np.ndarray
    meta: dict


def terminal_condition(lam: float, q: float, params: MarketParams) -> float:
    """Reduced terminal value ``w`` at liquidity ``lam`` and inventory ``q``.

    Liquidating ``q`` costs the proportional fee plus impact friction; the
    part of ``|q|`` beyond the liquidity available above the floor clears at
    the Gaussian auction price, whose certainty-equivalent penalty is
    ``exp(alpha^2*sigma^2*s^2/2)`` on the utility scale.  ``lam`` below the
    floor denotes the halted market: friction is evaluated at the floor and
    the whole inventory is auction-exposed.
    """
    alpha = params.alpha
    if lam >= params.lambda_lower:
        lam_eff = lam
        exposed = max(abs(q) - (lam - params.lambda_lower), 0.0)
    else:
        lam_eff = params.lambda_lower
        exposed = abs(q)
    cost = params.zeta * abs(q) + impact_cost(q, lam_eff, params)
    if alpha == 0.0:
        return -cost
    return -math.exp(alpha * cost
                     + 0.5 * alpha * alpha
                     * params.sigma_auction * params.sigma_auction
                     * exposed * exposed)


def _terminal_slice(grid: Grid, params: MarketParams) -> np.ndarray:
    out = np.empty((grid.n_lambda, grid.n_q))
    for i, lam in enumerate(grid.lam_values):
        for j, q in enumerate(grid.q_values):
            out[i, j] = terminal_condition(float(lam), float(q), params)
    return out


def interpolate_lambda(w_slice: np.ndarray, lam: float, grid: Grid):
    """Linear interpolation of a value slice in the liquidity coordinate.

    ``w_slice`` has the liquidity axis first (shape ``(n_lambda,)`` or
    ``(n_lambda, n_q)``).  Arguments above the cap are clamped with a
    warning; arguments below the frozen row are an error.  Exact on nodes.
    """
    base = float(grid.lam_values[0])
    top = float(grid.lam_values[-1])
    if lam < base - _TOL:
        raise ValueError(f"liquidity {lam} below the frozen row {base}")
    if lam > top + _TOL:
        warnings.warn(f"liquidity {lam} above the cap {top}; clamping",
                      stacklevel=2)
    (lo,), (hi,), (frac,) = _lambda_gather(grid, np.array([lam]))
    if frac == 0.0:
        return w_slice[lo].copy() if w_slice.ndim > 1 else float(w_slice[lo])
    out = (1.0 - frac) * w_slice[lo] + frac * w_slice[hi]
    return out if w_slice.ndim > 1 else float(out)


def certainty_equivalent(w_with, w_without, alpha: float):
    """Cash value of the signal: ``-(1/alpha) * log(w_with / w_without)``.

    Both arguments are (arrays of) reduced values of the *same* state under
    two information regimes; they must be negative and ``alpha`` positive.
    """
    if alpha <= 0.0:
        raise ValueError("certainty equivalent requires alpha > 0")
    w1 = np.asarray(w_with, dtype=float)
    w0 = np.asarray(w_without, dtype=float)
    if np.any(w1 >= 0.0) or np.any(w0 >= 0.0):
        raise ValueError("reduced values must be negative for alpha > 0")
    out = -np.log(w1 / w0) / alpha
    if np.ndim(w_with) == 0 and np.ndim(w_without) == 0:
        return float(out)
    return out


def _scan_trades(grid: Grid) -> np.ndarray:
    """Lattice trades in lots, in scan order ``0, -1, +1, -2, +2, ...``."""
    k = np.arange(1, grid.n_q)
    return np.concatenate(([0], np.column_stack((-k, k)).ravel()))


def _trade_geometry(grid: Grid, n: np.ndarray):
    """Per-(trade, live row) geometry of the lattice trades ``n * d_q``.

    Returns admissibility, whether the raw trade overshoots the floor
    (halting the market), the executed volume after floor clipping, the
    executed inventory shift in nodes and the raw post-trade liquidity, each
    of shape ``(len(n), n_lambda - 1)``.
    """
    lam = grid.lam_values[1:]
    floor = grid.lambda_lower
    gamma_raw = (n * grid.d_q)[:, None]
    lam_after_raw = lam - np.abs(gamma_raw)
    ok = lam_after_raw >= grid.lam_values[0] - _TOL
    trig = ok & (lam_after_raw < floor - _TOL)
    gamma_exec = np.where(trig, np.sign(gamma_raw) * (lam - floor), gamma_raw)
    shift = np.round(gamma_exec / grid.d_q).astype(np.int64)
    ok &= np.abs(shift * grid.d_q - gamma_exec) <= _TOL
    return ok, trig, gamma_exec, shift, lam_after_raw


def _lambda_gather(grid: Grid, lam_target: np.ndarray):
    """Row indices and upper interpolation weight for liquidity values."""
    base = float(grid.lam_values[0])
    top = float(grid.lam_values[-1])
    pos = (np.clip(lam_target, base, top) - base) / grid.d_lambda
    lo = np.floor(pos + _TOL).astype(np.int64)
    lo = np.clip(lo, 0, grid.n_lambda - 1)
    frac = pos - lo
    frac[frac <= _TOL] = 0.0
    hi = np.minimum(lo + 1, grid.n_lambda - 1)
    return lo, hi, frac


def _shifted_cols(grid: Grid, shift: np.ndarray):
    """Inventory columns ``j + shift``, clamped, and whether they are on grid.

    ``shift`` has shape ``(trade, row)``; both results ``(trade, row, q)``.
    """
    cols = np.arange(grid.n_q) + shift[..., None]
    on_grid = (cols >= 0) & (cols <= grid.n_q - 1)
    return np.clip(cols, 0, grid.n_q - 1), on_grid


def _jump_grid(grid: Grid, params: MarketParams, gamma_exec: np.ndarray,
               impact_sum: np.ndarray) -> np.ndarray:
    """Trader wealth jump ``-zeta|g| - Xi(g,lam) + impact*(q+g)`` per node."""
    lam = grid.lam_values[1:]
    a_part = (-params.zeta * np.abs(gamma_exec)
              - impact_cost(gamma_exec, lam, params))
    return a_part[..., None] + impact_sum[..., None] * (
        grid.q_values + gamma_exec[..., None])


class _Gather:
    """Gather-multiply slabs of the scheme on the ``(trade, row, q)`` layout.

    Each added mark contributes ``w[lo] * m_lo + w[hi] * m_hi (+ add)``:
    linear interpolation between the rows around the post-event liquidity,
    with intensities, branch weights and (for ``alpha > 0``) the utility
    jump factor folded into the multipliers.  The upper slab is kept only
    when the mark's interpolation weights are not all zero, and the additive
    slab only for ``alpha = 0``.
    """

    def __init__(self, grid: Grid, alpha: float, shape: tuple):
        self.grid = grid
        self.alpha = alpha
        self.shape = shape
        self.slabs = []

    def add(self, lam_next, cols, base, jump) -> None:
        """Add a mark landing at ``(lam_next, cols)`` with weight ``base``."""
        lo, hi, frac = _lambda_gather(self.grid, lam_next)
        n_q = self.grid.n_q
        if self.alpha > 0.0:
            factor, add = base * np.exp(-self.alpha * jump), None
        else:
            factor, add = base, base * jump
        upper = None
        if frac.any():
            upper = (hi[..., None] * n_q + cols, factor * frac[..., None])
        self.slabs.append((lo[..., None] * n_q + cols,
                           factor * (1.0 - frac)[..., None], upper, add))

    def apply(self, w_flat: np.ndarray) -> np.ndarray:
        """Sum of the marks' terms, accumulated mark by mark in mark order."""
        out = np.zeros(self.shape)
        for idx_lo, m_lo, upper, add in self.slabs:
            out += np.take(w_flat, idx_lo) * m_lo
            if upper is not None:
                out += np.take(w_flat, upper[0]) * upper[1]
            if add is not None:
                out += add
        return out


def _best_trade(values: np.ndarray, valid: np.ndarray, trades: np.ndarray):
    """Best admissible candidate per node over the leading trade axis.

    ``np.argmax`` keeps the first maximum, so on the scan-ordered axis a
    later trade wins only when it is strictly better.  Returns the best
    value and its trade.
    """
    values = np.where(valid, values, -np.inf)
    arg = np.argmax(values, axis=0)
    return np.take_along_axis(values, arg[None], axis=0)[0], trades[arg]


class _TransportKernels:
    """Precomputed generator terms for one (grid, params, marks) triple."""

    def __init__(self, grid: Grid, params: MarketParams, marks: MarkModel):
        self.grid = grid
        lam = grid.lam_values[1:]
        p_hat = marks.signal_prob
        f_lam = params.f(lam)
        g_lam = params.g(lam)
        floor = grid.lambda_lower

        # total thinned intensity per liquidity row (the -w coefficient)
        lam_coeff = np.zeros(len(lam))
        for m in marks.marks:
            lam_coeff += m.nu * (f_lam if m.eta != 0.0 else g_lam)
        self.lam_coeff = lam_coeff[:, None]

        n = _scan_trades(grid)
        self.trades = n * grid.d_q
        ok, trig, gamma_exec, shift, lam_after_raw = _trade_geometry(grid, n)
        cols, on_grid = _shifted_cols(grid, shift)
        self.valid = ok[..., None] & on_grid
        lam1 = lam - np.abs(gamma_exec)
        imp_gamma = price_impact(gamma_exec, lam, params)

        # visible branches (weight p_hat, one gather per signal): the
        # trader's trade executes ahead of the event's volume, clipped at the
        # floor; an unclipped overshoot halts the market and suppresses the
        # external volume.  The invisible branch (weight 1 - p_hat) is the
        # no-trade column: every mark lands, and the wealth jump is the
        # own-inventory markup by the external market order's impact.
        self.visible = {z: _Gather(grid, params.alpha, cols.shape)
                        for z in SIGNALS}
        self.invisible = _Gather(grid, params.alpha, cols[:1].shape)
        for m in marks.marks:
            is_mo = m.eta != 0.0
            rate = (f_lam if is_mo else g_lam)[:, None]
            if is_mo:
                eta_exec = np.where(
                    trig, 0.0,
                    _sgn(m.eta) * np.minimum(
                        abs(m.eta), np.maximum(lam1 - floor, 0.0)))
                imp = imp_gamma + price_impact(eta_exec, lam1, params)
                lam_next = np.where(trig, lam_after_raw, lam1 - abs(m.eta))
            else:
                imp = imp_gamma
                lam_next = np.where(trig, lam_after_raw, lam1 + m.rho)
            jump = _jump_grid(grid, params, gamma_exec, imp)
            if p_hat < 1.0:
                self.invisible.add(lam_next[:1], cols[:1],
                                   (1.0 - p_hat) * m.nu * rate, jump[:1])
            if p_hat > 0.0:
                self.visible[m.signal].add(lam_next, cols,
                                           p_hat * m.nu * rate, jump)

    def apply(self, w: np.ndarray):
        """One generator step; returns the new slice and signal argmaxes."""
        grid = self.grid
        w_flat = w.reshape(-1)
        w_live = w[1:]
        acc = self.invisible.apply(w_flat)[0]
        gamma = np.zeros((grid.n_lambda, grid.n_q, len(SIGNALS)))
        for s, z in enumerate(SIGNALS):
            best, gamma[1:, :, s] = _best_trade(
                self.visible[z].apply(w_flat), self.valid, self.trades)
            acc += best
        out = np.empty_like(w)
        out[0] = w[0]
        out[1:] = w_live + grid.d_t * (acc - self.lam_coeff * w_live)
        return out, gamma


class _ImpulseKernels:
    """Precomputed block-trade comparison terms."""

    def __init__(self, grid: Grid, params: MarketParams):
        self.grid = grid
        n = _scan_trades(grid)[1:]
        ok, _, gamma_exec, shift, lam_after_raw = _trade_geometry(grid, n)
        cols, on_grid = _shifted_cols(grid, shift)
        imp = price_impact(gamma_exec, grid.lam_values[1:], params)
        self.gather = _Gather(grid, params.alpha, cols.shape)
        self.gather.add(lam_after_raw, cols, 1.0,
                        _jump_grid(grid, params, gamma_exec, imp))
        # candidate 0 is holding: always admissible, trade 0
        hold = np.ones((1,) + on_grid.shape[1:], dtype=bool)
        self.valid = np.concatenate((hold, ok[..., None] & on_grid))
        self.trades = np.concatenate(([0.0], n * grid.d_q))

    def apply(self, w: np.ndarray):
        """Pointwise max over block trades; returns new slice and trades."""
        grid = self.grid
        candidates = np.concatenate(
            (w[None, 1:], self.gather.apply(w.reshape(-1))))
        out = np.empty_like(w)
        out[0] = w[0]
        delta = np.zeros((grid.n_lambda, grid.n_q))
        out[1:], delta[1:] = _best_trade(candidates, self.valid, self.trades)
        return out, delta


def _check_grid_params(grid: Grid, params: MarketParams) -> None:
    pairs = [
        ("lambda_lower", grid.lambda_lower, params.lambda_lower),
        ("lambda_upper", grid.lambda_upper, params.lambda_upper),
        ("horizon", grid.horizon, params.horizon),
        ("d_q vs lot_size", grid.d_q, params.lot_size),
    ]
    for name, gval, pval in pairs:
        if abs(gval - pval) > _TOL:
            raise ValueError(f"grid/params mismatch on {name}: "
                             f"{gval} vs {pval}")


def check_stability(grid: Grid, params: MarketParams,
                    marks: MarkModel) -> float:
    """Stability number ``d_t * (f(cap) + g(floor)) * total mark weight``.

    Must not exceed one for the explicit scheme to be a monotone (positive
    coefficient) update.  Returns the number; raises ``StabilityError``
    beyond one.
    """
    number = grid.d_t * (params.f(grid.lambda_upper)
                         + params.g(grid.lambda_lower)) \
        * float(np.sum(marks.nus))
    if number > 1.0 + 1e-12:
        raise StabilityError(
            f"explicit step is unstable: d_t * dominating intensity = "
            f"{number:.6g} > 1; shrink d_t below "
            f"{1.0 / (params.f(grid.lambda_upper) + params.g(grid.lambda_lower)):.6g}")
    return number


def transport_step(w_slice: np.ndarray, grid: Grid, params: MarketParams,
                   marks: MarkModel) -> np.ndarray:
    """One explicit generator step applied to a value slice.

    Convenience wrapper that rebuilds the kernel tables; ``solve`` amortizes
    them across all steps.
    """
    check_stability(grid, params, marks)
    out, _ = _TransportKernels(grid, params, marks).apply(
        np.asarray(w_slice, dtype=float))
    return out


def impulse_step(w_slice: np.ndarray, grid: Grid, params: MarketParams):
    """Block-trade comparison applied to a value slice.

    Returns ``(values, delta_star)`` where ``delta_star`` is the improving
    trade per node (0 where no trade improves on holding).
    """
    return _ImpulseKernels(grid, params).apply(
        np.asarray(w_slice, dtype=float))


def solver_inputs(params: MarketParams, marks: MarkModel,
                  grid: Grid) -> dict:
    """The ``params``, ``marks`` and ``grid`` entries of a solution's metadata.

    They are everything a solution depends on: two runs with equal entries
    solve the same problem.
    """
    return {
        "params": asdict(params),
        "marks": marks.fingerprint(),
        "grid": {name: getattr(grid, name) for name in (
            "d_t", "d_lambda", "d_q", "lambda_lower", "lambda_upper",
            "q_min", "q_max", "horizon")},
    }


def solve(params: MarketParams, marks: MarkModel, grid: Grid,
          meta: Optional[dict] = None) -> Tuple[ValueSurface, Policy]:
    """Backward induction of the value surface and optimal trade tables.

    Starting from the terminal condition, each step applies the generator
    (with the optimal signal response inside the visible branches) and then
    the block-trade comparison; the frozen row never changes.  The terminal
    slice gets no block-trade comparison and zero trades.
    """
    _check_grid_params(grid, params)
    check_stability(grid, params, marks)
    transport = _TransportKernels(grid, params, marks)
    impulse = _ImpulseKernels(grid, params)

    n_t = grid.n_steps + 1
    values = np.empty((n_t, grid.n_lambda, grid.n_q))
    gamma_star = np.zeros((n_t, grid.n_lambda, grid.n_q, len(SIGNALS)))
    delta_star = np.zeros((n_t, grid.n_lambda, grid.n_q))
    values[0] = _terminal_slice(grid, params)

    for k in range(1, n_t):
        tilde, gamma = transport.apply(values[k - 1])
        values[k], delta_star[k] = impulse.apply(tilde)
        gamma_star[k] = gamma

    full_meta = {"schema_version": SCHEMA_VERSION, "alpha": params.alpha,
                 **solver_inputs(params, marks, grid)}
    if meta:
        full_meta.update(meta)
    surface = ValueSurface(grid=grid, values=values, alpha=params.alpha,
                           meta=full_meta)
    policy = Policy(grid=grid, gamma_star=gamma_star, delta_star=delta_star,
                    meta=full_meta)
    return surface, policy


# ---------------------------------------------------------------------------
# serialization


def _write_deterministic_zip(path, arrays: dict) -> None:
    """Write arrays as a valid .npz with fixed timestamps (stable bytes)."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(arrays[name]),
                                      allow_pickle=False)
            info = zipfile.ZipInfo(name + ".npy",
                                   date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())


def save_solution(path, surface: ValueSurface, policy: Policy) -> None:
    """Dump a solved surface and policy to one ``.npz`` file.

    The file is byte-reproducible for identical inputs (fixed zip
    timestamps) and loads back bit-exactly with ``load_solution``.
    """
    meta_bytes = json.dumps(surface.meta, sort_keys=True).encode()
    _write_deterministic_zip(path, {
        "values": surface.values,
        "gamma_star": policy.gamma_star,
        "delta_star": policy.delta_star,
        "meta": np.frombuffer(meta_bytes, dtype=np.uint8),
    })


def load_solution(path) -> Tuple[ValueSurface, Policy]:
    """Reload a surface/policy pair written by ``save_solution``."""
    with np.load(path) as data:
        values = data["values"].copy()
        gamma_star = data["gamma_star"].copy()
        delta_star = data["delta_star"].copy()
        meta = json.loads(bytes(data["meta"].tobytes()).decode())
    grid = Grid(**meta["grid"])
    surface = ValueSurface(grid=grid, values=values, alpha=meta["alpha"],
                           meta=meta)
    policy = Policy(grid=grid, gamma_star=gamma_star, delta_star=delta_star,
                    meta=meta)
    return surface, policy

