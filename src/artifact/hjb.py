"""Finite-difference solver for the signal-trading control problem.

The value of exponential utility of terminal wealth factorizes as
``v(t, lam, q, p, x) = w(t, lam, q) * |U_alpha(x + p*q)|`` (additively,
``v = w + x + p*q``, in the risk-neutral case), reducing the problem to a
function ``w`` on a (time-to-go, liquidity, inventory) grid.  ``w`` is
computed by an explicit scheme walking backward from the terminal
condition: each step applies the event generator (every mark, weighted by
its thinned intensity, with the trader's best signal-response trade inside
the visible branches) and then a comparison allowing a state-based block
trade.  Liquidity values below the floor are represented by a single
frozen row one step below the floor, which the scheme never updates: it is
the halted market.

Grids are regular; trades live on the inventory lattice; liquidity
arguments falling between nodes are linearly interpolated and clamped at
the cap; below the floor they read the frozen row.  The market's rules are
``market_core``'s, the simulator's own: the floor test and partial fill
of a trade or market order (``overshoots``, ``clip_to_liquidity``), the
auction exposure of the terminal condition and the impact closed forms.

One scheme object, built once per solve, precomputes every gather of a
step on one per-node compacted ``(row, q, slot)`` trade axis: the slots
of a live node are its admissible trades, in the scan order
``0, -1, +1, -2, +2, ...``, padded to the longest list with copies of
slot 0, the zero trade.  (A trade that halts at the floor executes the
same volume as an ordinary trade, so one node can reach one target
inventory twice; the slots are trades, not targets.)  The visible
branches and the block-trade comparison are kernels on this axis, run
one at a time into its shared accumulator; the invisible branch has the
zero-trade axis.  A kernel is built whole from its marks: one slab of
flat indices per set of interpolation rows that some mark lands on, with
one multiplier that sums, in mark order, the terms of every mark landing
there (intensity, branch weight, interpolation weight and utility jump).
A step gathers all slabs in one ``np.take``, multiplies once and sums
each node's slabs in order of their first appearance, then, for
``alpha = 0``, adds the marks' summed additive terms.  Holding is slot 0,
so the signal response and the block trade share one best-trade
reduction: the first maximum over the slots, so a later trade in scan
order replaces an earlier one only when strictly better, and a padding
copy of slot 0 never does.  The scheme stays monotone with positive
coefficients under the stability bound, which is what its convergence
rests on (Barles and Souganidis, 1991).

A market can be its own mirror image in inventory: its inventory nodes
are ``q`` and ``-q`` in pairs and its marks, as a multiset of ``(eta,
rho, nu, signal)``, are closed under ``eta -> -eta``.  The impact is odd
in the trade and the frictions are even, so there node ``(lam, -q)``
with trade ``-g`` is node ``(lam, q)`` with trade ``g``: the kernels run
on the columns ``q >= 0`` only, and each step copies them to ``q < 0``,
values as they are and trades as ``0.0 - g`` (a hold stays ``+0.0``).
Computed there, a lower column would sum some slabs' marks in the
mirrored order, so its values could differ in the last bits (at most
5 ulp on the tiny grid, ``d_lambda = 4``), and where a trade and its
opposite tie exactly it would keep the one scanned first, the sell,
where the mirror holds the buy.  Any other market computes every column.
"""

from __future__ import annotations

import io
import json
import math
import mmap
import os
import warnings
import zipfile
from dataclasses import asdict, dataclass
from typing import Tuple

import numpy as np

from . import SCHEMA_VERSION
from .market_core import (MarketParams, auction_exposure, clip_to_liquidity,
                          impact_cost, overshoots, price_impact)
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

    def lambda_index(self, lam):
        """Nearest liquidity node index (never the frozen row).

        Like ``q_index`` and ``time_index``, elementwise over arrays:
        ``np.rint`` rounds half to even, as Python's ``round`` does.
        """
        i = np.rint((lam - self._lam_origin) / self.d_lambda)
        return np.minimum(np.maximum(i, 1), len(self._lam_values) - 1
                          ).astype(np.intp)

    def q_index(self, q):
        i = np.rint((q - self.q_min) / self.d_q)
        return np.minimum(np.maximum(i, 0), len(self._q_values) - 1
                          ).astype(np.intp)

    def time_index(self, t, horizon: float):
        """Nearest time-to-go slice for wall-clock time ``t``."""
        k = np.rint((horizon - t) / self.d_t)
        return np.minimum(np.maximum(k, 0), self._n_steps).astype(np.intp)


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
    unclipped lattice volumes; one past the floor fills to it and halts.
    """

    grid: Grid
    gamma_star: np.ndarray
    delta_star: np.ndarray
    meta: dict


def terminal_condition(lam, q, params: MarketParams):
    """Reduced terminal value ``w`` at liquidity ``lam`` and inventory ``q``.

    Liquidating ``q`` costs the proportional fee plus impact friction; the
    ``auction_exposure`` clears at the Gaussian auction price, whose
    certainty-equivalent penalty is ``exp(alpha^2*sigma^2*s^2/2)`` on the
    utility scale.  ``lam`` below the floor denotes the halted market:
    friction is evaluated at the floor and the whole inventory is
    auction-exposed.  Elementwise over broadcastable ``lam`` and ``q``.
    """
    alpha, floor = params.alpha, params.lambda_lower
    cost = params.zeta * np.abs(q) \
        + impact_cost(q, np.maximum(lam, floor), params)
    if alpha == 0.0:
        return -cost
    exposed = auction_exposure(q, lam, floor)
    risk = alpha * cost + 0.5 * alpha * alpha \
        * params.sigma_auction * params.sigma_auction * exposed * exposed
    # math.exp node by node, as the slices were always computed: numpy's
    # vectorized exp differs in the last bit on 72 desk and 4 tiny-grid
    # nodes (numpy 2.4, x86-64)
    return -np.vectorize(math.exp, otypes=[float])(risk)


def interpolate_lambda(w_slice: np.ndarray, lam: float, grid: Grid):
    """Linear interpolation of a value slice in the liquidity coordinate.

    ``w_slice`` has the liquidity axis first (shape ``(n_lambda,)`` or
    ``(n_lambda, n_q)``).  Arguments above the cap are clamped with a
    warning; every argument below the floor, the frozen row's level and
    below included, reads the frozen row (the halted market).  Exact on
    nodes.
    """
    top = float(grid.lam_values[-1])
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
    return -np.log(w1 / w0) / alpha


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
    trig = ok & overshoots(lam, np.abs(gamma_raw), floor)
    gamma_exec = clip_to_liquidity(gamma_raw, lam, floor)
    shift = np.round(gamma_exec / grid.d_q).astype(np.int64)
    ok &= np.abs(shift * grid.d_q - gamma_exec) <= _TOL
    return ok, trig, gamma_exec, shift, lam_after_raw


def _lambda_gather(grid: Grid, lam_target: np.ndarray):
    """Rows and upper interpolation weight; below the floor, the frozen row."""
    base = float(grid.lam_values[0])
    top = float(grid.lam_values[-1])
    pos = (np.clip(lam_target, base, top) - base) / grid.d_lambda
    lo = np.floor(pos + _TOL).astype(np.int64)
    lo = np.clip(lo, 0, grid.n_lambda - 1)
    frac = pos - lo
    frac[frac <= _TOL] = 0.0
    halted = overshoots(lam_target, 0.0, grid.lambda_lower)
    lo[halted], frac[halted] = 0, 0.0
    hi = np.minimum(lo + 1, grid.n_lambda - 1)
    return lo, hi, frac


class _Slots:
    """The per-node compacted trade axis, ``(row, q, slot)``, on the
    inventory columns from ``first`` up, with the accumulator of the
    kernels on it.

    The slots of a live node are its admissible trades among ``n * d_q``
    (``n`` in scan order), still in scan order, padded to the longest such
    list.  Padding slots repeat the node's zero trade, slot 0, with its
    multipliers, so they compute slot 0's candidate and never win the
    first maximum.  The kernels on one axis run one at a time, so they
    share its accumulator ``acc``.
    """

    def __init__(self, grid: Grid, params: MarketParams, n: np.ndarray,
                 geometry: tuple, first: int):
        """``geometry`` is ``_trade_geometry(grid, n)``."""
        self.grid = grid
        self.columns = np.arange(first, grid.n_q)
        ok, _, gamma_exec, shift, _ = geometry
        # admissible (trade, row) pairs that land on the inventory grid, on
        # (row, q, trade)
        j = self.columns[:, None]
        to = shift.T[:, None, :]
        valid = ok.T[:, None, :] & (j >= -to) & (j < grid.n_q - to)
        count = valid.sum(axis=-1)
        width = int(count.max())
        pad = np.arange(width) >= count[..., None]
        # flat (trade, live row) index of every slot: each node's admissible
        # trades fill its first slots in scan order (both masks enumerate
        # nodes in the same order); padding slots keep trade 0
        n_rows = grid.n_lambda - 1
        rows = np.arange(n_rows)[:, None, None]
        self.index = np.broadcast_to(rows, pad.shape).copy()
        self.index[~pad] = np.broadcast_to(
            np.arange(len(n)) * n_rows + rows, valid.shape)[valid]
        self.trades = self.take(
            np.broadcast_to((n * grid.d_q)[:, None], ok.shape)).reshape(-1)
        self.shift = shift
        # the wealth jump -zeta|g| - Xi(g, lam) + impact * (q + g) is
        # jump_fixed + impact * q_after; the impact depends on the mark
        lam = grid.lam_values[1:]
        self.jump_fixed = self.take(-params.zeta * np.abs(gamma_exec)
                                    - impact_cost(gamma_exec, lam, params))
        self.q_after = grid.q_values[first:, None] + self.take(gamma_exec)
        # flat index of each node's first slot
        self.node_start = np.arange(0, pad.size, width).reshape(count.shape)
        self.acc = np.empty(pad.shape)

    def take(self, a: np.ndarray) -> np.ndarray:
        """An array on ``(trade, live row)``, on ``(row, q, slot)``."""
        return np.take(a, self.index)


class _Kernel:
    """A kernel of the scheme on a compacted trade axis, built whole.

    Each landing ``(lam_next, impact, base)``, one per mark, adds
    ``w[lo] * m_lo + w[hi] * m_hi (+ add)`` per slot: interpolation between
    the rows around the post-event liquidity ``lam_next`` (on ``(trade,
    live row)``), with the weight ``base`` (per live row or scalar) and,
    for ``alpha > 0``, the utility jump of the price move ``impact`` in the
    multipliers.  Terms on the same rows are one slab whose multiplier is
    their sum.  The slabs are stacked on one ``intp`` index ``(slab, row,
    q, slot)`` (``np.take`` would convert a narrower one on every call),
    range-checked here, so a step gathers without bounds checks.
    """

    def __init__(self, slots: _Slots, alpha: float, landings) -> None:
        self.slots = slots
        grid = slots.grid
        # one entry per set of landing rows, keyed by their bytes, in the
        # order of first appearance
        rows, multipliers, self.add = {}, {}, None
        for lam_next, impact, base in landings:
            lo, hi, frac = _lambda_gather(grid, lam_next)
            base = np.reshape(base, (-1, 1, 1))
            jump = slots.take(impact)
            jump *= slots.q_after
            jump += slots.jump_fixed
            if alpha > 0.0:
                jump *= -alpha
                factor = np.exp(jump, out=jump)
                factor *= base
            else:
                factor, add = base, base * jump
                self.add = add if self.add is None else self.add + add
            terms = [(lo, slots.take(1.0 - frac))]
            if frac.any():
                terms.append((hi, slots.take(frac)))
            for landing, weight in terms:
                weight *= factor
                key = landing.tobytes()
                if key in multipliers:
                    multipliers[key] += weight
                else:
                    rows[key], multipliers[key] = landing, weight
        shape = (len(rows),) + slots.acc.shape
        self.index = np.empty(shape, np.intp)
        self.multiplier = np.empty(shape)
        for slab, key in enumerate(rows):
            # flat index of the landing row at the post-trade column
            idx = slots.take(rows[key] * grid.n_q + slots.shift)
            idx += slots.columns[:, None]
            if idx.min() < 0 or idx.max() >= grid.n_lambda * grid.n_q:
                raise IndexError("gather index off the value slice")
            self.index[slab] = idx
            self.multiplier[slab] = multipliers[key]
        self.gathered = np.empty(shape)

    def accumulate(self, w: np.ndarray) -> np.ndarray:
        """Sum of the slabs per slot, slab by slab, then the additive sum.

        Returns the axis's accumulator, overwritten by the next call of any
        kernel on the axis.
        """
        slots = self.slots
        grid = slots.grid
        if w.shape != (grid.n_lambda, grid.n_q):
            raise ValueError(f"value slice of shape {w.shape}, grid needs "
                             f"{(grid.n_lambda, grid.n_q)}")
        # indices were range-checked at build time
        np.take(w.reshape(-1), self.index, out=self.gathered, mode="clip")
        self.gathered *= self.multiplier
        acc = np.sum(self.gathered, axis=0, out=slots.acc)
        if self.add is not None:
            acc += self.add
        return acc

    def best(self, w: np.ndarray, value_out: np.ndarray,
             trade_out: np.ndarray) -> None:
        """Best candidate per node and its trade, written into the outputs.

        ``np.argmax`` keeps the first maximum, so on the scan-ordered slots
        a later trade wins only when it is strictly better.
        """
        acc = self.accumulate(w)
        arg = acc.argmax(axis=-1)
        arg += self.slots.node_start
        value_out[...] = acc.reshape(-1)[arg]
        trade_out[...] = self.slots.trades[arg]


def _block_trades(grid: Grid, params: MarketParams, first: int):
    """The block-trade comparison's kernel on the full trade axis of the
    columns from ``first`` up, with the scan-ordered trades, their geometry
    and price impact.

    Holding is slot 0, the zero trade: a gather of ``w`` itself with
    multiplier 1 and zero upper and additive terms.  It reads back ``w``
    (bar the sign of a ``-0.0``, which live rows of a generator pass never
    hold) and wins unless a trade is strictly better.
    """
    n = _scan_trades(grid)
    geometry = _trade_geometry(grid, n)
    _, _, gamma_exec, _, lam_after_raw = geometry
    imp_gamma = price_impact(gamma_exec, grid.lam_values[1:], params)
    kernel = _Kernel(_Slots(grid, params, n, geometry, first), params.alpha,
                     [(lam_after_raw, imp_gamma, 1.0)])
    return kernel, n, geometry, imp_gamma


def _mirror_first(grid: Grid, marks: MarkModel) -> int:
    """The first inventory column a step computes: ``n_q // 2`` on a
    market that is its own mirror image in inventory (module docstring),
    else 0."""
    q = grid.q_values
    marks = marks.marks
    if (np.array_equal(q, -q[::-1])
            and sorted((m.eta, m.rho, m.nu, m.signal) for m in marks)
            == sorted((-m.eta, m.rho, m.nu, m.signal) for m in marks)):
        return grid.n_q // 2
    return 0


class _Scheme:
    """The explicit step for one (grid, params, marks) triple: the
    generator pass, then the block-trade comparison, on the inventory
    columns from ``_mirror_first`` up; the columns below, if any, are
    their mirror image."""

    def __init__(self, grid: Grid, params: MarketParams, marks: MarkModel,
                 mirror: bool = True):
        """``mirror=False`` computes every column whatever the market."""
        self.grid = grid
        first = _mirror_first(grid, marks) if mirror else 0
        self.block, n, geometry, imp_gamma = _block_trades(grid, params,
                                                           first)
        _, trig, gamma_exec, _, lam_after_raw = geometry
        lam = grid.lam_values[1:]
        lam1 = lam - np.abs(gamma_exec)
        p_hat = marks.signal_prob
        f_lam, g_lam = params.f(lam), params.g(lam)
        # total thinned intensity per liquidity row (the -w coefficient)
        lam_coeff = np.zeros(len(lam))

        # visible branches (weight p_hat, one kernel per signal, on the
        # block trades' axis): the trader's trade executes ahead of the
        # event's volume, clipped at the floor; an unclipped overshoot halts
        # the market and suppresses the external volume.  The invisible
        # branch (weight 1 - p_hat) is the no-trade slot: every mark lands,
        # and the wealth jump is the own-inventory markup by the external
        # market order's impact.
        visible = {z: [] for z in SIGNALS}
        invisible = []
        for m in marks.marks:
            is_mo = m.eta != 0.0
            rate = f_lam if is_mo else g_lam
            lam_coeff += m.nu * rate
            if is_mo:
                eta_exec = np.where(trig, 0.0, clip_to_liquidity(
                    m.eta, lam1, grid.lambda_lower))
                imp = imp_gamma + price_impact(eta_exec, lam1, params)
                lam_next = np.where(trig, lam_after_raw, lam1 - abs(m.eta))
            else:
                imp = imp_gamma
                lam_next = np.where(trig, lam_after_raw, lam1 + m.rho)
            if p_hat < 1.0:
                invisible.append((lam_next[:1], imp[:1],
                                  (1.0 - p_hat) * m.nu * rate))
            if p_hat > 0.0:
                visible[m.signal].append((lam_next, imp,
                                          p_hat * m.nu * rate))
        self.visible = {z: _Kernel(self.block.slots, params.alpha, landings)
                        for z, landings in visible.items()}
        self.invisible = _Kernel(
            _Slots(grid, params, n[:1], tuple(g[:1] for g in geometry),
                   first),
            params.alpha, invisible)
        self.lam_coeff = lam_coeff[:, None]
        # the computed columns, and the columns below with their images
        self.upper = np.s_[:, first:]
        self.lower = np.s_[:, :first]
        self.image = np.s_[:, grid.n_q - 1:grid.n_q - 1 - first:-1]
        self.branch_value = np.empty((grid.n_lambda - 1, grid.n_q - first))
        self.transported = np.empty((grid.n_lambda, grid.n_q))

    def transport(self, w: np.ndarray, out: np.ndarray,
                  gamma: np.ndarray) -> None:
        """The generator pass of ``w`` into ``out``.

        The signal trades go into ``gamma[1:, :, s]``.  A branch without
        marks is skipped: it would add ``+0.0`` (trade 0), which changes no
        sum that starts from ``+0.0``, and leaves its zero trades, and
        their pages, untouched.
        """
        w_live = w[1:][self.upper]
        acc = self.invisible.accumulate(w)[..., 0]
        for s, z in enumerate(SIGNALS):
            if len(self.visible[z].index):
                trades = gamma[1:, :, s]
                self.visible[z].best(w, self.branch_value,
                                     trades[self.upper])
                acc += self.branch_value
                # 0.0 - t, so that a hold stays +0.0
                np.subtract(0.0, trades[self.image], out=trades[self.lower])
        out[0] = w[0]
        live = out[1:]
        live[self.upper] = w_live + self.grid.d_t * (
            acc - self.lam_coeff * w_live)
        live[self.lower] = live[self.image]

    def step(self, w: np.ndarray, out: np.ndarray, gamma: np.ndarray,
             delta: np.ndarray) -> None:
        """One step of ``w`` into ``out``: the generator pass, its signal
        trades into ``gamma``, then the block-trade comparison, its trades
        into ``delta[1:]``."""
        self.transport(w, self.transported, gamma)
        out[0] = w[0]
        live, trades = out[1:], delta[1:]
        self.block.best(self.transported, live[self.upper],
                        trades[self.upper])
        live[self.lower] = live[self.image]
        np.subtract(0.0, trades[self.image], out=trades[self.lower])


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

    Convenience wrapper that rebuilds the scheme, block-trade kernel
    included; ``solve`` amortizes it across all steps.  It mirrors the
    lower columns only when ``w_slice`` is its own mirror image bit for
    bit, since a slice need not be.
    """
    check_stability(grid, params, marks)
    w = np.ascontiguousarray(w_slice, dtype=float)
    out = np.empty_like(w)
    bits = w.view(np.int64)
    _Scheme(grid, params, marks, np.array_equal(bits, bits[..., ::-1])
            ).transport(
        w, out, np.zeros(w.shape + (len(SIGNALS),)))
    return out


def impulse_step(w_slice: np.ndarray, grid: Grid, params: MarketParams):
    """Block-trade comparison applied to a value slice.

    Returns ``(values, delta_star)`` where ``delta_star`` is the improving
    trade per node (0 where no trade improves on holding).
    """
    w = np.ascontiguousarray(w_slice, dtype=float)
    out, delta = w.copy(), np.zeros_like(w)
    _block_trades(grid, params, 0)[0].best(w, out[1:], delta[1:])
    return out, delta


def solver_inputs(params: MarketParams, marks: MarkModel,
                  grid: Grid) -> dict:
    """The ``params``, ``marks`` and ``grid`` entries of a solution's metadata.

    They are everything a solution depends on: two runs with equal entries
    solve the same problem.
    """
    return {
        "params": asdict(params),
        "marks": marks.fingerprint(),
        "grid": asdict(grid),
    }


def solve(params: MarketParams, marks: MarkModel,
          grid: Grid) -> Tuple[ValueSurface, Policy]:
    """Backward induction of the value surface and optimal trade tables.

    Starting from the terminal condition, each step applies the generator
    (with the optimal signal response inside the visible branches) and then
    the block-trade comparison; the frozen row never changes.  The terminal
    slice gets no block-trade comparison and zero trades.  Both carry the
    same metadata: the schema version, ``alpha`` and the ``solver_inputs``,
    which is all a solution depends on, so equal inputs save equal bytes.
    ``grid`` must be the one ``Grid.from_params`` maps ``params`` to.
    """
    mapped = Grid.from_params(params, grid.d_t, grid.d_lambda, grid.q_min,
                              grid.q_max)
    if grid != mapped:
        raise ValueError(f"grid mismatch: {grid} is not the market's "
                         f"grid {mapped}")
    check_stability(grid, params, marks)
    scheme = _Scheme(grid, params, marks)

    n_t = grid.n_steps + 1
    values = np.empty((n_t, grid.n_lambda, grid.n_q))
    gamma_star = np.zeros((n_t, grid.n_lambda, grid.n_q, len(SIGNALS)))
    delta_star = np.zeros((n_t, grid.n_lambda, grid.n_q))
    values[0] = terminal_condition(grid.lam_values[:, None], grid.q_values,
                                   params)
    for k in range(1, n_t):
        scheme.step(values[k - 1], values[k], gamma_star[k], delta_star[k])

    meta = {"schema_version": SCHEMA_VERSION, "alpha": params.alpha,
            **solver_inputs(params, marks, grid)}
    surface = ValueSurface(grid=grid, values=values, alpha=params.alpha,
                           meta=meta)
    policy = Policy(grid=grid, gamma_star=gamma_star, delta_star=delta_star,
                    meta=meta)
    return surface, policy


# ---------------------------------------------------------------------------
# serialization


def _write_deterministic_zip(path, arrays: dict) -> None:
    """Write arrays as a valid .npz with fixed timestamps (stable bytes).

    Each entry is the ``.npy`` header followed by the array's own buffer,
    streamed into the zip: saving copies no array, so the peak memory of a
    solve does not depend on where the allocator puts such copies.
    """
    fmt = np.lib.format
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            array = np.ascontiguousarray(arrays[name])
            header = io.BytesIO()
            fmt.write_array_header_1_0(header,
                                       fmt.header_data_from_array_1_0(array))
            info = zipfile.ZipInfo(name + ".npy",
                                   date_time=(1980, 1, 1, 0, 0, 0))
            info.file_size = header.tell() + array.nbytes
            with zf.open(info, "w") as entry:
                entry.write(header.getvalue())
                entry.write(array.reshape(-1).view(np.uint8))


def save_solution(path, surface: ValueSurface, policy: Policy) -> None:
    """Dump a solved surface and policy to one ``.npz`` file.

    The file is byte-reproducible for identical inputs (fixed zip
    timestamps) and loads back bit-exactly with ``load_solution``.  It is
    written beside ``path`` and then moved over it, so a solution loaded
    from ``path`` before keeps its contents (rewriting a mapped file in
    place would cut pages from under the mapping) and a failed save
    leaves no partial file.
    """
    meta_bytes = json.dumps(surface.meta, sort_keys=True).encode()
    path = os.fspath(path)
    partial = f"{path}.{os.getpid()}.partial"
    try:
        _write_deterministic_zip(partial, {
            "values": surface.values,
            "gamma_star": policy.gamma_star,
            "delta_star": policy.delta_star,
            "meta": np.frombuffer(meta_bytes, dtype=np.uint8),
        })
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise


def _mapped_members(path) -> dict:
    """Each ``.npy`` member of a stored ``.npz``, as an array over a
    private mapping of the file: pages are read when first touched, and
    writes stay in this process."""
    fmt = np.lib.format
    arrays = {}
    with open(path, "rb") as handle, zipfile.ZipFile(handle) as zf:
        buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_COPY)
        for info in zf.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"member {info.filename} is compressed "
                                 f"and cannot be mapped")
            with zf.open(info) as member:
                version = fmt.read_magic(member)
                read_header = (fmt.read_array_header_1_0 if version == (1, 0)
                               else fmt.read_array_header_2_0)
                shape, fortran, dtype = read_header(member)
                header_bytes = member.tell()
            # a local zip header: 30 fixed bytes, the name and an extra field
            at = info.header_offset
            name_len = int.from_bytes(buffer[at + 26:at + 28], "little")
            extra_len = int.from_bytes(buffer[at + 28:at + 30], "little")
            offset = at + 30 + name_len + extra_len + header_bytes
            array = np.frombuffer(buffer, dtype, math.prod(shape), offset)
            arrays[info.filename.removesuffix(".npy")] = array.reshape(
                shape, order="F" if fortran else "C")
    return arrays


def load_solution(path) -> Tuple[ValueSurface, Policy]:
    """Reload a surface/policy pair written by ``save_solution``.

    The arrays are writeable views of a private (copy-on-write) mapping
    of the file, so loading copies nothing, memory holds only the pages a
    run reads, and writing to an array never changes the file.  A file
    that cannot be mapped so (not a zip, a missing or compressed member,
    bad metadata, arrays off its grid) raises ``ValueError`` naming the
    path.
    """
    try:
        arrays = _mapped_members(path)
        meta = json.loads(arrays["meta"].tobytes().decode())
        grid = Grid(**meta["grid"])
        shape = (grid.n_steps + 1, grid.n_lambda, grid.n_q)
        for name, want in (("values", shape), ("delta_star", shape),
                           ("gamma_star", shape + (len(SIGNALS),))):
            if arrays[name].shape != want:
                raise ValueError(f"{name} of shape {arrays[name].shape}, "
                                 f"its grid needs {want}")
        surface = ValueSurface(grid=grid, values=arrays["values"],
                               alpha=meta["alpha"], meta=meta)
        policy = Policy(grid=grid, gamma_star=arrays["gamma_star"],
                        delta_star=arrays["delta_star"], meta=meta)
    except (zipfile.BadZipFile, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{os.fspath(path)} is not a readable solution: "
                         f"{exc!r}") from exc
    return surface, policy
