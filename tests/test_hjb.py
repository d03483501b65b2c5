"""Backward solver: terminal condition, kernels, convergence, persistence."""

import dataclasses
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import artifact.hjb as hjb
from artifact.hjb import (
    SIGNALS,
    Grid,
    StabilityError,
    _scan_trades,
    _trade_geometry,
    certainty_equivalent,
    check_stability,
    impulse_step,
    interpolate_lambda,
    load_solution,
    save_solution,
    solve,
    terminal_condition,
    transport_step,
)
from artifact.market_core import (_FLOOR_TOL, MarketParams, MarketState,
                                  apply_shock_detailed, impact_cost,
                                  overshoots, price_impact)
from artifact.order_flow import Mark, MarkModel, benchmark_mark_model
from oracles import impulse_dp_oracle, terminal_oracle, transport_oracle

PARAMS = MarketParams()
#: An off-lattice market: its liquidity rows carry float noise.
OFFGRID_PARAMS = dataclasses.replace(PARAMS, lambda_lower=-10.3,
                                     lambda_upper=9.7)


def _terminal_grid(grid, params):
    """The terminal slice as ``solve`` computes it."""
    return terminal_condition(grid.lam_values[:, None], grid.q_values, params)


def _terminal_reference(lam, q, params):
    """One node of the terminal slice in Python floats, with ``math.exp``."""
    floor = params.lambda_lower
    if lam >= floor:
        lam_eff, exposed = lam, max(abs(q) - (lam - floor), 0.0)
    else:
        lam_eff, exposed = floor, abs(q)
    a = abs(q)
    cost = params.zeta * a + (
        0.5 * (params.theta_iota + params.kappa_iota * lam_eff) * a * a
        - params.kappa_iota * a * a * a / 6.0)
    if params.alpha == 0.0:
        return -cost
    return -math.exp(params.alpha * cost
                     + 0.5 * params.alpha * params.alpha
                     * params.sigma_auction * params.sigma_auction
                     * exposed * exposed)


# ---------------------------------------------------------------------------
# grid geometry and validation
# ---------------------------------------------------------------------------

def test_grid_layout():
    grid = Grid.from_params(PARAMS, d_t=0.005, d_lambda=1.0,
                            q_min=-12.0, q_max=12.0)
    assert grid.lam_values[0] == -41.0          # frozen row one step below
    assert grid.lam_values[1] == PARAMS.lambda_lower
    assert grid.lam_values[-1] == PARAMS.lambda_upper
    assert grid.n_lambda == 82
    assert list(grid.q_values[:3]) == [-12.0, -11.0, -10.0]
    assert grid.n_q == 25
    assert grid.n_steps == 200
    assert grid.n_steps * grid.d_t == pytest.approx(PARAMS.horizon)


def test_grid_index_lookups():
    grid = Grid.from_params(PARAMS, d_t=0.005, d_lambda=1.0,
                            q_min=-12.0, q_max=12.0)
    assert grid.lambda_index(0.0) == 41
    assert grid.lambda_index(-40.0) == 1
    # lookups never resolve to the frozen row, even below the floor
    assert grid.lambda_index(-41.0) == 1
    assert grid.lambda_index(10_000.0) == grid.n_lambda - 1
    assert grid.q_index(-12.0) == 0
    assert grid.q_index(0.4) == 12
    assert grid.q_index(99.0) == grid.n_q - 1
    assert grid.time_index(0.0, PARAMS.horizon) == grid.n_steps
    assert grid.time_index(PARAMS.horizon, PARAMS.horizon) == 0
    assert grid.time_index(2.0, PARAMS.horizon) == 0


@pytest.mark.parametrize("kwargs, match", [
    (dict(d_t=-0.1), "d_t"),
    (dict(d_lambda=0.0), "d_lambda"),
    (dict(d_q=-1.0), "d_q"),
    (dict(q_min=3.0, q_max=-3.0), "q_min"),
    (dict(horizon=0.0), "horizon"),
    (dict(lambda_lower=40.0, lambda_upper=-40.0), "strictly below"),
    (dict(d_lambda=3.0), "multiple"),
    (dict(d_t=0.3), "multiple"),
])
def test_grid_validation(kwargs, match):
    base = dict(d_t=0.005, d_lambda=1.0, d_q=1.0, lambda_lower=-40.0,
                lambda_upper=40.0, q_min=-12.0, q_max=12.0, horizon=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError, match=match):
        Grid(**base)


def test_stability_number(desk_grid, bench_params, marks_signal):
    rate = (bench_params.f(bench_params.lambda_upper)
            + bench_params.g(bench_params.lambda_lower))
    number = check_stability(desk_grid, bench_params, marks_signal)
    assert number == pytest.approx(0.005 * rate, rel=1e-12)
    assert number < 1.0


def test_unstable_step_raises(bench_params, marks_signal):
    grid = Grid.from_params(bench_params, d_t=0.02, d_lambda=1.0,
                            q_min=-2.0, q_max=2.0)
    with pytest.raises(StabilityError, match="unstable"):
        check_stability(grid, bench_params, marks_signal)
    with pytest.raises(StabilityError):
        solve(bench_params, marks_signal, grid)


@pytest.mark.parametrize("field, value", [("lambda_upper", 30.0),
                                          ("lambda_lower", -30.0),
                                          ("horizon", 0.5),
                                          ("lot_size", 2.0)],
                         ids=["lambda_upper", "lambda_lower", "horizon",
                              "lot_size"])
def test_solve_rejects_mismatched_grid(bench_params, marks_signal, field,
                                       value):
    """A grid built from another cap, floor, horizon or lot size."""
    shifted = dataclasses.replace(bench_params, **{field: value})
    grid = Grid.from_params(shifted, d_t=0.005, d_lambda=1.0,
                            q_min=-2.0, q_max=2.0)
    mapped = Grid.from_params(bench_params, d_t=0.005, d_lambda=1.0,
                              q_min=-2.0, q_max=2.0)
    with pytest.raises(ValueError, match="mismatch") as info:
        solve(bench_params, marks_signal, grid)
    # the error names both grids
    assert repr(grid) in str(info.value)
    assert repr(mapped) in str(info.value)


# ---------------------------------------------------------------------------
# terminal condition
# ---------------------------------------------------------------------------

def test_terminal_flat_inventory_is_minus_one():
    for lam in (-41.0, -40.0, 0.0, 40.0):
        assert terminal_condition(lam, 0.0, PARAMS) == -1.0


def test_terminal_examples_match_wealth_formula():
    # ample liquidity: no auction exposure, friction at the current level
    got = terminal_condition(10.0, 2.0, PARAMS)
    assert got == pytest.approx(terminal_oracle(10.0, 2.0, PARAMS),
                                rel=1e-12)
    # direct hand evaluation of the same state
    iota = PARAMS.theta_iota + PARAMS.kappa_iota * 10.0
    cost = PARAMS.zeta * 2.0 + iota * 2.0 ** 2 / 2.0 + 0.0001 * 2.0 ** 3 / 3.0
    assert got == pytest.approx(-math.exp(PARAMS.alpha * cost), rel=1e-12)


def test_terminal_frozen_row_and_floor_coincide():
    # below the floor: frozen market, everything auction-exposed
    frozen = terminal_condition(-41.0, 2.0, PARAMS)
    assert frozen == pytest.approx(
        terminal_oracle(-40.0, 2.0, PARAMS, frozen=True), rel=1e-12)
    # at the floor the headroom is zero, so the values coincide
    assert terminal_condition(-40.0, 2.0, PARAMS) \
        == pytest.approx(frozen, rel=1e-12)
    # partially covered inventory: only the overhang is exposed
    partial = terminal_condition(-37.0, 5.0, PARAMS)
    assert partial == pytest.approx(terminal_oracle(-37.0, 5.0, PARAMS),
                                    rel=1e-12)
    assert partial > terminal_condition(-41.0, 5.0, PARAMS)


@pytest.mark.parametrize("alpha", [0.1, 0.0])
@pytest.mark.parametrize("d_lambda, q_max", [(1.0, 12.0), (4.0, 2.0)])
def test_terminal_slice_is_bitwise_the_per_node_reference(d_lambda, q_max,
                                                          alpha):
    """The desk and tiny terminal slices round as the per-node Python-float
    loop did, ``math.exp`` included (numpy's ``exp`` differs in the last bit
    on some of these nodes)."""
    params = dataclasses.replace(PARAMS, alpha=alpha)
    grid = Grid.from_params(params, d_t=0.005, d_lambda=d_lambda,
                            q_min=-q_max, q_max=q_max)
    want = np.array([[_terminal_reference(float(lam), float(q), params)
                      for q in grid.q_values] for lam in grid.lam_values])
    got = _terminal_grid(grid, params)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_terminal_oracle_sweep():
    for lam in (-41.0, -40.0, -37.5, 0.0, 17.0, 40.0):
        for q in (-12.0, -5.0, -1.0, 1.0, 3.0, 12.0):
            assert terminal_condition(lam, q, PARAMS) == pytest.approx(
                terminal_oracle(lam, q, PARAMS, frozen=lam < -40.0),
                rel=1e-12)


# ---------------------------------------------------------------------------
# liquidity interpolation
# ---------------------------------------------------------------------------

def test_interpolate_lambda_nodes_and_blends():
    grid = Grid.from_params(PARAMS, d_t=0.01, d_lambda=1.0,
                            q_min=-2.0, q_max=2.0)
    w = _terminal_grid(grid, PARAMS)
    row = grid.lambda_index(3.0)
    assert np.array_equal(interpolate_lambda(w, 3.0, grid), w[row])
    mid = interpolate_lambda(w, 3.5, grid)
    assert mid == pytest.approx(0.5 * (w[row] + w[row + 1]), rel=1e-14)
    blend = interpolate_lambda(w, 3.25, grid)
    assert blend == pytest.approx(0.75 * w[row] + 0.25 * w[row + 1],
                                  rel=1e-14)
    # one-dimensional slices return scalars
    col = w[:, 0]
    assert interpolate_lambda(col, 3.5, grid) \
        == pytest.approx(0.5 * (col[row] + col[row + 1]), rel=1e-14)


def test_interpolate_lambda_domain_edges():
    grid = Grid.from_params(PARAMS, d_t=0.01, d_lambda=1.0,
                            q_min=-2.0, q_max=2.0)
    w = _terminal_grid(grid, PARAMS)
    # below the floor (by more than its tolerance) is the halted market:
    # the frozen row alone, here set apart from the floor row, at and
    # below the frozen row's level too
    w[0] -= 1.0
    assert np.array_equal(interpolate_lambda(w, -41.5, grid), w[0])
    assert np.array_equal(interpolate_lambda(w, -40.5, grid), w[0])
    assert np.array_equal(interpolate_lambda(w, -40.0 - 5e-10, grid), w[1])
    with pytest.warns(UserWarning, match="clamp"):
        top = interpolate_lambda(w, 45.0, grid)
    assert np.array_equal(top, w[-1])


def test_certainty_equivalent_identities():
    w = np.array([-1.0, -0.5, -0.125])
    assert certainty_equivalent(w, w, 0.1) == pytest.approx(0.0, abs=1e-15)
    shift = 0.37
    boosted = w * math.exp(-0.1 * shift)
    assert certainty_equivalent(boosted, w, 0.1) \
        == pytest.approx(shift, rel=1e-12)


# ---------------------------------------------------------------------------
# transport step against a hand-built single-mark update
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.1, 0.0])
def test_transport_step_single_market_order_mark(alpha):
    """With one unit buy mark and no limit flow the generator update is
    w + dt*f(lam)*(w(lam-1, q)*exp(-alpha*I(1,lam)*q) - w(lam, q)), and
    w + dt*f(lam)*(w(lam-1, q) + I(1,lam)*q - w(lam, q)) for alpha = 0."""
    params = dataclasses.replace(PARAMS, theta_g=0.0, alpha=alpha)
    with pytest.warns(UserWarning, match="resilient"):
        marks = MarkModel((Mark(eta=1.0, rho=0.0, nu=1.0),), 0.0)
    grid = Grid.from_params(params, d_t=0.01, d_lambda=1.0,
                            q_min=0.0, q_max=3.0)
    w = _terminal_grid(grid, params)
    got = transport_step(w, grid, params, marks)

    expected = w.copy()
    lam = grid.lam_values
    q = grid.q_values
    for i in range(1, grid.n_lambda):
        f_i = params.f(float(lam[i]))
        if i == 1:
            # at the floor the order cannot execute: the market halts and
            # the value jumps to the frozen row without a price move
            succ = w[0]
            impact = 0.0
        else:
            succ = w[i - 1]
            impact = price_impact(1.0, float(lam[i]), params)
        if alpha > 0.0:
            landed = succ * np.exp(-alpha * impact * q)
        else:
            landed = succ + impact * q
        expected[i] = w[i] + grid.d_t * f_i * (landed - w[i])
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    # the frozen row never moves
    np.testing.assert_array_equal(got[0], w[0])


def test_transport_step_preserves_flat_inventory():
    grid = Grid.from_params(PARAMS, d_t=0.005, d_lambda=1.0,
                            q_min=-2.0, q_max=2.0)
    w = _terminal_grid(grid, PARAMS)
    out = transport_step(w, grid, PARAMS, benchmark_mark_model(0.2))
    j0 = grid.q_index(0.0)
    np.testing.assert_allclose(out[:, j0], -1.0, rtol=1e-13)


#: Marks not closed under ``eta -> -eta``: a market that is not its own
#: mirror image in inventory.
_SKEW = (Mark(eta=1.0, rho=0.0, nu=0.2), Mark(eta=-2.0, rho=0.0, nu=0.15),
         Mark(eta=0.0, rho=1.0, nu=0.45), Mark(eta=0.0, rho=-1.0, nu=0.2))


@pytest.mark.parametrize("d_lambda, alpha, p_hat, skew", [
    pytest.param(d_lambda, alpha, p_hat, skew,
                 id=f"{d_lambda}-{alpha}-{p_hat}" + ("-skew" if skew else ""))
    for skew in (False, True) for d_lambda in (1.0, 4.0)
    for alpha in (0.1, 0.0) for p_hat in (0.2, 1.0)])
def test_transport_step_matches_the_per_node_oracle(d_lambda, alpha, p_hat,
                                                    skew):
    """Values and stored signal trades of a mid-horizon step agree with a
    per-node scan, on grids whose low rows admit trades that halt at the
    floor, for marks that are their own mirror image and marks that are
    not."""
    params = dataclasses.replace(PARAMS, alpha=alpha)
    marks = MarkModel(_SKEW, p_hat) if skew else benchmark_mark_model(p_hat)
    grid = Grid.from_params(params, d_t=0.01, d_lambda=d_lambda,
                            q_min=-2.0, q_max=2.0)
    surface, policy = solve(params, marks, grid)
    k = grid.n_steps // 2
    w = surface.values[k - 1]
    want, trades, gaps = transport_oracle(w, grid, params, marks)

    np.testing.assert_allclose(transport_step(w, grid, params, marks), want,
                               rtol=1e-12, atol=0.0)
    clear = gaps > 1e-9
    np.testing.assert_array_equal(policy.gamma_star[k][clear], trades[clear])
    assert np.any(trades[1:] != 0.0)
    # the lowest live rows admit trades that overshoot the floor and halt
    lam_low = grid.lam_values[1]
    assert lam_low - 2.0 * grid.d_q < params.lambda_lower


def test_transport_step_computes_every_column_of_an_asymmetric_slice(
        tiny_solution):
    """The benchmark marks are their own mirror image, but a slice need not
    be: one whose lower columns are not the image of its upper ones is
    stepped on every column."""
    surface, _ = tiny_solution
    grid = surface.grid
    marks = benchmark_mark_model(0.2)
    w = surface.values[grid.n_steps // 2].copy()
    w[1:, 0] *= 1.001
    want, _, _ = transport_oracle(w, grid, PARAMS, marks)
    got = transport_step(w, grid, PARAMS, marks)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.all(got[1:, 0] != got[1:, -1])


def test_steps_reject_a_slice_of_another_grid():
    grid = Grid.from_params(PARAMS, d_t=0.01, d_lambda=4.0,
                            q_min=-2.0, q_max=2.0)
    marks = benchmark_mark_model(0.2)
    for rows in (grid.n_lambda - 1, grid.n_lambda + 1):
        w = np.full((rows, grid.n_q), -1.0)
        with pytest.raises(ValueError, match="shape"):
            transport_step(w, grid, PARAMS, marks)
        with pytest.raises(ValueError, match="shape"):
            impulse_step(w, grid, PARAMS)


def test_exact_tie_keeps_the_sell_scanned_first():
    """A sell and a buy of one lot that tie exactly, both beating holding:
    the sell comes first in the scan order 0, -1, +1 and is kept."""
    params = dataclasses.replace(PARAMS, alpha=0.0)
    grid = Grid.from_params(params, d_t=0.005, d_lambda=1.0,
                            q_min=-2.0, q_max=2.0)
    i, j = grid.n_lambda - 1, grid.q_index(0.0)
    lam = float(grid.lam_values[i])
    # symmetric in inventory, with holding at flat made expensive
    w = -np.abs(grid.q_values)[None, :].repeat(grid.n_lambda, axis=0)
    w[i, j] = -10.0

    def candidate(g):
        jump = (-params.zeta * abs(g) - impact_cost(g, lam, params)
                + price_impact(g, lam, params) * g)
        return w[i - 1, grid.q_index(g)] + jump

    assert candidate(-1.0) == candidate(1.0) > w[i, j]
    out, delta = impulse_step(w, grid, params)
    assert delta[i, j] == -1.0
    assert out[i, j] == candidate(-1.0)
    # a buy that is better by one ulp wins
    w[i - 1, grid.q_index(1.0)] = np.nextafter(w[i - 1, grid.q_index(1.0)],
                                                0.0)
    _, delta = impulse_step(w, grid, params)
    assert delta[i, j] == 1.0


@pytest.mark.parametrize("params, d_lambda", [
    (PARAMS, 1.0),              # the desk grid
    (OFFGRID_PARAMS, 0.5),      # rows off the lattice of trades
    (PARAMS, 1.0 - 5e-10),      # rows 5e-10 short of the lattice
], ids=["desk", "offgrid", "near-floor"])
def test_solver_and_simulator_apply_one_floor_rule(params, d_lambda):
    """Every (scan trade, live row) of the solver halts and fills exactly as
    ``apply_shock_detailed`` does with the same raw trade at that row."""
    grid = Grid.from_params(params, d_t=0.005, d_lambda=d_lambda,
                            q_min=-12.0, q_max=12.0)
    n = _scan_trades(grid)
    ok, trig, gamma_exec, _, _ = _trade_geometry(grid, n)
    gamma_raw = np.broadcast_to((n * grid.d_q)[:, None], ok.shape)
    lam = np.broadcast_to(grid.lam_values[1:], ok.shape)
    state = MarketState(lam=lam.ravel(), q=np.zeros(lam.size),
                        p=np.full(lam.size, 100.0), x=np.zeros(lam.size))
    zero = np.zeros(lam.size)
    after, g_exec, *_ = apply_shock_detailed(state, gamma_raw.ravel(), zero,
                                             zero, params)
    halted = after.halted.reshape(ok.shape)
    np.testing.assert_array_equal(trig[ok], halted[ok])
    assert gamma_exec.tobytes() == g_exec.reshape(ok.shape).tobytes()
    # trades that land within the tolerance below the floor halt on neither
    # side; the last grid has such trades and trades just past it
    gap = lam - np.abs(gamma_raw) - params.lambda_lower
    near = ok & (gap < 0.0) & (gap >= -_FLOOR_TOL)
    assert not halted[near].any() and not trig[near].any()
    np.testing.assert_array_equal(gamma_exec[near], gamma_raw[near])
    if d_lambda == 1.0 - 5e-10:
        assert near.sum() >= 1 and np.any(gap[near] <= -4e-10)
        assert np.any(trig & (gap > -2e-9))


# ---------------------------------------------------------------------------
# impulse step
# ---------------------------------------------------------------------------

def test_impulse_step_cannot_improve_the_terminal_slice():
    """The terminal value already prices immediate liquidation, so by the
    cost-splitting identity every block trade at worst ties it."""
    grid = Grid.from_params(PARAMS, d_t=0.005, d_lambda=1.0,
                            q_min=-12.0, q_max=12.0)
    w = _terminal_grid(grid, PARAMS)
    out, delta = impulse_step(w, grid, PARAMS)
    assert np.all(out >= w - 1e-15)
    assert np.all(out < 0.0)
    np.testing.assert_allclose(out, w, rtol=1e-12)
    # flat inventory: no trade improves on holding
    j0 = grid.q_index(0.0)
    assert np.all(delta[:, j0] == 0.0)
    np.testing.assert_array_equal(out[:, j0], w[:, j0])
    # the frozen row admits no trades
    assert np.all(delta[0] == 0.0)


def test_impulse_step_liquidates_when_holding_is_penalized():
    """Against a continuation that charges double the fee for standing
    inventory, the best block trade at deep liquidity is straight to flat:
    it saves the fee surplus while the impact friction cancels exactly."""
    grid = Grid.from_params(PARAMS, d_t=0.005, d_lambda=1.0,
                            q_min=-12.0, q_max=12.0)
    pricey = dataclasses.replace(PARAMS, zeta=2.0 * PARAMS.zeta)
    w = _terminal_grid(grid, pricey)
    out, delta = impulse_step(w, grid, PARAMS)
    assert np.all(out >= w - 1e-15)
    top = grid.n_lambda - 1
    np.testing.assert_array_equal(delta[top], -grid.q_values)
    j2 = grid.q_index(2.0)
    expected = -math.exp(PARAMS.alpha * (PARAMS.zeta * 2.0
                                         + impact_cost(2.0, 40.0, PARAMS)))
    assert out[top, j2] == pytest.approx(expected, rel=1e-12)
    assert out[top, j2] > w[top, j2]
    assert np.all(delta[:, grid.q_index(0.0)] == 0.0)
    assert np.all(delta[0] == 0.0)


def test_impulse_step_identity_on_inventory_singleton():
    grid = Grid.from_params(PARAMS, d_t=0.005, d_lambda=1.0,
                            q_min=5.0, q_max=5.0)
    w = _terminal_grid(grid, PARAMS)
    out, delta = impulse_step(w, grid, PARAMS)
    np.testing.assert_array_equal(out, w)
    assert np.all(delta == 0.0)


# ---------------------------------------------------------------------------
# the one-step wrappers and solve's scheme
# ---------------------------------------------------------------------------

_TINY = dict(d_t=0.01, d_lambda=4.0, q_min=-2.0, q_max=2.0)


@pytest.mark.parametrize("case, p_hat", [
    ("desk", 0.2), ("desk", 0.0), ("tiny", 0.2), ("tiny", 0.0),
    ("tiny-alpha0", 0.2), ("tiny-alpha0", 0.0),
])
def test_wrappers_compose_to_the_solve_step(case, p_hat, request):
    """``impulse_step(transport_step(values[k - 1]))`` is ``solve``'s step
    k, values and block trades bit for bit."""
    params = PARAMS
    if case == "desk":
        surface, policy = request.getfixturevalue(
            "solved_signal" if p_hat else "solved_blind")
    elif case == "tiny" and p_hat:
        surface, policy = request.getfixturevalue("tiny_solution")
    else:
        if case == "tiny-alpha0":
            params = dataclasses.replace(PARAMS, alpha=0.0)
        surface, policy = solve(params, benchmark_mark_model(p_hat),
                                Grid.from_params(params, **_TINY))
    grid = surface.grid
    marks = benchmark_mark_model(p_hat)
    for k in sorted({1, 2, grid.n_steps // 2, grid.n_steps}):
        out, delta = impulse_step(
            transport_step(surface.values[k - 1], grid, params, marks),
            grid, params)
        np.testing.assert_array_equal(out, surface.values[k], strict=True)
        np.testing.assert_array_equal(delta, policy.delta_star[k],
                                      strict=True)


def test_a_solve_builds_one_full_trade_axis(monkeypatch):
    """The visible branches and the block-trade comparison share one trade
    axis; the invisible branch has the zero-trade one."""
    widths = []

    class CountingSlots(hjb._Slots):
        def __init__(self, grid, params, n, geometry, first):
            super().__init__(grid, params, n, geometry, first)
            widths.append(len(n))

    monkeypatch.setattr(hjb, "_Slots", CountingSlots)
    grid = Grid.from_params(PARAMS, **_TINY)
    solve(PARAMS, benchmark_mark_model(0.2), grid)
    assert sorted(widths) == [1, len(_scan_trades(grid))]


def test_a_mirror_symmetric_market_computes_the_upper_columns_only(
        bench_params, marks_signal, desk_grid):
    """The desk market is its own mirror image in inventory, so its
    kernels run on the columns from ``q = 0`` up; marks that are not
    closed under ``eta -> -eta``, or a grid off centre, compute every
    column."""
    def columns(grid, marks):
        scheme = hjb._Scheme(grid, bench_params, marks)
        columns = scheme.block.slots.columns
        np.testing.assert_array_equal(scheme.invisible.slots.columns,
                                      columns)
        return grid.q_values[columns]

    assert desk_grid.n_q == 25
    np.testing.assert_array_equal(columns(desk_grid, marks_signal),
                                  np.arange(13.0))
    assert len(columns(desk_grid, MarkModel(_SKEW, 0.2))) == 25
    off_centre = Grid.from_params(bench_params, d_t=0.01, d_lambda=4.0,
                                  q_min=-2.0, q_max=3.0)
    assert len(columns(off_centre, marks_signal)) == 6


@pytest.mark.parametrize("solution", ["solved_signal", "tiny_solution"])
def test_mirrored_columns_hold_the_same_values_and_negated_trades(
        solution, request):
    surface, policy = request.getfixturevalue(solution)
    assert surface.values.tobytes() == surface.values[:, :, ::-1].tobytes()
    off_centre = surface.grid.q_values != 0.0
    gamma = policy.gamma_star[:, :, off_centre]
    delta = policy.delta_star[:, :, off_centre]
    assert np.any(gamma) and np.any(delta)
    np.testing.assert_array_equal(
        policy.gamma_star[:, :, ::-1][:, :, off_centre], -gamma)
    np.testing.assert_array_equal(
        policy.delta_star[:, :, ::-1][:, :, off_centre], -delta)


@pytest.mark.parametrize("solution",
                         ["solved_signal", "solved_blind", "tiny_solution"])
def test_stored_tables_hold_no_negative_zero(solution, request):
    _, policy = request.getfixturevalue(solution)
    for table in (policy.gamma_star, policy.delta_star):
        assert not np.any(np.signbit(table) & (table == 0.0))


def test_each_kernel_holds_one_multiplier_per_landing_slab(
        bench_params, marks_signal, desk_grid):
    """Marks that land on the same rows are folded into one slab at build
    time: a buy and a sell of one size land together, so on the desk grid
    the nine liquidity-taking marks of the -1 branch read three slabs."""
    scheme = hjb._Scheme(desk_grid, bench_params, marks_signal)
    kernels = {"visible -1": scheme.visible[-1],
               "visible +1": scheme.visible[1],
               "invisible": scheme.invisible, "block": scheme.block}
    slabs = {}
    for name, kernel in kernels.items():
        assert kernel.multiplier.shape == kernel.index.shape, name
        assert kernel.index.dtype == np.intp, name
        rows = kernel.index.reshape(len(kernel.index), -1)
        assert len(np.unique(rows, axis=0)) == len(rows), name
        slabs[name] = len(rows)
    assert slabs == {"visible -1": 3, "visible +1": 3, "invisible": 6,
                     "block": 1}


# ---------------------------------------------------------------------------
# zero-rate solve against the exhaustive block-trade scan
# ---------------------------------------------------------------------------

def test_zero_rate_solve_matches_dynamic_programming_oracle():
    params = dataclasses.replace(PARAMS, theta_f=0.0, theta_g=0.0,
                                 lambda_lower=-40.0, lambda_upper=-34.0)
    with pytest.warns(UserWarning, match="resilient"):
        marks = MarkModel((Mark(eta=1.0, rho=0.0, nu=1.0),), 0.0)
    grid = Grid.from_params(params, d_t=0.1, d_lambda=1.0,
                            q_min=-3.0, q_max=3.0)
    surface, policy = solve(params, marks, grid)

    lam_live = grid.lam_values[1:]
    values, frozen = impulse_dp_oracle(params, lam_live, grid.q_values,
                                       n_rounds=grid.n_steps)
    for i, lam in enumerate(lam_live, start=1):
        for j, q in enumerate(grid.q_values):
            assert surface.values[grid.n_steps, i, j] == pytest.approx(
                values[(float(lam), float(q))], rel=1e-11), (lam, q)
    for j, q in enumerate(grid.q_values):
        assert surface.values[grid.n_steps, 0, j] == pytest.approx(
            frozen[float(q)], rel=1e-11)
    # with no external events the signal branch never fires
    assert np.all(policy.gamma_star == 0.0)


def test_zero_rate_value_is_monotone_in_rounds():
    params = dataclasses.replace(PARAMS, theta_f=0.0, theta_g=0.0,
                                 lambda_lower=-40.0, lambda_upper=-34.0)
    with pytest.warns(UserWarning, match="resilient"):
        marks = MarkModel((Mark(eta=1.0, rho=0.0, nu=1.0),), 0.0)
    grid = Grid.from_params(params, d_t=0.1, d_lambda=1.0,
                            q_min=-3.0, q_max=3.0)
    surface, _ = solve(params, marks, grid)
    for k in range(1, grid.n_steps + 1):
        assert np.all(surface.values[k] >= surface.values[k - 1] - 1e-15)


# ---------------------------------------------------------------------------
# solved benchmark surface invariants
# ---------------------------------------------------------------------------

def test_solved_surface_shapes_and_terminal_slice(solved_signal, desk_grid,
                                                  bench_params):
    surface, policy = solved_signal
    n_t = desk_grid.n_steps + 1
    assert surface.values.shape == (n_t, desk_grid.n_lambda, desk_grid.n_q)
    assert policy.gamma_star.shape == (n_t, desk_grid.n_lambda,
                                       desk_grid.n_q, 2)
    assert policy.delta_star.shape == surface.values.shape
    np.testing.assert_allclose(surface.values[0],
                               _terminal_grid(desk_grid, bench_params),
                               rtol=1e-12)


def test_solved_surface_is_negative_and_flat_at_zero_inventory(solved_signal,
                                                               desk_grid):
    surface, _ = solved_signal
    assert np.all(surface.values < 0.0)
    j0 = desk_grid.q_index(0.0)
    np.testing.assert_allclose(surface.values[:, :, j0], -1.0, rtol=1e-10)


def test_solved_surface_symmetric_in_inventory(solved_signal):
    surface, _ = solved_signal
    np.testing.assert_allclose(surface.values,
                               surface.values[:, :, ::-1], rtol=0,
                               atol=1e-8)


def test_solved_surface_monotone_in_liquidity(solved_signal):
    surface, _ = solved_signal
    live = surface.values[:, 1:, :]
    assert np.all(np.diff(live, axis=1) >= -1e-10)
    # the frozen row is never better than the floor row
    assert np.all(surface.values[:, 0, :] <= surface.values[:, 1, :] + 1e-12)


def test_solved_surface_monotone_in_time_to_go(solved_signal):
    surface, _ = solved_signal
    assert np.all(np.diff(surface.values, axis=0) >= -1e-10)


def test_half_step_liquidity_rows_are_exact_on_whole_lot_markets(
        bench_params, marks_signal):
    """Marks, trades and the floor are whole lots, so from a whole-lot
    level every landing is a whole-lot level: the half-lot rows of a
    ``d_lambda`` 0.5 solve are never reached from the ``d_lambda`` 1 rows,
    and those rows equal the coarse solve bit for bit."""
    solutions = [solve(bench_params, marks_signal, Grid.from_params(
        bench_params, d_t=0.005, d_lambda=d_lambda, q_min=-6.0, q_max=6.0))
        for d_lambda in (1.0, 0.5)]
    (coarse, coarse_pol), (fine, fine_pol) = solutions
    # live rows: the coarse row i >= 1 sits at the level of fine row 2i - 1
    np.testing.assert_array_equal(fine.grid.lam_values[1::2],
                                  coarse.grid.lam_values[1:])
    for name, a, b in (("values", coarse.values, fine.values),
                       ("gamma_star", coarse_pol.gamma_star,
                        fine_pol.gamma_star),
                       ("delta_star", coarse_pol.delta_star,
                        fine_pol.delta_star)):
        assert a[:, 1:].tobytes() == b[:, 1::2].tobytes(), name


#: sha256 of the ``gamma_star`` and ``delta_star`` bytes (float64,
#: little-endian), recorded under the term-by-term sum of the kernels
#: before their marks were folded per slab: the fold may move values in
#: their last bits, but no trade.
_TABLE_DIGESTS = {
    "solved_signal": (
        "d47d6ae15c62cdf94f27479417ef8f82b7ac6a5533f46a3629058e427aa6ba90",
        "d68e4bd2025a3560cef7bbe784b71d7d0eaf3702cd3993ef1fab2dc725d161fe"),
    "solved_blind": (
        "65b412124d844a7c440334a2bf52ca6eb8c3dca6413c027d4e24543f4af9a945",
        "dc542967e833f6d139a8b32f94287b9cf20eb63bb014f8f7ff6bbcbec4699260"),
    "tiny_solution": (
        "bcd8e4e3136ab7d8373b31bee4bde670dddef1636f8e552f07ae95c56bfa1af8",
        "e9415e571b5f52456db5facf026f2707bca418b1298a43b5fb0e0fa0607c3bc7"),
}

#: Desk start values ``w`` (signal, blind) at (lambda0, q0), recorded
#: under the same term-by-term sum.
_DESK_STARTS = {
    (0.0, -8.0): (-1.0377063992895836, -1.0383960323007728),
    (0.0, 0.0): (-1.0, -1.0),
    (-36.0, 4.0): (-1.0159609449719904, -1.0161015890024376),
    (20.0, -8.0): (-1.025217022397912, -1.0252194289121912),
}


@pytest.mark.parametrize("solution", sorted(_TABLE_DIGESTS))
def test_trade_tables_keep_their_recorded_bytes(solution, request):
    _, policy = request.getfixturevalue(solution)
    digests = tuple(hashlib.sha256(table.tobytes()).hexdigest()
                    for table in (policy.gamma_star, policy.delta_star))
    assert digests == _TABLE_DIGESTS[solution]


def test_desk_start_values_drift_at_most_8_ulp(solved_signal, solved_blind):
    for (lam, q), recorded in _DESK_STARTS.items():
        for (surface, _), want in zip((solved_signal, solved_blind),
                                      recorded):
            got = surface.start_value(lam, q)
            assert abs(got - want) <= 8 * np.spacing(abs(want)), \
                (lam, q, got, want)


#: Tiny-grid start values ``w`` (with the signal) at (lambda0, q0),
#: recorded when every column was computed: there, the values at ``q`` and
#: ``-q`` could differ in their last bits.
_TINY_STARTS = {
    (-32.0, -1.0): -1.001295966680974,
    (-32.0, 1.0): -1.0012959666809735,
    (-28.0, -2.0): -1.0040012952254622,
    (-28.0, 2.0): -1.0040012952254624,
    (-16.0, -2.0): -1.003547165737195,
    (-16.0, 2.0): -1.0035471657371957,
    (12.0, -2.0): -1.0025418946732518,
    (12.0, 2.0): -1.0025418946732516,
    (0.0, -2.0): -1.0029864961916695,
}


def test_tiny_start_values_drift_at_most_5_ulp(tiny_solution):
    surface, _ = tiny_solution
    for (lam, q), want in _TINY_STARTS.items():
        got = surface.start_value(lam, q)
        assert abs(got - want) <= 5 * np.spacing(abs(want)), (lam, q, got,
                                                               want)


def test_policy_tables_stay_on_the_lattice(solved_signal, desk_grid):
    _, policy = solved_signal
    q = desk_grid.q_values
    for table in (policy.gamma_star[..., 0], policy.gamma_star[..., 1],
                  policy.delta_star):
        moved = table + q[None, None, :]
        assert np.all(moved >= desk_grid.q_min - 1e-12)
        assert np.all(moved <= desk_grid.q_max + 1e-12)
        assert np.all(table == np.round(table))
    assert np.all(policy.delta_star[:, 0, :] == 0.0)
    assert np.all(policy.gamma_star[:, 0, :, :] == 0.0)
    # no trades are tabulated on the terminal slice
    assert np.all(policy.delta_star[0] == 0.0)


def test_signal_branches_collapse_without_inventory_freedom(bench_params):
    grid = Grid.from_params(bench_params, d_t=0.005, d_lambda=1.0,
                            q_min=5.0, q_max=5.0)
    seen, _ = solve(bench_params, benchmark_mark_model(1.0), grid)
    blind, _ = solve(bench_params, benchmark_mark_model(0.0), grid)
    np.testing.assert_allclose(seen.values, blind.values, rtol=0, atol=1e-14)


def test_cancellations_fill_the_liquidity_taking_signal_slot():
    # Market orders and cancellations both take liquidity: every visible
    # event of this model signals -1, so the +1 slot never trades.
    with pytest.warns(UserWarning, match="resilient"):
        marks = MarkModel((Mark(eta=1.0, rho=0.0, nu=0.25),
                           Mark(eta=-1.0, rho=0.0, nu=0.25),
                           Mark(eta=0.0, rho=-1.0, nu=0.5)), 1.0)
    grid = Grid.from_params(PARAMS, d_t=0.01, d_lambda=4.0,
                            q_min=-2.0, q_max=2.0)
    _, policy = solve(PARAMS, marks, grid)
    assert not np.any(policy.gamma_star[..., SIGNALS.index(1)])
    assert np.any(policy.gamma_star[..., SIGNALS.index(-1)])


def _halting_trades(policy) -> dict:
    """Live-node entries of each table that overshoot the floor."""
    grid = policy.grid
    lam = grid.lam_values[1:, None, None]
    return {name: int(overshoots(lam, np.abs(table), grid.lambda_lower).sum())
            for name, table in (
                ("gamma_star", policy.gamma_star[:, 1:]),
                ("delta_star", policy.delta_star[:, 1:, :, None]))}


def test_desk_tables_never_trade_past_the_floor(solved_signal, solved_blind,
                                                narrow_policies):
    """No live-node trade of the desk tables exceeds ``lam - floor``: no
    desk trade halts the market."""
    tables = {"signal": solved_signal[1], "blind": solved_blind[1],
              **{f"narrow {k}": v for k, v in narrow_policies.items()}}
    for label, policy in tables.items():
        assert _halting_trades(policy) == {"gamma_star": 0,
                                           "delta_star": 0}, label


def test_tiny_tables_hold_no_halting_or_flat_start_trades(tiny_solution):
    """On the coarse tiny grid (``d_lambda = 4``) no live-node trade halts
    the market and no signal trade starts from flat: a landing below the
    floor reads the frozen row, so a halt is valued as the market pays
    it, and on this grid no halting trade beats holding."""
    _, policy = tiny_solution
    assert _halting_trades(policy) == {"gamma_star": 0, "delta_star": 0}
    j0 = policy.grid.q_index(0.0)
    assert policy.grid.q_values[j0] == 0.0
    assert np.count_nonzero(policy.gamma_star[:, :, j0, :]) == 0


def test_narrow_policies_never_trade_from_flat(narrow_policies, desk_grid):
    # The signal says only whether liquidity is taken or given, not which
    # side a market order hits, so a round trip from q = 0 has no expected
    # gain: no table may trade from flat, with or without signals.
    j0 = desk_grid.q_index(0.0)
    assert desk_grid.q_values[j0] == 0.0
    for label, policy in narrow_policies.items():
        assert not np.any(policy.gamma_star[:, :, j0, :]), label
        assert not np.any(policy.delta_star[:, :, j0]), label


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_save_load_roundtrip_is_bit_exact(tmp_path, tiny_solution):
    surface, policy = tiny_solution
    grid = surface.grid
    one = tmp_path / "one.npz"
    two = tmp_path / "two.npz"
    save_solution(one, surface, policy)
    save_solution(two, surface, policy)
    assert one.read_bytes() == two.read_bytes()
    # each entry is numpy's own .npy encoding of its array
    with zipfile.ZipFile(one) as zf:
        for name, array in (("values", surface.values),
                            ("gamma_star", policy.gamma_star),
                            ("delta_star", policy.delta_star)):
            npy = io.BytesIO()
            np.lib.format.write_array(npy, array, allow_pickle=False)
            assert zf.read(name + ".npy") == npy.getvalue()

    surface2, policy2 = load_solution(one)
    np.testing.assert_array_equal(surface2.values, surface.values)
    np.testing.assert_array_equal(policy2.gamma_star, policy.gamma_star)
    np.testing.assert_array_equal(policy2.delta_star, policy.delta_star)
    assert surface2.alpha == surface.alpha
    assert surface2.meta == surface.meta
    assert np.array_equal(surface2.grid.lam_values, grid.lam_values)
    assert np.array_equal(surface2.grid.q_values, grid.q_values)
    assert surface2.grid.n_steps == grid.n_steps
    # each array is writeable and shares memory with no other array
    loaded = (surface2.values, policy2.gamma_star, policy2.delta_star)
    for i, array in enumerate(loaded):
        assert array.flags.writeable
        for other in loaded[i + 1:] + (surface.values, policy.gamma_star,
                                       policy.delta_star):
            assert not np.shares_memory(array, other)


def test_loaded_members_equal_np_load_and_are_writeable(tmp_path,
                                                        tiny_solution):
    path = tmp_path / "solution.npz"
    save_solution(path, *tiny_solution)
    surface, policy = load_solution(path)
    loaded = {"values": surface.values, "gamma_star": policy.gamma_star,
              "delta_star": policy.delta_star}
    with np.load(path) as data:
        assert set(data.files) == set(loaded) | {"meta"}
        for name, array in loaded.items():
            expected = data[name]
            assert array.dtype == expected.dtype
            assert array.shape == expected.shape
            assert array.tobytes() == expected.tobytes()
            assert array.flags.writeable


def test_writing_a_loaded_array_leaves_the_file_unchanged(tmp_path,
                                                          tiny_solution):
    path = tmp_path / "solution.npz"
    save_solution(path, *tiny_solution)
    before = path.read_bytes()
    surface, policy = load_solution(path)
    for array in (surface.values, policy.gamma_star, policy.delta_star):
        array[...] = 7.0
    assert path.read_bytes() == before
    assert np.array_equal(load_solution(path)[0].values,
                          tiny_solution[0].values)


_READ_AFTER_REWRITE = """
import sys
import numpy as np
from artifact.hjb import load_solution, save_solution
path, other = sys.argv[1:]
with np.load(path) as data:
    expected = {name: data[name] for name in data.files}
surface, policy = load_solution(path)
save_solution(path, *load_solution(other))
# the first reads of the loaded arrays come after the rewrite
loaded = {"values": surface.values, "gamma_star": policy.gamma_star,
          "delta_star": policy.delta_star}
print(all(np.array_equal(array, expected[name], equal_nan=True)
          for name, array in loaded.items()))
"""


def test_a_loaded_solution_survives_a_rewrite_of_its_file(
        tmp_path, bench_params, tiny_solution):
    path = tmp_path / "solution.npz"
    other = tmp_path / "other.npz"
    save_solution(path, *tiny_solution)
    # a smaller solution: rewriting in place would shorten the file
    grid = Grid.from_params(bench_params, d_t=0.01, d_lambda=4.0,
                            q_min=-1.0, q_max=1.0)
    save_solution(other, *solve(bench_params, benchmark_mark_model(0.3),
                                grid))
    assert other.stat().st_size < path.stat().st_size
    src = Path(__file__).resolve().parent.parent / "src"
    # a fresh interpreter: a read past a cut mapping kills it, not pytest
    result = subprocess.run(
        [sys.executable, "-c", _READ_AFTER_REWRITE, str(path), str(other)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "True"
    assert path.read_bytes() == other.read_bytes()


def test_compressed_members_are_refused(tmp_path, tiny_solution):
    surface, policy = tiny_solution
    path = tmp_path / "compressed.npz"
    np.savez_compressed(path, values=surface.values,
                        gamma_star=policy.gamma_star,
                        delta_star=policy.delta_star,
                        meta=np.frombuffer(b"{}", dtype=np.uint8))
    with pytest.raises(ValueError, match="compressed"):
        load_solution(path)


@pytest.mark.parametrize("case", ["not a zip", "missing member",
                                  "bad metadata", "arrays off the grid"])
def test_an_unreadable_solution_is_a_value_error_naming_it(tmp_path,
                                                           tiny_solution,
                                                           case):
    path = tmp_path / "solution.npz"
    if case == "not a zip":
        path.write_bytes(b"junk\n")
    else:
        save_solution(path, *tiny_solution)
        with zipfile.ZipFile(path) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
        if case == "missing member":
            del members["values.npy"]
        elif case == "arrays off the grid":
            npy = io.BytesIO()
            np.lib.format.write_array(npy, tiny_solution[0].values[:, :, 1:])
            members["values.npy"] = npy.getvalue()
        else:
            npy = io.BytesIO()
            np.lib.format.write_array(
                npy, np.frombuffer(b"{not json", dtype=np.uint8))
            members["meta.npy"] = npy.getvalue()
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
            for name, data in members.items():
                zf.writestr(name, data)
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_solution(path)


def test_a_failed_save_leaves_no_partial_file(tmp_path, tiny_solution):
    surface, policy = tiny_solution
    path = tmp_path / "solution.npz"
    save_solution(path, surface, policy)
    before = path.read_bytes()
    # an object array cannot be streamed: the save fails on its last member
    broken = dataclasses.replace(surface,
                                 values=surface.values.astype(object))
    with pytest.raises(TypeError):
        save_solution(path, broken, policy)
    assert os.listdir(tmp_path) == ["solution.npz"]
    assert path.read_bytes() == before


def test_start_value_interpolates_the_full_horizon_slice(solved_signal,
                                                         desk_grid):
    surface, _ = solved_signal
    k = desk_grid.n_steps
    i = desk_grid.lambda_index(0.0)
    j = desk_grid.q_index(-8.0)
    assert surface.start_value(0.0, -8.0) == surface.values[k, i, j]
    between = surface.start_value(0.5, -8.0)
    lo = surface.values[k, i, j]
    hi = surface.values[k, desk_grid.lambda_index(1.0), j]
    assert between == pytest.approx(0.5 * (lo + hi), rel=1e-12)
