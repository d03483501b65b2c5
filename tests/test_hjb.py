"""Backward solver: terminal condition, kernels, convergence, persistence."""

import dataclasses
import math

import numpy as np
import pytest

from artifact.hjb import (
    Grid,
    StabilityError,
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
from artifact.market_core import MarketParams, impact_cost, price_impact
from artifact.order_flow import Mark, MarkModel, benchmark_mark_model
from oracles import impulse_dp_oracle, terminal_oracle

PARAMS = MarketParams()


def _terminal_grid(grid, params):
    out = np.empty((grid.n_lambda, grid.n_q))
    for i, lam in enumerate(grid.lam_values):
        for j, q in enumerate(grid.q_values):
            out[i, j] = terminal_condition(float(lam), float(q), params)
    return out


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
    assert grid.time_to_go[-1] == pytest.approx(PARAMS.horizon)


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


def test_solve_rejects_mismatched_grid(bench_params, marks_signal):
    shifted = dataclasses.replace(bench_params, lambda_upper=30.0)
    grid = Grid.from_params(shifted, d_t=0.005, d_lambda=1.0,
                            q_min=-2.0, q_max=2.0)
    with pytest.raises(ValueError, match="mismatch"):
        solve(bench_params, marks_signal, grid)


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
    with pytest.raises(ValueError, match="frozen"):
        interpolate_lambda(w, -41.5, grid)
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

def test_save_load_roundtrip_is_bit_exact(tmp_path, bench_params):
    grid = Grid.from_params(bench_params, d_t=0.01, d_lambda=4.0,
                            q_min=-2.0, q_max=2.0)
    surface, policy = solve(bench_params, benchmark_mark_model(0.2), grid)
    one = tmp_path / "one.npz"
    two = tmp_path / "two.npz"
    save_solution(one, surface, policy)
    save_solution(two, surface, policy)
    assert one.read_bytes() == two.read_bytes()

    surface2, policy2 = load_solution(one)
    np.testing.assert_array_equal(surface2.values, surface.values)
    np.testing.assert_array_equal(policy2.gamma_star, policy.gamma_star)
    np.testing.assert_array_equal(policy2.delta_star, policy.delta_star)
    assert surface2.alpha == surface.alpha
    assert surface2.meta == surface.meta
    assert np.array_equal(surface2.grid.lam_values, grid.lam_values)
    assert np.array_equal(surface2.grid.q_values, grid.q_values)
    assert surface2.grid.n_steps == grid.n_steps


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
