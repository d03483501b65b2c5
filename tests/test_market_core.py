"""Market primitives against independent quadrature and enumeration oracles."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from artifact.market_core import (
    MarketParams,
    MarketState,
    apply_shock_detailed,
    auction_exposure,
    check_elasticity,
    clip_to_liquidity,
    impact_cost,
    overshoots,
    price_impact,
    terminal_wealth,
    utility,
)
from artifact.order_flow import Mark, MarkModel, benchmark_mark_model
from oracles import (cost_oracle, impact_oracle, price_volatility,
                     shock_oracle, terminal_wealth_oracle, volatility_oracle)

PARAMS = MarketParams()


def _after(state, gamma, eta, rho, params=PARAMS):
    """State after one shock of plain volumes."""
    return apply_shock_detailed(state, gamma, eta, rho, params)[0]


lam_floats = st.floats(min_value=-39.0, max_value=40.0)
trade_floats = st.floats(min_value=0.01, max_value=6.0)
signs = st.sampled_from([-1.0, 1.0])


# ---------------------------------------------------------------------------
# closed forms vs quadrature
# ---------------------------------------------------------------------------

def test_impact_and_cost_match_quadrature_oracle():
    """1,000 random (delta, lam) pairs within 1e-10 relative, under 1 s."""
    rng = np.random.Generator(np.random.Philox(key=np.array([11, 0],
                                                            dtype=np.uint64)))
    start = time.perf_counter()
    worst_i = worst_c = 0.0
    for _ in range(1000):
        delta = float(rng.uniform(0.01, 6.0) * rng.choice([-1.0, 1.0]))
        lam = float(rng.uniform(-40.0, 40.0))
        oi = impact_oracle(delta, lam, PARAMS)
        oc = cost_oracle(delta, lam, PARAMS)
        worst_i = max(worst_i, abs(price_impact(delta, lam, PARAMS) - oi)
                      / max(abs(oi), 1e-12))
        worst_c = max(worst_c, abs(impact_cost(delta, lam, PARAMS) - oc)
                      / max(abs(oc), 1e-12))
    elapsed = time.perf_counter() - start
    assert worst_i <= 1e-10, f"impact relative error {worst_i:.2e}"
    assert worst_c <= 1e-10, f"cost relative error {worst_c:.2e}"
    assert elapsed < 1.0, f"oracle sweep took {elapsed:.2f}s"


def test_impact_matches_scipy_quadrature_spot_checks():
    for delta, lam in ((1.0, 0.0), (-2.5, 7.0), (4.0, -30.0), (0.7, 39.0)):
        ref, _ = integrate.quad(
            lambda z: PARAMS.theta_iota + PARAMS.kappa_iota * (lam - z),
            0.0, abs(delta))
        ref = math.copysign(ref, delta)
        assert price_impact(delta, lam, PARAMS) == pytest.approx(ref,
                                                                 rel=1e-10)
        ref_cost, _ = integrate.quad(
            lambda u: abs(impact_oracle(u, lam, PARAMS)), 0.0, abs(delta))
        assert impact_cost(delta, lam, PARAMS) == pytest.approx(ref_cost,
                                                                rel=1e-9)


def test_impact_frozen_examples():
    assert price_impact(0.0, 13.7, PARAMS) == 0.0
    assert price_impact(1.0, 0.0, PARAMS) == pytest.approx(0.0101,
                                                           rel=1e-12)
    assert price_impact(-1.0, 0.0, PARAMS) == pytest.approx(-0.0101,
                                                            rel=1e-12)
    # whole vs split execution at lam = 5
    lhs = price_impact(3.0, 5.0, PARAMS)
    rhs = price_impact(1.0, 5.0, PARAMS) + price_impact(2.0, 4.0, PARAMS)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert lhs == pytest.approx(impact_oracle(1.0, 5.0, PARAMS)
                                + impact_oracle(2.0, 4.0, PARAMS), rel=1e-12)


def test_cost_frozen_examples():
    assert impact_cost(0.0, -3.0, PARAMS) == 0.0
    hand = 0.01 * 2.0 ** 2 / 2.0 + 0.0002 * 2.0 ** 3 / 6.0
    assert impact_cost(2.0, 0.0, PARAMS) == pytest.approx(hand, rel=1e-12)
    assert impact_cost(-2.0, 0.0, PARAMS) == pytest.approx(hand, rel=1e-12)


@pytest.mark.parametrize("fn", [price_impact, impact_cost])
@pytest.mark.parametrize("delta", [0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 3.0, -3.0])
def test_scalar_branch_is_bitwise_the_array_branch(fn, delta):
    """Scalars and arrays run one code path: a scalar call returns a float
    (``np.float64``) with the bits of the array call's element."""
    for lam in (-39.5, -7.3, 0.0, 12.25, 40.0):
        array = fn(np.array([delta]), np.array([lam]), PARAMS)[0]
        for lam_scalar in (lam, np.float64(lam)):
            scalar = fn(delta, lam_scalar, PARAMS)
            assert isinstance(scalar, float)
            assert scalar.hex() == array.hex(), (delta, lam_scalar)


@given(delta=trade_floats, sign=signs, lam=lam_floats)
def test_impact_antisymmetric_cost_symmetric(delta, sign, lam):
    d = sign * delta
    assert price_impact(-d, lam, PARAMS) == pytest.approx(
        -price_impact(d, lam, PARAMS), rel=1e-12, abs=1e-15)
    assert impact_cost(-d, lam, PARAMS) == pytest.approx(
        impact_cost(d, lam, PARAMS), rel=1e-12, abs=1e-15)


@given(first=trade_floats, second=trade_floats, sign=signs, lam=lam_floats)
def test_order_splitting_identities(first, second, sign, lam):
    """Executing a + b at once is consistent with executing a then b."""
    a, b = sign * first, sign * second
    whole = price_impact(a + b, lam, PARAMS)
    split = price_impact(a, lam, PARAMS) + price_impact(b, lam - abs(a),
                                                        PARAMS)
    assert whole == pytest.approx(split, rel=1e-12, abs=1e-15)

    # cash friction splits with the price-move cross term: the second
    # tranche trades at the price already moved by the first
    whole_cost = impact_cost(a + b, lam, PARAMS)
    split_cost = (impact_cost(a, lam, PARAMS)
                  + impact_cost(b, lam - abs(a), PARAMS)
                  + price_impact(a, lam, PARAMS) * b)
    assert whole_cost == pytest.approx(split_cost, rel=1e-12, abs=1e-15)


@given(first=trade_floats, second=trade_floats, sign=signs,
       lam=st.floats(min_value=-20.0, max_value=40.0))
def test_split_execution_reaches_identical_state(first, second, sign, lam):
    """Full state equality of one-shot vs two-tranche execution."""
    a, b = sign * first, sign * second
    start = MarketState(lam=lam, q=0.0, p=100.0, x=0.0)
    one = _after(start, a + b, 0.0, 0.0)
    two = _after(start, a, 0.0, 0.0)
    two = _after(two, b, 0.0, 0.0)
    assert two.lam == pytest.approx(one.lam, abs=1e-12)
    assert two.q == pytest.approx(one.q, abs=1e-12)
    assert two.p == pytest.approx(one.p, rel=1e-12)
    assert two.x == pytest.approx(one.x, rel=1e-12)


@given(delta=trade_floats, sign=signs,
       lo=st.floats(min_value=-39.0, max_value=30.0),
       bump=st.floats(min_value=0.1, max_value=10.0))
def test_impact_magnitude_monotone(delta, sign, lo, bump):
    """|impact| shrinks as liquidity grows and grows with trade size."""
    d = sign * delta
    assert abs(price_impact(d, lo, PARAMS)) >= abs(
        price_impact(d, lo + bump, PARAMS)) - 1e-15
    assert abs(price_impact(d * 1.5, lo, PARAMS)) >= abs(
        price_impact(d, lo, PARAMS)) - 1e-15


# ---------------------------------------------------------------------------
# roundtrips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("zeta", [PARAMS.zeta, 0.0])
def test_instantaneous_roundtrip_loses_money(zeta):
    params = dataclasses.replace(PARAMS, zeta=zeta)
    for delta in (1.0, 2.0, 3.0, 4.0, 5.0):
        for lam in np.arange(params.lambda_lower + 2 * delta, 41.0, 7.0):
            start = MarketState(lam=float(lam), q=0.0, p=100.0, x=0.0)
            mid = _after(start, delta, 0.0, 0.0, params)
            end = _after(mid, -delta, 0.0, 0.0, params)
            assert end.q == start.q
            assert end.x < start.x, (
                f"roundtrip of {delta} lots at lam={lam} did not lose")


# ---------------------------------------------------------------------------
# rates and volatility
# ---------------------------------------------------------------------------

def test_arrival_rates_examples():
    assert (PARAMS.f(0.0), PARAMS.g(0.0)) == (20.0, 40.0)
    flat = dataclasses.replace(PARAMS, kappa_f=0.0, kappa_g=0.0)
    assert (flat.f(0.0), flat.g(0.0)) == (flat.theta_f, flat.theta_g)
    f40, g40 = PARAMS.f(40.0), PARAMS.g(40.0)
    assert f40 == pytest.approx(20.0 * math.exp(0.4), rel=1e-14)
    assert g40 == pytest.approx(40.0 * math.exp(-0.4), rel=1e-14)


def test_arrival_rates_take_one_path_for_scalars_and_arrays():
    # the desk band at quarter-lot steps
    levels = PARAMS.lambda_lower + 0.25 * np.arange(321)
    assert levels[-1] == PARAMS.lambda_upper
    for rate in (PARAMS.f, PARAMS.g):
        for level, expected in zip(levels.tolist(), rate(levels).tolist()):
            spellings = [level, np.array(level)]
            if level.is_integer():
                spellings.append(int(level))
            for v in spellings:
                got = rate(v)
                assert type(got) is np.float64, (rate.__name__, v)
                assert got == expected, (rate.__name__, v)


def test_price_volatility_matches_enumeration_oracle(marks_blind):
    for lam in (-40.0, -10.0, 0.0, 17.5, 40.0):
        assert price_volatility(lam, marks_blind, PARAMS) == pytest.approx(
            volatility_oracle(lam, PARAMS), rel=1e-12)
    sigma0 = price_volatility(0.0, marks_blind, PARAMS)
    assert 0.0630 < sigma0 < 0.0632


def test_price_volatility_zero_without_market_orders(marks_blind):
    silent = dataclasses.replace(PARAMS, theta_f=0.0)
    for lam in (-40.0, 0.0, 40.0):
        assert price_volatility(lam, marks_blind, silent) == 0.0


def test_price_volatility_strictly_decreasing(marks_blind):
    grid = np.arange(-40.0, 41.0, 1.0)
    sig = np.array([price_volatility(l, marks_blind, PARAMS) for l in grid])
    assert np.all(np.diff(sig) < 0.0)
    assert price_volatility(-10.0, marks_blind, PARAMS) \
        > price_volatility(10.0, marks_blind, PARAMS)


def test_check_elasticity_verdicts(marks_blind):
    grid = np.arange(-40.0, 41.0, 5.0)
    assert np.all(check_elasticity(PARAMS, marks_blind, grid))
    flat_f = dataclasses.replace(PARAMS, kappa_f=0.0)
    assert not np.any(check_elasticity(flat_f, marks_blind, grid))
    flat_iota = dataclasses.replace(PARAMS, kappa_iota=0.0)
    assert not np.any(check_elasticity(flat_iota, marks_blind, grid))
    no_mo = MarkModel((Mark(eta=0.0, rho=1.0, nu=1.0),), 0.0)
    with pytest.raises(ValueError):
        check_elasticity(PARAMS, no_mo, grid)


# ---------------------------------------------------------------------------
# clipping, shocks, breaker
# ---------------------------------------------------------------------------

def test_clip_to_liquidity_examples():
    assert clip_to_liquidity(2.0, 0.0, -40.0) == 2.0
    assert clip_to_liquidity(5.0, -38.0, -40.0) == 2.0
    assert clip_to_liquidity(-5.0, -41.0, -40.0) == 0.0
    # within the floor tolerance a volume fits and is not clipped
    assert clip_to_liquidity(2.0 + 5e-10, -38.0, -40.0) == 2.0 + 5e-10


def test_overshoots_is_the_floor_test_with_its_tolerance():
    lam = np.array([-38.0, -38.0, -38.0, -38.0, -41.0])
    volume = np.array([2.0, 2.0 + 5e-10, 2.0 + 2e-9, 3.0, 0.0])
    np.testing.assert_array_equal(overshoots(lam, volume, -40.0),
                                  [False, False, True, True, True])


def test_auction_exposure_examples():
    # covered, partly covered, at the floor, below it (the halted market)
    q = np.array([2.0, -5.0, 2.0, -3.0])
    lam = np.array([10.0, -37.0, -40.0, -41.0])
    np.testing.assert_array_equal(auction_exposure(q, lam, -40.0),
                                  [0.0, 2.0, 2.0, 3.0])


def test_apply_shock_identity():
    state = MarketState(lam=3.0, q=-2.0, p=101.0, x=7.0)
    assert _after(state, 0.0, 0.0, 0.0) == state


def test_apply_shock_buy_one_lot_example():
    start = MarketState(lam=0.0, q=0.0, p=100.0, x=0.0)
    out = _after(start, 1.0, 0.0, 0.0)
    assert out.lam == -1.0
    assert out.q == 1.0
    assert out.p == pytest.approx(100.0101, rel=1e-14)
    assert out.x == pytest.approx(
        -(100.0 + 0.005 + (0.005 + 0.0002 / 6.0)), rel=1e-14)


def test_apply_shock_clips_market_order_and_halts():
    start = MarketState(lam=-39.0, q=0.0, p=100.0, x=0.0)
    state, _, executed_eta, _, _, _ = apply_shock_detailed(
        start, 0.0, -3.0, 0.0, PARAMS)
    assert executed_eta == -1.0
    assert state.halted
    assert state.lam == -40.0
    assert state.q == 0.0
    assert state.p == pytest.approx(100.0 - 0.0179, rel=1e-14)


def test_apply_shock_rejects_mixed_volumes():
    state = MarketState(lam=0.0, q=0.0, p=100.0, x=0.0)
    with pytest.raises(ValueError):
        apply_shock_detailed(state, 0.0, 1.0, 1.0, PARAMS)


def test_halted_market_ignores_further_shocks():
    start = MarketState(lam=-39.0, q=0.0, p=100.0, x=0.0)
    halted = _after(start, 0.0, -3.0, 0.0)
    assert halted.halted
    for shock in ((1.0, 0.0, 0.0), (0.0, -2.0, 0.0), (0.0, 0.0, 3.0)):
        after, g_exec, e_exec, r_exec, _, _ = apply_shock_detailed(
            halted, *shock, PARAMS)
        assert after == halted
        assert g_exec == e_exec == r_exec == 0.0


def test_trader_overshoot_suppresses_external_volume():
    """A clipped signal trade halts the market before the event lands."""
    start = MarketState(lam=-38.0, q=0.0, p=100.0, x=0.0)
    state, g_exec, e_exec, _, _, _ = apply_shock_detailed(
        start, 5.0, -1.0, 0.0, PARAMS)
    assert g_exec == 2.0
    assert e_exec == 0.0
    assert state.halted
    assert state.lam == -40.0
    assert state.q == 2.0


def test_cancellation_can_trigger_the_breaker():
    start = MarketState(lam=-39.5, q=0.0, p=100.0, x=0.0)
    state, _, _, r_exec, _, _ = apply_shock_detailed(
        start, 0.0, 0.0, -1.0, PARAMS)
    assert r_exec == -0.5
    assert state.lam == -40.0
    assert state.halted


def test_posts_beyond_the_cap_are_discarded():
    """Liquidity stops at the cap; the post still books in full."""
    start = MarketState(lam=39.0, q=0.0, p=100.0, x=0.0)
    state, g_exec, e_exec, r_exec, pj_g, pj_e = apply_shock_detailed(
        start, 0.0, 0.0, 3.0, PARAMS)
    assert state == MarketState(lam=40.0, q=0.0, p=100.0, x=0.0)
    assert r_exec == 3.0
    assert g_exec == e_exec == pj_g == pj_e == 0.0


def test_block_shock_is_bitwise_the_scalar_shock():
    """One array call over every case equals the scalar transition case by
    case, signed zeros and halts included, and so does terminal wealth."""
    volumes = (0.0, -0.0, 0.5, 1.0, -1.0, 2.0, -3.0, 5.0)
    cases = [(MarketState(lam=lam, q=q, p=100.0 + lam / 7.0, x=x,
                          halted=halted), gamma, eta, rho)
             for lam in (-40.0, -39.5, -38.0, -7.3, 0.0, 38.5, 40.0)
             for q, x in ((0.0, 0.0), (-8.0, 12.5))
             for halted in (False, True)
             for gamma in volumes
             for eta, rho in [(v, 0.0) for v in volumes]
             + [(0.0, v) for v in volumes[2:]]]
    block = MarketState(*(np.array(column) for column in zip(
        *((c[0].lam, c[0].q, c[0].p, c[0].x, c[0].halted) for c in cases))))
    new, *executed = apply_shock_detailed(
        block, *(np.array(column) for column in zip(*(c[1:] for c in cases))),
        PARAMS)
    wealth = terminal_wealth(new, PARAMS, 0.7)
    for n, (state, gamma, eta, rho) in enumerate(cases):
        want, *want_executed = shock_oracle(state, gamma, eta, rho, PARAMS)
        got = [new.lam[n], new.q[n], new.p[n], new.x[n], wealth[n]] \
            + [v[n] for v in executed]
        expected = [want.lam, want.q, want.p, want.x,
                    terminal_wealth_oracle(want, PARAMS, 0.7)] + want_executed
        assert [float(v).hex() for v in got] \
            == [float(v).hex() for v in expected], (state, gamma, eta, rho)
        assert bool(new.halted[n]) == want.halted


# ---------------------------------------------------------------------------
# terminal wealth and utility
# ---------------------------------------------------------------------------

def test_terminal_wealth_flat_inventory_is_cash():
    state = MarketState(lam=5.0, q=0.0, p=104.0, x=12.5)
    for draw in (-2.0, 0.0, 3.0):
        assert terminal_wealth(state, PARAMS, draw) == 12.5


def test_terminal_wealth_covered_inventory():
    state = MarketState(lam=10.0, q=2.0, p=100.0, x=1.5)
    xi = (0.01 - 0.0002 * 10.0) * 2.0 ** 2 / 2.0 + 0.0002 * 8.0 / 6.0
    expected = 1.5 + 200.0 - 2.0 * PARAMS.zeta - xi
    for draw in (-1.0, 0.0, 2.0):   # auction noise must not enter
        assert terminal_wealth(state, PARAMS, draw) == pytest.approx(
            expected, rel=1e-14)


def test_terminal_wealth_exposed_inventory_at_floor():
    state = MarketState(lam=-40.0, q=2.0, p=100.0, x=0.0)
    xi = (0.01 + 0.0002 * 40.0) * 2.0 ** 2 / 2.0 + 0.0002 * 8.0 / 6.0
    expected = 200.0 + 2.0 * PARAMS.sigma_auction - 2.0 * PARAMS.zeta - xi
    assert terminal_wealth(state, PARAMS, 1.0) == pytest.approx(expected,
                                                                rel=1e-14)


def test_utility_shapes():
    assert utility(0.0, 0.1) == -1.0
    assert utility(3.0, 0.1) == pytest.approx(-math.exp(-0.3), rel=1e-14)
    assert utility(3.0, 0.0) == 3.0
    arr = utility(np.array([0.0, 1.0]), 0.1)
    assert arr == pytest.approx([-1.0, -math.exp(-0.1)])
    with pytest.raises(ValueError):
        utility(1.0, -0.5)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("theta_f", -1.0),
    ("theta_g", -1.0),
    ("kappa_f", -0.01),
    ("kappa_g", -0.01),
    ("zeta", -0.001),
    ("sigma_auction", -0.3),
    ("alpha", -0.1),
    ("lot_size", 0.0),
])
def test_params_reject_bad_values(field, value):
    with pytest.raises(ValueError):
        dataclasses.replace(PARAMS, **{field: value})


def test_params_reject_negative_marginal_impact_on_band():
    with pytest.raises(ValueError, match="iota"):
        dataclasses.replace(PARAMS, kappa_iota=-0.001)


def test_params_reject_inverted_band():
    with pytest.raises(ValueError):
        dataclasses.replace(PARAMS, lambda_lower=10.0, lambda_upper=-10.0)
