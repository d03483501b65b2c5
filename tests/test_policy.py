"""Agents: schedule mechanics, table lookups, and baseline dominance."""

import math

import numpy as np
import pytest

from artifact.hjb import Grid, Policy
from artifact.market_core import (MarketParams, MarketState,
                                  apply_shock_detailed, utility)
from artifact.order_flow import make_path_seed, simulate_paths
from artifact.policy import (Agent, DoNothingAgent, ImmediateExecutionAgent,
                             TablePolicyAgent, TwapAgent)
from oracles import ScalarHooks, next_impulse_walk

PARAMS = MarketParams()


def _state(lam=0.0, q=0.0, halted=False):
    return MarketState(lam=lam, q=q, p=100.0, x=0.0, halted=halted)


def _block(states):
    """The states as one block: a ``MarketState`` of arrays."""
    return MarketState(*(np.array(column) for column in zip(
        *((s.lam, s.q, s.p, s.x, s.halted) for s in states))))


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_do_nothing_agent_never_trades():
    assert DoNothingAgent().name == "do-nothing"
    agent = ScalarHooks(DoNothingAgent())
    assert agent.on_state(0.0, _state(q=-8.0)) == 0.0
    assert agent.on_signal(0.5, _state(q=-8.0), -1) == 0.0
    assert agent.next_impulse(0.0, 1.0, _state(q=-8.0)) is None


def test_immediate_agent_trades_the_clipped_gap():
    agent = ScalarHooks(ImmediateExecutionAgent(0.0, PARAMS))
    assert agent.on_state(0.0, _state(lam=0.0, q=-8.0)) == 8.0
    assert agent.on_state(0.3, _state(lam=0.0, q=3.0)) == -3.0
    assert agent.on_state(0.0, _state(lam=0.0, q=0.0)) == 0.0
    # at thin liquidity only the available headroom trades
    assert agent.on_state(0.0, _state(lam=-38.0, q=-8.0)) == 2.0
    assert agent.on_state(0.0, _state(lam=-38.0, q=5.0)) == -2.0
    assert agent.on_state(0.0, _state(lam=-40.0, q=5.0)) == 0.0


def test_twap_agent_schedule():
    agent = TwapAgent(0.0, -8.0, PARAMS)
    times = [t for t, _ in agent.schedule]
    lots = [v for _, v in agent.schedule]
    assert times[:7] == [pytest.approx(k / 8.0) for k in range(1, 8)]
    assert times[7] == pytest.approx(PARAMS.horizon * (1.0 - 1e-6))
    assert lots == [1.0] * 8
    sell = TwapAgent(0.0, 3.0, PARAMS)
    assert [v for _, v in sell.schedule] == [-1.0] * 3
    assert TwapAgent(0.0, 0.0, PARAMS).schedule == ()
    with pytest.raises(ValueError, match="whole number of lots"):
        TwapAgent(0.0, -2.5, PARAMS)


def test_twap_agent_next_impulse_windows():
    agent = ScalarHooks(TwapAgent(0.0, -8.0, PARAMS))
    state = _state(lam=0.0, q=-8.0)
    # the tick must fall strictly inside the window
    assert agent.next_impulse(0.0, 0.125, state) is None
    assert agent.next_impulse(0.0, 0.2, state) == (0.125, 1.0)
    assert agent.next_impulse(0.125, 0.3, state) == (0.25, 1.0)
    # once at target the remaining ticks are dropped
    assert agent.next_impulse(0.9, 1.0, _state(q=0.0)) is None
    # thin liquidity clips the lot
    t_k, lot = agent.next_impulse(0.0, 0.2, _state(lam=-40.0, q=-8.0))
    assert (t_k, lot) == (0.125, 0.0)


# ---------------------------------------------------------------------------
# table lookups against a hand-built policy
# ---------------------------------------------------------------------------

@pytest.fixture()
def toy_table():
    grid = Grid.from_params(PARAMS, d_t=0.25, d_lambda=40.0,
                            q_min=-2.0, q_max=2.0)
    n_t = grid.n_steps + 1
    gamma = np.zeros((n_t, grid.n_lambda, grid.n_q, 2))
    delta = np.zeros((n_t, grid.n_lambda, grid.n_q))
    # at half horizon (slice 2), liquidity node 0, inventory -2: buy one lot
    delta[2, 2, 0] = 1.0
    # same node at the floor row: stored trade larger than the headroom
    delta[2, 1, 0] = 2.0
    # quarter-to-go (slice 1), provision signal: buy two lots
    gamma[1, 2, 0, 1] = 2.0
    policy = Policy(grid=grid, gamma_star=gamma, delta_star=delta, meta={})
    return TablePolicyAgent(policy, PARAMS)


@pytest.fixture()
def toy_hooks(toy_table):
    return ScalarHooks(toy_table)


def test_table_agent_state_lookup_rounds_to_nodes(toy_hooks):
    assert toy_hooks.on_state(0.5, _state(lam=0.3, q=-2.0)) == 1.0
    # nearest-node rounding in every coordinate
    assert toy_hooks.on_state(0.45, _state(lam=-15.0, q=-1.8)) == 1.0
    assert toy_hooks.on_state(0.5, _state(lam=0.3, q=0.0)) == 0.0
    assert toy_hooks.on_state(0.5, _state(lam=40.0, q=-2.0)) == 0.0


def _fills_to_the_floor_and_halts(state, trade, filled):
    after, executed, *_ = apply_shock_detailed(state, trade, 0.0, 0.0, PARAMS)
    assert executed == filled
    assert after.lam == PARAMS.lambda_lower and after.halted


def test_table_agent_trade_fills_to_the_floor_and_halts(toy_hooks):
    # the stored trade is 2 lots but only half a lot of headroom remains:
    # the agent passes it on, and the market fills half a lot and halts,
    # as the solver valued it
    state = _state(lam=-39.5, q=-2.0)
    assert toy_hooks.on_state(0.5, state) == 2.0
    _fills_to_the_floor_and_halts(state, 2.0, 0.5)


def test_table_agent_signal_lookup(toy_hooks):
    assert toy_hooks.on_signal(0.75, _state(lam=0.3, q=-2.0), 1) == 2.0
    assert toy_hooks.on_signal(0.75, _state(lam=0.3, q=-2.0), -1) == 0.0
    assert toy_hooks.on_signal(0.5, _state(lam=0.3, q=-2.0), 1) == 0.0
    with pytest.raises(ValueError, match="signal z"):
        toy_hooks.on_signal(0.75, _state(), 0)


def test_table_agent_liquidates_at_and_past_the_horizon(toy_hooks):
    assert toy_hooks.on_state(1.0, _state(lam=0.0, q=-8.0)) == 8.0
    assert toy_hooks.on_state(1.2, _state(lam=0.0, q=3.0)) == -3.0
    # ... and near the floor the market fills what it can and halts
    state = _state(lam=-39.5, q=-8.0)
    assert toy_hooks.on_state(1.0, state) == 8.0
    _fills_to_the_floor_and_halts(state, 8.0, 0.5)
    assert toy_hooks.on_signal(1.0, _state(lam=0.0, q=-8.0), -1) == 0.0


def test_table_agent_next_impulse_walks_the_ticks(toy_hooks):
    state = _state(lam=0.3, q=-2.0)
    assert toy_hooks.next_impulse(0.4, 0.9, state) == (0.5, 1.0)
    # strictly-after semantics: the tick at t_from itself is skipped
    assert toy_hooks.next_impulse(0.5, 0.9, state) is None
    # the window is open on the right
    assert toy_hooks.next_impulse(0.4, 0.5, state) is None
    assert toy_hooks.next_impulse(0.0, 1.0, _state(lam=0.3, q=2.0)) is None


def _long_table():
    """Sparse random trades on a 320-step grid, past a uint8 tick index."""
    grid = Grid.from_params(PARAMS, d_t=1.0 / 320, d_lambda=10.0,
                            q_min=-3.0, q_max=3.0)
    rng = np.random.default_rng(7)
    shape = (grid.n_steps + 1, grid.n_lambda, grid.n_q)
    delta = np.where(rng.random(shape) < 0.02,
                     rng.choice([-2.0, -1.0, 1.0, 2.0], shape), 0.0)
    policy = Policy(grid=grid, gamma_star=np.zeros(shape + (2,)),
                    delta_star=delta, meta={})
    return TablePolicyAgent(policy, PARAMS)


@pytest.mark.parametrize("table, dtype", [
    ("toy_table", np.uint8), ("solved_signal", np.uint8), ("long", np.uint16)])
def test_next_impulse_matches_the_tick_walk(table, dtype, request):
    if table == "long":
        agent = _long_table()
    elif table == "solved_signal":
        agent = TablePolicyAgent(request.getfixturevalue(table)[1], PARAMS)
    else:
        agent = request.getfixturevalue(table)
    assert agent._next_trade.dtype == dtype
    grid, horizon = agent.grid, PARAMS.horizon
    ticks = horizon - grid.d_t * np.arange(grid.n_steps + 1)
    trades = np.argwhere(agent.policy.delta_star[1:] != 0.0) + (1, 0, 0)
    rng = np.random.default_rng(2024)
    queries = []
    for _ in range(3000):
        # window ends on ticks, at the horizon, or anywhere in between
        ends = [rng.choice(ticks) if rng.random() < 0.4 else
                horizon if rng.random() < 0.1 else rng.uniform(0.0, horizon)
                for _ in range(2)]
        t_from, t_to = sorted(float(t) for t in ends)
        if rng.random() < 0.5:
            # a node with a stored trade, the window opening at or before
            # its tick
            k, i, j = trades[rng.integers(len(trades))]
            lam, q = grid.lam_values[i], grid.q_values[j]
            t_from = float(rng.choice(ticks[k:]) if rng.random() < 0.4
                           else rng.uniform(0.0, ticks[k]))
        else:
            lam = rng.uniform(PARAMS.lambda_lower - 2, PARAMS.lambda_upper + 2)
            q = rng.uniform(grid.q_min - 1.5, grid.q_max + 1.5)
        queries.append((t_from, t_to, _state(lam=float(lam), q=float(q))))
    # every query in one call: each path's answer must be its own walk
    t_imp, delta = agent.next_impulse(
        np.array([t_from for t_from, _, _ in queries]),
        np.array([t_to for _, t_to, _ in queries]),
        _block([state for _, _, state in queries]))
    hits = misses = 0
    for n, (t_from, t_to, state) in enumerate(queries):
        expected = next_impulse_walk(agent, t_from, t_to, state)
        got = None if t_imp[n] == math.inf else (t_imp[n], delta[n])
        assert got == expected, (t_from, t_to, state)
        hits += expected is not None
        misses += expected is None
    assert hits > 300 and misses > 300


def test_agent_base_class_contract():
    agent = Agent()
    block = _block([_state(), _state(lam=-3.0, q=2.0)])
    t = np.array([0.1, 0.7])
    assert agent.on_signal(t, block, np.array([-1, 1])).tolist() == [0.0, 0.0]
    assert agent.on_state(t, block).tolist() == [0.0, 0.0]
    t_imp, delta = agent.next_impulse(np.zeros(2), np.ones(2), block)
    assert t_imp.tolist() == [math.inf, math.inf]
    assert delta.tolist() == [0.0, 0.0]


def test_hooks_answer_each_path_of_a_block_on_its_own(toy_table):
    """One call over a block gives each path its one-path answer."""
    states = [_state(lam=lam, q=q) for lam in (-39.5, -15.0, 0.3, 40.0)
              for q in (-2.0, -1.8, 0.0, 2.0)]
    times = [0.0, 0.45, 0.5, 0.75, 1.0]
    agents = (toy_table, ImmediateExecutionAgent(0.0, PARAMS),
              TwapAgent(0.0, -2.0, PARAMS), DoNothingAgent())
    rows = [(t, state) for t in times for state in states]
    t = np.array([t for t, _ in rows])
    block = _block([state for _, state in rows])
    z = np.where(np.arange(len(rows)) % 2, 1, -1)
    t_to = np.minimum(t + 0.3, 1.0)
    for agent in agents:
        one = ScalarHooks(agent)
        signal = agent.on_signal(t, block, z)
        state = agent.on_state(t, block)
        t_imp, delta = agent.next_impulse(t, t_to, block)
        for n, (t_n, st) in enumerate(rows):
            assert signal[n] == one.on_signal(t_n, st, int(z[n]))
            assert state[n] == one.on_state(t_n, st)
            expected = one.next_impulse(t_n, float(t_to[n]), st)
            assert (None if t_imp[n] == math.inf
                    else (t_imp[n], delta[n])) == expected


# ---------------------------------------------------------------------------
# the solved policy dominates the reference baselines
# ---------------------------------------------------------------------------

def test_table_policy_dominates_baselines(bench_params, marks_signal,
                                          solved_signal, start_short):
    """Mean utility of the tabulated policy is not beaten by any baseline
    (paired seeds, three-standard-error margin)."""
    _, policy = solved_signal
    agents = {
        "table": TablePolicyAgent(policy, bench_params),
        "do-nothing": DoNothingAgent(),
        "immediate": ImmediateExecutionAgent(0.0, bench_params),
        "twap": TwapAgent(0.0, start_short.q, bench_params),
    }
    n = 1500
    seeds = [make_path_seed(11, i) for i in range(n)]
    utils = {name: utility(simulate_paths(
        bench_params, marks_signal, agent, start_short, seeds).terminal_wealth,
        bench_params.alpha) for name, agent in agents.items()}
    for name in ("do-nothing", "immediate", "twap"):
        diff = utils["table"] - utils[name]
        se = diff.std(ddof=1) / math.sqrt(n)
        assert diff.mean() >= -3.0 * se, (
            f"{name}: paired utility gain {diff.mean():.4g} "
            f"(se {se:.4g})")
