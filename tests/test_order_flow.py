"""Event-driven simulation: thinning law, determinism, breaker bookkeeping."""

import collections
import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from scipy import stats

from artifact.market_core import (MarketParams, MarketState,
                                  apply_shock_detailed)
from artifact.order_flow import (
    PATH_LOG_COLUMNS,
    Mark,
    MarkModel,
    PathRecord,
    benchmark_mark_model,
    draw_candidates,
    make_path_seed,
    simulate_block,
    simulate_path,
    simulate_paths,
    write_path_log,
)
from artifact import order_flow
from artifact.policy import (Agent, DoNothingAgent, ImmediateExecutionAgent,
                             TablePolicyAgent, TwapAgent)
import oracles
from oracles import (cost_oracle, euler_thinning_oracle, impact_oracle,
                     integrated_variance, quadratic_variation, vbar_bound)

PARAMS = MarketParams()
ZERO_RATE = dataclasses.replace(PARAMS, theta_f=0.0, theta_g=0.0)

# a logged row: the columns of ``paths.csv`` after the path id
Row = collections.namedtuple("Row", "t kind z gamma eta rho lam q p x")


def _lane_rows(events: dict, n_lanes: int) -> list:
    """Each lane's rows of a block's event log, in order, with the kind
    spelled out: what ``oracles.EventRecord.log_row`` gives."""
    kinds = [order_flow.EVENT_KINDS[k] for k in events["kind"].tolist()]
    rows = [Row(*row) for row in zip(
        events["t"].tolist(), kinds,
        *(events[name].tolist() for name in PATH_LOG_COLUMNS[3:]))]
    cuts = events["lane"].searchsorted(np.arange(n_lanes + 1)).tolist()
    return [rows[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def _recorded(params, marks, agent, initial, seeds):
    """``agent`` on one recorded block of ``seeds``: the block's record,
    each lane's rows and the candidates the lanes ran on."""
    candidates = draw_candidates(params, marks, seeds)
    rec = simulate_block(params, marks, [agent], initial, candidates,
                         record_events=True)
    return rec, _lane_rows(rec.events, len(seeds)), candidates


def _candidate_rows(rows: list, candidates, lane: int) -> list:
    """A lane's rows of candidates, each with the mark index and thinning
    coordinate of its candidate: every candidate gives exactly one row."""
    rows = [row for row in rows if row.kind != "impulse"]
    first = int(candidates.starts[lane])
    span = slice(first, first + int(candidates.counts[lane]))
    assert len(rows) == candidates.counts[lane]
    assert [row.t for row in rows] == candidates.times[span].tolist()
    return list(zip(rows, candidates.marks[span].tolist(),
                    candidates.ys[span].tolist()))


def _oracle_events(params, marks, agent, initial, seed, rows) -> tuple:
    """The scalar loop's events on ``seed``, checked to log ``rows``."""
    events = oracles.simulate_path(params, marks, agent, initial, seed,
                                   record_events=True).events
    assert [e.log_row() for e in events] == rows
    return events


# ---------------------------------------------------------------------------
# mark model
# ---------------------------------------------------------------------------

def test_benchmark_mark_model_structure():
    marks = benchmark_mark_model(signal_prob=0.2)
    assert marks.signal_prob == 0.2
    assert sum(marks.nus) == pytest.approx(1.0, abs=1e-15)
    # no mark carries both market-order and limit volume
    assert all(m.eta * m.rho == 0.0 for m in marks.marks)
    # market-order half: sizes 1, 2, 3 per side at weights 0.10/0.10/0.05
    mo = {m.eta: m.nu for m in marks.marks if m.eta != 0.0}
    assert mo == pytest.approx({1.0: 0.10, 2.0: 0.10, 3.0: 0.05,
                                -1.0: 0.10, -2.0: 0.10, -3.0: 0.05})
    # limit half: 3:1 posts to cancellations in each size
    posts = sum(m.nu for m in marks.marks if m.rho > 0.0)
    cancels = sum(m.nu for m in marks.marks if m.rho < 0.0)
    assert posts == pytest.approx(0.375)
    assert cancels == pytest.approx(0.125)
    # liquidity provision dominates cancellations on average
    assert sum(m.nu * m.rho for m in marks.marks) == pytest.approx(0.45)
    assert sum(m.nu * abs(m.eta) for m in marks.marks) == pytest.approx(0.9)


def test_mark_model_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        MarkModel((Mark(eta=1.0, rho=0.0, nu=0.5),), 0.0)
    with pytest.raises(ValueError, match="exactly one"):
        MarkModel((Mark(eta=1.0, rho=1.0, nu=1.0),), 0.0)
    with pytest.raises(ValueError, match="exactly one"):
        Mark(eta=0.0, rho=0.0, nu=1.0)
    with pytest.raises(ValueError):
        MarkModel((Mark(eta=1.0, rho=0.0, nu=-0.2),
                   Mark(eta=0.0, rho=1.0, nu=1.2)), 0.0)
    with pytest.raises(ValueError):
        benchmark_mark_model(signal_prob=1.5)
    with pytest.raises(ValueError):
        benchmark_mark_model(signal_prob=0.2, post_fraction=1.5)
    with pytest.warns(UserWarning, match="resilient"):
        MarkModel((Mark(eta=0.0, rho=-1.0, nu=1.0),), 0.0)


# weights whose normalized running sum ends just above 1.0 in floating point
_OFF_UNIT = MarkModel(tuple(
    Mark(eta=eta, rho=rho, nu=nu) for eta, rho, nu in (
        (1.0, 0.0, 0.077), (0.0, 1.0, 0.571), (-1.0, 0.0, 0.045),
        (0.0, 2.0, 0.219), (0.0, -1.0, 0.088))), 0.3)


@pytest.mark.parametrize("marks", [benchmark_mark_model(0.2), _OFF_UNIT],
                         ids=["desk", "off-unit"])
def test_mark_draws_match_generator_choice(marks):
    """Same indices as ``gen.choice`` with ``p=nus``, and the stream is
    left where ``gen.choice`` leaves it."""
    for seed in range(200):
        key = np.array([seed, 77], dtype=np.uint64)
        by_choice = np.random.Generator(np.random.Philox(key=key))
        by_cdf = np.random.Generator(np.random.Philox(key=key))
        n = int(by_choice.integers(0, 200))
        by_cdf.integers(0, 200)
        expected = by_choice.choice(marks.n_marks, size=n, p=marks.nus)
        np.testing.assert_array_equal(
            marks.mark_indices(by_cdf.random(n)), expected)
        assert by_cdf.random() == by_choice.random()
    assert np.cumsum(_OFF_UNIT.nus)[-1] != 1.0


def test_with_signal_prob_rebuilds():
    marks = benchmark_mark_model(signal_prob=0.2)
    blind = marks.with_signal_prob(0.0)
    assert blind.signal_prob == 0.0
    assert blind.marks == marks.marks


# ---------------------------------------------------------------------------
# signals and seeds
# ---------------------------------------------------------------------------

def test_mark_signal_examples():
    examples = [((2.0, 0.0), "market", -1), ((-1.0, 0.0), "market", -1),
                ((0.0, 3.0), "post", 1), ((0.0, -1.0), "cancel", -1)]
    for (eta, rho), kind, signal in examples:
        mark = Mark(eta=eta, rho=rho, nu=1.0)
        assert (mark.kind, mark.signal) == (kind, signal)


def test_make_path_seed_layout():
    assert make_path_seed(0, 0) == 0
    assert make_path_seed(1, 0) == 1 << 64
    assert make_path_seed(1, 5) == (1 << 64) | 5
    with pytest.raises(ValueError):
        make_path_seed(-1, 0)
    with pytest.raises(ValueError):
        make_path_seed(0, 1 << 64)


# ---------------------------------------------------------------------------
# determinism and common random numbers
# ---------------------------------------------------------------------------

def test_same_seed_reproduces_bit_exactly():
    initial = MarketState(lam=0.0, q=-8.0, p=100.0, x=0.0)
    marks = benchmark_mark_model(signal_prob=0.2)
    a = simulate_path(PARAMS, marks, None, initial, make_path_seed(42, 3))
    b = simulate_path(PARAMS, marks, None, initial, make_path_seed(42, 3))
    assert a.terminal_wealth == b.terminal_wealth
    assert a.auction_draw == b.auction_draw
    assert a.n_candidates == b.n_candidates
    logs = [_recorded(PARAMS, marks, None, initial,
                      [make_path_seed(42, 3)])[0].events for _ in range(2)]
    assert logs[0]["lane"].size == a.n_candidates > 0
    for name, column in logs[0].items():
        assert column.tobytes() == logs[1][name].tobytes(), name
    c = simulate_path(PARAMS, marks, None, initial, make_path_seed(42, 4))
    assert c.terminal_wealth != a.terminal_wealth


def test_policies_share_the_candidate_stream():
    initial = MarketState(lam=0.0, q=-8.0, p=100.0, x=0.0)
    marks = benchmark_mark_model(signal_prob=0.0)
    candidates = draw_candidates(PARAMS, marks, [make_path_seed(9, 1)])
    runs = {}
    for agent in (DoNothingAgent(), TwapAgent(0.0, -8.0, PARAMS)):
        rec = simulate_block(PARAMS, marks, [agent], initial, candidates,
                             record_events=True)
        rows = _lane_rows(rec.events, 1)[0]
        drawn = iter(_candidate_rows(rows, candidates, 0))
        # each candidate row has its candidate's time and mark, and no
        # volume unless its thinning coordinate is under the rate at the
        # state the row before left
        lam = initial.lam
        for row in rows:
            if row.kind != "impulse":
                _, mark, y = next(drawn)
                mark = marks.marks[mark]
                assert row.kind == mark.kind
                rate = PARAMS.f(lam) if mark.eta else PARAMS.g(lam)
                if y > rate:
                    assert row.eta == row.rho == 0.0
            lam = row.lam
        runs[type(agent).__name__] = rec
    passive, twap = runs["DoNothingAgent"], runs["TwapAgent"]
    assert twap.auction_draw.tolist() == passive.auction_draw.tolist()
    assert twap.n_buy_trades.tolist() == [8]


# Rates so low that a path's mean candidate count is 0.045: most paths
# have no candidate.
SPARSE = dataclasses.replace(PARAMS, theta_f=0.01, theta_g=0.02)


@pytest.mark.parametrize("params, marks, seeds", [
    (PARAMS, benchmark_mark_model(0.2), range(300)),
    (PARAMS, _OFF_UNIT, range(100)),
    (PARAMS, benchmark_mark_model(1.0), range(50)),
    (SPARSE, benchmark_mark_model(0.2), range(40)),
    # found by scanning: the only path of its block has two candidates,
    # more than the block's room for one
    (SPARSE, benchmark_mark_model(0.2), [564]),
], ids=["desk", "off-unit", "all-visible", "sparse", "grown"])
def test_candidate_block_matches_the_per_path_draws(params, marks, seeds):
    """Every field equals the reference that draws each coordinate with
    its own ``gen.uniform`` or ``gen.choice`` call, byte for byte."""
    seeds = [make_path_seed(64, i) for i in seeds]
    got = draw_candidates(params, marks, seeds)
    expected = oracles.draw_candidates(params, marks, seeds)
    for field in dataclasses.fields(got):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
    # vbar_bound's volumes, added path by path in event order
    g_floor, rhos = params.g(params.lambda_lower), marks.rhos.tolist()
    sums = []
    for lo, n in zip(expected.starts.tolist(), expected.counts.tolist()):
        total = 0.0
        for e, y in zip(expected.marks[lo:lo + n].tolist(),
                        expected.ys[lo:lo + n].tolist()):
            if y <= g_floor:
                total += abs(rhos[e])
        sums.append(total)
    assert vbar_bound(0.0, got, params, marks).tobytes() \
        == (-params.lambda_lower + np.array(sums)).tobytes()
    if params is SPARSE and len(seeds) > 1:
        assert (got.counts == 0).any()
    elif params is SPARSE:
        # draw_candidates' initial room: six standard deviations of the
        # block's Poisson total, plus one entry of padding
        mean = params.horizon * (params.f(params.lambda_upper)
                                 + params.g(params.lambda_lower))
        assert got.counts[0] + 1 > int(mean + 6.0 * math.sqrt(mean)) + 1
    if marks.signal_prob == 1.0:
        assert got.visible[:-1].all()


def test_initial_state_validation():
    marks = benchmark_mark_model(signal_prob=0.0)
    with pytest.raises(ValueError, match="outside"):
        simulate_path(PARAMS, marks, None,
                      MarketState(lam=41.0, q=0.0, p=100.0, x=0.0), 1)
    with pytest.raises(ValueError, match="halted"):
        simulate_path(PARAMS, marks, None,
                      MarketState(lam=0.0, q=0.0, p=100.0, x=0.0,
                                  halted=True), 1)


def test_one_path_reads_back_as_python_scalars():
    """``simulate_path`` is the per-path view: plain numbers, as callers
    that trace single paths read them."""
    initial = MarketState(lam=0.0, q=-8.0, p=100.0, x=0.0)
    rec = simulate_path(PARAMS, benchmark_mark_model(0.2),
                        TwapAgent(0.0, -8.0, PARAMS), initial,
                        make_path_seed(42, 3))
    values = [getattr(rec, f.name) for f in dataclasses.fields(rec)[1:-1]]
    values += [getattr(rec.terminal_state, f.name)
               for f in dataclasses.fields(rec.terminal_state)]
    assert {type(v) for v in values} == {float, int, bool}
    assert rec.events is None


def test_no_seeds_give_a_record_of_empty_columns():
    initial = MarketState(lam=0.0, q=-8.0, p=100.0, x=0.0)
    agent = TwapAgent(0.0, -8.0, PARAMS)
    rec = simulate_paths(PARAMS, benchmark_mark_model(0.2), agent, initial,
                         [])
    assert rec.terminal_wealth.shape == rec.terminal_state.q.shape == (0,)
    recorded = _recorded(PARAMS, benchmark_mark_model(0.2), agent, initial,
                         [])[0]
    assert [name for name in recorded.events] == ["lane",
                                                  *PATH_LOG_COLUMNS[1:]]
    assert {column.shape for column in recorded.events.values()} == {(0,)}
    out = io.StringIO()
    write_path_log(csv.writer(out), recorded.events)
    assert out.getvalue() == ""


# ---------------------------------------------------------------------------
# degenerate markets
# ---------------------------------------------------------------------------

def test_zero_rates_do_nothing_closed_form():
    marks = benchmark_mark_model(signal_prob=0.2)
    initial = MarketState(lam=0.0, q=-8.0, p=100.0, x=0.0)
    rec = simulate_path(ZERO_RATE, marks, None, initial, make_path_seed(5, 0))
    assert rec.n_candidates == 0
    expected = (-800.0 - ZERO_RATE.zeta * 8.0
                - cost_oracle(8.0, 0.0, ZERO_RATE))
    assert rec.terminal_wealth == pytest.approx(expected, rel=1e-12)


def test_zero_rates_twap_matches_manual_replay():
    marks = benchmark_mark_model(signal_prob=0.0)
    initial = MarketState(lam=0.0, q=-8.0, p=100.0, x=0.0)
    agent = TwapAgent(0.0, -8.0, ZERO_RATE)
    rec = simulate_path(ZERO_RATE, marks, agent, initial, make_path_seed(5, 1))
    state = initial
    for _ in range(8):
        state = apply_shock_detailed(state, 1.0, 0.0, 0.0, ZERO_RATE)[0]
    assert state.q == 0.0
    assert rec.terminal_state.q == 0.0
    assert rec.terminal_wealth == pytest.approx(state.x, rel=1e-12)
    assert rec.inventory_variation == 8.0
    assert rec.n_buy_trades == 8


# ---------------------------------------------------------------------------
# thinning law
# ---------------------------------------------------------------------------

def test_live_counts_poisson_at_constant_rates():
    """With flat rates, live counts are Poisson at exactly half the band."""
    params = dataclasses.replace(
        PARAMS, theta_f=5.0, theta_g=5.0, kappa_f=0.0, kappa_g=0.0,
        kappa_iota=0.0, lambda_lower=-500.0, lambda_upper=500.0)
    marks = benchmark_mark_model(signal_prob=0.0)
    initial = MarketState(lam=0.0, q=0.0, p=100.0, x=0.0)
    n = 10_000
    paths = simulate_paths(params, marks, None, initial,
                           [make_path_seed(31, i) for i in range(n)])
    mo, lim = paths.n_live_market, paths.n_live_limit
    # live market orders: rate f * nu(market half) = 5 * 0.5; same for limits
    for sample, rate in ((mo, 2.5), (lim, 2.5)):
        assert sample.mean() == pytest.approx(rate, abs=4 * math.sqrt(rate / n))
        kmax = 8
        edges = np.arange(kmax + 1)
        observed = np.array([(sample == k).sum() for k in edges]
                            + [(sample > kmax).sum()], dtype=float)
        pmf = stats.poisson.pmf(edges, rate)
        expected = np.append(pmf, 1.0 - pmf.sum()) * n
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 0.01, f"chi-square p={result.pvalue:.4f}"


def test_event_rate_matches_fixed_step_oracle(bench_params, marks_blind):
    """Live market-order flow agrees with an independent Euler thinning
    simulator, and f-band candidates arrive at exactly the f-rate."""
    initial = MarketState(lam=0.0, q=-8.0, p=100.0, x=0.0)
    n = 1200
    fband = np.empty(n)
    int_f = np.empty(n)
    paths, rows, candidates = _recorded(
        bench_params, marks_blind, None, initial,
        [make_path_seed(999, i) for i in range(n)])
    live = paths.n_live_market.astype(float)
    for i, events in enumerate(rows):
        lam = initial.lam
        t_prev = 0.0
        count = 0
        acc = 0.0
        for ev, _, y in _candidate_rows(events, candidates, i):
            acc += bench_params.f(lam) * (ev.t - t_prev)
            if y <= bench_params.f(lam):
                count += 1
            lam = ev.lam
            t_prev = ev.t
        acc += bench_params.f(lam) * (bench_params.horizon - t_prev)
        fband[i] = count
        int_f[i] = acc

    # in-simulation identity: candidates below f arrive at rate f
    diff = fband - int_f
    se = diff.std(ddof=1) / math.sqrt(n)
    assert abs(diff.mean()) <= 3 * se + 1e-12, (
        f"f-band count {fband.mean():.3f} vs integral {int_f.mean():.3f}")

    oracle = euler_thinning_oracle(bench_params, marks_blind, initial.lam,
                                   n_paths=600, dt=1e-4, seed=77)
    for mine, theirs, label in ((live, oracle["live_mo"], "live MO"),
                                (fband, oracle["fband"], "f-band")):
        se = math.hypot(mine.std(ddof=1) / math.sqrt(len(mine)),
                        theirs.std(ddof=1) / math.sqrt(len(theirs)))
        gap = abs(mine.mean() - theirs.mean())
        assert gap <= 3 * se, (f"{label}: {mine.mean():.3f} vs oracle "
                               f"{theirs.mean():.3f} (3se={3 * se:.3f})")


# ---------------------------------------------------------------------------
# pathwise bounds and invariants
# ---------------------------------------------------------------------------

def test_turnover_moment_bound(passive_path_stats, marks_blind, bench_params):
    """Empirical turnover moments stay under the analytic bound (n = 1, 2)."""
    v = passive_path_stats["turnover"]
    lam_span = 0.0 - bench_params.lambda_lower
    g_floor = bench_params.g(bench_params.lambda_lower)
    nu_total = float(np.sum(marks_blind.nus))
    for order in (1, 2):
        rho_mom = float(np.sum(marks_blind.nus
                               * np.maximum(marks_blind.rhos, 0.0) ** order))
        bound = ((order + 1) * lam_span ** order
                 + (order + 1) * (bench_params.horizon * g_floor) ** order
                 * nu_total ** (order - 1) * rho_mom)
        emp = v ** order
        se = emp.std(ddof=1) / math.sqrt(len(emp))
        assert emp.mean() <= bound + 3 * se, (
            f"order {order}: {emp.mean():.2f} > bound {bound:.2f}")


def test_vbar_dominates_realized_turnover(passive_path_stats, bench_params,
                                          marks_blind):
    stats_ = passive_path_stats
    assert np.all(stats_["vbar"] + 1e-9 >= stats_["turnover"])
    # also under trading policies
    initial = MarketState(lam=0.0, q=-8.0, p=100.0, x=0.0)
    candidates = draw_candidates(bench_params, marks_blind,
                                 [make_path_seed(13, i) for i in range(300)])
    vbar = vbar_bound(initial.lam, candidates, bench_params, marks_blind)
    for agent in (ImmediateExecutionAgent(0.0, bench_params),
                  TwapAgent(0.0, -8.0, bench_params)):
        rec = simulate_block(bench_params, marks_blind, [agent], initial,
                             candidates)
        turnover = (rec.inventory_variation + rec.market_volume
                    + rec.cancel_volume)
        assert np.all(vbar + 1e-9 >= turnover)


def test_vbar_without_limit_flow_is_initial_headroom():
    params = dataclasses.replace(PARAMS, theta_g=0.0)
    marks = benchmark_mark_model(signal_prob=0.0)
    initial = MarketState(lam=0.0, q=0.0, p=100.0, x=0.0)
    candidates = draw_candidates(params, marks, [make_path_seed(21, 0)])
    assert vbar_bound(initial.lam, candidates, params, marks).tolist() \
        == [initial.lam - params.lambda_lower]


def test_liquidity_respects_the_floor(passive_path_stats, bench_params):
    assert np.all(passive_path_stats["min_lambda"]
                  >= bench_params.lambda_lower - 1e-9)


# ---------------------------------------------------------------------------
# breaker bookkeeping
# ---------------------------------------------------------------------------

class _RawGapAgent(Agent):
    """Submits the full inventory gap without clipping at the floor."""

    def __init__(self, target_q: float):
        self.target_q = target_q

    def on_state(self, t, state):
        return self.target_q - state.q


def test_clipped_opening_trade_stops_at_the_floor():
    """The floor-aware agent trades the clipped volume and avoids the halt."""
    initial = MarketState(lam=-38.0, q=-8.0, p=100.0, x=0.0)
    agent = ImmediateExecutionAgent(0.0, ZERO_RATE)
    rec = simulate_path(ZERO_RATE, benchmark_mark_model(0.0), agent, initial,
                        make_path_seed(3, 0))
    assert math.isinf(rec.breaker_time)
    assert not rec.terminal_state.halted
    assert rec.terminal_state.lam == -40.0
    assert rec.terminal_state.q == -6.0


def test_breaker_freeze_from_initial_overshoot():
    """An oversized opening trade part-fills, halts, and freezes the path."""
    initial = MarketState(lam=-38.0, q=-8.0, p=100.0, x=0.0)
    rec = simulate_path(ZERO_RATE, benchmark_mark_model(0.0),
                        _RawGapAgent(0.0), initial, make_path_seed(3, 0))
    assert rec.breaker_time == 0.0
    assert rec.terminal_state.halted
    assert rec.terminal_state.lam == -40.0
    assert rec.terminal_state.q == -6.0
    # replay by hand: 2 lots fill at -38, the rest clears in the auction
    p1 = 100.0 + impact_oracle(2.0, -38.0, ZERO_RATE)
    x1 = -100.0 * 2.0 - ZERO_RATE.zeta * 2.0 - cost_oracle(2.0, -38.0,
                                                           ZERO_RATE)
    expected = (x1 + p1 * -6.0
                + ZERO_RATE.sigma_auction * rec.auction_draw * -1.0 * 6.0
                - ZERO_RATE.zeta * 6.0 - cost_oracle(6.0, -40.0, ZERO_RATE))
    assert rec.terminal_wealth == pytest.approx(expected, rel=1e-12)


def test_breaker_suppresses_all_later_events(bench_params):
    initial = MarketState(lam=-38.0, q=-8.0, p=100.0, x=0.0)
    marks, seed = benchmark_mark_model(0.0), make_path_seed(3, 1)
    rec, (rows,), _ = _recorded(bench_params, marks, _RawGapAgent(0.0),
                                initial, [seed])
    assert rec.breaker_time.tolist() == [0.0]
    assert rec.n_live_market.tolist() == rec.n_live_limit.tolist() == [0]
    events = _oracle_events(bench_params, marks, _RawGapAgent(0.0), initial,
                            seed, rows)
    candidates = [(row, e.outcome) for row, e in zip(rows, events)
                  if row.kind != "impulse"]
    assert candidates, "expected candidate events on a benchmark path"
    assert all(outcome == "halted" for _, outcome in candidates)
    assert all(row.lam == -40.0 for row, _ in candidates)


# ---------------------------------------------------------------------------
# signal bookkeeping
# ---------------------------------------------------------------------------

def test_signal_visibility_extremes(bench_params):
    initial = MarketState(lam=0.0, q=0.0, p=100.0, x=0.0)
    marks, seed = benchmark_mark_model(1.0), make_path_seed(8, 0)
    seen, (rows,), _ = _recorded(bench_params, marks, None, initial, [seed])
    events = _oracle_events(bench_params, marks, None, initial, seed, rows)
    live = [row for row, e in zip(rows, events) if e.outcome == "live"]
    assert seen.n_signals.tolist() == [len(live)] and live
    for e in live:
        assert e.z == (1 if e.kind == "post" else -1)
    blind, (rows,), _ = _recorded(bench_params, benchmark_mark_model(0.0),
                                  None, initial, [seed])
    assert blind.n_signals.tolist() == [0]
    assert rows and all(e.z == 0 for e in rows)


def test_visible_events_send_their_mark_signal(bench_params):
    initial = MarketState(lam=0.0, q=0.0, p=100.0, x=0.0)
    marks, seed = benchmark_mark_model(0.5), make_path_seed(8, 1)
    rec, (rows,), candidates = _recorded(bench_params, marks, None, initial,
                                         [seed])
    events = _oracle_events(bench_params, marks, None, initial, seed, rows)
    visible = [(row, mark) for (row, mark, _), e in zip(
        _candidate_rows(rows, candidates, 0), events)
        if e.outcome == "live" and row.z != 0]
    assert rec.n_signals.tolist() == [len(visible)] and visible
    assert {row.kind for row, _ in visible} == {"market", "post", "cancel"}
    for row, mark in visible:
        assert row.z == marks.marks[mark].signal


# ---------------------------------------------------------------------------
# path log export
# ---------------------------------------------------------------------------

def test_path_log_roundtrip(bench_params, marks_blind, tmp_path):
    initial = MarketState(lam=0.0, q=-8.0, p=100.0, x=0.0)
    rec, lanes, _ = _recorded(bench_params, marks_blind,
                              TwapAgent(0.0, -8.0, bench_params), initial,
                              [make_path_seed(12, i) for i in range(3)])
    target = tmp_path / "paths.csv"
    with open(target, "w", newline="") as handle:
        write_path_log(csv.writer(handle), rec.events, first_path=5)
    with open(target, newline="") as handle:
        rows = list(csv.reader(handle))
    # every row reads back as the logged one, paths numbered from 5
    assert rows == [[str(5 + lane), *(str(v) for v in row)]
                    for lane, lane_rows in enumerate(lanes)
                    for row in lane_rows]
    assert all(lanes)
    first = lanes[0][0]
    assert rows[0][:3] == ["5", repr(first.t), first.kind]
    assert float(rows[0][7]) == first.lam


# ---------------------------------------------------------------------------
# the block engine against the scalar reference loop
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_agents(bench_params, solved_signal, solved_blind):
    return {
        "passive": None,
        "do-nothing": DoNothingAgent(),
        "immediate": ImmediateExecutionAgent(0.0, bench_params),
        "twap": TwapAgent(0.0, -8.0, bench_params),
        "table": TablePolicyAgent(solved_signal[1], bench_params),
        "table-nosignal": TablePolicyAgent(solved_blind[1], bench_params,
                                           name="table-nosignal"),
    }


def _columns(rec) -> dict:
    """Every per-lane ``PathRecord`` field of a record by name, the terminal
    state's as ``terminal_state.<field>``; the event log is not one."""
    state = rec.terminal_state
    columns = {f"terminal_state.{f.name}": getattr(state, f.name)
               for f in dataclasses.fields(state)}
    columns.update((f.name, getattr(rec, f.name))
                   for f in dataclasses.fields(PathRecord)
                   if f.name not in ("terminal_state", "events"))
    return columns


def _stacked(records) -> dict:
    """The ``_columns`` of a list of one-path records, as arrays."""
    rows = [_columns(rec) for rec in records]
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


def _assert_records_equal(got: dict, expected: dict, label):
    """Every column of ``got`` equals ``expected``'s, dtype and lane for
    lane; a column of lists (each lane's logged rows) compares by value."""
    assert got.keys() == expected.keys()
    for name, column in got.items():
        want = expected[name]
        if isinstance(column, np.ndarray):
            assert column.dtype == want.dtype, f"{label}: {name} dtype"
            column, want = column.tolist(), want.tolist()
        assert len(column) == len(want), f"{label}: {name} length"
        differ = [i for i, (a, b) in enumerate(zip(column, want)) if a != b]
        assert not differ, f"{label}: {name} differs on paths {differ}"


@pytest.mark.parametrize("impact, lam0, signal_prob, n_paths", [
    ({}, 0.0, 0.2, 200),      # the desk market
    ({}, -38.0, 0.2, 60),     # two lots above the floor: breakers on most
    ({}, 0.5, 0.2, 60),       # f and g off the integer liquidity lattice
    ({}, 0.0, 1.0, 60),       # every live event signals
    # another impact curve, at lambda = 10, where the square of a 3-lot
    # price jump differs between float ** and x * x: every field and row
    # is compared under it, and the quadratic variation from the log
    ({"theta_iota": 0.0207, "kappa_iota": -9.1e-05}, 10.0, 0.2, 60),
], ids=["desk", "near-floor", "off-lattice", "all-signal", "pow-rounding"])
def test_block_engine_matches_the_scalar_loop(bench_params, desk_agents,
                                              impact, lam0, signal_prob,
                                              n_paths):
    """Every field of every record, and every logged event of every lane,
    equals the one-path-at-a-time reference, for every agent; logging
    changes no field.  The quantities of criteria 3 and 4, derived from
    the candidates and the log, equal the reference's running sums."""
    params = dataclasses.replace(bench_params, **impact)
    marks = benchmark_mark_model(signal_prob)
    initial = MarketState(lam=lam0, q=-8.0, p=100.0, x=0.0)
    seeds = [make_path_seed(61, i) for i in range(n_paths)]
    breakers = 0
    for name, agent in desk_agents.items():
        expected = [oracles.simulate_path(params, marks, agent, initial,
                                          seed, record_events=True)
                    for seed in seeds]
        got = simulate_paths(params, marks, agent, initial, seeds)
        _assert_records_equal(_columns(got), _stacked(expected), name)
        logged, rows, candidates = _recorded(params, marks, agent, initial,
                                             seeds)
        _assert_records_equal(
            dict(_columns(logged), events=rows),
            dict(_columns(got), events=[[e.log_row() for e in rec.events]
                                        for rec in expected]), name)
        assert sum(map(len, rows)) == logged.events["lane"].size
        breakers += int(got.terminal_state.halted.sum())
        reference = {field: np.array([getattr(rec, field)
                                      for rec in expected])
                     for field in ("integrated_variance", "price_qv",
                                   "vbar_rho_sum")}
        assert integrated_variance(params, marks, initial, logged).tobytes() \
            == reference["integrated_variance"].tobytes(), name
        assert vbar_bound(initial.lam, candidates, params, marks).tobytes() \
            == (initial.lam - params.lambda_lower
                + reference["vbar_rho_sum"]).tobytes(), name
        # one price jump per row on a lane that never trades
        quiet = got.inventory_variation == 0.0
        np.testing.assert_allclose(
            quadratic_variation(initial, logged)[quiet],
            reference["price_qv"][quiet], rtol=1e-12, atol=0.0,
            err_msg=name)
    if lam0 < -30.0:
        assert breakers > len(desk_agents) * n_paths / 2


def test_records_do_not_depend_on_the_block_size(
        bench_params, marks_signal, desk_agents, monkeypatch):
    initial = MarketState(lam=0.0, q=-8.0, p=100.0, x=0.0)
    seeds = [make_path_seed(62, i) for i in range(22)]
    for name in ("passive", "twap", "table"):
        runs = {}
        for block_paths in (len(seeds), 1, 7):
            monkeypatch.setattr(order_flow, "BLOCK_PATHS", block_paths)
            runs[block_paths] = simulate_paths(
                bench_params, marks_signal, desk_agents[name], initial,
                seeds)
        for block_paths in (1, 7):
            _assert_records_equal(_columns(runs[block_paths]),
                                  _columns(runs[len(seeds)]),
                                  f"{name}, blocks of {block_paths}")


@pytest.mark.parametrize("lam0, n_paths, record_events", [
    (0.0, 37, False),     # a prime path count: no agent's lanes align
    (-38.0, 23, False),   # two lots above the floor: breakers fire
    (0.0, 19, True),      # recorded events
], ids=["ragged", "breaker", "recorded"])
def test_a_mixed_block_equals_each_agent_alone(bench_params, marks_signal,
                                               desk_agents, lam0, n_paths,
                                               record_events):
    """Lane a * n + b of one mixed block is agent a alone on path b: each
    agent's hooks see only its own lanes, and passive lanes are not asked."""
    names = ("table", "passive", "twap", "immediate", "table-nosignal")
    agents = [desk_agents[name] for name in names]
    initial = MarketState(lam=lam0, q=-8.0, p=100.0, x=0.0)
    block = draw_candidates(bench_params, marks_signal,
                            [make_path_seed(63, i) for i in range(n_paths)])
    mixed = simulate_block(bench_params, marks_signal, agents, initial,
                           block, record_events=record_events)
    assert len(mixed.terminal_wealth) == len(agents) * n_paths
    columns = _columns(mixed)
    if record_events:
        columns["events"] = _lane_rows(mixed.events, len(agents) * n_paths)
        assert all(columns["events"])
    for a, (name, agent) in enumerate(zip(names, agents)):
        alone = simulate_block(bench_params, marks_signal, [agent], initial,
                               block, record_events=record_events)
        expected = _columns(alone)
        if record_events:
            expected["events"] = _lane_rows(alone.events, n_paths)
        lanes = slice(a * n_paths, (a + 1) * n_paths)
        _assert_records_equal({field: column[lanes] for field, column
                               in columns.items()}, expected, name)
    if lam0 < -30.0:
        assert np.isfinite(mixed.breaker_time).any()
