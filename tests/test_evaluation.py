"""Experiment harness: speculation flags, reports, consistency, threading."""

import csv
import dataclasses
import functools
import io
import json
import math
import multiprocessing

import numpy as np
import pytest

from artifact import evaluation, order_flow
from artifact.evaluation import (
    consistency_check,
    detect_speculation,
    report_to_dict,
    run_experiment,
    signal_sharpe_ratio,
    write_json,
    write_report_json,
    write_wealth_csv,
)
from artifact.hjb import Grid, solve
from artifact.market_core import MarketParams, MarketState, utility
from artifact.order_flow import (Mark, MarkModel, benchmark_mark_model,
                                 draw_candidates, make_path_seed,
                                 simulate_block, simulate_path,
                                 write_path_log)
from artifact.policy import (Agent, DoNothingAgent, ImmediateExecutionAgent,
                             TablePolicyAgent, TwapAgent)

PARAMS = MarketParams()
ZERO_RATE = dataclasses.replace(PARAMS, theta_f=0.0, theta_g=0.0)


class _ScriptedAgent(Agent):
    """Fires a fixed list of (time, volume) trades, for test scripting."""

    def __init__(self, script):
        self.script = sorted(script)

    def next_impulse(self, t_from, t_to, state):
        t_imp, delta = np.full(len(t_from), math.inf), np.zeros(len(t_from))
        for t_k, volume in reversed(self.script):
            # the earliest scripted trade inside the window wins
            hit = (t_from < t_k) & (t_k < t_to)
            t_imp = np.where(hit, t_k, t_imp)
            delta = np.where(hit, volume, delta)
        return t_imp, delta


def _zero_rate_path(agent, q0=-8.0, lam0=0.0):
    initial = MarketState(lam=lam0, q=q0, p=100.0, x=0.0)
    return simulate_path(ZERO_RATE, benchmark_mark_model(0.0), agent,
                         initial, make_path_seed(1, 0))


# ---------------------------------------------------------------------------
# speculation detection
# ---------------------------------------------------------------------------

def test_monotone_executions_do_not_flag_speculation():
    assert not detect_speculation(_zero_rate_path(None))
    assert not detect_speculation(_zero_rate_path(None, q0=0.0))
    assert not detect_speculation(
        _zero_rate_path(ImmediateExecutionAgent(0.0, ZERO_RATE)))
    # partial progress towards the target still counts as monotone
    assert not detect_speculation(_zero_rate_path(_ScriptedAgent([(0.3, 3.0)])))


def test_roundtrips_and_overshoots_flag_speculation():
    roundtrip = _zero_rate_path(_ScriptedAgent([(0.3, 1.0), (0.6, -1.0)]))
    assert roundtrip.n_buy_trades == 1 and roundtrip.n_sell_trades == 1
    assert detect_speculation(roundtrip)
    # overshooting the target leaves inventory the auction must sell back
    overshoot = _zero_rate_path(_ScriptedAgent([(0.3, 9.0)]))
    assert overshoot.terminal_state.q == 1.0
    assert detect_speculation(overshoot)
    # any trading away from a flat book is speculative
    assert detect_speculation(
        _zero_rate_path(_ScriptedAgent([(0.3, 1.0)]), q0=0.0))


def test_speculation_flags_each_lane_as_its_path_alone(bench_params,
                                                       marks_signal):
    """On a block's record of per-lane arrays the rule answers lane by
    lane, as it does for each path simulated alone."""
    initial = MarketState(lam=0.0, q=-2.0, p=100.0, x=0.0)
    agents = [_ScriptedAgent([(0.3, 1.0), (0.6, -1.0)]),
              ImmediateExecutionAgent(0.0, bench_params), None,
              _ScriptedAgent([(0.3, 3.0)])]
    seeds = [make_path_seed(3, i) for i in range(30)]
    flags = detect_speculation(simulate_block(
        bench_params, marks_signal, agents, initial,
        draw_candidates(bench_params, marks_signal, seeds)))
    alone = [detect_speculation(simulate_path(bench_params, marks_signal,
                                              agent, initial, seed))
             for agent in agents for seed in seeds]
    assert flags.dtype == bool
    assert flags.tolist() == alone
    assert 0 < sum(alone) < len(alone)


# ---------------------------------------------------------------------------
# signal sharpe ratio
# ---------------------------------------------------------------------------

def test_signal_sharpe_ratio_examples():
    w = np.array([1.0, 3.0, 2.0, 4.0])
    assert signal_sharpe_ratio(w, w) == 0.0
    assert signal_sharpe_ratio(np.array([1.0, 3.0]), np.array([0.0, 2.0])) \
        == pytest.approx(1.0)
    # scale invariance in the informed sample's own spread
    assert signal_sharpe_ratio(2.0 * w, 2.0 * w - 1.0) \
        == pytest.approx(signal_sharpe_ratio(w, w - 0.5))


def test_signal_sharpe_ratio_degenerate_sample_warns():
    with pytest.warns(UserWarning, match="degenerate"):
        out = signal_sharpe_ratio(np.full(4, 2.0), np.array([0.0, 1.0, 2.0,
                                                             3.0]))
    assert math.isnan(out)


# ---------------------------------------------------------------------------
# run_experiment reports
# ---------------------------------------------------------------------------

def test_report_statistics_recompute_from_samples(bench_params, marks_signal,
                                                  start_short):
    report = run_experiment(bench_params, marks_signal,
                            {"do-nothing": DoNothingAgent()}, 400, 55,
                            start_short)["do-nothing"]
    assert report.n_sim == 400 and len(report.wealth) == 400
    assert report.mean == pytest.approx(float(np.mean(report.wealth)),
                                        rel=1e-14)
    assert report.variance == pytest.approx(float(np.var(report.wealth)),
                                            rel=1e-12)
    assert 0.0 <= report.speculation_fraction <= 1.0
    assert report.breaker_fraction == 0.0
    assert report.config_echo["agent"] == "do-nothing"
    assert report.config_echo["base_seed"] == 55


def test_report_histogram_is_aligned_and_complete(bench_params, marks_signal,
                                                  start_short):
    report = run_experiment(bench_params, marks_signal,
                            {"imm": ImmediateExecutionAgent(0.0,
                                                            bench_params)},
                            300, 56, start_short)["imm"]
    edges = report.histogram_edges
    counts = report.histogram_counts
    assert counts.sum() == report.n_sim
    width = 0.05
    assert np.allclose(np.diff(edges), width)
    # bins sit on the absolute lattice k * width, independent of the sample
    assert np.allclose(np.round(edges / width) * width, edges, atol=1e-9)
    assert edges[0] <= report.wealth.min() < edges[1] + width
    assert edges[-2] <= report.wealth.max() < edges[-1]


def test_identical_agents_share_paths(bench_params, marks_signal,
                                      start_short):
    reports = run_experiment(bench_params, marks_signal,
                             {"a": DoNothingAgent(), "b": DoNothingAgent()},
                             150, 57, start_short)
    assert list(reports) == ["a", "b"]
    np.testing.assert_array_equal(reports["a"].wealth, reports["b"].wealth)


@pytest.mark.parametrize("threads, start_method",
                         [(2, None), (3, None), (2, "spawn")])
def test_thread_count_does_not_change_results(monkeypatch, bench_params,
                                              marks_signal, start_short,
                                              threads, start_method):
    if start_method is not None:
        # fresh-interpreter workers: nothing is inherited from this process
        monkeypatch.setattr(evaluation.futures, "ProcessPoolExecutor",
                            functools.partial(
                                evaluation.futures.ProcessPoolExecutor,
                                mp_context=multiprocessing.get_context(
                                    start_method)))
    # blocks of 16 paths: 101 paths span seven, so each run starts a pool
    monkeypatch.setattr(evaluation, "BLOCK_PATHS", 16)
    # 101 paths: the last chunk is short for both worker counts
    agents = {"do-nothing": DoNothingAgent(),
              "immediate": ImmediateExecutionAgent(0.0, bench_params),
              "twap": TwapAgent(0.0, start_short.q, bench_params)}
    serial = run_experiment(bench_params, marks_signal, agents, 101, 58,
                            start_short)
    pooled = run_experiment(bench_params, marks_signal, agents, 101, 58,
                            start_short, threads=threads)
    assert list(pooled) == list(serial) == list(agents)
    for name, report in serial.items():
        np.testing.assert_array_equal(report.wealth, pooled[name].wealth)
        # statistics, histogram and echo, nested key order included
        assert json.dumps(report_to_dict(report)) \
            == json.dumps(report_to_dict(pooled[name]))


def _leaves(value):
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_one_pool_per_experiment_with_path_range_jobs(
        monkeypatch, bench_params, marks_signal, start_short):
    pools, jobs = [], []

    class RecordingPool(evaluation.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self._max_workers)

        def submit(self, fn, *args, **kwargs):
            # map batches its arguments into nested tuples
            jobs.extend(_leaves(args + tuple(kwargs.values())))
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(evaluation.futures, "ProcessPoolExecutor",
                        RecordingPool)
    # blocks of two paths: 9 and 5 paths span five and three blocks
    monkeypatch.setattr(evaluation, "BLOCK_PATHS", 2)
    agents = {"a": DoNothingAgent(),
              "b": ImmediateExecutionAgent(0.0, bench_params)}
    # five paths over four threads make three ranges of two: three workers
    for n_sim, threads, n_ranges in ((9, 2, 2), (5, 4, 3)):
        pools.clear()
        jobs.clear()
        reports = run_experiment(bench_params, marks_signal, agents, n_sim,
                                 58, start_short, threads=threads)
        # one pool, with one worker per contiguous range
        assert pools == [n_ranges]
        assert len(jobs) == n_ranges
        assert all(isinstance(job, range) for job in jobs)
        assert [i for paths in jobs for i in paths] == list(range(n_sim))
        assert [r.n_sim for r in reports.values()] == [n_sim, n_sim]


def test_one_block_experiment_starts_no_pool(monkeypatch, bench_params,
                                            marks_signal, start_short):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-block experiment started a pool")

    agents = {"a": DoNothingAgent(),
              "b": ImmediateExecutionAgent(0.0, bench_params)}
    serial = run_experiment(bench_params, marks_signal, agents, 9, 58,
                            start_short)
    monkeypatch.setattr(evaluation.futures, "ProcessPoolExecutor", no_pool)
    reports = run_experiment(bench_params, marks_signal, agents, 9, 58,
                             start_short, threads=4)
    for name, report in serial.items():
        assert json.dumps(report_to_dict(report)) \
            == json.dumps(report_to_dict(reports[name]))


def test_pool_starts_one_worker_per_block(monkeypatch, bench_params,
                                          marks_signal, start_short):
    pools = []

    class RecordingPool(evaluation.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self._max_workers)

    monkeypatch.setattr(evaluation.futures, "ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(evaluation, "BLOCK_PATHS", 4)
    n_sim = 2 * evaluation.BLOCK_PATHS + 1
    reports = run_experiment(bench_params, marks_signal,
                             {"a": DoNothingAgent()}, n_sim, 58, start_short,
                             threads=8)
    # three blocks: three workers of the eight allowed
    assert pools == [3]
    assert reports["a"].n_sim == n_sim


def test_one_simulate_block_call_per_block_for_every_agent(
        monkeypatch, bench_params, marks_signal, start_short):
    agents = {"a": DoNothingAgent(),
              "b": ImmediateExecutionAgent(0.0, bench_params),
              "c": TwapAgent(0.0, start_short.q, bench_params)}
    alone = {name: run_experiment(bench_params, marks_signal, {name: agent},
                                  9, 58, start_short)[name]
             for name, agent in agents.items()}
    calls = []

    def counting(params, marks, block_agents, initial, candidates, **kw):
        calls.append((len(block_agents), len(candidates.counts)))
        return simulate_block(params, marks, block_agents, initial,
                              candidates, **kw)

    monkeypatch.setattr(evaluation, "simulate_block", counting)
    monkeypatch.setattr(evaluation, "BLOCK_PATHS", 4)
    reports = run_experiment(bench_params, marks_signal, agents, 9, 58,
                             start_short)
    # blocks of 4, 4 and 1 paths, each simulated once for all three agents
    assert calls == [(3, 4), (3, 4), (3, 1)]
    for name, report in reports.items():
        np.testing.assert_array_equal(report.wealth, alone[name].wealth)


def _path_log(params, marks, agent, initial, seeds) -> str:
    """The rows ``write_path_log`` writes for ``agent`` on one recorded
    block of ``seeds``."""
    out = io.StringIO()
    write_path_log(csv.writer(out), simulate_block(
        params, marks, [agent], initial, draw_candidates(params, marks, seeds),
        record_events=True).events)
    return out.getvalue()


def test_recorded_events_are_each_agent_alone_over_ragged_blocks(
        monkeypatch, bench_params, marks_signal, start_short):
    """Over blocks of 4, 4 and 1 paths, each agent's logged rows are the
    ones it logs in one block, numbered by path; logging changes no
    report, and the log takes exactly one agent."""
    agents = {"a": DoNothingAgent(),
              "b": ImmediateExecutionAgent(0.0, bench_params),
              "c": TwapAgent(0.0, start_short.q, bench_params)}
    monkeypatch.setattr(evaluation, "BLOCK_PATHS", 4)
    seeds = [make_path_seed(58, i) for i in range(9)]
    unlogged = run_experiment(bench_params, marks_signal, agents, 9, 58,
                              start_short)
    for name, agent in agents.items():
        out = io.StringIO()
        report = run_experiment(bench_params, marks_signal, {name: agent}, 9,
                                58, start_short, path_log=csv.writer(out))
        expected = _path_log(bench_params, marks_signal, agent, start_short,
                             seeds)
        assert out.getvalue() == expected, name
        assert {row[0] for row in csv.reader(io.StringIO(expected))} \
            == {str(i) for i in range(9)}
        np.testing.assert_array_equal(report[name].wealth,
                                      unlogged[name].wealth)
    with pytest.raises(ValueError, match="exactly one agent"):
        run_experiment(bench_params, marks_signal, agents, 9, 58,
                       start_short, path_log=csv.writer(io.StringIO()))


def test_logged_rows_are_written_before_the_next_block_is_drawn(
        monkeypatch, bench_params, marks_signal, start_short):
    """A logged experiment hands each block's rows to the writer as soon
    as the block is simulated: when the second block is drawn, the first
    block's rows are already written, and no others."""
    agent = TwapAgent(0.0, start_short.q, bench_params)
    seeds = [make_path_seed(58, i) for i in range(7)]
    first = _path_log(bench_params, marks_signal, agent, start_short,
                      seeds[:4])
    assert first
    out = io.StringIO()
    written = []

    def drawing(params, marks, block_seeds):
        written.append(out.getvalue())
        return draw_candidates(params, marks, block_seeds)

    monkeypatch.setattr(evaluation, "draw_candidates", drawing)
    monkeypatch.setattr(evaluation, "BLOCK_PATHS", 4)
    run_experiment(bench_params, marks_signal, {"twap": agent}, 7, 58,
                   start_short, threads=2, path_log=csv.writer(out))
    assert written == ["", first]
    assert out.getvalue() == _path_log(bench_params, marks_signal, agent,
                                       start_short, seeds)


def test_an_experiment_builds_no_per_path_record(
        monkeypatch, bench_params, solved_signal, solved_blind, marks_signal,
        start_short):
    """The five desk agents' reports are reduced from the block's columns:
    one record of per-lane arrays per block, none per path."""
    built = []

    class CountedRecord(order_flow.PathRecord):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(np.shape(self.terminal_wealth))

    agents = {
        "table": TablePolicyAgent(solved_signal[1], bench_params),
        "do-nothing": DoNothingAgent(),
        "immediate": ImmediateExecutionAgent(0.0, bench_params),
        "twap": TwapAgent(0.0, start_short.q, bench_params),
        "table-nosignal": TablePolicyAgent(solved_blind[1], bench_params,
                                           name="table-nosignal"),
    }
    monkeypatch.setattr(order_flow, "PathRecord", CountedRecord)
    monkeypatch.setattr(evaluation, "BLOCK_PATHS", 4)
    reports = run_experiment(bench_params, marks_signal, agents, 9, 58,
                             start_short)
    # blocks of 4, 4 and 1 paths, each of five agents' lanes
    assert built == [(20,), (20,), (5,)]
    assert [r.n_sim for r in reports.values()] == [9] * 5


def test_run_experiment_validation(bench_params, marks_signal, start_short):
    with pytest.raises(ValueError, match="n_sim"):
        run_experiment(bench_params, marks_signal, {"a": DoNothingAgent()},
                       0, 1, start_short)
    with pytest.raises(ValueError, match="threads"):
        run_experiment(bench_params, marks_signal, {"a": DoNothingAgent()},
                       10, 1, start_short, threads=0)


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------

def test_report_writers_roundtrip(tmp_path, bench_params, marks_signal,
                                  start_short):
    report = run_experiment(bench_params, marks_signal,
                            {"do-nothing": DoNothingAgent()}, 50, 59,
                            start_short)["do-nothing"]
    jpath = tmp_path / "report.json"
    write_report_json(report, jpath)
    data = json.loads(jpath.read_text())
    assert data["agent"] == "do-nothing"
    assert data["mean"] == report.mean
    assert data["n_sim"] == 50
    assert "wealth" not in data
    assert sum(data["histogram"]["counts"]) == 50
    assert data["config_echo"]["params"]["zeta"] == bench_params.zeta

    cpath = tmp_path / "wealth.csv"
    write_wealth_csv(report, cpath)
    with open(cpath, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["path_index", "wealth"]
    assert len(rows) == 51
    assert float(rows[1][1]) == report.wealth[0]
    assert int(rows[-1][0]) == 49


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_json_outputs_refuse_what_json_cannot_hold(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(path, {"ssr": value})
    assert not path.exists()
    write_json(path, {"ssr": None})
    assert path.read_text() == '{\n  "ssr": null\n}\n'



# ---------------------------------------------------------------------------
# solver/simulator consistency
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def zero_rate_solution():
    with pytest.warns(UserWarning, match="resilient"):
        marks = MarkModel((Mark(eta=1.0, rho=0.0, nu=1.0),), 0.0)
    grid = Grid.from_params(ZERO_RATE, d_t=0.1, d_lambda=1.0,
                            q_min=-2.0, q_max=2.0)
    surface, policy = solve(ZERO_RATE, marks, grid)
    return marks, surface, policy


def test_consistency_check_is_exact_without_event_risk(zero_rate_solution):
    """With no external events and ample liquidity the simulated utility
    reproduces the solved value to rounding precision."""
    marks, surface, policy = zero_rate_solution
    initial = MarketState(lam=0.0, q=-2.0, p=100.0, x=0.0)
    report = run_experiment(ZERO_RATE, marks,
                            {"table": TablePolicyAgent(policy, ZERO_RATE)},
                            4, 60, initial)["table"]
    result = consistency_check(surface, report, initial)
    assert result.passed
    assert result.mc_se == 0.0
    assert result.abs_error <= 1e-6 * abs(result.solver_value)
    assert result.solver_value == pytest.approx(result.mc_mean, rel=1e-12)
    # and the sign convention is the utility one
    assert result.solver_value < 0.0


def test_consistency_check_needs_two_paths(zero_rate_solution):
    """One path has no standard error: the check refuses it rather than
    compare against a NaN tolerance."""
    marks, surface, policy = zero_rate_solution
    initial = MarketState(lam=0.0, q=-2.0, p=100.0, x=0.0)
    agent = TablePolicyAgent(policy, ZERO_RATE)
    one = run_experiment(ZERO_RATE, marks, {"t": agent}, 1, 60, initial)["t"]
    with pytest.raises(ValueError, match="at least two paths"):
        consistency_check(surface, one, initial)
    two = run_experiment(ZERO_RATE, marks, {"t": agent}, 2, 60, initial)["t"]
    assert consistency_check(surface, two, initial).passed


def test_consistency_check_rejects_mismatched_inputs(zero_rate_solution,
                                                     bench_params,
                                                     marks_signal):
    marks, surface, policy = zero_rate_solution
    initial = MarketState(lam=0.0, q=-2.0, p=100.0, x=0.0)
    agent = TablePolicyAgent(policy, ZERO_RATE)

    other_params = run_experiment(bench_params, marks, {"t": agent}, 2, 61,
                                  initial)["t"]
    with pytest.raises(ValueError, match="market parameters"):
        consistency_check(surface, other_params, initial)

    other_marks = run_experiment(ZERO_RATE, marks_signal, {"t": agent}, 2,
                                 61, initial)["t"]
    with pytest.raises(ValueError, match="mark model"):
        consistency_check(surface, other_marks, initial)

    good = run_experiment(ZERO_RATE, marks, {"t": agent}, 2, 61,
                          initial)["t"]
    with pytest.raises(ValueError, match="initial"):
        consistency_check(surface, good,
                          MarketState(lam=0.0, q=-1.0, p=100.0, x=0.0))


def test_consistency_check_holds_on_the_benchmark(solved_signal,
                                                  report_signal, start_short):
    surface, _ = solved_signal
    result = consistency_check(surface, report_signal, start_short)
    assert result.passed, (
        f"solver {result.solver_value:.6g} vs mc {result.mc_mean:.6g} "
        f"+- {result.mc_se:.2g} (tolerance {result.tolerance:.2g})")
    assert result.abs_error <= result.tolerance


def test_solved_value_is_paid_near_the_floor(tiny_solution, bench_params,
                                             marks_signal):
    """One coarse-grid row above the floor, where the solver and the market
    must agree on every floor-breaking trade and event, the table agent
    earns the solved value."""
    surface, policy = tiny_solution
    initial = MarketState(lam=-36.0, q=-2.0, p=100.0, x=0.0)
    report = run_experiment(bench_params, marks_signal,
                            {"table": TablePolicyAgent(policy, bench_params)},
                            20_000, 7, initial, threads=1)["table"]
    result = consistency_check(surface, report, initial)
    # The agent buys its two lots at once and ends flat on every path, so
    # the paths' utilities are equal up to rounding: the standard error is
    # rounding noise, and the solved value, formed in another order, sits
    # some ulps away.  The relative term covers that rounding.
    bound = 3.0 * result.mc_se + 1e-12 * abs(result.solver_value)
    assert abs(result.mc_mean - result.solver_value) <= bound, (
        f"solver {result.solver_value!r} vs mc {result.mc_mean!r} "
        f"+- {result.mc_se:.2g}")


# ---------------------------------------------------------------------------
# utility helper used throughout the reports
# ---------------------------------------------------------------------------

def test_utility_matches_cara_form():
    w = np.array([-805.0, -800.0, -795.0])
    np.testing.assert_allclose(utility(w, 0.1), -np.exp(-0.1 * w),
                               rtol=1e-15)
    np.testing.assert_allclose(utility(w, 0.0), w, rtol=0)
