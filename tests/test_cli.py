"""Command-line interface: config resolution, artifacts, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from artifact import cli, evaluation, hjb, order_flow
from artifact.cli import ConfigError, load_config, main
from artifact.market_core import MarketParams

def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _all_output(result):
    text = result.output
    try:
        text += result.stderr
    except (ValueError, AttributeError):
        pass
    return text


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_missing_and_empty_configs_resolve_to_the_benchmark(tmp_path):
    default = load_config(None)
    assert default.params.zeta == 0.005          # quoted spread 0.01
    assert default.params.theta_f == 20.0
    assert default.params == MarketParams()      # field for field
    assert default.marks.signal_prob == 0.2
    assert default.grid.d_t == 0.005
    assert default.experiment["n_sim"] == 10000

    empty = tmp_path / "empty.json"
    empty.write_text("")
    from_file = load_config(str(empty))
    assert from_file.config_hash() == default.config_hash()


def test_partial_config_keeps_other_defaults(tmp_path):
    path = _write_config(tmp_path, {"market": {"spread": 0.002},
                                    "experiment": {"n_sim": 7}})
    config = load_config(path)
    assert config.params.zeta == 0.001
    assert config.params.theta_g == 40.0         # untouched default
    assert config.experiment["n_sim"] == 7
    assert config.initial_state().q == -8.0


def _whole(text):
    """A JSON number as an int when it is whole, else as a float."""
    value = float(text)
    return int(value) if value.is_integer() else value


@pytest.mark.parametrize("payload", [
    {"market": {"theta_f": 20, "theta_g": 40, "spread": 0.02,
                "lambda_lower": -40, "lambda_upper": 40, "lot_size": 1,
                "horizon": 1}},
    {"marks": {"signal_prob": 0, "post_fraction": 1}},
    {"marks": {"custom": [[1, 0, 0.25], [-1, 0, 0.25], [0, 2, 0.5]]}},
    {"grid": {"d_lambda": 2, "q_min": -8, "q_max": 8}},
    {"experiment": {"n_sim": 200, "base_seed": 99, "q0": -2, "lambda0": 0,
                    "p0": 100, "x0": 0, "target_q": 0,
                    "p_hat_values": [0, 1]}},
    {"output": {"histogram_bin_width": 1}},
], ids=["market", "marks", "custom-marks", "grid", "experiment", "output"])
def test_int_and_float_spellings_build_the_same_run(tmp_path, payload):
    # one JSON text read twice: every number as a float, and every whole
    # number as an int
    text = json.dumps(payload)
    floats = load_config(_write_config(
        tmp_path, json.loads(text, parse_int=float), "floats.json"))
    ints = load_config(_write_config(
        tmp_path, json.loads(text, parse_float=_whole), "ints.json"))
    assert ints.config_hash() == floats.config_hash()
    assert ints.config_hash() != load_config(None).config_hash()
    assert hjb.solver_inputs(ints.params, ints.marks, ints.grid) \
        == hjb.solver_inputs(floats.params, floats.marks, floats.grid)
    assert ints.experiment == floats.experiment
    assert ints.output == floats.output


def test_config_hash_ignores_threads_and_directory(tmp_path):
    one = load_config(_write_config(
        tmp_path, {"experiment": {"threads": 1},
                   "output": {"directory": "left"}}, "a.json"))
    two = load_config(_write_config(
        tmp_path, {"experiment": {"threads": 8},
                   "output": {"directory": "right"}}, "b.json"))
    assert one.config_hash() == two.config_hash()
    three = load_config(_write_config(
        tmp_path, {"experiment": {"base_seed": 7}}, "c.json"))
    assert three.config_hash() != one.config_hash()
    assert len(one.config_hash()) == 64


@pytest.mark.parametrize("payload, fragment", [
    ({"market": {"thetaf": 1.0}}, "unknown config key: market.thetaf"),
    ({"colour": 1}, "unknown config key: colour"),
    ({"schema_version": 2}, "schema_version"),
    ({"market": {"kappa_iota": -0.001}}, "market section invalid"),
    ({"market": {"spread": -0.01}}, "spread"),
    ({"grid": {"d_lambda": 3.0}}, "grid section invalid"),
    ({"experiment": {"n_sim": 0}}, "n_sim"),
    ({"experiment": {"threads": 0}}, "threads"),
    ({"experiment": {"base_seed": -1}}, "base_seed"),
    ({"experiment": {"lambda0": 90.0}}, "liquidity band"),
    ({"marks": {"signal_prob": 1.5}}, "marks section invalid"),
    ({"market": "not-a-section"}, "must be a section"),
    ({"marks": {"custom": [[0, 0, 1]]}}, "marks section invalid"),
    ({"experiment": {"p_hat_values": [0.0, 1.5]}}, "p_hat_values"),
    ({"experiment": {"p_hat_values": "abc"}}, "p_hat_values"),
    ({"experiment": {"agents": ["table", "vwap"]}}, "experiment.agents"),
    ({"experiment": {"n_sim": "x"}}, "n_sim must be a whole number"),
    ({"experiment": {"threads": 1.5}}, "threads must be a whole number"),
    ({"experiment": {"base_seed": 2.5}}, "base_seed must be a whole number"),
    ({"experiment": {"q0": 0.5}}, "twap"),
    ({"output": {"histogram_bin_width": 0}}, "output.histogram_bin_width"),
    ({"output": {"histogram_bin_width": -1}}, "output.histogram_bin_width"),
    ({"experiment": {"lambda0": "x"}}, "experiment.lambda0 must be a number"),
    ({"experiment": {"q0": "x"}}, "experiment.q0 must be a number"),
    ({"experiment": {"p0": "x"}}, "experiment.p0 must be a number"),
    ({"experiment": {"x0": "x"}}, "experiment.x0 must be a number"),
    ({"experiment": {"target_q": "x"}},
     "experiment.target_q must be a number"),
    ({"market": {"spread": "x"}}, "market.spread must be a number"),
    ({"experiment": {"spread_override": 0.002}},
     "unknown config key: experiment.spread_override"),
    ({"grid": {"d_t": None}}, "grid.d_t must be a number"),
    ({"experiment": {"record_events": "no"}},
     "experiment.record_events must be true or false"),
    ({"output": {"directory": 5}}, "output.directory must be a string"),
    ({"experiment": {"p0": float("inf")}}, "experiment.p0 must be a number"),
    ({"experiment": {"q0": float("nan")}}, "experiment.q0 must be a number"),
    ({"market": {"horizon": 10 ** 400}}, "market.horizon must be a number"),
    ({"experiment": {"q0": -13.0}}, "experiment.q0"),
    ({"experiment": {"q0": 0.5, "agents": ["table"]}}, "experiment.q0"),
])
def test_invalid_configs_are_rejected_with_their_path(tmp_path, payload,
                                                      fragment):
    path = _write_config(tmp_path, payload)
    with pytest.raises(ConfigError, match=fragment):
        load_config(path)


def test_whole_number_floats_load(tmp_path):
    config = load_config(_write_config(tmp_path, {"experiment": {
        "n_sim": 300.0, "threads": 2.0, "base_seed": 7.0}}))
    assert config.experiment["n_sim"] == 300
    assert config.stamp()["base_seed"] == 7
    assert load_config(_write_config(tmp_path, {"experiment": {
        "n_sim": 300}}, "int.json")).experiment["n_sim"] == 300


def test_malformed_json_is_a_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(path))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))
    scalar = tmp_path / "scalar.json"
    scalar.write_text("3")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(str(scalar))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

TINY_GRID = {"d_t": 0.01, "d_lambda": 4.0, "q_min": -2.0, "q_max": 2.0}


def _tiny_config(tmp_path, name="tiny.json", **experiment):
    exp = dict(n_sim=40, base_seed=99, q0=-2.0, threads=1)
    exp.update(experiment)
    return _write_config(tmp_path, {"grid": TINY_GRID, "experiment": exp},
                         name)


def test_solve_writes_the_expected_artifacts(tmp_path):
    runner = CliRunner()
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["solve", "-c", cfg, "-o", str(out)])
    assert result.exit_code == 0, _all_output(result)
    for name in ("solution_signal.npz", "solution_nosignal.npz",
                 "ce_table.csv", "solve_summary.json"):
        assert (out / name).is_file(), name
    summary = json.loads((out / "solve_summary.json").read_text())
    assert summary["base_seed"] == 99
    assert len(summary["config_hash"]) == 64
    assert summary["stability_number"] == pytest.approx(0.895, abs=0.01)
    assert summary["q_symmetry_residual"] <= 1e-8
    assert summary["w_start"] < 0.0
    assert summary["max_certainty_equivalent"] >= 0.0
    assert "solved" in result.output


def test_solve_reruns_are_byte_identical(tmp_path):
    runner = CliRunner()
    cfg = _tiny_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, ["solve", "-c", cfg, "-o", str(a)]).exit_code \
        == 0
    assert runner.invoke(main, ["solve", "-c", cfg, "-o", str(b)]).exit_code \
        == 0
    for name in ("solution_signal.npz", "solution_nosignal.npz",
                 "ce_table.csv", "solve_summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_solutions_do_not_depend_on_the_seed(tmp_path):
    # a solution carries only its solver inputs, so any run that solves the
    # same problem writes the same bytes
    runner = CliRunner()
    cfg = _tiny_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    for seed, out in (("5", a), ("6", b)):
        result = runner.invoke(main, ["solve", "-c", cfg, "-o", str(out),
                                      "--seed", seed])
        assert result.exit_code == 0, _all_output(result)
    for name in ("solution_signal.npz", "solution_nosignal.npz"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    assert hjb.load_solution(a / "solution_signal.npz")[0].meta.keys() == {
        "schema_version", "alpha", "params", "marks", "grid"}
    assert (a / "solve_summary.json").read_bytes() \
        != (b / "solve_summary.json").read_bytes()


def test_unstable_grid_exits_with_the_numerical_code(tmp_path):
    runner = CliRunner()
    cfg = _write_config(tmp_path, {"grid": dict(TINY_GRID, d_t=0.02),
                                   "experiment": {"q0": -2.0}})
    result = runner.invoke(main, ["solve", "-c", cfg,
                                  "-o", str(tmp_path / "out")])
    assert result.exit_code == 3
    assert "numerical error" in _all_output(result)


def test_config_errors_exit_with_code_two(tmp_path):
    runner = CliRunner()
    cfg = _write_config(tmp_path, {"market": {"thetaf": 1.0}})
    result = runner.invoke(main, ["solve", "-c", cfg])
    assert result.exit_code == 2
    assert "configuration error" in _all_output(result)


@pytest.mark.parametrize("key, value", [("mode", "evaluate"),
                                        ("spread_override", 0.002)])
def test_removed_experiment_keys_are_unknown(tmp_path, key, value):
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, **{key: value})
    out = tmp_path / "out"
    result = runner.invoke(main, ["solve", "-c", cfg, "-o", str(out)])
    assert result.exit_code == 2
    assert f"unknown config key: experiment.{key}" in _all_output(result)
    assert not out.exists()


def test_simulate_requires_a_solved_policy(tmp_path):
    runner = CliRunner()
    cfg = _tiny_config(tmp_path)
    result = runner.invoke(main, ["simulate", "-c", cfg,
                                  "-o", str(tmp_path / "fresh")])
    assert result.exit_code == 2
    assert "policy file not found" in _all_output(result)
    # a refused run leaves no output directory behind
    assert not (tmp_path / "fresh").exists()


def test_simulate_refuses_a_policy_solved_for_other_inputs(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    assert runner.invoke(main, ["solve", "-c", _tiny_config(tmp_path),
                                "-o", str(out)]).exit_code == 0
    cfg = _write_config(tmp_path, {
        "market": {"lot_size": 2.0},
        "grid": TINY_GRID,
        "experiment": dict(n_sim=40, base_seed=99, q0=-2.0, threads=1),
    }, "lot2.json")
    result = runner.invoke(main, ["simulate", "-c", cfg, "-o", str(out)])
    assert result.exit_code == 2
    assert "solved for other" in _all_output(result)
    assert not (out / "simulate_report.json").exists()


def test_solve_replaces_an_unreadable_stored_solution(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    out.mkdir()
    (out / "solution_signal.npz").write_bytes(b"junk\n")
    result = runner.invoke(main, ["solve", "-c", _tiny_config(tmp_path),
                                  "-o", str(out)])
    assert result.exit_code == 0, _all_output(result)
    surface, _ = hjb.load_solution(out / "solution_signal.npz")
    assert surface.values.shape[0] == surface.grid.n_steps + 1


def test_simulate_refuses_an_unreadable_stored_solution(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    out.mkdir()
    (out / "solution_signal.npz").write_bytes(b"junk\n")
    result = runner.invoke(main, ["simulate", "-c", _tiny_config(tmp_path),
                                  "-o", str(out)])
    assert result.exit_code == 2
    assert "unreadable" in _all_output(result)
    assert sorted(os.listdir(out)) == ["solution_signal.npz"]


def test_simulate_after_solve_writes_reports(tmp_path):
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, n_sim=25, record_events=True)
    out = tmp_path / "out"
    assert runner.invoke(main, ["solve", "-c", cfg,
                                "-o", str(out)]).exit_code == 0
    result = runner.invoke(main, ["simulate", "-c", cfg, "-o", str(out)])
    assert result.exit_code == 0, _all_output(result)
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["n_sim"] == 25
    assert len(report["config_echo"]["config_hash"]) == 64
    assert report["config_echo"]["base_seed"] == 99
    wealth_rows = (out / "simulate_wealth.csv").read_text().strip().split()
    assert len(wealth_rows) == 26
    assert (out / "paths.csv").is_file()
    assert "simulated 25 paths" in result.output


def test_unrecorded_simulate_removes_a_recorded_runs_path_log(tmp_path):
    runner = CliRunner()
    out = tmp_path / "out"
    recorded = _tiny_config(tmp_path, "recorded.json", n_sim=30,
                            record_events=True)
    assert runner.invoke(main, ["solve", "-c", recorded,
                                "-o", str(out)]).exit_code == 0
    assert runner.invoke(main, ["simulate", "-c", recorded,
                                "-o", str(out)]).exit_code == 0
    assert (out / "paths.csv").is_file()
    plain = _tiny_config(tmp_path, "plain.json", n_sim=10)
    result = runner.invoke(main, ["simulate", "-c", plain, "-o", str(out),
                                  "--seed", "7"])
    assert result.exit_code == 0, _all_output(result)
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["n_sim"] == 10
    assert not (out / "paths.csv").exists()


def test_simulate_with_recorded_events_simulates_each_path_once(
        tmp_path, monkeypatch):
    real_draw_candidates = evaluation.draw_candidates
    seeds = []

    def counted_draw_candidates(*args, **kwargs):
        seeds.extend(args[2])
        return real_draw_candidates(*args, **kwargs)

    monkeypatch.setattr(evaluation, "draw_candidates",
                        counted_draw_candidates)
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, n_sim=25, record_events=True)
    out = tmp_path / "out"
    assert runner.invoke(main, ["solve", "-c", cfg,
                                "-o", str(out)]).exit_code == 0
    result = runner.invoke(main, ["simulate", "-c", cfg, "-o", str(out)])
    assert result.exit_code == 0, _all_output(result)
    assert len(seeds) == 25
    assert len(set(seeds)) == 25


def test_recorded_simulate_runs_in_process_whatever_the_threads(
        tmp_path, monkeypatch):
    """Two blocks of recorded paths at ``--threads 2`` start no pool and
    write the ``--threads 1`` bytes."""
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, n_sim=order_flow.BLOCK_PATHS + 76,
                       record_events=True)
    out = tmp_path / "out"
    assert runner.invoke(main, ["solve", "-c", cfg,
                                "-o", str(out)]).exit_code == 0

    def simulate(threads):
        result = runner.invoke(main, ["simulate", "-c", cfg, "-o", str(out),
                                      "--threads", threads])
        assert result.exit_code == 0, _all_output(result)
        return [(out / name).read_bytes() for name in (
            "paths.csv", "simulate_report.json", "simulate_wealth.csv")]

    serial = simulate("1")

    def no_pool(*args, **kwargs):
        raise AssertionError("a recorded run started a pool")

    monkeypatch.setattr(evaluation.futures, "ProcessPoolExecutor", no_pool)
    assert simulate("2") == serial


@pytest.mark.filterwarnings("ignore:degenerate wealth sample")
def test_evaluate_writes_per_agent_reports_and_passes_consistency(tmp_path):
    runner = CliRunner()
    # flat start: the solved policy never trades, the check is exact
    cfg = _tiny_config(tmp_path, q0=0.0, n_sim=30)
    out = tmp_path / "out"
    result = runner.invoke(main, ["evaluate", "-c", cfg, "-o", str(out)])
    assert result.exit_code == 0, _all_output(result)
    summary = json.loads((out / "eval_summary.json").read_text())
    expected_agents = {"table", "do-nothing", "immediate", "twap",
                       "table-nosignal"}
    assert set(summary["agents"]) == expected_agents
    assert summary["consistency"]["passed"] is True
    for name in expected_agents:
        assert (out / f"eval_{name}.json").is_file()
        assert (out / f"eval_{name}_wealth.csv").is_file()
    assert "consistency check passed" in result.output


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("ignore:degenerate wealth sample")
def test_an_undefined_ssr_is_written_as_null(tmp_path):
    """From flat the table agent never trades, so its wealth has no spread
    and the SSR is undefined: the JSON outputs say ``null``, which every
    JSON parser reads, and the sweep CSV keeps ``nan``."""
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, q0=0.0, n_sim=30)
    out = tmp_path / "out"
    for command in ("evaluate", "sweep"):
        result = runner.invoke(main, [command, "-c", cfg, "-o", str(out)])
        assert result.exit_code == 0, _all_output(result)
    parsed = {name: json.loads((out / name).read_text(),
                               parse_constant=_refuse_constant)
              for name in ("eval_summary.json", "eval_table.json",
                           "sweep_summary.json")}
    assert parsed["eval_summary.json"]["agents"]["table"]["ssr"] is None
    assert parsed["eval_table.json"]["ssr"] is None
    assert [row["ssr"] for row in parsed["sweep_summary.json"]["rows"]] \
        == [None] * len(load_config(cfg).experiment["p_hat_values"])
    with open(out / "ssr_sweep.csv") as handle:
        assert all(row.split(",")[3] == "nan"
                   for row in handle.read().splitlines()[1:])


@pytest.mark.filterwarnings("ignore:degenerate wealth sample")
def test_evaluate_reuses_solutions_solved_for_the_same_inputs(tmp_path):
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, q0=0.0, n_sim=20)
    out = tmp_path / "out"
    assert runner.invoke(main, ["solve", "-c", cfg,
                                "-o", str(out)]).exit_code == 0
    names = ("solution_signal.npz", "solution_nosignal.npz")
    before = [(out / name).stat().st_mtime_ns for name in names]
    result = runner.invoke(main, ["evaluate", "-c", cfg, "-o", str(out),
                                  "--seed", "5"])
    assert result.exit_code == 0, _all_output(result)
    assert [(out / name).stat().st_mtime_ns for name in names] == before


def test_one_path_refuses_the_consistency_check_before_solving(
        tmp_path, monkeypatch):
    """A standard error needs two paths: ``evaluate`` and ``check`` refuse
    ``n_sim`` 1 with a configuration error before anything is solved;
    ``simulate`` and ``sweep`` still accept one path."""
    solves = _count_solves(monkeypatch)
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, n_sim=1)
    out = tmp_path / "out"
    for command in ("evaluate", "check"):
        result = runner.invoke(main, [command, "-c", cfg, "-o", str(out)])
        assert result.exit_code == 2, _all_output(result)
        assert "experiment.n_sim must be >= 2" in _all_output(result)
    assert solves == []
    assert not (out / "eval_summary.json").exists()
    assert load_config(cfg).experiment["n_sim"] == 1


@pytest.mark.filterwarnings("ignore:degenerate wealth sample")
def test_evaluate_without_the_table_agent_says_the_check_was_skipped(
        tmp_path):
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, agents=[], n_sim=20)
    out = tmp_path / "out"
    result = runner.invoke(main, ["evaluate", "-c", cfg, "-o", str(out)])
    assert result.exit_code == 0, _all_output(result)
    summary = json.loads((out / "eval_summary.json").read_text())
    assert list(summary["agents"]) == ["table-nosignal"]
    assert "consistency" not in summary
    assert "consistency check skipped" in result.output
    assert "consistency check passed" not in result.output


def test_a_bad_value_exits_before_anything_is_solved(tmp_path):
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, p0="x")
    out = tmp_path / "out"
    result = runner.invoke(main, ["evaluate", "-c", cfg, "-o", str(out)])
    assert result.exit_code == 2, _all_output(result)
    assert "experiment.p0 must be a number" in _all_output(result)
    assert not list(tmp_path.glob("**/*.npz"))


def test_a_non_object_experiment_is_rejected_with_flags_given(tmp_path):
    runner = CliRunner()
    cfg = _write_config(tmp_path, {"experiment": "x"})
    result = runner.invoke(main, ["solve", "-c", cfg, "--seed", "3"])
    assert result.exit_code == 2
    assert "experiment must be a section" in _all_output(result)


@pytest.mark.filterwarnings("ignore:degenerate wealth sample")
def test_each_command_builds_its_config_once(tmp_path, monkeypatch):
    real_build = cli._build
    builds = []

    def counted_build(merged):
        builds.append(merged)
        return real_build(merged)

    monkeypatch.setattr(cli, "_build", counted_build)
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, q0=0.0, n_sim=10, p_hat_values=[0.0, 0.2])
    out = str(tmp_path / "out")
    commands = ("solve", "simulate", "evaluate", "sweep", "check")
    for count, command in enumerate(commands, 1):
        result = runner.invoke(main, [command, "-c", cfg, "-o", out,
                                      "--seed", "5", "--threads", "1"])
        assert result.exit_code == 0, _all_output(result)
        assert len(builds) == count, command


def test_sweep_writes_one_row_per_signal_probability(tmp_path):
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, n_sim=50,
                       p_hat_values=[0.0, 0.2])
    out = tmp_path / "out"
    result = runner.invoke(main, ["sweep", "-c", cfg, "-o", str(out)])
    assert result.exit_code == 0, _all_output(result)
    rows = (out / "ssr_sweep.csv").read_text().strip().splitlines()
    assert rows[0].split(",")[0:4] == ["p_hat", "mean", "variance", "ssr"]
    assert len(rows) == 3
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) == 0.0          # the reference run against itself
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert [r["p_hat"] for r in summary["rows"]] == [0.0, 0.2]
    assert "swept 2 signal probabilities" in result.output


def test_sweep_runs_one_experiment_on_one_draw_per_block(tmp_path,
                                                         monkeypatch):
    """Every signal probability's table agent runs in one experiment, and
    each block of paths is drawn once for all of them."""
    experiments, draws = [], []

    def counted_experiment(params, marks, agents, *args, **kwargs):
        experiments.append(list(agents))
        return real_experiment(params, marks, agents, *args, **kwargs)

    def counted_draw(params, marks, seeds):
        draws.append(len(seeds))
        return real_draw(params, marks, seeds)

    real_experiment = evaluation.run_experiment
    real_draw = evaluation.draw_candidates
    monkeypatch.setattr(evaluation, "run_experiment", counted_experiment)
    monkeypatch.setattr(evaluation, "draw_candidates", counted_draw)
    monkeypatch.setattr(evaluation, "BLOCK_PATHS", 16)
    cfg = _tiny_config(tmp_path, n_sim=40, p_hat_values=[0.0, 0.2, 0.3])
    result = CliRunner().invoke(main, ["sweep", "-c", cfg,
                                       "-o", str(tmp_path / "out")])
    assert result.exit_code == 0, _all_output(result)
    assert experiments == [[0.0, 0.2, 0.3]]
    assert draws == [16, 16, 8]


def _count_solves(monkeypatch):
    """Record the arguments of every ``hjb.solve`` call."""
    real_solve = hjb.solve
    solves = []

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(hjb, "solve", counted_solve)
    return solves


def test_sweep_reuses_the_solutions_in_its_directory(tmp_path, monkeypatch):
    solves = _count_solves(monkeypatch)
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, n_sim=20, p_hat_values=[0.0, 0.2, 0.3])
    out = tmp_path / "out"
    assert runner.invoke(main, ["solve", "-c", cfg,
                                "-o", str(out)]).exit_code == 0
    names = ("solution_signal.npz", "solution_nosignal.npz")
    before = [(out / name).stat().st_mtime_ns for name in names]
    del solves[:]
    result = runner.invoke(main, ["sweep", "-c", cfg, "-o", str(out)])
    assert result.exit_code == 0, _all_output(result)
    assert [args[1].signal_prob for args in solves] == [0.3]
    assert [(out / name).stat().st_mtime_ns for name in names] == before
    assert (out / "solution_p0.3.npz").is_file()
    rows = (out / "ssr_sweep.csv").read_bytes()

    del solves[:]
    result = runner.invoke(main, ["sweep", "-c", cfg, "-o", str(out)])
    assert result.exit_code == 0, _all_output(result)
    assert solves == []
    assert (out / "ssr_sweep.csv").read_bytes() == rows

    lot2 = _write_config(tmp_path, {
        "market": {"lot_size": 2.0},
        "grid": TINY_GRID,
        "experiment": dict(n_sim=20, base_seed=99, q0=-2.0, threads=1,
                           p_hat_values=[0.0, 0.2, 0.3]),
    }, "lot2.json")
    result = runner.invoke(main, ["sweep", "-c", lot2, "-o", str(out)])
    assert result.exit_code == 0, _all_output(result)
    assert sorted(args[1].signal_prob for args in solves) == [0.0, 0.2, 0.3]
    assert all(args[0].lot_size == 2.0 for args in solves)
    lines = (out / "ssr_sweep.csv").read_text().strip().splitlines()
    assert [float(line.split(",")[0]) for line in lines[1:]] == [0.0, 0.2, 0.3]


def test_check_passes_on_a_well_posed_configuration(tmp_path, monkeypatch):
    solves = _count_solves(monkeypatch)
    runner = CliRunner()
    cfg = _tiny_config(tmp_path, q0=0.0, n_sim=60)
    result = runner.invoke(main, ["check", "-c", cfg])
    assert result.exit_code == 0, _all_output(result)
    assert "all checks passed" in result.output
    assert "[FAIL]" not in result.output
    assert len(solves) == 1


def test_check_flags_inelastic_volatility(tmp_path):
    runner = CliRunner()
    cfg = _write_config(tmp_path, {
        "market": {"kappa_f": 0.0},
        "grid": TINY_GRID,
        "experiment": {"n_sim": 30, "q0": 0.0},
    })
    result = runner.invoke(main, ["check", "-c", cfg])
    assert result.exit_code == 4
    assert "[FAIL] volatility elasticity" in result.output
    assert "check(s) failed" in _all_output(result)


def test_check_reports_undefined_elasticity_as_a_failed_check(tmp_path):
    """Without market orders the elasticity ratio is undefined: a verdict."""
    runner = CliRunner()
    cfg = _write_config(tmp_path, {
        "marks": {"custom": [[0, 1, 1]]},
        "grid": TINY_GRID,
        "experiment": {"n_sim": 30, "q0": 0.0},
    })
    result = runner.invoke(main, ["check", "-c", cfg])
    assert result.exit_code == 4, _all_output(result)
    assert ("[FAIL] volatility elasticity on the band (mark-averaged "
            "squared impact vanishes at lam=-40.0") in result.output
    assert "check(s) failed" in _all_output(result)


def test_seed_override_lands_in_the_stamp(tmp_path):
    runner = CliRunner()
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "out"
    result = runner.invoke(main, ["solve", "-c", cfg, "-o", str(out),
                                  "--seed", "7"])
    assert result.exit_code == 0, _all_output(result)
    summary = json.loads((out / "solve_summary.json").read_text())
    assert summary["base_seed"] == 7


def test_version_flag():
    result = CliRunner().invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.output


def test_python_dash_m_runs_the_cli_without_warnings():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "artifact",
         "--version"], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "artifact, version 0.1.0"


@pytest.mark.parametrize("exported, expected", [(None, "1"), ("2", "2")],
                         ids=["unset", "exported"])
def test_importing_the_package_starts_no_blas_threads(exported, expected):
    """One BLAS thread by default, and a value the caller exported wins.
    The probe imports ``artifact.cli``, which loads numpy."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if exported is not None:
        env["OPENBLAS_NUM_THREADS"] = exported
    probe = ("import os, artifact.cli;"
             " print(os.environ['OPENBLAS_NUM_THREADS']);"
             " task = '/proc/self/task';"
             " print(len(os.listdir(task)) if os.path.isdir(task) else '')")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    value, threads = result.stdout.split("\n")[:2]
    assert value == expected
    if exported is None and threads:
        assert threads == "1"
