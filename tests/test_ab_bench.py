"""The verdicts ``tools/ab_bench.py`` states for a workload's runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "ab_bench", ROOT / "tools" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()
METRICS = [{"name": "wall_s", "better": "lower", "bound": 0.25},
           {"name": "throughput_per_s", "better": "higher", "bound": 0.25}]
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def _runs(walls):
    """Runs whose wall times are ``walls`` and throughputs their inverses."""
    return [{"result": {"failed": 0, "attempted": 5, "metrics": {
        "wall_s": {"value": wall},
        "throughput_per_s": {"value": 1.0 / wall}}}} for wall in walls]


def _entry(change):
    return TOOL.summarize({"parent": _runs(PARENT), "change": _runs(change)},
                          METRICS)


@pytest.mark.parametrize("metric", ["wall_s", "throughput_per_s"])
def test_a_clear_win_holds(metric):
    m = _entry([0.7 * wall for wall in PARENT])["metrics"][metric]
    assert m["bound"] == 0.25
    assert m["change_better_pairs"] == 10
    assert m["gain_holds"]
    assert not m["worse_than_bound"]


@pytest.mark.parametrize("metric", ["wall_s", "throughput_per_s"])
def test_a_win_lost_in_two_pairs_does_not_hold(metric):
    change = [0.7 * wall for wall in PARENT]
    change[3], change[6] = 1.2 * PARENT[3], 1.2 * PARENT[6]
    m = _entry(change)["metrics"][metric]
    assert m["change_better_pairs"] == 8
    assert m["change_vs_parent_median"] != 0.0
    assert not m["gain_holds"]
    assert not m["worse_than_bound"]


@pytest.mark.parametrize("metric", ["wall_s", "throughput_per_s"])
def test_a_thirty_percent_loss_is_worse_than_a_quarter_bound(metric):
    entry = _entry([1.3 * wall for wall in PARENT])
    m = entry["metrics"][metric]
    # a 30 % longer run has 1/1.3 of the throughput: 23 % less, in bound
    assert m["worse_than_bound"] == (metric == "wall_s")
    assert not m["gain_holds"]
    assert TOOL.verdict_line("solve-desk", entry) \
        == "ab_bench: solve-desk: worse_than_bound: wall_s"


def test_ties_count_for_neither_side():
    change = [0.7 * wall for wall in PARENT]
    change[0] = PARENT[0]
    m = _entry(change)["metrics"]["wall_s"]
    assert m["change_better_pairs"] == 9
    assert m["gain_holds"]
    change[1] = PARENT[1]
    assert not _entry(change)["metrics"]["wall_s"]["gain_holds"]
