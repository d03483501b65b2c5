"""The traced pass: each workload's command run in-process with layer spans.

The spans come from the benchmark's own wrappers around the public
functions each layer offers where the command calls them; nothing in
``src/`` is traced.  A span is ``[name, start, end, parent, detail]``
with ``parent`` the index of the enclosing span (-1 at the top) and
``detail`` what the wrapper read from the call's arguments or result.
Spans stay in memory and are written once, at the end, outside the
command's output directory.

Pool workers of ``evaluate --threads 2`` inherit the wrappers, but their
spans stay in the workers, so on that workload only the parent-side spans
are recorded and the per-path numbers come from a single-process run of
the same sample.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

from artifact import cli, evaluation, hjb, order_flow, policy

from checks import check_output, check_prepared
from workloads import EVAL_AGENTS, SOLUTIONS, Workload, prepare

SIMULATOR = ("order_flow", "policy", "market_core")
PATH = "order_flow.simulate_path"
STEP_REPEATS = 3

# Per-layer metrics with their units; each run reports all of them, and a
# layer the workload does not exercise reads 0.
PER_LAYER = {
    "cli.load_config_ms": "ms",
    "cli.solutions_reused": "count",
    "hjb.solve_s.signal": "s",
    "hjb.solve_s.nosignal": "s",
    "hjb.solve_ms_per_step": "ms",
    "hjb.transport_step_ms": "ms",
    "hjb.impulse_step_ms": "ms",
    "hjb.node_updates": "count",
    "hjb.node_updates_per_s": "1/s",
    "hjb.save_solution_ms": "ms",
    "hjb.solution_bytes": "bytes",
    "hjb.solve_peak_alloc_mb": "MB",
    "hjb.load_solution_ms": "ms",
    "hjb.policy_mismatch_nodes": "count",
    "order_flow.simulate_path_ms.table": "ms",
    "order_flow.simulate_path_ms.passive": "ms",
    "order_flow.candidates_per_path": "count",
    "order_flow.live_ratio": "ratio",
    "order_flow.signals_per_path": "count",
    "market_core.apply_shock_calls_per_path": "count",
    "market_core.apply_shock_us": "us",
    "policy.on_signal_calls_per_path": "count",
    "policy.on_state_calls_per_path": "count",
    "policy.next_impulse_calls_per_path": "count",
    "policy.next_impulse_us": "us",
    "policy.impulse_hit_ratio": "ratio",
    "policy.share": "ratio",
    **{f"evaluation.run_experiment_s.{agent}": "s" for agent in EVAL_AGENTS},
    "evaluation.run_experiment_s.threads1": "s",
    "evaluation.run_experiment_s.threads2": "s",
    "evaluation.pool_speedup": "ratio",
    "evaluation.write_ms": "ms",
    "trace.share.hjb": "ratio",
    "trace.share.simulator": "ratio",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Records spans around wrapped functions until ``restore``."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._patches = []

    def call(self, name, fn, args=(), kwargs=None, detail=None):
        kwargs = kwargs or {}
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if detail is not None:
            span[4] = detail(args, kwargs, result)
        return result

    def patch(self, owner, attr, name, detail=None):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, args, kwargs, detail)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _solve_detail(args, kwargs, result):
    surface = result[0]
    grid = surface.grid
    kind = "signal" if surface.meta["marks"]["signal_prob"] > 0 else "nosignal"
    return (kind, grid.n_steps, grid.n_steps * (grid.n_lambda - 1) * grid.n_q)


def _save_detail(args, kwargs, result):
    surface, pol = args[1], args[2]
    return (surface.values.nbytes + pol.gamma_star.nbytes
            + pol.delta_star.nbytes,)


def _path_detail(args, kwargs, result):
    agent = args[2]
    return (getattr(agent, "name", "passive") if agent is not None
            else "passive", result.n_candidates,
            result.n_live_market + result.n_live_limit, result.n_signals)


def _experiment_detail(args, kwargs, result):
    return ("+".join(args[2]), kwargs.get("threads", 1))


def _impulse_detail(args, kwargs, result):
    return (int(result is not None),)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap the public functions of every layer where the commands call them."""
    tracer.patch(cli, "load_config", "cli.load_config")
    tracer.patch(hjb, "solve", "hjb.solve", _solve_detail)
    tracer.patch(hjb, "save_solution", "hjb.save_solution", _save_detail)
    tracer.patch(hjb, "load_solution", "hjb.load_solution")
    tracer.patch(evaluation, "run_experiment", "evaluation.run_experiment",
                 _experiment_detail)
    tracer.patch(evaluation, "simulate_path", PATH, _path_detail)
    tracer.patch(evaluation, "write_report_json",
                 "evaluation.write_report_json")
    tracer.patch(evaluation, "write_wealth_csv", "evaluation.write_wealth_csv")
    tracer.patch(order_flow, "apply_shock_detailed",
                 "market_core.apply_shock_detailed")
    for hook in ("on_signal", "on_state"):
        tracer.patch(policy.TablePolicyAgent, hook, f"policy.{hook}")
    tracer.patch(policy.TablePolicyAgent, "next_impulse",
                 "policy.next_impulse", _impulse_detail)
    try:
        yield tracer
    finally:
        tracer.restore()


def run_command(args, log: Path, tracer: Tracer = None):
    """Run ``artifact <args>`` in this process; returns (exit code, seconds)."""

    def invoke():
        try:
            cli.main.main(args=args, prog_name="artifact",
                          standalone_mode=False)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else int(
                exc.code is not None)
        return 0

    with open(log, "a") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        if tracer is None:
            code = invoke()
        else:
            with traced(tracer):
                code = tracer.call("cli.main", invoke)
        return code, time.perf_counter() - start


# ---------------------------------------------------------------------------
# reading spans


def exact_counts(spans) -> Counter:
    """Span counts by name plus the integer details they carry."""
    counts = Counter()
    for name, _, _, _, detail in spans:
        tags = [d for d in detail or () if isinstance(d, str)]
        key = ":".join([name] + tags)
        counts[key] += 1
        for i, value in enumerate(detail or ()):
            if isinstance(value, int):
                counts[f"{key}[{i}]"] += value
    return counts


def _child_time(spans):
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return child


def path_stats(spans) -> dict:
    """Per-agent sums over simulated paths and the calls made inside them."""
    child = _child_time(spans)
    stats = defaultdict(Counter)
    for index, (name, start, end, parent, detail) in enumerate(spans):
        if name == PATH:
            agent, candidates, live, signals = detail
            row = stats[agent]
            row["paths"] += 1
            row["time"] += end - start
            row["self"] += end - start - child[index]
            row["candidates"] += candidates
            row["live"] += live
            row["signals"] += signals
        elif parent >= 0 and spans[parent][0] == PATH:
            row = stats[spans[parent][4][0]]
            row[name + ".calls"] += 1
            row[name + ".time"] += end - start
            if name == "policy.next_impulse":
                row["impulse_hits"] += detail[0]
    return stats


def _durations(spans, name):
    return [end - start for n, start, end, _, _ in spans if n == name]


def _layer_share(spans, layers, total) -> float:
    """Share of ``total`` covered by outermost spans of the given layers."""
    covered = 0.0
    for name, start, end, parent, _ in spans:
        layer = name.split(".")[0]
        outer = parent < 0 or spans[parent][0].split(".")[0] not in layers
        if layer in layers and outer:
            covered += end - start
    return covered / total


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, extra_spans) -> dict:
    """Per-layer metrics from one traced command and its extra layer runs."""
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    root = _durations(spans, "cli.main")[0]
    loads = _durations(spans, "hjb.load_solution")
    metrics["cli.load_config_ms"] = 1e3 * _mean(
        _durations(spans, "cli.load_config"))
    solves = [(end - start, detail) for name, start, end, _, detail in spans
              if name == "hjb.solve"]
    metrics["cli.solutions_reused"] = max(0, len(loads) - len(solves))
    for seconds, (kind, _, _) in solves:
        metrics[f"hjb.solve_s.{kind}"] += seconds
    solve_time = sum(s for s, _ in solves)
    signal_steps = sum(d[1] for _, d in solves if d[0] == "signal")
    metrics["hjb.node_updates"] = sum(d[2] for _, d in solves)
    metrics["hjb.solve_ms_per_step"] = 1e3 * _ratio(
        metrics["hjb.solve_s.signal"], signal_steps)
    metrics["hjb.node_updates_per_s"] = _ratio(metrics["hjb.node_updates"],
                                               solve_time)
    metrics["hjb.save_solution_ms"] = 1e3 * _mean(
        _durations(spans, "hjb.save_solution"))
    saved = [d[0] for n, _, _, _, d in spans if n == "hjb.save_solution"]
    metrics["hjb.solution_bytes"] = max(saved, default=0)
    metrics["hjb.load_solution_ms"] = 1e3 * _mean(loads)
    metrics["evaluation.write_ms"] = 1e3 * sum(
        _durations(spans, "evaluation.write_report_json")
        + _durations(spans, "evaluation.write_wealth_csv"))
    for name, start, end, _, (agents, threads) in (
            s for s in spans + extra_spans
            if s[0] == "evaluation.run_experiment"):
        if "+" not in agents:
            metrics[f"evaluation.run_experiment_s.{agents}"] = end - start
        elif threads == 2:
            metrics["evaluation.run_experiment_s.threads2"] = end - start
    if metrics["evaluation.run_experiment_s.threads2"]:
        threads1 = sum(metrics[f"evaluation.run_experiment_s.{agent}"]
                       for agent in EVAL_AGENTS)
        metrics["evaluation.run_experiment_s.threads1"] = threads1
        metrics["evaluation.pool_speedup"] = (
            threads1 / metrics["evaluation.run_experiment_s.threads2"])
    metrics["trace.share.hjb"] = _layer_share(spans, ("hjb",), root)
    metrics["trace.share.simulator"] = _layer_share(spans, SIMULATOR, root)

    stats = path_stats(spans)
    for agent, row in path_stats(extra_spans).items():
        stats[agent].update(row)
    table, passive = stats.get("table", Counter()), stats.get("passive",
                                                               Counter())
    n = table["paths"]
    if n:
        metrics["order_flow.simulate_path_ms.table"] = 1e3 * table["self"] / n
        metrics["order_flow.candidates_per_path"] = table["candidates"] / n
        metrics["order_flow.live_ratio"] = _ratio(table["live"],
                                                  table["candidates"])
        metrics["order_flow.signals_per_path"] = table["signals"] / n
        shock = "market_core.apply_shock_detailed"
        metrics["market_core.apply_shock_calls_per_path"] = \
            table[shock + ".calls"] / n
        metrics["market_core.apply_shock_us"] = 1e6 * _ratio(
            table[shock + ".time"], table[shock + ".calls"])
        for hook in ("on_signal", "on_state", "next_impulse"):
            metrics[f"policy.{hook}_calls_per_path"] = \
                table[f"policy.{hook}.calls"] / n
        metrics["policy.next_impulse_us"] = 1e6 * _ratio(
            table["policy.next_impulse.time"],
            table["policy.next_impulse.calls"])
        metrics["policy.impulse_hit_ratio"] = _ratio(
            table["impulse_hits"], table["policy.next_impulse.calls"])
        policy_time = sum(table[f"policy.{hook}.time"] for hook in
                          ("on_signal", "on_state", "next_impulse"))
        metrics["policy.share"] = policy_time / table["time"]
    if passive["paths"]:
        metrics["order_flow.simulate_path_ms.passive"] = \
            1e3 * passive["self"] / passive["paths"]
    return metrics


# ---------------------------------------------------------------------------
# the traced pass


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _solve_extras(cfg: Path, solved: Path) -> dict:
    """One-step wrapper timings and the solver's peak traced allocation."""
    config = cli.load_config(str(cfg))
    surface, _ = hjb.load_solution(solved / SOLUTIONS[0])
    w = surface.values[-1]
    transport = [_timed(hjb.transport_step, w, config.grid, config.params,
                        config.marks)[0] for _ in range(STEP_REPEATS)]
    impulse = [_timed(hjb.impulse_step, w, config.grid, config.params)[0]
               for _ in range(STEP_REPEATS)]
    tracemalloc.start()
    try:
        hjb.solve(config.params, config.marks, config.grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"hjb.transport_step_ms": 1e3 * statistics.median(transport),
            "hjb.impulse_step_ms": 1e3 * statistics.median(impulse),
            "hjb.solve_peak_alloc_mb": peak / 2 ** 20}


def _passive_paths(cfg: Path, seed: int, n_sim: int, tracer: Tracer):
    """The workload's paths again with no trader, through the same wrapper."""
    config = cli.load_config(str(cfg))
    with traced(tracer):
        for i in range(n_sim):
            evaluation.simulate_path(config.params, config.marks, None,
                                     config.initial_state(),
                                     order_flow.make_path_seed(seed, i))


def _agents(config, solved: Path) -> dict:
    """The agents `artifact evaluate` builds, from the public classes."""
    _, pol = hjb.load_solution(solved / SOLUTIONS[0])
    _, pol0 = hjb.load_solution(solved / SOLUTIONS[1])
    params, exp = config.params, config.experiment
    target_q = float(exp["target_q"])
    return {
        "table": policy.TablePolicyAgent(pol, params),
        "do-nothing": policy.DoNothingAgent(),
        "immediate": policy.ImmediateExecutionAgent(target_q, params),
        "twap": policy.TwapAgent(target_q, float(exp["q0"]), params),
        "table-nosignal": policy.TablePolicyAgent(pol0, params,
                                                  name="table-nosignal"),
    }


def _per_agent_runs(cfg: Path, seed: int, n_sim: int, solved: Path,
                    tracer: Tracer):
    """Each agent on the workload's sample in one process; failures."""
    config = cli.load_config(str(cfg))
    exp = config.experiment
    failures = []
    with traced(tracer):
        for name, agent in _agents(config, solved).items():
            report = evaluation.run_experiment(
                config.params, config.marks, {name: agent}, n_sim, seed,
                config.initial_state(), target_q=float(exp["target_q"]),
                threads=1)[name]
            written = json.loads((solved / f"eval_{name}.json").read_text())
            if (report.mean, report.variance) != (written["mean"],
                                                  written["variance"]):
                failures.append(f"{name}: one-process run differs from the "
                                "pooled command")
    return failures


def traced_run(workload: Workload, seed: int, cfg: Path, directory: Path,
               refs: dict, spans_file: Path) -> dict:
    """Traced, untraced, traced again; then the extra layer measurements.

    Each command is one attempted operation, and so are the comparison of
    the two traced passes' exact counters and, on `evaluate-agents`, the
    one-process rerun of the sample.
    """
    prepared = prepare(workload, cfg, directory)
    prep_failures, mismatched, stats = [], 0, None
    if prepared is not None:
        prep_failures, mismatched, stats = check_prepared(prepared, refs)

    checks, runs = [], {}
    for label in ("traced-a", "untraced", "traced-b"):
        out = prepared or directory / label
        tracer = None if label == "untraced" else Tracer()
        code, wall = run_command(workload.args(cfg, out),
                                 directory / "inprocess.log", tracer)
        found, count = check_output(workload, out, code, refs, seed, stats)
        mismatched += count
        checks.append((label, prep_failures + found))
        runs[label] = (wall, tracer)

    counts_a = exact_counts(runs["traced-a"][1].spans)
    counts_b = exact_counts(runs["traced-b"][1].spans)
    differ = sorted(k for k in counts_a.keys() | counts_b.keys()
                    if counts_a[k] != counts_b[k])
    checks.append(("exact counters", [f"differ between traced passes: {k}"
                                      for k in differ[:5]]))

    extra = Tracer()
    extras = {}
    if workload.command == "solve":
        extras = _solve_extras(cfg, directory / "traced-a")
    elif workload.command == "simulate":
        _passive_paths(cfg, seed, workload.n_sim, extra)
    else:
        checks.append(("one-process rerun", _per_agent_runs(
            cfg, seed, workload.n_sim, prepared, extra)))

    spans = runs["traced-a"][1].spans
    metrics = layer_metrics(spans, extra.spans)
    metrics.update(extras)
    metrics["hjb.policy_mismatch_nodes"] = mismatched
    traced_wall = (runs["traced-a"][0] + runs["traced-b"][0]) / 2
    metrics["trace.overhead_frac"] = traced_wall / runs["untraced"][0] - 1

    spans_file.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(spans_file, "wt") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "detail"],
                   "command": spans, "extra": extra.spans}, handle)
    return {"attempted": len(checks),
            "failed": sum(bool(found) for _, found in checks),
            "failures": [f"{label}: {f}" for label, found in checks
                         for f in found],
            "metrics": metrics, "exact_counts": dict(counts_a),
            "spans_file": str(spans_file),
            "walls_s": {label: wall for label, (wall, _) in runs.items()}}
