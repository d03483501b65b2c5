"""A/B benchmark of this checkout against a parent commit, in alternating pairs.

    python3 tools/ab_bench.py --out BENCH_N.json [--parent REV] [--pairs 10]
        [--first-seed S] [--seconds 30] [--workload NAME ...]

For each workload (default: every workload of ``BENCHMARK.json``) and each
pair ``i`` it runs ``bench/run.py --workload W --seed S+i --seconds T
--trace 0`` once in the parent tree and once in this checkout, the parent
first when ``i`` is even and the change first when ``i`` is odd, so drift
of the machine over a series falls on both sides alike.  The parent tree
is ``git archive REV`` unpacked into a temporary directory: the committed
files only, and a killed run leaves nothing registered in ``.git``.

Both trees run without bytecode caches: every ``__pycache__`` under
``src/`` and ``bench/`` of this checkout is removed first, and the runs
see ``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPATH``.  A stale ``.pyc``
for an edited module is not rewritten under that setting, so its compile
time would fall on every launch of one side only.

The record has the schema of the committed ``BENCH_*.json`` files:
``command``, ``pairs``, per workload the ``seeds``, the ``failed`` and
``attempted`` run counts summed per side and, per end-to-end metric of
``BENCHMARK.json``, each side's runs with their median and quartiles
(linear interpolation), the number of pairs the change wins, the
change's median relative to the parent's, the metric's ``bound`` and two
verdicts: ``worse_than_bound``, the change's median is worse than the
parent's by more than ``bound`` of the parent's median; and
``gain_holds``, the change wins at least nine tenths of the pairs (ties
count for neither side) and its median is better than the parent's by
more than the parent's interquartile range.  One stderr line per
workload names the metrics with either verdict set.  ``stamp`` holds,
per side, the environment fields every record line of that side agrees
on; the parent's ``git_commit`` is the archived commit.

Uses the standard library only; the benchmark runs in the child processes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_parent(rev: str, into: Path) -> str:
    """Unpack the committed tree of ``rev`` into ``into``; its full hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def drop_bytecode(tree: Path) -> None:
    for part in ("src", "bench"):
        for cache in sorted((tree / part).rglob("__pycache__")):
            shutil.rmtree(cache, ignore_errors=True)


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``tree``: its record and result lines."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return {"record": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def quartiles(runs: list) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def summarize(runs: dict, metrics: list) -> dict:
    """One workload's entry from its runs, ``{side: [run, ...]}`` by pair."""
    entry = {"failed": {side: sum(r["result"]["failed"] for r in runs[side])
                        for side in SIDES},
             "attempted": {side: sum(r["result"]["attempted"]
                                     for r in runs[side])
                           for side in SIDES},
             "metrics": {}}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["result"]["metrics"][name]["value"]
                         for r in runs[side]] for side in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        parent, change = (quartiles(values[side]) for side in SIDES)
        relative = change["median"] / parent["median"] - 1
        # how much better the change's median is, in the metric's units
        gain = (parent["median"] - change["median"]) * (1 if lower else -1)
        entry["metrics"][name] = {
            "parent": parent, "change": change,
            "change_better_pairs": wins,
            "change_vs_parent_median": relative,
            "bound": metric["bound"],
            "worse_than_bound": (relative if lower else -relative)
            > metric["bound"],
            "gain_holds": wins >= 0.9 * len(values["parent"])
            and gain > parent["q3"] - parent["q1"],
        }
    return entry


def verdict_line(workload: str, entry: dict) -> str:
    """The metrics of a workload's entry with either verdict set."""
    flagged = {verdict: [name for name, m in entry["metrics"].items()
                         if m[verdict]]
               for verdict in ("worse_than_bound", "gain_holds")}
    named = "; ".join(f"{verdict}: {', '.join(names)}"
                      for verdict, names in flagged.items() if names)
    return f"ab_bench: {workload}: {named or 'no verdict set'}"


def common_stamp(records: list) -> dict:
    """The stamp fields on which every record agrees."""
    first = records[0]["stamp"]
    return {key: value for key, value in first.items()
            if all(r["stamp"].get(key) == value for r in records)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))

    drop_bytecode(ROOT)
    workloads_out, records = {}, {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab_bench_parent_") as tmp:
        parent_commit = export_parent(args.parent, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for i, seed in enumerate(seeds):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                for side in order:
                    print(f"ab_bench: {workload} pair {i} seed {seed} {side}",
                          file=sys.stderr, flush=True)
                    run = bench_once(trees[side], workload, seed,
                                     args.seconds)
                    runs[side].append(run)
                    records[side].append(run["record"])
            workloads_out[workload] = {"seeds": seeds,
                                       **summarize(runs, spec["end_to_end"])}
            print(verdict_line(workload, workloads_out[workload]),
                  file=sys.stderr, flush=True)

    stamp = {side: common_stamp(records[side]) for side in SIDES}
    stamp["parent"]["git_commit"] = parent_commit
    out = {
        "command": (f"python3 bench/run.py --workload W --seed S "
                    f"--seconds {args.seconds:g} --trace 0"),
        "pairs": (f"{args.pairs} per workload, seeds {seeds[0]}-{seeds[-1]}, "
                  f"pair i runs the parent ({parent_commit[:7]}) first when "
                  f"i is even and the change first when i is odd"),
        "workloads": workloads_out,
        "stamp": stamp,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
