"""Record the reference outputs the benchmark checks its runs against.

    python3 bench/record_references.py [--seeds 0-31]

Runs the workload commands at the current source tree and writes
``bench/references.json``: the desk solve's start value, value-surface
checksums and policy tables (these do not depend on the seed), and each
agent's wealth mean and variance for every listed seed of the two
simulation workloads.  Run it only when a change is meant to alter these
outputs, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import shutil

from checks import REFERENCES, solution_digest
from workloads import (EVAL_AGENTS, SOLUTIONS, SRC, WORK, WORKLOADS,
                       git_commit, launch, write_config)


def _run(args, directory):
    result = launch(args, directory, directory / "record.log")
    if result.returncode != 0:
        raise SystemExit(f"`artifact {' '.join(args)}` exited "
                         f"{result.returncode}")


def _mean_var(path):
    report = json.loads(path.read_text())
    return [report["mean"], report["variance"]]


def _parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31",
                        help="inclusive seed range, e.g. 0-31")
    seeds = _parse_seeds(parser.parse_args().seeds)
    directory = WORK / "record-references"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)

    solve = WORKLOADS["solve-desk"]
    cfg = write_config(solve, seeds[0], directory)
    solved = directory / "solved"
    _run(solve.args(cfg, solved), directory)
    summary = json.loads((solved / "solve_summary.json").read_text())
    refs = {"commit": git_commit(),
            "solve": {"w_start": summary["w_start"],
                      **{name: solution_digest(solved / name)
                         for name in SOLUTIONS}}}

    simulate = WORKLOADS["simulate-table"]
    evaluate = WORKLOADS["evaluate-agents"]
    refs[simulate.name] = {"n_sim": simulate.n_sim, "seeds": {}}
    refs[evaluate.name] = {"n_sim": evaluate.n_sim, "seeds": {}}
    for seed in seeds:
        cfg = write_config(simulate, seed, directory)
        _run(simulate.args(cfg, solved), directory)
        refs[simulate.name]["seeds"][str(seed)] = {
            "table": _mean_var(solved / "simulate_report.json")}
        out = directory / f"evaluate-{seed}"
        cfg = write_config(evaluate, seed, directory)
        _run(evaluate.args(cfg, out), directory)
        refs[evaluate.name]["seeds"][str(seed)] = {
            agent: _mean_var(out / f"eval_{agent}.json")
            for agent in EVAL_AGENTS}
        shutil.rmtree(out)
        print(f"seed {seed} recorded", flush=True)

    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(directory)


if __name__ == "__main__":
    if not SRC.is_dir():
        raise SystemExit(f"no source tree at {SRC}")
    main()
