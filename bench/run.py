"""Benchmark of the `artifact` commands, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  With ``--trace 0`` the workload's
command runs again and again in fresh interpreters for ``S`` seconds (at
least three times) and the end-to-end metrics are medians over those runs,
with the time the host ran other guests taken out of wall times.
With ``--trace 1`` the command runs in this process, traced and untraced,
and the per-layer metrics come from the spans (see ``tracing.py``).  Every
run checks the command's outputs (see ``checks.py``).

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is the full record, with
the environment stamp; both are also kept under ``.bench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import check_output, check_prepared, load_references
from workloads import (SRC, WORK, WORKLOADS, Workload, git_commit, launch,
                       prepare, setup_probe, work_dir, write_config)

MIN_RUNS = 3
SETUP_PROBES_PER_RUN = 2

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "setup_s": "s",
}


class TreeError(Exception):
    """The benchmark cannot measure this tree at all."""


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def import_package():
    """Import `artifact` from this tree's ``src/``, never from elsewhere."""
    if not (SRC / "artifact" / "__init__.py").is_file():
        raise TreeError(f"no artifact package under {SRC}")
    sys.path.insert(0, str(SRC))
    import artifact
    if not _under_src(artifact.__file__):
        raise TreeError(f"artifact imported from {artifact.__file__}, "
                        f"not from {SRC}")
    return artifact


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment_stamp(workload: Workload, cfg: Path) -> dict:
    import numpy
    from artifact.cli import load_config
    grid = load_config(str(cfg)).grid
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "cpu_model": _cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": _src_digest(),
        "grid_shape": [grid.n_steps + 1, grid.n_lambda, grid.n_q],
        "n_sim": workload.n_sim,
    }


def measure(workload: Workload, seed: int, seconds: float, cfg: Path,
            directory: Path, refs: dict, grid_shape) -> dict:
    """End-to-end metrics: medians over repeated fresh-interpreter runs.

    The machine the bounds were set on is a virtual machine whose host also
    runs other guests, in bouts that last minutes.  While a CPU of this guest
    waits for the host (steal), wall time passes but no work is done; the
    kernel leaves steal out of CPU time, and wall times here leave it out
    too.  A command that keeps ``k`` CPUs busy (``k`` = its ``--threads``)
    is delayed by about a ``k``-th of the steal summed over all CPUs.  The
    raw wall times and the steal stay in the record.  Set-up probes are too
    short for the steal counter's 10 ms ticks and keep their raw times.
    """
    prepared = prepare(workload, cfg, directory)
    prep_failures, stats = [], None
    if prepared is not None:
        prep_failures, _, stats = check_prepared(prepared, refs)

    busy = workload.threads or 1
    runs, setup = [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
        out = prepared or directory / f"solve-{len(runs)}"
        log = directory / f"run-{len(runs)}.log"
        result = launch(workload.args(cfg, out), directory, log)
        failures, _ = check_output(workload, out, result.returncode, refs,
                                   seed, stats)
        if result.returncode != 0:
            failures.append(log.read_text(errors="replace")[-400:])
        if prepared is None:
            shutil.rmtree(out, ignore_errors=True)
        runs.append({"wall_s": result.wall_s - result.steal_s / busy,
                     "cpu_s": result.cpu_s,
                     "peak_rss_mb": result.peak_rss_mb,
                     "raw_wall_s": result.wall_s, "steal_s": result.steal_s,
                     "failures": prep_failures + failures})
        # Set-up probes sit between the commands, so they see the same
        # machine as the commands do.
        for _ in range(SETUP_PROBES_PER_RUN):
            elapsed, package_file = setup_probe(cfg, directory)
            if not _under_src(package_file):
                raise TreeError(f"commands import artifact from "
                                f"{package_file}")
            setup.append(elapsed)

    good = [r for r in runs if not r["failures"]] or runs
    keys = ("wall_s", "cpu_s", "peak_rss_mb", "raw_wall_s", "steal_s")
    metrics = {key: statistics.median(r[key] for r in good) for key in keys}
    # Work per run: simulated paths, or solver time steps for the solve
    # (signal and no-signal problems).
    work = workload.paths or 2 * (grid_shape[0] - 1)
    metrics["throughput_per_s"] = work / metrics["wall_s"]
    metrics["setup_s"] = statistics.median(setup)
    failed = sum(bool(r["failures"]) for r in runs)
    return {"attempted": len(runs), "failed": failed,
            "failures": [f for r in runs for f in r["failures"]],
            "metrics": metrics, "runs": runs, "setup_runs_s": setup}


def _terminate(signum, frame):
    # Unwinds through the command launcher, which kills the running command.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        import_package()
        refs = load_references()
        if args.trace:
            import tracing
        units = tracing.PER_LAYER if args.trace else END_TO_END
    except (TreeError, ImportError, OSError, ValueError) as exc:
        print(f"bench: cannot measure this tree: {exc}", file=sys.stderr)
        return 2

    directory = work_dir(workload.name, args.seed, args.trace)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    results = WORK / "results"
    stamp = {}
    try:
        cfg = write_config(workload, args.seed, directory)
        stamp = environment_stamp(workload, cfg)
        if args.trace:
            spans_file = results / f"{name}-spans.json.gz"
            result = tracing.traced_run(workload, args.seed, cfg, directory,
                                        refs, spans_file)
        else:
            result = measure(workload, args.seed, args.seconds, cfg,
                             directory, refs, stamp["grid_shape"])
    except TreeError as exc:
        print(f"bench: cannot measure this tree: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a failing command or check must still report
        traceback.print_exc()
        result = {"attempted": 1, "failed": 1,
                  "failures": [traceback.format_exc(limit=3)],
                  "metrics": {}}
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    metrics = {key: {"value": result["metrics"].get(key, 0.0), "unit": unit}
               for key, unit in units.items()}
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "stamp": stamp,
              "failed_fraction": result["failed"] / result["attempted"],
              **result}
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(record, indent=1))
    for failure in result["failures"]:
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": not result["failures"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
