"""Output checks for the benchmark workloads, and their recorded references.

Every run checks what a command wrote: exit code, expected files, one
finite wealth row per path and agent, reports that agree with their wealth
files, and a passed consistency check.  Where ``references.json`` holds
values for the run's seed (recorded from the program by
``record_references.py``), the solve's start value, value surfaces and
policy tables and each agent's mean and variance must match them too.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import base64
import csv
import json
import math
import zlib
from pathlib import Path

import numpy as np

from workloads import EVAL_AGENTS, SOLUTIONS, Workload

REFERENCES = Path(__file__).resolve().parent / "references.json"
REL_TOL = 1e-9


def load_references() -> dict:
    with open(REFERENCES) as handle:
        return json.load(handle)


def pack(array: np.ndarray, dtype) -> str:
    return base64.b64encode(
        zlib.compress(np.ascontiguousarray(array, dtype=dtype).tobytes(), 9)
    ).decode()


def unpack(text: str, dtype, shape) -> np.ndarray:
    raw = zlib.decompress(base64.b64decode(text))
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


def _close(value: float, ref: float) -> bool:
    """Within ``REL_TOL`` of ``ref``; the floor keeps a variance made only of
    rounding noise (about 1e-26 for the immediate agent) from failing."""
    return (math.isfinite(value)
            and abs(value - ref) <= REL_TOL * max(abs(ref), 1e-12))


def _weights(shape) -> np.ndarray:
    """Fixed node weights, so per-step checksums see where values moved."""
    i = np.arange(shape[0])[:, None]
    j = np.arange(shape[1])[None, :]
    return np.cos(1.0 + 0.37 * i + 0.61 * j)


# ---------------------------------------------------------------------------
# solutions


def solution_digest(path: Path) -> dict:
    """The reference view of one solution file (exact, compact)."""
    with np.load(path) as data:
        values = data["values"]
        gamma = data["gamma_star"]
        delta = data["delta_star"]
        d_q = json.loads(bytes(data["meta"].tobytes()))["grid"]["d_q"]
    return {
        "shape": list(values.shape),
        "step_abs_sums": pack(np.abs(values).sum(axis=(1, 2)), "<f8"),
        "step_sums": pack(values.sum(axis=(1, 2)), "<f8"),
        "step_weighted_sums": pack(
            np.einsum("kij,ij->k", values, _weights(values.shape[1:])), "<f8"),
        "start_slice": pack(values[-1], "<f8"),
        "gamma_lots": pack(np.rint(gamma / d_q), "<i1"),
        "delta_lots": pack(np.rint(delta / d_q), "<i1"),
    }


def check_solution(path: Path, ref: dict):
    """Failures and the count of grid nodes whose trades differ from ``ref``."""
    try:
        with np.load(path) as data:
            values = data["values"]
            gamma = data["gamma_star"]
            delta = data["delta_star"]
            d_q = json.loads(bytes(data["meta"].tobytes()))["grid"]["d_q"]
    except (OSError, KeyError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"], None
    shape = tuple(ref["shape"])
    if values.shape != shape or gamma.shape != shape + (2,) \
            or delta.shape != shape:
        return [f"{path.name}: shapes {values.shape}/{gamma.shape}/"
                f"{delta.shape}, reference {shape}"], None
    failures = []
    n_t = shape[0]
    scale = unpack(ref["step_abs_sums"], "<f8", (n_t,))
    sums = values.sum(axis=(1, 2))
    wsums = np.einsum("kij,ij->k", values, _weights(shape[1:]))
    for label, got, want in (
            ("per-step sums", sums, unpack(ref["step_sums"], "<f8", (n_t,))),
            ("per-step weighted sums", wsums,
             unpack(ref["step_weighted_sums"], "<f8", (n_t,)))):
        bad = ~(np.abs(got - want) <= REL_TOL * scale)
        if bad.any():
            failures.append(f"{path.name}: value {agent} differ at "
                            f"{int(bad.sum())} steps")
    start = unpack(ref["start_slice"], "<f8", shape[1:])
    bad = ~(np.abs(values[-1] - start) <= REL_TOL * np.abs(start))
    if bad.any():
        failures.append(f"{path.name}: start slice differs at "
                        f"{int(bad.sum())} nodes")
    want_gamma = unpack(ref["gamma_lots"], "<i1", shape + (2,)) * d_q
    want_delta = unpack(ref["delta_lots"], "<i1", shape) * d_q
    mismatch = (gamma != want_gamma).any(axis=-1) | (delta != want_delta)
    return failures, int(mismatch.sum())


def check_solutions(directory: Path, refs: dict):
    """Check both solution files; returns failures and the mismatch count."""
    failures, mismatched = [], 0
    for name in SOLUTIONS:
        path = directory / name
        if not path.exists():
            failures.append(f"missing {name}")
            continue
        found, count = check_solution(path, refs["solve"][name])
        failures += found
        if count is None:
            continue
        mismatched += count
        if count:
            failures.append(f"{name}: {count} policy nodes differ")
    return failures, mismatched


def check_solve(directory: Path, returncode: int, refs: dict, seed: int):
    """Check one `artifact solve` output directory."""
    if returncode != 0:
        return [f"solve exited {returncode}"], 0
    failures, mismatched = check_solutions(directory, refs)
    try:
        summary = json.loads((directory / "solve_summary.json").read_text())
        with open(directory / "ce_table.csv", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
    except (OSError, ValueError) as exc:
        return failures + [f"solve outputs unreadable: {exc}"], mismatched
    if summary.get("base_seed") != seed:
        failures.append(f"solve summary seed {summary.get('base_seed')}")
    if not _close(summary.get("w_start", math.nan), refs["solve"]["w_start"]):
        failures.append(f"w_start {summary.get('w_start')!r} vs reference "
                        f"{refs['solve']['w_start']!r}")
    shape = refs["solve"][SOLUTIONS[0]]["shape"]
    try:
        finite = all(math.isfinite(float(r[2])) for r in rows)
    except (ValueError, IndexError):
        finite = False
    if len(rows) != (shape[1] - 1) * shape[2] or not finite:
        failures.append(f"ce_table.csv has {len(rows)} rows or non-finite "
                        "values")
    return failures, mismatched


# ---------------------------------------------------------------------------
# simulations


def _check_report(directory: Path, report_name: str, wealth_name: str,
                  agent: str, n_sim: int, seed: int, ref):
    """Check one report/wealth pair; returns failures."""
    try:
        report = json.loads((directory / report_name).read_text())
        with open(directory / wealth_name, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        index = [int(r[0]) for r in rows]
        wealth = np.array([float(r[1]) for r in rows])
    except (OSError, ValueError, IndexError) as exc:
        return [f"{agent}: outputs unreadable ({exc})"]
    failures = []
    if index != list(range(n_sim)):
        failures.append(f"{agent}: {len(rows)} wealth rows, expected {n_sim}")
    if not np.all(np.isfinite(wealth)):
        failures.append(f"{agent}: non-finite wealth")
    if report.get("n_sim") != n_sim or report.get("base_seed") != seed:
        failures.append(f"{agent}: report n_sim/seed "
                        f"{report.get('n_sim')}/{report.get('base_seed')}")
    if len(wealth) == n_sim:
        for key, value in (("mean", float(np.mean(wealth))),
                           ("variance", float(np.var(wealth)))):
            if not _close(report.get(key, math.nan), value):
                failures.append(f"{agent}: report {key} disagrees with its "
                                "wealth file")
    if ref is not None:
        for key, want in zip(("mean", "variance"), ref):
            if not _close(report.get(key, math.nan), want):
                failures.append(f"{agent}: {key} {report.get(key)!r} vs "
                                f"reference {want!r}")
    return failures


def _seed_refs(refs: dict, workload: Workload, seed: int) -> dict:
    entry = refs.get(workload.name, {})
    if entry.get("n_sim") != workload.n_sim:
        return {}
    return entry["seeds"].get(str(seed), {})


def check_simulate(directory: Path, returncode: int, refs: dict,
                   workload: Workload, seed: int):
    if returncode != 0:
        return [f"simulate exited {returncode}"]
    ref = _seed_refs(refs, workload, seed).get("table")
    return _check_report(directory, "simulate_report.json",
                         "simulate_wealth.csv", "table", workload.n_sim,
                         seed, ref)


def check_evaluate(directory: Path, returncode: int, refs: dict,
                   workload: Workload, seed: int):
    if returncode != 0:
        return [f"evaluate exited {returncode}"]
    seed_refs = _seed_refs(refs, workload, seed)
    failures = []
    for agent in EVAL_AGENTS:
        failures += _check_report(directory, f"eval_{agent}.json",
                                  f"eval_{agent}_wealth.csv", agent,
                                  workload.n_sim, seed, seed_refs.get(agent))
    try:
        summary = json.loads((directory / "eval_summary.json").read_text())
    except (OSError, ValueError) as exc:
        return failures + [f"eval_summary.json unreadable ({exc})"]
    if sorted(summary.get("agents", {})) != sorted(EVAL_AGENTS):
        failures.append(f"summary agents {sorted(summary.get('agents', {}))}")
    if not summary.get("consistency", {}).get("passed"):
        failures.append("consistency check did not pass")
    return failures


def check_prepared(directory: Path, refs: dict):
    """Check a prepared directory's solutions before timing starts.

    Returns the failures, the policy mismatch count and the solution files'
    stats, against which `check_output` tells a reuse from a re-solve.
    """
    failures, mismatched = check_solutions(directory, refs)
    return ([f"prepared: {f}" for f in failures], mismatched,
            solution_stats(directory))


def check_output(workload: Workload, directory: Path, returncode: int,
                 refs: dict, seed: int, prepared_stats=None):
    """Failures of one command's outputs, and the solve's mismatch count."""
    if workload.command == "solve":
        return check_solve(directory, returncode, refs, seed)
    if workload.command == "simulate":
        return check_simulate(directory, returncode, refs, workload, seed), 0
    failures = check_evaluate(directory, returncode, refs, workload, seed)
    if returncode == 0 and solution_stats(directory) != prepared_stats:
        failures.append("evaluate re-solved instead of reusing its cached "
                        "solutions")
    return failures, 0


def solution_stats(directory: Path) -> dict:
    """Size and modification time of each solution file, to detect re-solves."""
    out = {}
    for name in SOLUTIONS:
        try:
            st = (directory / name).stat()
        except FileNotFoundError:
            out[name] = None
            continue
        out[name] = (st.st_size, st.st_mtime_ns)
    return out
