"""Print sha256 digests of every file the CLI writes on eight fixed configs.

Runs ``solve``, ``simulate`` (with ``record_events``), ``evaluate`` at
``--threads`` 1 and 2, ``sweep`` and ``check`` on the tiny CLI-test config
(200 paths, ``d_lambda = 4``), on the desk config (300 paths), on
``typed``, the tiny config spelled with ints for float keys and whole
floats for int keys (``horizon: 1``, ``q_min: -2``, ``q0: -2``,
``n_sim: 200.0``, ...), and on
``alpha0``, the tiny config with ``market.alpha: 0.0`` (the risk-neutral,
additive branch of the solver); and ``solve``, ``simulate`` and ``evaluate`` on
``blocks``, the tiny config at ``BLOCK_PATHS + 76`` paths, with
``order_flow.BLOCK_PATHS`` read from this checkout's source, whose
``--threads 1`` runs simulate one full block and one ragged 76-path block,
so its ``paths.csv`` holds rows written block by block across that
boundary; and
``solve`` and ``evaluate --threads 1`` on ``offgrid``, the tiny config on
an off-lattice market (band -10.3 to 9.7, ``d_lambda = 0.5``, market
orders of 1.5 and 0.7 lots, a 1.25 post and a 0.75 cancellation), whose
liquidity rows are not whole multiples of the trade sizes, so landings
fall between rows and floor clips fill fractions of an order; and
``solve``, ``simulate`` and ``evaluate --threads 1`` on ``nearfloor``, the
tiny config started one row above the floor (``lambda0: -36``), where
trades and events that break the floor, and the halts they cause, shape
what the table agent earns; and ``solve`` and ``evaluate --threads 1`` on
``skew``, the tiny config with marks that are not their own mirror image
in inventory (a 1-lot buy, a 2-lot sell, a post and a cancellation), whose
solver computes every inventory column.  Each
command runs in a fresh interpreter with the package imported from
``src/`` of a checkout, and the tool prints one ``sha256  name`` line per
output file and per command's stdout (with its exit code).  ``simulate``,
``evaluate`` and ``sweep`` each start from a copy of the two solutions
``solve`` wrote, so the listing covers the reuse of stored solutions.
The config hash covers what a config builds, not how it is spelled, so
the ``typed`` and ``tiny`` listings are identical line for line once the
config name is stripped.
Everything runs in a temporary directory that is removed afterwards.

A refactor that must keep outputs byte-identical is checked by diffing the
listing of the parent and of the change::

    python3 tools/output_digests.py > after.txt
    python3 tools/output_digests.py --src ../parent/src > before.txt
    diff before.txt after.txt

Uses the standard library only; the package runs in the child processes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = "import sys; from artifact.cli import main; sys.exit(main())"
# the simulator's block size, read from the source: this tool imports no
# package, and a listing taken with --src keeps this checkout's configs
BLOCK_PATHS = int(re.search(
    r"^BLOCK_PATHS = (\d+)$",
    (ROOT / "src" / "artifact" / "order_flow.py").read_text(), re.M)[1])

TINY = {"grid": {"d_t": 0.01, "d_lambda": 4.0, "q_min": -2.0, "q_max": 2.0},
        "experiment": {"n_sim": 200, "base_seed": 99, "q0": -2.0,
                       "threads": 1}}
DESK = {"experiment": {"n_sim": 300}}
TYPED = {"market": {"theta_f": 20, "theta_g": 40, "lambda_lower": -40,
                    "lambda_upper": 40, "lot_size": 1, "horizon": 1},
         "grid": {"d_t": 0.01, "d_lambda": 4, "q_min": -2, "q_max": 2},
         "experiment": {"n_sim": 200.0, "base_seed": 99.0, "q0": -2,
                        "threads": 1.0, "lambda0": 0, "target_q": 0}}
ALPHA0 = dict(TINY, market={"alpha": 0.0})
BLOCKS = dict(TINY, experiment=dict(TINY["experiment"],
                                    n_sim=BLOCK_PATHS + 76))
OFFGRID = dict(TINY, market={"lambda_lower": -10.3, "lambda_upper": 9.7},
               marks={"custom": [[1.5, 0.0, 0.15], [-1.5, 0.0, 0.15],
                                 [0.7, 0.0, 0.2], [-0.7, 0.0, 0.2],
                                 [0.0, 1.25, 0.15], [0.0, -0.75, 0.15]]},
               grid=dict(TINY["grid"], d_lambda=0.5))
NEARFLOOR = dict(TINY, experiment=dict(TINY["experiment"], lambda0=-36.0))
SKEW = dict(TINY, marks={"custom": [[1.0, 0.0, 0.2], [-2.0, 0.0, 0.15],
                                    [0.0, 1.0, 0.45], [0.0, -1.0, 0.2]]})
COMMANDS = ("simulate", "evaluate_t1", "evaluate_t2", "sweep", "check")
# each config with the commands run on it after solve
CONFIGS = {"tiny": (TINY, COMMANDS), "desk": (DESK, COMMANDS),
           "typed": (TYPED, COMMANDS), "alpha0": (ALPHA0, COMMANDS),
           "blocks": (BLOCKS, ("simulate", "evaluate_t1", "evaluate_t2")),
           "offgrid": (OFFGRID, ("evaluate_t1",)),
           "nearfloor": (NEARFLOOR, ("simulate", "evaluate_t1")),
           "skew": (SKEW, ("evaluate_t1",))}
SOLUTIONS = ("solution_signal.npz", "solution_nosignal.npz")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(src: Path, args: list, cwd: Path) -> bytes:
    """Run one CLI command; its stdout followed by the exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", LAUNCH, *args], cwd=cwd,
                          env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    return proc.stdout + f"exit {proc.returncode}\n".encode()


def _digests(src: Path, name: str, config: dict, commands: tuple,
             work: Path) -> list:
    base = work / name
    base.mkdir()
    cfg = base / "config.json"
    cfg.write_text(json.dumps(config))
    rec = base / "record.json"
    rec.write_text(json.dumps(dict(config, experiment=dict(
        config["experiment"], record_events=True))))
    solved = base / "solve"
    stdout = {"solve": _run(src, ["solve", "-c", str(cfg), "-o", str(solved)],
                            base)}
    # the other commands reuse the solutions, whose metadata match; sweep
    # solves only its other signal probabilities
    runs = {"simulate": ["simulate", "-c", str(rec)],
            "evaluate_t1": ["evaluate", "-c", str(cfg), "--threads", "1"],
            "evaluate_t2": ["evaluate", "-c", str(cfg), "--threads", "2"],
            "sweep": ["sweep", "-c", str(cfg)]}
    runs = {cmd: args for cmd, args in runs.items() if cmd in commands}
    for out_name, args in runs.items():
        out = base / out_name
        out.mkdir()
        for sol in SOLUTIONS:
            shutil.copy(solved / sol, out / sol)
        stdout[out_name] = _run(src, args + ["-o", str(out)], base)
    if "check" in commands:
        stdout["check"] = _run(src, ["check", "-c", str(cfg)], base)

    lines = [f"{_sha256(data)}  {name}/{cmd}.stdout"
             for cmd, data in stdout.items()]
    for out_name in ("solve", *runs):
        for path in sorted((base / out_name).iterdir()):
            lines.append(f"{_sha256(path.read_bytes())}  "
                         f"{name}/{out_name}/{path.name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source directory holding the artifact "
                             "package (default: this checkout's src/)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    with tempfile.TemporaryDirectory(prefix="output_digests_") as tmp:
        for name, (config, commands) in CONFIGS.items():
            for line in _digests(src, name, config, commands, Path(tmp)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
