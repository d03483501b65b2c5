"""Print sha256 digests of every file the CLI writes on three fixed configs.

Runs ``solve``, ``simulate`` (with ``record_events``), ``evaluate`` at
``--threads`` 1 and 2, ``sweep`` and ``check`` on the tiny CLI-test config
(200 paths), on the desk config (300 paths) and on ``typed``, the tiny
config spelled with ints for float keys and whole floats for int keys
(``n_sim: 200.0``, ``q0: -2``, ...), each command in a fresh
interpreter with the package imported from ``src/`` of a checkout, and
prints one ``sha256  name`` line per output file and per command's stdout
(with its exit code).  ``simulate``, ``evaluate`` and ``sweep`` each start
from a copy of the two solutions ``solve`` wrote, so the listing covers the
reuse of stored solutions, and ``typed`` checks byte for byte that the
config's values are converted to their defaults' types once, at load.
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
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = "import sys; from artifact.cli import main; sys.exit(main())"

TINY = {"grid": {"d_t": 0.01, "d_lambda": 4.0, "q_min": -2.0, "q_max": 2.0},
        "experiment": {"n_sim": 200, "base_seed": 99, "q0": -2.0,
                       "threads": 1}}
DESK = {"experiment": {"n_sim": 300}}
TYPED = {"grid": TINY["grid"],
         "experiment": {"n_sim": 200.0, "base_seed": 99.0, "q0": -2,
                        "threads": 1.0, "lambda0": 0, "target_q": 0}}
CONFIGS = {"tiny": TINY, "desk": DESK, "typed": TYPED}
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


def _digests(src: Path, name: str, config: dict, work: Path) -> list:
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
    for out_name, args in runs.items():
        out = base / out_name
        out.mkdir()
        for sol in SOLUTIONS:
            shutil.copy(solved / sol, out / sol)
        stdout[out_name] = _run(src, args + ["-o", str(out)], base)
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
        for name, config in CONFIGS.items():
            for line in _digests(src, name, config, Path(tmp)):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
