"""Workload definitions and command launching shared by the benchmark files.

Every workload runs a real ``artifact`` command at the desk configuration.
Its only input is the workload seed, which goes into
``experiment.base_seed``; the same seed gives the same config file and
therefore the same outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"

# Agents `artifact evaluate` runs at the desk config: the four configured
# ones plus the signal-free table it adds for the signal Sharpe ratio.
EVAL_AGENTS = ("table", "do-nothing", "immediate", "twap", "table-nosignal")
SOLUTIONS = ("solution_signal.npz", "solution_nosignal.npz")

# What `artifact.cli:main` does as an installed console script; running it
# with `-c` rather than `-m artifact.cli` imports `cli` only once.
LAUNCH = "import sys; from artifact.cli import main; sys.exit(main())"

# Prints the time at which a fresh interpreter has `artifact` imported and
# a config loaded, plus the file the package was imported from.
SETUP_PROBE = (
    "import time, sys\n"
    "import artifact\n"
    "from artifact.cli import load_config\n"
    "load_config(sys.argv[1])\n"
    "t = time.monotonic()\n"
    "print(repr(t), artifact.__file__)\n"
)

COMMAND_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # artifact subcommand that is timed
    n_sim: Optional[int]      # paths per agent; None for the solve
    threads: Optional[int]    # --threads passed to the command
    agents: Tuple[str, ...]   # agents whose paths the command simulates

    @property
    def paths(self) -> int:
        return len(self.agents) * (self.n_sim or 0)

    def config(self, seed: int) -> dict:
        exp = {"base_seed": int(seed)}
        if self.n_sim is not None:
            exp["n_sim"] = self.n_sim
        return {"experiment": exp}

    def args(self, cfg: Path, out: Path) -> list:
        args = [self.command, "-c", str(cfg), "-o", str(out)]
        if self.threads is not None:
            args += ["--threads", str(self.threads)]
        return args


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("solve-desk", "solve", None, None, ()),
    Workload("simulate-table", "simulate", 1000, 1, ("table",)),
    Workload("evaluate-agents", "evaluate", 300, 2, EVAL_AGENTS),
)}


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


@dataclass
class Launch:
    returncode: int
    start: float          # time.monotonic() just before the process started
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    steal_s: float        # CPU time the hypervisor gave to other guests


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Seconds of steal time on all CPUs since boot (0 where not counted).

    Steal is time a CPU of this virtual machine wanted to run but the host
    ran another guest; the kernel leaves it out of every process's CPU time,
    but not out of wall time.
    """
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0


def _run(argv, cwd: Path, log: Path,
         timeout: float = COMMAND_TIMEOUT_S) -> Launch:
    """Run ``argv`` in its own process group, output to ``log``, and reap it.

    CPU time and peak RSS come from the child's own rusage, which includes
    the pool workers it reaps and nothing run before it.  The group is
    killed on timeout, or when this process is interrupted.
    """
    with open(log, "wb") as handle:
        stolen = steal_s()
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=handle,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(timeout, os.killpg,
                                (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        stolen = steal_s() - stolen
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(proc.returncode, start, wall,
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  stolen)


def launch(args, cwd: Path, log: Path) -> Launch:
    """Run ``artifact <args>`` in a fresh interpreter and measure it."""
    return _run([sys.executable, "-c", LAUNCH, *args], cwd, log)


def setup_probe(cfg: Path, cwd: Path) -> Tuple[float, str]:
    """Seconds from interpreter launch to a loaded config, and the package file."""
    log = cwd / "setup-probe.log"
    result = _run([sys.executable, "-c", SETUP_PROBE, str(cfg)], cwd, log)
    if result.returncode != 0:
        raise RuntimeError(f"setup probe exited {result.returncode}")
    stamp, package_file = log.read_text().split(maxsplit=1)
    return float(stamp) - result.start, package_file.strip()


def work_dir(workload: str, seed: int, trace: int) -> Path:
    """A fresh directory for one benchmark run's commands and outputs."""
    path = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def write_config(workload: Workload, seed: int, directory: Path) -> Path:
    path = directory / "config.json"
    path.write_text(json.dumps(workload.config(seed), sort_keys=True))
    return path


def prepare(workload: Workload, cfg: Path, directory: Path) -> Optional[Path]:
    """Untimed preparation; returns the directory the timed command reuses.

    `simulate` needs a solved directory.  `evaluate` reuses a solution only
    when the stored config hash equals its own, and that hash covers the
    mode, seed and `n_sim`, so the directory is prepared by the identical
    `evaluate` command rather than by `solve`.
    """
    if workload.command == "solve":
        return None
    out = directory / "prepared"
    if workload.command == "simulate":
        args = ["solve", "-c", str(cfg), "-o", str(out)]
    else:
        args = workload.args(cfg, out)
    result = launch(args, directory, directory / "prepare.log")
    if result.returncode != 0:
        raise RuntimeError(f"preparation `artifact {args[0]}` "
                           f"exited {result.returncode}; see "
                           f"{directory / 'prepare.log'}")
    return out


def git_commit() -> Optional[str]:
    """The source commit, when the tree is itself a git checkout."""
    try:
        found = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                                "--show-toplevel", "HEAD"],
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = found.stdout.split()
    if found.returncode != 0 or len(lines) != 2 or lines[0] != str(ROOT):
        return None
    return lines[1]
