"""Byte identity of the CLI outputs, checked against a committed listing.

``golden_digests.txt`` holds the ``tools/output_digests.py`` listing of its
tiny config, recorded under the Python and numpy versions named in its
header.  A change that alters an output on purpose re-records it with::

    python3 tests/test_output_digests.py
"""

import difflib
import importlib.util
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from artifact.cli import load_config

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_digests.txt")


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "output_digests", ROOT / "tools" / "output_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()


def _versions() -> str:
    return f"python {platform.python_version()}, numpy {np.__version__}"


def _tiny_listing(work: Path) -> list:
    config, commands = TOOL.CONFIGS["tiny"]
    return TOOL._digests(ROOT / "src", "tiny", config, commands, work)


def test_tiny_outputs_match_the_golden_listing(tmp_path):
    _, versions, *golden = GOLDEN.read_text().splitlines()
    recorded = versions.removeprefix("# ")
    assert recorded == _versions(), (
        f"{GOLDEN.name} was recorded under {recorded}, this run has "
        f"{_versions()}; outputs may differ in the last bit across versions")
    listing = _tiny_listing(tmp_path)
    assert listing == golden, "\n".join(difflib.unified_diff(
        golden, listing, GOLDEN.name, "this tree", lineterm=""))


def test_typed_spellings_build_the_tiny_run(tmp_path):
    # the tool's typed config spells the tiny one with ints for floats and
    # whole floats for ints; both must build and hash the same run
    configs = {}
    for name in ("tiny", "typed"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(TOOL.CONFIGS[name][0]))
        configs[name] = load_config(str(path))
    tiny, typed = configs["tiny"], configs["typed"]
    assert typed.config_hash() == tiny.config_hash()
    assert (typed.params, typed.marks, typed.experiment, typed.output) \
        == (tiny.params, tiny.marks, tiny.experiment, tiny.output)
    assert TOOL.CONFIGS["typed"][1] == TOOL.CONFIGS["tiny"][1]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="golden_digests_") as tmp:
        lines = _tiny_listing(Path(tmp))
    GOLDEN.write_text("\n".join(
        ["# tools/output_digests.py listing of its tiny config",
         f"# {_versions()}", *lines]) + "\n")
