"""Outputs do not depend on the SIMD code numpy dispatches to.

numpy picks each loop's kernel by the host's CPU features, and
``NPY_DISABLE_CPU_FEATURES`` turns dispatch targets off for one process. The
engines only add, subtract, multiply and take square roots, which IEEE
arithmetic rounds the same in every kernel, and every float reduction that
reaches an output runs in a fixed order (``cumsum``, ``np.subtract.reduce``
along axis 0), so each dispatch level must write the same bytes. Each level
runs a short subset of the CLI in a child process of its own, with its
target and every one above it turned off in that child only.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import sinksim
from sinksim import PRESET_NAMES

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

SRC = pathlib.Path(sinksim.__file__).parents[1]
# Each preset, one compare and one sweep, short enough that a level takes well under a second.
COMMANDS = [
    *(["simulate", "--scenario", name, "--rounds", "3000", "--out", f"{name}.csv"]
      for name in PRESET_NAMES),
    ["compare", "--scenarios", ",".join(PRESET_NAMES), "--seeds", "2", "--rounds", "3000",
     "--out", "compare.csv"],
    ["sweep", "--scenario", "cc-srp", "--values", "20,30,40", "--seeds", "2", "--rounds", "3000",
     "--out", "sweep.csv"],
]
CHILD = f"""
import contextlib, io
from sinksim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert all(main(args) == 0 for args in {COMMANDS!r})
"""
LEVELS = list(umath.__cpu_dispatch__)  # the targets numpy dispatches to, lowest first


def digests(out: pathlib.Path, disabled: list[str]) -> dict[str, str]:
    """Each output file's sha256, written by a child with ``disabled`` features off."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(SRC)
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    out.mkdir()
    subprocess.run([sys.executable, "-c", CHILD], cwd=out, env=env, check=True)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The outputs at the host's best level, nothing turned off."""
    return digests(tmp_path_factory.mktemp("dispatch") / "all", [])


@pytest.mark.parametrize("level", LEVELS)
def test_outputs_match_with_dispatch_turned_off_from_level(level, reference, tmp_path):
    if not umath.__cpu_features__.get(level):
        pytest.skip(f"this host lacks {level}, so numpy never dispatches to it here")
    above = [f for f in LEVELS[LEVELS.index(level):] if umath.__cpu_features__.get(f)]
    got = digests(tmp_path / "out", above)
    assert len(got) == len(PRESET_NAMES) * 2 + 3  # each run's CSV and summary, compare's report
    assert got == reference
