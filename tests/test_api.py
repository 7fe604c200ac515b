"""The package exports exactly the names the README lists."""

import re
from pathlib import Path

import sinksim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exports_match_readme():
    section = README.read_text(encoding="utf-8").split("## Run engine and Python API\n", 1)[1]
    listed = section.strip().split("\n\n", 1)[0]  # the section's first paragraph
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(sinksim.__all__)
    assert all(hasattr(sinksim, name) for name in sinksim.__all__)
