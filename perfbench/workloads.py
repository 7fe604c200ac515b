"""The benchmark's workloads: each is a fixed sequence of sinksim CLI commands.

A workload is built from the workload seed alone, so the same seed always
gives the same commands. Every command writes under the given output
directory and lists the files it writes, which the golden-output gate hashes.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

PAPER_SCENARIOS = ("sep", "cl-sep", "ss-srp", "sc10-srp", "sc20-srp", "sc40-srp", "cc-srp")
DENSE_RADII = (5, 10, 15, 20, 25, 30, 35, 40, 45, 60)


@dataclass(frozen=True)
class Op:
    """One CLI command and the files it writes."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()


def paper_compare(seed: int, out: str, tiny: bool) -> list[Op]:
    # compare always runs seeds 0..N-1 (the CLI has no seed offset), so this
    # workload's inputs do not depend on the workload seed.
    csv = f"{out}/compare.csv"
    argv = ["compare", "--scenarios", ",".join(PAPER_SCENARIOS), "--seeds", "1", "--out", csv]
    if tiny:
        argv += ["--rounds", "200"]
    return [Op(tuple(argv), (csv, f"{out}/compare.report.json"))]


def trace_emit(seed: int, out: str, tiny: bool) -> list[Op]:
    draw = random.Random(f"trace-emit/{seed}")
    ops = []
    for name in PAPER_SCENARIOS:
        csv = f"{out}/{name}.csv"
        argv = ["simulate", "--scenario", name, "--seed", str(draw.randrange(2**31)),
                "--out", csv]
        if tiny:
            argv += ["--rounds", "200"]
        ops.append(Op(tuple(argv), (csv, f"{out}/{name}.summary.json")))
        ops.append(Op(("validate", csv)))
    return ops


def dense_sweep(seed: int, out: str, tiny: bool) -> list[Op]:
    # sweep also runs seeds 0..N-1, so the workload seed shifts every radius
    # by up to half a metre instead; seed 0 sweeps the plain radii.
    shift = (seed % 1000) / 2000
    values = ",".join(repr(r + shift) for r in DENSE_RADII)
    csv = f"{out}/sweep.csv"
    n, rounds = ("100", "36") if tiny else ("1000", "360")
    argv = ["sweep", "--scenario", "cc-srp", "--values", values, "--override", f"net.n={n}",
            "--rounds", rounds, "--seeds", "1", "--out", csv]
    return [Op(tuple(argv), (csv,))]


WORKLOADS = {
    "paper-compare": paper_compare,
    "trace-emit": trace_emit,
    "dense-sweep": dense_sweep,
}

# Presets (with overrides) each workload loads; setup_s validates these.
SETUP_PRESETS = {
    "paper-compare": [(name, ()) for name in PAPER_SCENARIOS],
    "trace-emit": [(name, ()) for name in PAPER_SCENARIOS],
    "dense-sweep": [("cc-srp", ("net.n=1000",))],
}
