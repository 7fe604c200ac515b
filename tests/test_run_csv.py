"""The per-round CSV writer and validator against their row-at-a-time oracles.

The library formats a row's ``,alive,residual,packets`` tail only where it
changes and skips the parse of a row that repeats a clean row's tail, so the
cases here are built from runs of repeated rows: runs that cross a block
boundary, residuals whose bits differ but whose text does not (``0.0`` and
``-0.0`` do differ; ``nan`` payloads do not), and files broken inside and
around such runs. The writer computes each round's decimal digits from the
integer and pads short rounds, so one case runs past round 100,000 with the
digit count changing inside a block and on a block's first row.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sinksim import harness
from sinksim.harness import CSV_BLOCK_ROWS, validate_run_csv, write_run_csv
from sinksim.presets import PRESET_NAMES, load_preset
from sinksim.simulation import RunMetrics, run

import oracles

B = CSV_BLOCK_ROWS
NAN = float("nan")
INF = float("inf")
NAN_PAYLOAD = np.array([0x7FF8000000000001], dtype=np.int64).view(np.float64)[0].item()


def metrics_of(segments) -> RunMetrics:
    """A run whose rows repeat each segment's (alive, residual, packets) its count of times."""
    counts = [s[0] for s in segments]
    alive, residual, packets = (np.repeat(np.array([s[k] for s in segments], dtype=dtype), counts)
                                for k, dtype in ((1, np.int64), (2, np.float64), (3, np.int64)))
    return RunMetrics(n=1, initial_energy_j=1.0, alive=alive, residual_j=residual,
                      cumulative_packets=packets, round_cost_j=np.zeros(len(alive)))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_csv_matches_oracle(name, tmp_path):
    m = run(load_preset(name))
    write_run_csv(tmp_path / "new.csv", m)
    oracles.write_run_csv(tmp_path / "old.csv", m)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


INT64 = st.integers(-2**63, 2**63 - 1)
RESIDUALS = st.sampled_from([0.0, -0.0, NAN, NAN_PAYLOAD, INF, -INF, 5e-324]) | st.floats()


@st.composite
def segmented_runs(draw):
    """A block size and segments whose lengths reach 1, the block size and one past it.

    A segment's field drawn as None keeps the previous segment's value, so
    neighbouring segments can differ in any one field alone.
    """
    block = draw(st.sampled_from([1, 3, B]))
    lengths = st.integers(1, 4) | st.sampled_from([max(1, block - 1), block, block + 1])
    ints = st.none() | st.integers(-2, 2) | INT64
    drawn = draw(st.lists(st.tuples(lengths, ints, st.none() | RESIDUALS, ints),
                          min_size=1, max_size=4))
    segments, last = [], (0, 0.0, 0)
    for count, *values in drawn:
        last = tuple(old if new is None else new for new, old in zip(values, last))
        segments.append((count, *last))
    return block, segments


@settings(derandomize=True, max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=segmented_runs())
@example(case=(B, [(1, 3, 0.5, 0)]))
@example(case=(B, [(B, 3, 0.5, 7)]))
@example(case=(B, [(B + 1, 3, 0.5, 7)]))
@example(case=(B, [(B - 2, 4, 2.0, 1), (5, 3, 1.0, 2), (B, 3, 1.0, 3)]))  # runs across a boundary
@example(case=(3, [(2, 1, 0.0, 0), (2, 1, -0.0, 0), (3, 1, NAN, 0), (1, 1, NAN_PAYLOAD, 0),
              (2, 1, INF, 0), (1, 1, -INF, 0)]))
def test_writer_matches_oracle(case, tmp_path):
    block, segments = case
    m = metrics_of(segments)
    with mock.patch.object(harness, "CSV_BLOCK_ROWS", block):
        write_run_csv(tmp_path / "new.csv", m)
    oracles.write_run_csv(tmp_path / "old.csv", m)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# Each segment is one repeated tail spanning a change of the round's digit
# count. In 5,000-row blocks, rounds 10, 100 and 1,000 fall inside the first
# block and rounds 10,000 and 100,000 on a block's first row.
@pytest.mark.parametrize("block", [5000, B])
def test_round_digit_boundaries_match_oracle(block, tmp_path):
    m = metrics_of([(5, 9, 3.5, 0), (45, 8, 2.25, 1), (450, 6, 1.0, 4), (4500, 5, 0.5, 5),
                    (45000, 2, 1e-9, 10), (50005, 0, 0.0, 12)])
    assert m.rounds_executed == 100005
    with mock.patch.object(harness, "CSV_BLOCK_ROWS", block):
        write_run_csv(tmp_path / "new.csv", m)
    oracles.write_run_csv(tmp_path / "old.csv", m)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert validate_run_csv(tmp_path / "new.csv") == []


@st.composite
def valid_runs(draw):
    """Segments of a valid run: alive and residual never rise, packets never fall
    and rise by at most the alive count before them."""
    steps = draw(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 1),
                                    st.sampled_from([0.0, 0.0, 0.25, 1e-9]), st.integers(0, 2)),
                          min_size=1, max_size=10))
    alive, residual, packets = draw(st.integers(0, 12)), draw(st.floats(0.0, 100.0)), 0
    segments = []
    for count, d_alive, d_res, d_pk in steps:
        alive, residual, packets = (max(alive - d_alive, 0), residual - d_res,
                                    packets + min(d_pk, alive))
        segments.append((count, alive, residual, packets))
    return segments


@st.composite
def mutations(draw, data: bytes) -> bytes:
    """``data`` after up to three edits of the kinds a broken file shows."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["field", "byte", "field", "truncate", "not-utf8", "swap",
                                     "field", "duplicate"]))
        pos = draw(st.integers(0, len(data)))
        if kind == "byte":
            new = bytes([draw(st.sampled_from(b"0123456789,-.\n+eE_ ") | st.integers(0, 255))])
            data = data[:pos] + new + data[pos + draw(st.integers(0, 1)):]  # insert or replace
        elif kind == "truncate":
            data = data[:pos]
        elif kind == "not-utf8":
            data = data[:pos] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[pos:]
        else:
            lines = data.split(b"\n")
            i = draw(st.integers(min(1, len(lines) - 1), len(lines) - 1))  # past the header
            j = min(i + draw(st.integers(0, 8)), len(lines) - 1)
            if kind == "swap":
                lines[i], lines[j] = lines[j], lines[i]
            elif kind == "duplicate":
                lines.insert(i, lines[i])
            else:  # one field of rows i..j set to one value, e.g. a stretch of nan residuals
                k = draw(st.sampled_from([2, 1, 3, 0]))
                value = draw(st.sampled_from([b"nan", b"-1", b"inf", b"-inf", b"NaN", b"-0",
                                              b"0", b"7", b"1e400", b""]))
                for row in range(i, j + 1):
                    fields = lines[row].split(b",")
                    if k < len(fields):
                        fields[k] = value
                    lines[row] = b",".join(fields)
            data = b"\n".join(lines)
    return data


@settings(derandomize=True, max_examples=80, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(segments=valid_runs(), data=st.data())
def test_validator_matches_oracle(segments, data, tmp_path):
    path = tmp_path / "run.csv"
    write_run_csv(path, metrics_of(segments))
    path.write_bytes(data.draw(mutations(path.read_bytes())))
    assert validate_run_csv(path) == oracles.validate_run_csv(path)


# Rows that repeat a tail after a problem, or repeat it under a round field
# that is not the row's index, must still be checked one by one.
@pytest.mark.parametrize("rows", [
    "0,5,nan,1\n1,5,nan,1\n2,5,nan,1\n",
    "0,-1,1.0,0\n1,-1,1.0,0\n",
    "0,5,1.0,-1\n1,5,1.0,-1\n",
    "0,6,2.0,1\n1,7,2.0,1\n2,7,2.0,1\n",
    "0,5,1.0,1\n0,5,1.0,1\n2,5,1.0,1\n",
    "0,5,1.0,1\n01,5,1.0,1\n2,5,1.0,1\n",
    "0,5,1.0,1\n1,5,1.0,1",
    "0,5,1.0,1\r\n1,5,1.0,1\r\n",
    "".join(f"{r},5,inf,1\n" for r in range(25)),
], ids=["nan", "negative-alive", "negative-packets", "alive-rises", "duplicate",
        "padded-round", "no-final-newline", "crlf", "too-many"])
def test_repeated_rows_match_oracle(rows, tmp_path):
    path = tmp_path / "run.csv"
    path.write_text(harness.CSV_HEADER + "\n" + rows, encoding="utf-8", newline="")
    assert validate_run_csv(path) == oracles.validate_run_csv(path)
