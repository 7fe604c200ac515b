"""The censoring rule behind compare's medians, IQRs and ordering verdicts."""

import pytest

from sinksim.harness import _percentile_censored, censored_stats, ordering_verdict


# (seed values of a, seed values of b, a's median, a's IQR, a's censored
# count, verdict of a against b). None is a death beyond the horizon.
CASES = [
    ([None], [None, None], None, None, 1, "indeterminate"),
    ([None], [5], None, None, 1, "greater"),
    ([5], [None], 5.0, 0.0, 0, "less"),
    ([3], [2, 4], 3.0, 0.0, 0, "equal"),
    ([1, 3], [7], 2.0, 1.0, 0, "less"),                   # interpolated median
    ([10, 1, 4, 2], [3], 3.0, 3.75, 0, "equal"),          # unsorted input
    ([4, None, None], [5], None, None, 2, "greater"),     # median on a censored value
    ([1, 2, 3, None], [2.5], 2.5, None, 1, "equal"),      # censored upper quartile
]


@pytest.mark.parametrize("a,b,median,iqr,censored,verdict", CASES,
                         ids=["none-none", "none-5", "5-none", "3-3", "2-7",
                              "interpolated", "censored-median", "censored-q3"])
def test_censoring_rule(a, b, median, iqr, censored, verdict):
    stats = censored_stats(a)
    assert stats == {"median": median, "iqr": iqr, "censored": censored, "values": a}
    assert _percentile_censored(a, 0.5) == median
    assert ordering_verdict(stats, censored_stats(b)) == verdict
    assert ordering_verdict(censored_stats(b), stats) == {
        "greater": "less", "less": "greater"}.get(verdict, verdict)
