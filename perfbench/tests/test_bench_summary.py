"""Statistics the benchmark reports: medians and tail percentiles."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import summary  # noqa: E402


def test_describe_small_sample_has_no_tail():
    d = summary.describe([3.0, 1.0, 2.0, 5.0, 4.0])
    assert d == {"median": 3.0, "n": 5, "tail_p": None, "tail": None}


@pytest.mark.parametrize("n, p, value", [
    (19, None, None),
    (20, 50.0, 10),
    (99, 75.0, 75),
    (100, 90.0, 90),
    (1000, 99.0, 990),
    (10_000, 99.9, 9990),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, p, value):
    values = list(range(n, 0, -1))
    got = summary.tail(values)
    if p is None:
        assert got is None
    else:
        assert got == (p, value)
        assert sum(v > value for v in values) >= summary.MIN_BEYOND


def test_describe_rejects_empty():
    with pytest.raises(ValueError):
        summary.describe([])

