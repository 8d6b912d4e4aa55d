"""Tests for shared helpers."""

import pytest

from repro._util import Stopwatch, chunked, format_bytes, format_count, format_duration


class TestFormatDuration:
    def test_milliseconds(self):
        assert format_duration(0.0123) == "12.3 ms"

    def test_seconds(self):
        assert format_duration(7.3) == "7.3 s"

    def test_minutes(self):
        assert format_duration(15 * 60 + 3) == "15 min 03.0 s"

    def test_hours(self):
        assert format_duration(3600 + 53 * 60) == "1 h 53 min"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1)


class TestFormatHelpers:
    def test_count(self):
        assert format_count(139356) == "139,356"

    def test_bytes(self):
        assert format_bytes(17) == "17 B"
        assert format_bytes(17 * 1024 * 1024) == "17.0 MB"
        assert format_bytes(int(3.2 * 1024**3)) == "3.2 GB"

    def test_bytes_negative(self):
        with pytest.raises(ValueError):
            format_bytes(-1)


class TestStopwatch:
    def test_measures_nonnegative(self):
        with Stopwatch() as clock:
            sum(range(1000))
        assert clock.elapsed >= 0


class TestChunked:
    def test_even_chunks(self):
        assert list(chunked([1, 2, 3, 4], 2)) == [[1, 2], [3, 4]]

    def test_ragged_tail(self):
        assert list(chunked([1, 2, 3], 2)) == [[1, 2], [3]]

    def test_empty(self):
        assert list(chunked([], 3)) == []

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            list(chunked([1], 0))

