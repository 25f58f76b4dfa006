"""Utility module tests."""

import time

import pytest

from repro.obs.trace import Timer
from repro.util.reporting import TextTable, fmt_count, fmt_ratio, fmt_seconds


class TestFormatting:
    def test_fmt_seconds_ranges(self):
        assert fmt_seconds(1234.5) == "1,234 s"
        assert fmt_seconds(12.345) == "12.35 s"
        assert fmt_seconds(0.01234) == "12.34 ms"
        assert fmt_seconds(1.2e-5) == "12.0 µs"

    def test_fmt_ratio(self):
        assert fmt_ratio(19.333) == "19.33×"

    def test_fmt_count(self):
        assert fmt_count(1234567) == "1,234,567"
        assert fmt_count(12.5) == "12.50"
        assert fmt_count(12.0) == "12"


class TestTextTable:
    def test_render_alignment(self):
        t = TextTable("demo", ["a", "bb"])
        t.add_row("xxx", 1)
        t.add_row("y", 22222)
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "== demo =="
        assert lines[1].startswith("a")
        # Columns aligned: 'bb' header starts where values start.
        assert lines[2].startswith("-")
        assert "xxx" in lines[3] and "22222" in lines[4]

    def test_wrong_cell_count(self):
        t = TextTable("demo", ["a", "b"])
        with pytest.raises(ValueError, match="expected 2"):
            t.add_row("only-one")

    def test_notes_rendered(self):
        t = TextTable("demo", ["a"])
        t.add_row("x")
        t.add_note("hello")
        assert "note: hello" in t.render()


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        first = t.seconds
        with t:
            time.sleep(0.01)
        assert t.seconds > first >= 0.005

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.seconds == 0.0
