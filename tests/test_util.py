"""Tests for timers and config validators."""

import time

import pytest

from repro.util.config import check_fraction, check_positive
from repro.util.timing import PhaseTimer, Stopwatch


class TestStopwatch:
    def test_accumulates(self):
        sw = Stopwatch()
        with sw:
            time.sleep(0.001)
        with sw:
            pass
        assert sw.elapsed > 0
        assert sw.count == 2

    def test_double_start_rejected(self):
        sw = Stopwatch()
        sw.start()
        with pytest.raises(RuntimeError):
            sw.start()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Stopwatch().stop()

    def test_exception_discards_interval(self):
        """A block that raises must not pollute elapsed/count."""
        sw = Stopwatch()
        with sw:
            pass
        elapsed, count = sw.elapsed, sw.count
        with pytest.raises(ValueError):
            with sw:
                time.sleep(0.001)
                raise ValueError("boom")
        assert sw.elapsed == elapsed
        assert sw.count == count
        # and the watch is reusable afterwards
        with sw:
            pass
        assert sw.count == count + 1

    def test_discard_is_idempotent(self):
        sw = Stopwatch()
        sw.discard()  # no-op when not running
        sw.start()
        sw.discard()
        sw.discard()
        assert sw.elapsed == 0.0 and sw.count == 0


class TestPhaseTimer:
    def test_phase_accumulation(self):
        t = PhaseTimer()
        with t.phase("a"):
            pass
        with t.phase("a"):
            pass
        with t.phase("b"):
            pass
        assert t.phases["a"].count == 2
        assert set(t.totals()) == {"a", "b"}
        assert t.total() == pytest.approx(sum(t.totals().values()))

    def test_snapshot_deltas(self):
        t = PhaseTimer()
        _charge(t, "x", 1.0)
        first = t.snapshot()
        _charge(t, "x", 0.25)
        second = t.snapshot()
        assert first["x"] == 1.0
        assert second["x"] == pytest.approx(0.25)

    def test_snapshot_empty_timer(self):
        t = PhaseTimer()
        assert t.snapshot() == {}

    def test_snapshot_phase_appearing_mid_run(self):
        t = PhaseTimer()
        _charge(t, "x", 1.0)
        first = t.snapshot()
        _charge(t, "y", 2.0)
        second = t.snapshot()
        assert first == {"x": 1.0}
        # a phase first seen in iteration 2 deltas from zero; earlier
        # phases stay listed with a zero delta
        assert second == {"x": 0.0, "y": 2.0}

    def test_repeated_snapshots_yield_zero_deltas(self):
        t = PhaseTimer()
        _charge(t, "x", 1.0)
        first = t.snapshot()
        again = t.snapshot()
        assert all(v == 0.0 for v in again.values())
        assert first["x"] + again["x"] == pytest.approx(t.totals()["x"])


def _charge(timer: PhaseTimer, name: str, seconds: float) -> None:
    """Book ``seconds`` to a phase as a ``phase(name)`` block would."""
    sw = timer.phases.setdefault(name, Stopwatch())
    sw.elapsed += seconds
    sw.count += 1


class TestConfigValidators:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError, match="x"):
            check_positive("x", 0)

    def test_check_fraction(self):
        check_fraction("f", 0.0)
        check_fraction("f", 1.0)
        with pytest.raises(ValueError):
            check_fraction("f", 1.01)
