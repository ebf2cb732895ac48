"""Tests for counters and time-weighted statistics."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.stats import (
    Counter,
    IntervalAccumulator,
    RateWindow,
    TimeWeightedValue,
)


class TestCounter:
    def test_add(self):
        counter = Counter("c")
        counter.add()
        counter.add(5)
        assert counter.value == 6

    def test_negative_rejected(self):
        counter = Counter("c")
        with pytest.raises(SimulationError):
            counter.add(-1)


class TestTimeWeightedValue:
    def test_integral_of_constant(self):
        sim = Simulator()
        signal = TimeWeightedValue(sim, initial=2.0)
        sim.run(until_ps=1_000_000)  # 1 us
        assert signal.integral == pytest.approx(2.0 * 1e-6)

    def test_integral_across_level_changes(self):
        sim = Simulator()
        signal = TimeWeightedValue(sim, initial=1.0)
        sim.run(until_ps=1_000_000)
        signal.set(3.0)
        sim.run(until_ps=2_000_000)
        # 1 us at 1.0 + 1 us at 3.0 = 4.0 us-units
        assert signal.integral == pytest.approx(4.0e-6)

    def test_add_adjusts_level(self):
        sim = Simulator()
        signal = TimeWeightedValue(sim, initial=1.0)
        signal.add(0.5)
        assert signal.level == 1.5

    def test_integral_is_idempotent_readout(self):
        sim = Simulator()
        signal = TimeWeightedValue(sim, initial=1.0)
        sim.run(until_ps=500)
        first = signal.integral
        second = signal.integral
        assert first == second

    def test_reads_do_not_move_later_reads(self):
        # Folding 0.1 W over [0, 1) ps and then [1, 6) ps rounds to a
        # different float than one 6 ps segment; a read must not fold.
        sim = Simulator()
        read_twice = TimeWeightedValue(sim, initial=0.1)
        read_once = TimeWeightedValue(sim, initial=0.1)
        read_twice.integral_at(1)
        assert read_twice.integral_at(6) == read_once.integral_at(6)
        assert read_once.integral_at(6) == 0.1 * 6 / 1e12


class TestIntervalAccumulator:
    def test_charges_time_to_active_state(self):
        sim = Simulator()
        acc = IntervalAccumulator(sim, "busy")
        sim.run(until_ps=1000)
        acc.set_state("idle")
        sim.run(until_ps=3000)
        totals = acc.totals_ps()
        assert totals["busy"] == 1000
        assert totals["idle"] == 2000

    def test_same_state_transition_is_noop(self):
        sim = Simulator()
        acc = IntervalAccumulator(sim, "busy")
        sim.run(until_ps=100)
        acc.set_state("busy")
        assert acc.state == "busy"
        sim.run(until_ps=200)
        assert acc.totals_ps()["busy"] == 200

    def test_window_fractions(self):
        sim = Simulator()
        acc = IntervalAccumulator(sim, "busy")
        sim.run(until_ps=1000)
        acc.reset_window()
        sim.run(until_ps=1600)
        acc.set_state("idle")
        sim.run(until_ps=2000)
        fractions = acc.window_fractions()
        assert fractions["busy"] == pytest.approx(0.6)
        assert fractions["idle"] == pytest.approx(0.4)

    def test_window_reset_clears_charges(self):
        sim = Simulator()
        acc = IntervalAccumulator(sim, "busy")
        sim.run(until_ps=1000)
        acc.reset_window()
        assert acc.window_ps() == {}

    def test_zero_length_window_fractions_empty(self):
        sim = Simulator()
        acc = IntervalAccumulator(sim, "busy")
        acc.reset_window()
        assert acc.window_fractions() == {}


class TestRateWindow:
    def test_window_rate(self):
        sim = Simulator()
        window = RateWindow(sim)
        window.add(1000.0)  # e.g. bits
        sim.run(until_ps=1_000_000)  # 1 us
        assert window.window_rate_per_s() == pytest.approx(1e9)

    def test_reset_starts_fresh(self):
        sim = Simulator()
        window = RateWindow(sim)
        window.add(500.0)
        sim.run(until_ps=1000)
        window.reset_window()
        assert window.window_volume == 0.0
        assert window.total == 500.0

    def test_zero_span_rate_is_zero(self):
        sim = Simulator()
        window = RateWindow(sim)
        window.add(100.0)
        assert window.window_rate_per_s() == 0.0
