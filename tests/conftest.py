"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from functools import partial

import pytest

import repro.sweep.engine
from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.loc.monitor import build_monitor
from repro.sim.kernel import Simulator
from repro.trace.events import TraceEvent


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator."""
    return Simulator()


def use_interpreted_monitors(monkeypatch) -> None:
    """Make :func:`repro.sweep.engine.run_job` build interpretive LOC
    monitors for the rest of the test (in-process runs only)."""
    monkeypatch.setattr(
        repro.sweep.engine,
        "build_monitor",
        partial(build_monitor, mode="interpreted"),
    )


def make_event(
    name: str = "forward",
    cycle: int = 0,
    time: float = 0.0,
    energy: float = 0.0,
    total_pkt: int = 0,
    total_bit: int = 0,
) -> TraceEvent:
    """Build a trace event with keyword defaults."""
    return TraceEvent(name, cycle, time, energy, total_pkt, total_bit)


def forward_series(count: int, dt_us: float = 1.0, de_uj: float = 1.5, bits: int = 8000):
    """A regular series of forward events (handy for LOC tests).

    Event ``k`` has time ``k * dt_us``, cumulative energy ``k * de_uj``
    and cumulative bits ``k * bits``.
    """
    return [
        make_event(
            "forward",
            cycle=k * 600,
            time=k * dt_us,
            energy=k * de_uj,
            total_pkt=k,
            total_bit=k * bits,
        )
        for k in range(count)
    ]


def quick_config(**overrides) -> RunConfig:
    """A short-run config for integration tests."""
    defaults = dict(
        benchmark="ipfwdr",
        duration_cycles=120_000,
        seed=11,
        traffic=TrafficConfig(offered_load_mbps=1000.0, process="cbr"),
        dvs=DvsConfig(policy="none"),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)
