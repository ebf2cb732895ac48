"""Observation is a pure read: attaching observers never changes a run.

The paper checks assertions over simulation traces, so a monitor must
observe the run, not steer it.  For every catalog scenario (bench
profile: 400k reference cycles, seed 7, ``ipfwdr``, TDVS) the chip
totals of an unobserved run are compared with ``==`` — float for float,
down to the last bit — against:

* the study's compiled power and throughput distribution monitors;
* those monitors plus tuple subscribers on the named-only ``mem_sram``
  / ``mem_sdram`` channels and the ``arrival`` channel;
* a wildcard :class:`~repro.trace.buffer.TraceBuffer` sink;
* the early-abort gates of a policy that can never trip (loss gate at
  a threshold of 1.0, no unsatisfiability gates).
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Dict, Sequence

import pytest

from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.loc.builtin import (
    power_distribution_formula,
    throughput_distribution_formula,
)
from repro.loc.monitor import build_monitor
from repro.obs.gates import EarlyAbortPolicy, build_gates
from repro.runner import SimulationRun
from repro.scenarios.catalog import list_scenarios
from repro.studies.spec import StudySpec
from repro.trace.buffer import TraceBuffer

SCENARIOS = list_scenarios()
EXTRA_CHANNELS = ("mem_sram", "mem_sdram", "arrival")


def _config(scenario: str) -> RunConfig:
    return RunConfig(
        benchmark="ipfwdr",
        duration_cycles=400_000,
        seed=7,
        traffic=TrafficConfig.for_scenario(scenario),
        dvs=DvsConfig(policy="tdvs"),
    )


def _study_monitors():
    span = StudySpec().span
    return [
        build_monitor(power_distribution_formula(span=span)),
        build_monitor(throughput_distribution_formula(span=span)),
    ]


def _run(
    scenario: str,
    monitors: Sequence = (),
    channels: Sequence[str] = (),
    sinks: Sequence = (),
    gates: Sequence = (),
) -> Dict:
    run = SimulationRun(
        _config(scenario), sinks=sinks, monitors=monitors, gates=gates
    )
    rows = {name: [] for name in channels}
    for name in channels:
        run.bus.subscribe(name, rows[name].append)
    result = run.run()
    assert not result.aborted_early
    if channels:
        assert any(rows.values()), f"{scenario}: extra channels saw nothing"
    return {
        "totals": dataclasses.asdict(result.totals),
        "transitions": result.governor_transitions,
        "windows": result.governor_windows,
        "events_published": run.bus.events_published,
    }


@lru_cache(maxsize=None)
def _unobserved(scenario: str) -> Dict:
    record = _run(scenario)
    assert record["events_published"] == 0
    return record


def _assert_same_results(observed: Dict, unobserved: Dict) -> None:
    # mean_power_w and the per-component breakdown first, so a failure
    # names the float that moved.
    assert observed["totals"]["mean_power_w"] == (
        unobserved["totals"]["mean_power_w"]
    )
    assert observed["totals"]["power_breakdown_w"] == (
        unobserved["totals"]["power_breakdown_w"]
    )
    assert observed["totals"] == unobserved["totals"]
    assert observed["transitions"] == unobserved["transitions"]
    assert observed["windows"] == unobserved["windows"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_observers_never_change_results(scenario):
    baseline = _unobserved(scenario)
    observed = [
        _run(scenario, monitors=_study_monitors()),
        _run(scenario, monitors=_study_monitors(), channels=EXTRA_CHANNELS),
        _run(scenario, sinks=[TraceBuffer()]),
    ]
    for record in observed:
        assert record["events_published"] > 0
        _assert_same_results(record, baseline)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_gate_that_never_trips_changes_nothing(scenario):
    gates = build_gates(EarlyAbortPolicy(check_unsat=False, loss_threshold=1.0))
    assert gates
    _assert_same_results(_run(scenario, gates=gates), _unobserved(scenario))
