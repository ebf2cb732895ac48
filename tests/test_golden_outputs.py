"""Golden wall: what the simulator computes, pinned bit for bit.

One bench-profile run (400k reference cycles, seed 7, ``ipfwdr``) per
catalog scenario × DVS policy (``none``, ``tdvs``, ``edvs``).  For each
run the golden holds the chip-level results — mean power, throughput,
loss, governor transitions, the p50/p99 per-packet forward latency
(arrival to wire, picoseconds, nearest rank) — and every microengine's
instruction/poll/packet counters and integer busy/idle/stalled
picoseconds.  Floats are stored as their full ``repr`` (JSON's float
form), so any change in the last bit fails the test.

A refactor must keep this file passing unchanged.  A deliberate model
change regenerates it in one run and commits the reviewed diff::

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden/bench_outputs.json

On a mismatch the test prints the fresh JSON (captured stdout), so the
failing run itself holds the regenerated file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.npu.microengine import BUSY, IDLE, STALLED
from repro.runner import SimulationRun
from repro.scenarios.catalog import list_scenarios

GOLDEN_PATH = Path(__file__).parent / "golden" / "bench_outputs.json"

POLICIES = ("none", "tdvs", "edvs")
DURATION_CYCLES = 400_000
SEED = 7


def _nearest_rank(sorted_values: List[int], percent: int) -> int:
    if not sorted_values:
        return 0
    rank = max(1, -(-len(sorted_values) * percent // 100))
    return sorted_values[rank - 1]


def run_record(scenario: str, policy: str) -> Dict:
    """Run one golden job and return its pinned outputs."""
    config = RunConfig(
        benchmark="ipfwdr",
        duration_cycles=DURATION_CYCLES,
        seed=SEED,
        traffic=TrafficConfig.for_scenario(scenario),
        dvs=DvsConfig(policy=policy),
    )
    run = SimulationRun(config)
    latencies: List[int] = []
    ports = run.chip.ports
    forward = ports.on_forward

    def on_forward(packet) -> None:
        latencies.append(run.sim.now_ps - packet.arrival_ps)
        forward(packet)

    ports.on_forward = on_forward
    result = run.run()
    totals = result.totals
    latencies.sort()
    mes = []
    for me in run.chip.mes:
        state_ps = me.states.totals_ps()
        mes.append({
            "index": me.index,
            "role": me.role,
            "instructions_executed": me.instructions_executed,
            "polls": me.polls,
            "packets_processed": me.packets_processed,
            "busy_ps": state_ps.get(BUSY, 0),
            "idle_ps": state_ps.get(IDLE, 0),
            "stalled_ps": state_ps.get(STALLED, 0),
        })
    return {
        "scenario": scenario,
        "policy": policy,
        "mean_power_w": totals.mean_power_w,
        "throughput_mbps": totals.throughput_mbps,
        "loss_fraction": totals.loss_fraction,
        "offered_packets": totals.offered_packets,
        "forwarded_packets": totals.forwarded_packets,
        "forward_latency_p50_ps": _nearest_rank(latencies, 50),
        "forward_latency_p99_ps": _nearest_rank(latencies, 99),
        "governor_transitions": result.governor_transitions,
        "mes": mes,
    }


def fresh_golden() -> Dict:
    """Every golden job, keyed ``scenario/policy``."""
    return {
        f"{scenario}/{policy}": run_record(scenario, policy)
        for scenario in list_scenarios()
        for policy in POLICIES
    }


def render(golden: Dict) -> str:
    return json.dumps(golden, indent=1, sort_keys=True) + "\n"


def test_outputs_match_golden():
    fresh = fresh_golden()
    pinned = json.loads(GOLDEN_PATH.read_text())
    if fresh != pinned:
        print(render(fresh))
    assert sorted(fresh) == sorted(pinned), "golden job set changed"
    changed = [key for key in pinned if fresh[key] != pinned[key]]
    assert not changed, f"outputs differ from {GOLDEN_PATH.name}: {changed}"


def test_golden_file_is_canonical():
    # The committed file is exactly what ``render`` writes, so a
    # regeneration diff shows only real value changes.
    text = GOLDEN_PATH.read_text()
    assert text == render(json.loads(text))


if __name__ == "__main__":
    print(render(fresh_golden()), end="")
