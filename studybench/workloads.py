"""The benchmark's workloads: one :class:`StudySpec` per (name, seed).

Every workload runs at the bench profile (400k reference cycles, LOC
span 20); the run length is written out here, not read from
``repro.experiments``, so the workloads stay fixed if a profile moves.
The program receives only the spec; the seed never reaches it any
other way.  See GLOSSARY.md for why each workload exists.
"""

from __future__ import annotations

import random
from typing import Tuple

from repro.studies.spec import StudySpec

DURATION_CYCLES = 400_000
SPAN = 20

#: The full catalog, pinned so a catalog change cannot move the workload.
CATALOG = (
    "bursty_onoff",
    "ddos_min64",
    "flash_crowd",
    "imix_drift",
    "link_failover",
    "overnight_trough",
    "saturation_stress",
    "weekday_diurnal",
    "weekend_diurnal",
)

#: Job count of each workload's study (the ``none`` baseline included).
JOBS = {"catalog_study": 63, "trough_sweep": 54, "busy_observed": 54}


def derived_seeds(seed: int, count: int) -> Tuple[int, ...]:
    """``count`` simulation seeds drawn deterministically from ``seed``."""
    rng = random.Random(seed)
    return tuple(rng.randrange(1, 2**31) for _ in range(count))


def build_spec(workload: str, seed: int) -> StudySpec:
    """The study one run of ``workload`` executes."""
    common = dict(
        policies=("tdvs", "edvs"),
        duration_cycles=DURATION_CYCLES,
        span=SPAN,
    )
    if workload == "catalog_study":
        return StudySpec(
            scenarios=CATALOG,
            thresholds_mbps=(1000.0, 1400.0),
            windows_cycles=(20_000, 80_000),
            seeds=derived_seeds(seed, 1),
            **common,
        )
    if workload == "trough_sweep":
        return StudySpec(
            scenarios=("overnight_trough", "weekend_diurnal"),
            thresholds_mbps=(1000.0,),
            windows_cycles=(20_000,),
            seeds=derived_seeds(seed, 9),
            **common,
        )
    if workload == "busy_observed":
        return StudySpec(
            scenarios=("ddos_min64", "bursty_onoff"),
            thresholds_mbps=(1000.0,),
            windows_cycles=(20_000,),
            seeds=derived_seeds(seed, 9),
            mem_gates=True,
            **common,
        )
    raise ValueError(f"unknown workload {workload!r}; known: {sorted(JOBS)}")
