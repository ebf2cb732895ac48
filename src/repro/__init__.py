"""repro — assertion-based design exploration of DVS in network processors.

A production-quality reproduction of *"Assertion-Based Design Exploration
of DVS in Network Processor Architectures"* (DATE 2005): a cycle-level
IXP1200-class NPU model with a power estimator, the paper's two DVS
policies (traffic-based and execution-based), its four benchmark
applications, an NLANR-like synthetic traffic substrate, and a full
Logic-of-Constraints (LOC) implementation with automatically generated
trace checkers and distribution analyzers.

Quickstart
----------
>>> from repro import RunConfig, DvsConfig, run_simulation
>>> from repro.loc import DistributionAnalyzer, power_distribution_formula
>>> analyzer = DistributionAnalyzer(power_distribution_formula())
>>> config = RunConfig(
...     benchmark="ipfwdr",
...     duration_cycles=200_000,
...     dvs=DvsConfig(policy="tdvs", window_cycles=40_000,
...                   top_threshold_mbps=1000.0),
... )
>>> result = run_simulation(config, sinks=[analyzer])
>>> result.totals.forwarded_packets > 0
True

Grids, studies and experiments run through the session API
(:mod:`repro.api`) — a :class:`~repro.api.session.Session` owns the
execution policy (backend, workers, store, event hooks) once:

>>> from repro import ExecutionPolicy, Session
>>> session = Session(execution=ExecutionPolicy(backend="serial"))

See ``examples/`` for runnable scenarios and ``repro.experiments`` for
the per-figure reproduction harnesses.
"""

from repro.api import EventHooks, ExecutionPolicy, Session, StorePolicy
from repro.config import (
    DvsConfig,
    MemoryConfig,
    NpuConfig,
    PowerConfig,
    RunConfig,
    TrafficConfig,
)
from repro.errors import ReproError
from repro.runner import RunResult, SimulationRun, run_simulation
from repro.scenarios import Scenario, get_scenario, list_scenarios
from repro.studies import PolicyMap, StudySpec
from repro.sweep import ResultStore, SweepSpec
from repro.version import PAPER, __version__

__all__ = [
    "DvsConfig",
    "EventHooks",
    "ExecutionPolicy",
    "MemoryConfig",
    "NpuConfig",
    "PAPER",
    "PolicyMap",
    "PowerConfig",
    "ReproError",
    "ResultStore",
    "RunConfig",
    "RunResult",
    "Scenario",
    "Session",
    "SimulationRun",
    "StorePolicy",
    "StudySpec",
    "SweepSpec",
    "TrafficConfig",
    "__version__",
    "get_scenario",
    "list_scenarios",
    "run_simulation",
]
