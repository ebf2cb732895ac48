"""Differential wall: compiled LOC monitors == the interpretive evaluator.

The compiled checking path (:mod:`repro.loc.monitor` over
:func:`repro.loc.codegen.compile_monitor_feed`) must be *provably*
interchangeable with the interpretive
:class:`~repro.loc.evaluator.StreamingEvaluator` path it replaced as
default.  Three layers of proof:

* **hypothesis** — random single-event formulas (offsets incl.
  negative, every relational operator, division) over random event
  streams: verdicts, violation lists and lhs statistics identical;
* **golden traces** — every catalog scenario simulated once, its trace
  checked by both paths with the real study-gate and builtin formulas:
  results identical object-for-object;
* **run_job identity** — a sweep job executed with compiled and with
  interpreted monitors (``repro.sweep.engine.build_monitor`` patched to
  ``mode="interpreted"``) produces byte-identical outcome dicts (the
  sweep/study bit-identity guarantee).
"""

import json

import pytest

from repro.config import DvsConfig, RunConfig, TrafficConfig
from repro.loc.analyzer import DistributionAnalyzer
from repro.loc.checker import build_checker, check_trace
from repro.loc.codegen import generate_monitor_source, monitor_event
from repro.loc.monitor import (
    CompiledMonitor,
    InterpretedMonitor,
    build_monitor,
    run_monitor,
)
from repro.loc.parser import parse_formula
from repro.runner import run_simulation
from repro.scenarios import list_scenarios
from repro.sweep.spec import Job, SweepSpec
from repro.sweep.engine import run_job
from repro.trace.buffer import TraceBuffer
from repro.trace.events import TraceEvent

from conftest import use_interpreted_monitors


def synthetic_events(count=400, seed=11, names=("forward", "fifo")):
    """A deterministic pseudo-trace with monotone annotations."""
    import random

    rng = random.Random(seed)
    events = []
    cycle, time_us, energy, pkt, bits = 0, 0.0, 0.0, 0, 0
    for _ in range(count):
        cycle += rng.randint(1, 60)
        time_us += rng.random() * 2.5
        energy += rng.random() * 1.5
        pkt += 1
        bits += rng.randint(64, 1500) * 8
        name = names[0] if rng.random() < 0.7 else names[rng.randrange(len(names))]
        events.append(TraceEvent(name, cycle, time_us, energy, pkt, bits))
    return events


CHECKER_FORMULAS = [
    "time(forward[i+100]) - time(forward[i]) <= 50",
    "time(forward[i+7]) - time(forward[i-3]) <= 20",
    "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1",
    "energy(forward[i]) / (time(forward[i]) - time(forward[i-1])) >= 0.1",
    "time(forward[i-2]) - time(forward[i-1]) <= 5",
    "cycle(forward[i]) != 0",
    "total_bit(forward[i+5]) - total_bit(forward[i]) > 300",
    # Division by a delta that can be zero: undefined accounting.
    "energy(forward[i+2]) / (total_pkt(forward[i+2]) - total_pkt(forward[i+2])) < 1",
]

DISTRIBUTION_FORMULAS = [
    "(energy(forward[i+20]) - energy(forward[i])) / "
    "(time(forward[i+20]) - time(forward[i])) below <0.5, 2.25, 0.01>",
    "time(forward[i+20]) - time(forward[i]) in <10, 80, 5>",
    "(total_bit(forward[i+20]) - total_bit(forward[i])) / "
    "(time(forward[i+20]) - time(forward[i])) above <100, 3300, 10>",
]


class TestCompiledVsInterpreted:
    @pytest.mark.parametrize("formula", CHECKER_FORMULAS)
    def test_checker_identity_on_synthetic_trace(self, formula):
        events = synthetic_events()
        compiled = build_monitor(formula, mode="compiled")
        interpreted = build_monitor(formula, mode="interpreted")
        assert isinstance(interpreted, InterpretedMonitor)
        a = run_monitor(compiled, events)
        b = run_monitor(interpreted, events)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("formula", DISTRIBUTION_FORMULAS)
    def test_distribution_identity_on_synthetic_trace(self, formula):
        events = synthetic_events()
        compiled = build_monitor(formula, mode="compiled")
        assert isinstance(compiled, CompiledMonitor)
        interpreted = build_monitor(formula, mode="interpreted")
        assert run_monitor(compiled, events) == run_monitor(interpreted, events)

    def test_multi_event_formula_falls_back(self):
        formula = "cycle(forward[i]) - cycle(fifo[i]) <= 100000"
        monitor = build_monitor(formula, mode="compiled")
        assert not monitor.compiled  # fell back to the interpreter
        events = synthetic_events()
        baseline = build_checker(formula)
        for event in events:
            baseline.emit(event)
        assert run_monitor(monitor, events).to_dict() == (
            baseline.finish().to_dict()
        )

    def test_absolute_pin_falls_back(self):
        formula = "time(forward[i]) - time(forward[0]) >= 0"
        assert monitor_event(parse_formula(formula)) is None
        monitor = build_monitor(formula, mode="compiled")
        assert not monitor.compiled

    def test_generated_source_is_pure_python(self):
        source = generate_monitor_source(
            "time(forward[i+10]) - time(forward[i]) <= 50"
        )
        compile(source, "<test>", "exec")  # must be valid source
        assert "_make_monitor" in source
        assert "buf = [None] * 11" in source


class TestMonitorModeResolution:
    def test_default_is_compiled(self):
        assert build_monitor(CHECKER_FORMULAS[0]).compiled
        assert not build_monitor(CHECKER_FORMULAS[0], mode="interpreted").compiled

    def test_bad_mode_rejected(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            build_monitor(CHECKER_FORMULAS[0], mode="jit")

    def test_expect_kind_guard(self):
        from repro.errors import LocError

        with pytest.raises(LocError):
            build_monitor(DISTRIBUTION_FORMULAS[0], expect="checker")
        with pytest.raises(LocError):
            build_monitor(CHECKER_FORMULAS[0], expect="distribution")

    def test_check_trace_modes_agree(self):
        events = synthetic_events()
        compiled = check_trace(CHECKER_FORMULAS[0], events, mode="compiled")
        interpreted = check_trace(CHECKER_FORMULAS[0], events, mode="interpreted")
        assert compiled.to_dict() == interpreted.to_dict()


class TestGoldenScenarioTraces:
    """Both checking paths over every catalog scenario's real trace."""

    @pytest.fixture(scope="class")
    def scenario_traces(self):
        traces = {}
        for name in list_scenarios():
            buffer = TraceBuffer()
            run_simulation(
                RunConfig(
                    benchmark="ipfwdr",
                    duration_cycles=100_000,
                    seed=5,
                    traffic=TrafficConfig.for_scenario(name),
                    dvs=DvsConfig(policy="tdvs"),
                ),
                sinks=[buffer],
            )
            traces[name] = buffer.events
        return traces

    def test_every_catalog_scenario_agrees(self, scenario_traces):
        from repro.scenarios import get_scenario
        from repro.studies.spec import StudySpec

        spec = StudySpec(span=10)
        for name, events in scenario_traces.items():
            formulas = [
                a.formula for a in spec.assertions_for(get_scenario(name))
            ]
            for formula in formulas:
                compiled = build_monitor(formula, mode="compiled")
                assert compiled.compiled, formula
                result = run_monitor(compiled, events)
                baseline = build_checker(formula)
                for event in events:
                    baseline.emit(event)
                assert result.to_dict() == baseline.finish().to_dict(), (
                    name,
                    formula,
                )

    def test_distributions_agree_on_scenario_traces(self, scenario_traces):
        for name, events in scenario_traces.items():
            for formula in DISTRIBUTION_FORMULAS:
                compiled = run_monitor(
                    build_monitor(formula, mode="compiled"), events
                )
                baseline = DistributionAnalyzer(formula)
                for event in events:
                    baseline.emit(event)
                assert compiled == baseline.finish(), (name, formula)


class TestRunJobIdentity:
    """The sweep-layer guarantee: monitor mode never changes outcomes."""

    def _job(self) -> Job:
        spec = SweepSpec(
            policies=("tdvs",),
            thresholds_mbps=(1000.0,),
            windows_cycles=(40_000,),
            traffic=("scenario:flash_crowd",),
            duration_cycles=200_000,
            span=10,
            checks=(
                "time(forward[i+10]) - time(forward[i]) <= 1000",
                "total_pkt(forward[i+1]) - total_pkt(forward[i]) == 1",
            ),
        )
        return spec.jobs()[0]

    def test_outcome_bytes_identical_across_modes(self, monkeypatch):
        job = self._job()
        compiled = run_job(job)
        use_interpreted_monitors(monkeypatch)
        interpreted = run_job(job)
        a = json.dumps(compiled.to_dict(), sort_keys=True)
        b = json.dumps(interpreted.to_dict(), sort_keys=True)
        assert a == b

    def test_check_results_populated(self):
        outcome = run_job(self._job())
        assert len(outcome.check_results) == 2
        assert all(c.instances_checked > 0 for c in outcome.check_results)


@pytest.mark.slow
class TestStudyIdentityAcrossModes:
    """A whole study report is byte-identical under either monitor mode."""

    def test_study_json_identical(self, monkeypatch):
        from repro.api import Session
        from repro.studies.report import render_json
        from repro.studies.spec import StudySpec

        spec = StudySpec(
            scenarios=("flash_crowd",),
            policies=("tdvs",),
            thresholds_mbps=(1000.0, 1400.0),
            windows_cycles=(40_000,),
            duration_cycles=200_000,
            span=10,
        )
        reports = {}
        for mode in ("compiled", "interpreted"):
            if mode == "interpreted":
                use_interpreted_monitors(monkeypatch)
            result = Session().study(spec)
            reports[mode] = render_json(result.policy_map)
        assert reports["compiled"] == reports["interpreted"]


# ---------------------------------------------------------------------------
# hypothesis: arbitrary formulas over arbitrary streams
# ---------------------------------------------------------------------------
hypothesis = pytest.importorskip(
    "hypothesis", reason="property tests need the 'test' extra (hypothesis)"
)

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

settings.register_profile("repro-monitors", deadline=None, max_examples=50)
settings.load_profile("repro-monitors")

_ANNOTATIONS = ("cycle", "time", "energy", "total_pkt", "total_bit")
_OPS = ("<=", "<", ">=", ">", "==", "!=")


@st.composite
def checker_formula(draw):
    """A random single-event checker formula with relative offsets."""

    def ref():
        annotation = draw(st.sampled_from(_ANNOTATIONS))
        offset = draw(st.integers(min_value=-5, max_value=8))
        index = "i" if offset == 0 else f"i{'+' if offset > 0 else '-'}{abs(offset)}"
        return f"{annotation}(forward[{index}])"

    def term():
        kind = draw(st.integers(min_value=0, max_value=2))
        if kind == 0:
            return ref()
        if kind == 1:
            return str(draw(st.integers(min_value=-50, max_value=50)))
        op = draw(st.sampled_from(("+", "-", "*", "/")))
        return f"({ref()} {op} {ref()})"

    op = draw(st.sampled_from(_OPS))
    return f"{term()} {op} {term()}"


@st.composite
def event_stream(draw):
    count = draw(st.integers(min_value=0, max_value=120))
    events = []
    cycle, time_us, energy, pkt, bits = 0, 0.0, 0.0, 0, 0
    for _ in range(count):
        cycle += draw(st.integers(min_value=0, max_value=40))
        time_us += draw(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
        )
        energy += draw(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
        )
        pkt += draw(st.integers(min_value=0, max_value=2))
        bits += draw(st.integers(min_value=0, max_value=12_000))
        name = draw(st.sampled_from(("forward", "fifo")))
        events.append(TraceEvent(name, cycle, time_us, energy, pkt, bits))
    return events


class TestMonitorProperties:
    @given(formula=checker_formula(), events=event_stream())
    def test_compiled_equals_interpreted(self, formula, events):
        compiled = build_monitor(formula, mode="compiled")
        interpreted = build_monitor(formula, mode="interpreted")
        a = run_monitor(compiled, events)
        b = run_monitor(interpreted, events)
        assert a.to_dict() == b.to_dict()

    @given(events=event_stream())
    def test_incremental_equals_batch(self, events):
        """Feeding one event at a time == feeding the full stream."""
        formula = "time(forward[i+3]) - time(forward[i]) <= 4"
        incremental = build_monitor(formula, mode="compiled")
        for event in events:
            incremental.feed_event(event)
        batch = run_monitor(build_monitor(formula, mode="compiled"), events)
        assert incremental.finish().to_dict() == batch.to_dict()
