"""Logic of Constraints (LOC) assertions over simulation traces.

This subpackage implements the paper's assertion-based analysis
methodology end to end:

* a lexer/parser for LOC formulas (:mod:`~repro.loc.parser`), covering
  both **checker** formulas (``cycle(deq[i]) - cycle(enq[i]) <= 50``)
  and **distribution** formulas with the paper's three extended
  operators, spelled ``in`` / ``below`` / ``above`` here::

      (energy(forward[i+100]) - energy(forward[i])) /
      (time(forward[i+100]) - time(forward[i]))  below <0.5, 2.25, 0.01>

  ``in``     bins values into ``(-inf, min], (min, min+step], ... (max, +inf)``;
  ``below``  reports, for each cutoff, the fraction of instances **<=** it
             (the CDF view used for the paper's power plots);
  ``above``  reports the fraction of instances **>=** each cutoff
             (the CCDF view used for the throughput plots).

* a streaming **checker** reporting assertion violations with bounded
  memory (:mod:`~repro.loc.checker`);
* a streaming **distribution analyzer** (:mod:`~repro.loc.analyzer`);
* **online monitors** (:mod:`~repro.loc.monitor`): the default
  simulation-time checking path — formulas compiled to closure-based
  ring-buffer monitors (:func:`~repro.loc.monitor.build_monitor`) that
  subscribe directly to the run's :class:`~repro.trace.bus.TraceBus`,
  with the interpretive evaluator kept as a proven-equivalent fallback
  (``build_monitor(..., mode="interpreted")``);
* a **code generator** that emits a standalone, dependency-free Python
  analyzer for a formula, and the online-monitor compiler behind the
  monitor API (:mod:`~repro.loc.codegen`) — the paper's
  "automatically generated, simulation-language-independent" tooling;
* the paper's formulas (1)-(3) as ready-made builders
  (:mod:`~repro.loc.builtin`).
"""

from repro.loc.analyzer import DistributionAnalyzer, DistributionResult
from repro.loc.ast_nodes import (
    AnnotationRef,
    BinaryOp,
    CheckerFormula,
    DistributionFormula,
    IndexExpr,
    Negate,
    Number,
)
from repro.loc.builtin import (
    forwarding_latency_formula,
    power_distribution_formula,
    throughput_distribution_formula,
)
from repro.loc.checker import CheckResult, Violation, build_checker, check_trace
from repro.loc.codegen import (
    compile_monitor_feed,
    generate_analyzer_source,
    generate_monitor_source,
    monitor_event,
)
from repro.loc.evaluator import StreamingEvaluator
from repro.loc.lexer import Token, tokenize
from repro.loc.monitor import (
    CompiledMonitor,
    InterpretedMonitor,
    build_monitor,
    run_monitor,
)
from repro.loc.parser import parse_formula

__all__ = [
    "AnnotationRef",
    "BinaryOp",
    "CheckResult",
    "CheckerFormula",
    "CompiledMonitor",
    "DistributionAnalyzer",
    "DistributionFormula",
    "DistributionResult",
    "IndexExpr",
    "InterpretedMonitor",
    "Negate",
    "Number",
    "StreamingEvaluator",
    "Token",
    "Violation",
    "build_checker",
    "build_monitor",
    "check_trace",
    "compile_monitor_feed",
    "forwarding_latency_formula",
    "generate_analyzer_source",
    "generate_monitor_source",
    "monitor_event",
    "parse_formula",
    "power_distribution_formula",
    "run_monitor",
    "throughput_distribution_formula",
    "tokenize",
]
