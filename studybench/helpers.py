"""Pure helpers of the study benchmark (no ``repro`` import).

* the tail-percentile rule: report the median and the highest
  percentile that still has at least :data:`MIN_BEYOND` samples beyond
  it (nearest-rank percentiles);
* layer self time: a span's duration minus the part of its interval
  that its child spans cover (children may overlap each other);
* the output digest: md5 of a study report with the run-dependent
  ``cached`` field masked and keys in sorted order;
* the quartile spread the run-to-run steadiness check uses.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

#: Candidate tail percentiles, lowest first.
TAIL_PERCENTILES = (80, 90, 95, 99)


def nearest_rank(n: int, pct: float) -> int:
    """1-based nearest-rank index of the ``pct`` percentile of ``n`` samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    return min(n, max(1, math.ceil(pct / 100.0 * n)))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the ``pct`` rank."""
    return n - nearest_rank(n, pct)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[int]:
    """The highest of :data:`TAIL_PERCENTILES` with ``min_beyond`` samples
    beyond it at ``n`` samples, or ``None`` when even the lowest has too few."""
    best = None
    for pct in TAIL_PERCENTILES:
        if samples_beyond(n, pct) >= min_beyond:
            best = pct
    return best


def _covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, start), min(hi, end)) for start, end in children if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[int, float]:
    """Self time of every span: duration minus its children's coverage.

    Each span is a dict with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _covered((span["start"], span["end"]), children.get(span["id"], ()))
        for span in spans
    }


def _masked(value: Any, masked: frozenset) -> Any:
    if isinstance(value, dict):
        return {k: _masked(v, masked) for k, v in value.items() if k not in masked}
    if isinstance(value, list):
        return [_masked(v, masked) for v in value]
    return value


def output_digest(report_json: str, masked: Iterable[str] = ("cached",)) -> str:
    """md5 of a JSON report with ``masked`` keys removed at every depth.

    The report is re-serialized with sorted keys and fixed separators,
    so the digest depends on content only, not on key order or layout.
    """
    canonical = json.dumps(
        _masked(json.loads(report_json), frozenset(masked)),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.md5(canonical.encode("utf-8")).hexdigest()


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
