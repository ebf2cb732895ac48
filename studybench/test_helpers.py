"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest studybench -q``.
"""

import json

import pytest

from helpers import (
    nearest_rank,
    output_digest,
    percentile,
    quartile_spread,
    samples_beyond,
    self_times,
    tail_percentile,
)


class TestPercentileRule:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 80) == 80
        assert percentile(values, 100) == 100
        assert percentile([3.0], 80) == 3.0

    def test_p80_has_ten_beyond_at_fifty_jobs(self):
        assert nearest_rank(50, 80) == 40
        assert samples_beyond(50, 80) == 10
        assert samples_beyond(50, 90) == 5
        assert tail_percentile(50) == 80

    def test_workload_job_counts_report_p80(self):
        # catalog_study runs 63 jobs per pass, the sweeps 54.
        assert samples_beyond(54, 80) == 10
        assert tail_percentile(54) == 80
        assert tail_percentile(63) == 80

    def test_more_samples_allow_higher_tails(self):
        assert tail_percentile(100) == 90
        assert tail_percentile(1000) == 99

    def test_too_few_samples(self):
        assert samples_beyond(49, 80) == 9
        assert tail_percentile(49) is None
        with pytest.raises(ValueError):
            nearest_rank(0, 50)


def _span(id_, parent, start, end):
    return {"id": id_, "parent": parent, "start": start, "end": end}


class TestSelfTimes:
    def test_nested(self):
        spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 5.0), _span(2, 1, 3.0, 4.0)]
        assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}

    def test_overlapping_children_count_once(self):
        spans = [
            _span(0, None, 0.0, 10.0),
            _span(1, 0, 1.0, 4.0),
            _span(2, 0, 3.0, 6.0),  # overlaps child 1 on [3, 4]
            _span(3, 0, 8.0, 9.0),
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_child_contained_in_sibling(self):
        spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 2.0, 8.0), _span(2, 0, 3.0, 4.0)]
        assert self_times(spans)[0] == pytest.approx(4.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 8.0, 12.0)]
        assert self_times(spans)[0] == pytest.approx(8.0)

    def test_leaf_self_is_duration(self):
        assert self_times([_span(0, None, 1.5, 2.0)]) == {0: 0.5}


class TestOutputDigest:
    REPORT = {
        "scenarios": {
            "a": {"winner": {"policy": "tdvs", "cached": False}, "power_w": 1.25},
            "b": {"candidates": [{"cached": True, "power_w": 2.0}]},
        }
    }

    def test_cached_masked_at_every_depth(self):
        warm = json.loads(json.dumps(self.REPORT))
        warm["scenarios"]["a"]["winner"]["cached"] = True
        warm["scenarios"]["b"]["candidates"][0]["cached"] = False
        assert output_digest(json.dumps(warm)) == output_digest(json.dumps(self.REPORT))

    def test_key_order_and_layout_do_not_matter(self):
        compact = json.dumps(self.REPORT, separators=(",", ":"))
        reordered = json.dumps(
            {"scenarios": {"b": self.REPORT["scenarios"]["b"], "a": self.REPORT["scenarios"]["a"]}},
            indent=2,
        )
        assert output_digest(compact) == output_digest(reordered)

    def test_other_fields_change_the_digest(self):
        moved = json.loads(json.dumps(self.REPORT))
        moved["scenarios"]["a"]["power_w"] = 1.2500000000000002
        assert output_digest(json.dumps(moved)) != output_digest(json.dumps(self.REPORT))

    def test_digest_is_md5_hex(self):
        digest = output_digest(json.dumps(self.REPORT))
        assert len(digest) == 32 and int(digest, 16) >= 0


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    # statistics.quantiles(range 1..9, n=4) -> 2.5, 5, 7.5
    assert quartile_spread(list(range(1, 10))) == pytest.approx(1.0)
