"""Unit tests for the metrics snapshot merge (the shard aggregation rules).

The contract (``repro.service.metrics.merge_snapshots``): counters sum,
gauges stay per-source re-keyed by label, histograms add bucket-wise and
refuse mismatched bucket layouts.  The sharded service's merged snapshot
is this function applied to the per-shard kernels.
"""

from __future__ import annotations

import pytest

from repro.service import Metrics, merge_snapshots


def make_registry(scale: int) -> Metrics:
    m = Metrics()
    m.counter("requests_total").inc(10 * scale)
    m.counter("rejected_total").inc(scale)
    m.gauge("queue_depth").set(float(scale))
    h = m.histogram("quote_cost", bounds=(1.0, 10.0, 100.0))
    for v in (0.5 * scale, 5.0, 500.0):
        h.observe(v)
    return m


class TestMergeSnapshots:
    def test_counters_sum(self):
        merged = merge_snapshots(
            {"a": make_registry(1).snapshot(), "b": make_registry(2).snapshot()}
        )
        assert merged["counters"]["requests_total"] == 30
        assert merged["counters"]["rejected_total"] == 3

    def test_counters_missing_in_one_source_still_sum(self):
        a = Metrics()
        a.counter("only_a").inc(4)
        b = Metrics()
        b.counter("only_b").inc(6)
        merged = merge_snapshots({"a": a.snapshot(), "b": b.snapshot()})
        assert merged["counters"] == {"only_a": 4, "only_b": 6}

    def test_gauges_rekeyed_per_source(self):
        merged = merge_snapshots(
            {"shard-0000": make_registry(1).snapshot(),
             "shard-0001": make_registry(3).snapshot()}
        )
        assert merged["gauges"]["queue_depth"] == {
            "shard-0000": 1.0,
            "shard-0001": 3.0,
        }

    def test_histograms_add_bucketwise(self):
        merged = merge_snapshots(
            {"a": make_registry(1).snapshot(), "b": make_registry(2).snapshot()}
        )
        hist = merged["histograms"]["quote_cost"]
        assert hist["count"] == 6
        assert hist["sum"] == pytest.approx(0.5 + 5.0 + 500.0 + 1.0 + 5.0 + 500.0)
        # a: 0.5→le_1, 5→le_10, 500→inf; b: 1.0→le_1, 5→le_10, 500→inf.
        assert hist["buckets"] == {"le_1": 2, "le_10": 2, "le_100": 0, "inf": 2}

    def test_mismatched_buckets_raise(self):
        a = Metrics()
        a.histogram("h", bounds=(1.0, 2.0)).observe(1.5)
        b = Metrics()
        b.histogram("h", bounds=(1.0, 3.0)).observe(1.5)
        with pytest.raises(ValueError, match="bucket"):
            merge_snapshots({"a": a.snapshot(), "b": b.snapshot()})

    def test_single_source_is_identity_up_to_gauge_rekeying(self):
        snap = make_registry(2).snapshot()
        merged = merge_snapshots({"solo": snap})
        assert merged["counters"] == snap["counters"]
        assert merged["histograms"] == snap["histograms"]
        assert merged["gauges"] == {
            name: {"solo": value} for name, value in snap["gauges"].items()
        }

    def test_empty_merge(self):
        assert merge_snapshots({}) == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_merge_is_order_insensitive_on_integers(self):
        # Counter/bucket totals are ints; merging in either label order
        # must produce the same snapshot (float sums accumulate in label
        # order, so keep the histogram sums integral here).
        a, b = make_registry(2).snapshot(), make_registry(4).snapshot()
        ab = merge_snapshots({"a": a, "b": b})
        ba = merge_snapshots({"b": b, "a": a})
        assert ab["counters"] == ba["counters"]
        assert ab["histograms"]["quote_cost"]["buckets"] == (
            ba["histograms"]["quote_cost"]["buckets"]
        )

    def test_merged_snapshot_keys_are_sorted(self):
        b = Metrics()
        b.counter("zz").inc()
        b.counter("aa").inc()
        merged = merge_snapshots({"b": b.snapshot()})
        assert list(merged["counters"]) == sorted(merged["counters"])
