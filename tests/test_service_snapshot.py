"""Snapshot + compaction tests: bounded recovery for the service journal.

The contract under test (docs/RECOVERY.md):

1. **Format**: a snapshot is one checksummed JSON document pinned to a
   journal seq, written atomically (temp + fsync + rename) — readers
   never see a half snapshot, and ``*.tmp`` leftovers are never selected.
2. **Fast path**: recovery loads the newest valid snapshot and replays
   only the journal suffix; the result is byte-identical (schedule and
   metrics) to a full replay.
3. **Fallback**: a corrupt snapshot is skipped — next older snapshot,
   then full replay.  Loading never repairs.
4. **Compaction**: a journal prefix is truncated only when two retained
   snapshots cover it, so one corrupt snapshot never strands recovery;
   a compacted journal whose snapshots are all bad is a typed
   :class:`~repro.errors.RecoveryError`, not silent data loss.
5. **Torn tails**: recovery counts dropped bytes in an operational
   counter and emits a structured ``journal.torn_tail`` log line.
"""

from __future__ import annotations

import json
import logging

import pytest

from repro.errors import RecoveryError, SnapshotError
from repro.geometry import Point
from repro.service import (
    ChargingService,
    Journal,
    Metrics,
    ServiceConfig,
    SNAPSHOT_SCHEMA,
    generate_requests,
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    snapshot_path,
    write_snapshot,
)
from repro.service.snapshot import _snapshot_checksum
from repro.wpt import Charger

CHARGERS = [
    Charger(charger_id="c0", position=Point(25.0, 25.0)),
    Charger(charger_id="c1", position=Point(75.0, 75.0)),
]
CONFIG = ServiceConfig(epoch=60.0, window=120.0)


@pytest.fixture(scope="module")
def stream():
    return generate_requests(
        30, rate=0.25, deadline_slack=900.0, max_price_factor=1.3, rng=33
    )


def run(tmp_path, reqs, tag, **kw):
    path = tmp_path / f"{tag}.jsonl"
    svc = ChargingService(
        CHARGERS, config=CONFIG, journal_path=path, journal_sync=False, **kw
    )
    for r in reqs:
        svc.submit(r)
    svc.advance(reqs[-1].submitted_at + 300.0)
    svc.drain()
    svc.journal.close()
    return svc, path


def recover(path, **kw):
    return ChargingService.recover(
        path, CHARGERS, config=CONFIG, journal_sync=False, **kw
    )


def corrupt_half(path):
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])


class TestSnapshotFormat:
    def test_write_load_roundtrip(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        state = {"clock": 12.5, "requests": [1, 2, 3]}
        path = write_snapshot(journal, 42, state)
        assert path == snapshot_path(journal, 42)
        assert path.name == "j.jsonl.snap-0000000042"
        assert load_snapshot(path) == (42, state)
        # Atomic publish: no temp sibling survives the write.
        assert not list(tmp_path.glob("*.tmp"))

    def test_list_is_newest_first_and_ignores_tmp(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        for seq in (5, 99, 20):
            write_snapshot(journal, seq, {})
        # A stranded half-written temp file and a stray name never list.
        (tmp_path / "j.jsonl.snap-0000000777.tmp").write_text('{"schema":1,"seq":')
        (tmp_path / "j.jsonl.snap-junk").write_text("{}")
        assert [seq for seq, _p in list_snapshots(journal)] == [99, 20, 5]

    @pytest.mark.parametrize(
        "damage",
        ["missing", "garbage", "truncated", "checksum", "schema", "non_object"],
    )
    def test_load_rejects_every_defect(self, tmp_path, damage):
        journal = tmp_path / "j.jsonl"
        path = write_snapshot(journal, 7, {"x": 1})
        if damage == "missing":
            path.unlink()
        elif damage == "garbage":
            path.write_text("not json at all")
        elif damage == "truncated":
            corrupt_half(path)
        elif damage == "checksum":
            doc = json.loads(path.read_text())
            doc["state"]["x"] = 2  # flip state without recomputing sha
            path.write_text(json.dumps(doc, sort_keys=True))
        elif damage == "schema":
            # Version skew with a *valid* checksum: only the schema gate fires.
            doc = {"schema": SNAPSHOT_SCHEMA + 1, "seq": 7, "state": {"x": 1}}
            doc["sha"] = _snapshot_checksum(doc)
            path.write_text(json.dumps(doc, sort_keys=True))
        else:
            path.write_text("[1, 2, 3]")
        with pytest.raises(SnapshotError):
            load_snapshot(path)

    def test_prune_keeps_newest(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        for seq in range(5):
            write_snapshot(journal, seq, {})
        assert prune_snapshots(journal, keep=2) == 3
        assert [seq for seq, _p in list_snapshots(journal)] == [4, 3]
        with pytest.raises(ValueError):
            prune_snapshots(journal, keep=0)


class TestSnapshotRecovery:
    def test_fast_path_replays_only_the_suffix(self, tmp_path, stream):
        ref, ref_path = run(tmp_path, stream, "ref")
        _snap, snap_path = run(
            tmp_path, stream, "snap", snapshot_every=10, compact=False
        )
        assert list_snapshots(snap_path)
        rec = recover(snap_path, snapshot_every=10, compact=False)
        rec.journal.close()
        counters = rec.observability_snapshot()["counters"]
        assert counters["recovery.snapshot_used"] == 1
        total = len(Journal.read(snap_path).records)
        assert counters["recovery.records_replayed"] < total
        assert rec.final_schedule() == ref.final_schedule()
        assert rec.metrics_snapshot() == ref.metrics_snapshot()

    def test_half_written_tmp_is_never_selected(self, tmp_path, stream):
        _svc, path = run(tmp_path, stream, "t", snapshot_every=10, compact=False)
        newest_seq = list_snapshots(path)[0][0]
        tmp = snapshot_path(path, newest_seq + 10)
        tmp.with_name(tmp.name + ".tmp").write_text('{"schema":1,"seq":')
        rec = recover(path, snapshot_every=10, compact=False)
        rec.journal.close()
        assert rec.final_schedule() == _svc.final_schedule()

    def test_corrupt_newest_falls_back_to_older(self, tmp_path, stream):
        svc, path = run(tmp_path, stream, "fb", snapshot_every=8, compact=False)
        snaps = list_snapshots(path)
        assert len(snaps) >= 2
        corrupt_half(snaps[0][1])
        rec = recover(path, snapshot_every=8, compact=False)
        rec.journal.close()
        counters = rec.observability_snapshot()["counters"]
        assert counters["recovery.snapshot_fallbacks"] >= 1
        assert counters["recovery.snapshot_used"] == 1
        assert rec.final_schedule() == svc.final_schedule()
        assert rec.metrics_snapshot() == svc.metrics_snapshot()

    def test_all_corrupt_falls_back_to_full_replay(self, tmp_path, stream):
        svc, path = run(tmp_path, stream, "all", snapshot_every=8, compact=False)
        for _seq, spath in list_snapshots(path):
            corrupt_half(spath)
        rec = recover(path, snapshot_every=8, compact=False)
        rec.journal.close()
        counters = rec.observability_snapshot()["counters"]
        assert counters["recovery.snapshot_used"] == 0
        assert rec.final_schedule() == svc.final_schedule()
        assert rec.metrics_snapshot() == svc.metrics_snapshot()


class TestCompaction:
    def test_compacted_journal_recovers_byte_identical(self, tmp_path, stream):
        ref, _ref_path = run(tmp_path, stream, "ref")
        _svc, path = run(tmp_path, stream, "c", snapshot_every=10)
        records, torn, *_ = Journal.read(path)
        assert not torn
        assert records[0]["seq"] > 0  # prefix actually truncated
        rec = recover(path, snapshot_every=10)
        rec.journal.close()
        assert rec.final_schedule() == ref.final_schedule()
        assert rec.metrics_snapshot() == ref.metrics_snapshot()

    def test_compaction_requires_two_retained_snapshots(self, tmp_path, stream):
        # keep=1 would make the sole snapshot a single point of failure,
        # so the journal must never be compacted.
        _svc, path = run(
            tmp_path, stream, "k1", snapshot_every=10, snapshot_keep=1
        )
        records = Journal.read(path).records
        assert records[0]["seq"] == 0
        assert len(list_snapshots(path)) == 1

    def test_compacted_with_all_snapshots_bad_is_a_typed_error(
        self, tmp_path, stream
    ):
        _svc, path = run(tmp_path, stream, "dead", snapshot_every=10)
        records = Journal.read(path).records
        assert records[0]["seq"] > 0
        for _seq, spath in list_snapshots(path):
            corrupt_half(spath)
        with pytest.raises(RecoveryError):
            recover(path, snapshot_every=10)

    def test_one_corrupt_snapshot_never_costs_the_journal(self, tmp_path, stream):
        # The invariant the keep>=2 gate buys: corrupt the newest snapshot
        # of a *compacted* journal and recovery still succeeds off the
        # older one.
        svc, path = run(tmp_path, stream, "inv", snapshot_every=8)
        snaps = list_snapshots(path)
        assert len(snaps) >= 2
        corrupt_half(snaps[0][1])
        rec = recover(path, snapshot_every=8)
        rec.journal.close()
        assert rec.final_schedule() == svc.final_schedule()
        assert rec.metrics_snapshot() == svc.metrics_snapshot()


class TestTornTail:
    def test_dropped_bytes_counted_and_logged(self, tmp_path, stream, caplog):
        svc, path = run(tmp_path, stream, "torn")
        raw = path.read_bytes()
        cut = len(raw) - 37  # mid-record: a kill -9 during the last append
        path.write_bytes(raw[:cut])
        with caplog.at_level(logging.WARNING, logger="repro.service.journal"):
            rec = recover(path)
        rec.journal.close()
        counters = rec.observability_snapshot()["counters"]
        assert counters["journal.recovered_bytes_dropped"] > 0
        torn_lines = [
            r.getMessage() for r in caplog.records
            if r.getMessage().startswith("journal.torn_tail ")
        ]
        assert len(torn_lines) == 1
        payload = json.loads(torn_lines[0][len("journal.torn_tail "):])
        assert payload["dropped_bytes"] == counters["journal.recovered_bytes_dropped"]
        assert payload["path"].endswith("torn.jsonl")
        assert payload["kept_records"] > 0


class TestOperationalMetrics:
    def test_operational_instruments_stay_out_of_the_contract(self):
        m = Metrics()
        m.counter("deterministic").inc(3)
        m.counter("ops_only", operational=True).inc(7)
        m.gauge("depth", operational=True).set(2)
        assert "ops_only" not in m.snapshot()["counters"]
        assert "depth" not in m.snapshot()["gauges"]
        full = m.snapshot(operational=True)
        assert full["counters"]["ops_only"] == 7
        assert full["counters"]["deterministic"] == 3

    def test_state_restore_roundtrip(self):
        m = Metrics()
        m.counter("c").inc(5)
        m.gauge("g").set(1.5)
        h = m.histogram("h", (0.25, 1.0, 4.0))
        for v in (0.1, 0.5, 2.0, 8.0):
            h.observe(v)
        m.counter("ops", operational=True).inc(9)
        fresh = Metrics()
        fresh.restore(m.state())
        assert fresh.snapshot() == m.snapshot()
