"""Crash-recovery tests: the journal is the daemon's flight recorder.

The contract under test (docs/SERVICE.md): killing the daemon at *any*
byte of the journal and recovering must yield a service whose journal,
metrics snapshot, and session schedule are byte-identical to an
uninterrupted run's — after the (idempotent) re-feed of the same input
stream.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import RecoveryError, ServiceError
from repro.geometry import Point
from repro.service import (
    ChargingService,
    Journal,
    ServiceConfig,
    generate_requests,
    record_checksum,
)
from repro.wpt import Charger

CHARGERS = [
    Charger(charger_id="c0", position=Point(25.0, 25.0)),
    Charger(charger_id="c1", position=Point(75.0, 75.0)),
]
CONFIG = ServiceConfig(epoch=60.0, window=120.0)


def run_uninterrupted(tmp_path, reqs, tag="full"):
    svc = ChargingService(CHARGERS, config=CONFIG, journal_path=tmp_path / f"{tag}.jsonl")
    for r in reqs:
        svc.submit(r)
    svc.advance(reqs[-1].submitted_at + 300.0)
    svc.drain()
    svc.journal.close()
    return svc, (tmp_path / f"{tag}.jsonl").read_bytes()


@pytest.fixture(scope="module")
def stream():
    return generate_requests(
        30, rate=0.25, deadline_slack=900.0, max_price_factor=1.3, rng=21
    )


class TestJournalFormat:
    def test_records_are_checksummed_and_dense(self, tmp_path, stream):
        _, raw = run_uninterrupted(tmp_path, stream)
        records, torn = Journal.read_records(tmp_path / "full.jsonl")
        assert not torn
        assert [r["seq"] for r in records] == list(range(len(records)))
        for r in records:
            assert r["sha"] == record_checksum(r["seq"], r["t"], r["event"], r["data"])
        assert records[0]["event"] == "open"
        assert records[-1]["event"] == "complete"

    def test_missing_file_reads_empty(self, tmp_path):
        records, torn = Journal.read_records(tmp_path / "nope.jsonl")
        assert (records, torn) == ([], False)

    def test_corrupt_checksum_truncates_prefix(self, tmp_path, stream):
        _, raw = run_uninterrupted(tmp_path, stream, tag="c")
        lines = raw.decode().splitlines(keepends=True)
        doc = json.loads(lines[4])
        doc["sha"] = "0" * 16
        lines[4] = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        (tmp_path / "c.jsonl").write_text("".join(lines))
        records, torn = Journal.read_records(tmp_path / "c.jsonl")
        assert torn
        assert len(records) == 4

    def test_closed_journal_refuses_appends(self, tmp_path):
        from repro.errors import JournalError

        j = Journal(tmp_path / "j.jsonl")
        j.append("open", 0.0, {})
        j.close()
        with pytest.raises(JournalError):
            j.append("submit", 1.0, {})


class TestRecovery:
    def test_recover_from_complete_journal(self, tmp_path, stream):
        svc, raw = run_uninterrupted(tmp_path, stream)
        rec = ChargingService.recover(tmp_path / "full.jsonl", CHARGERS, config=CONFIG)
        rec.journal.close()
        assert rec.final_schedule() == svc.final_schedule()
        assert rec.metrics_snapshot() == svc.metrics_snapshot()
        assert (tmp_path / "full.jsonl").read_bytes() == raw

    @pytest.mark.parametrize("where", ["early", "mid", "torn"])
    def test_truncated_journal_recovers_byte_identical(self, tmp_path, stream, where):
        # Three distinct kill points: after the first few records
        # ("early"), halfway through ("mid"), and mid-record — a torn
        # final line, as left by kill -9 during a write ("torn").
        svc, raw = run_uninterrupted(tmp_path, stream, tag=f"ref-{where}")
        lines = raw.decode().splitlines(keepends=True)
        if where == "early":
            damaged = "".join(lines[:3])
        elif where == "mid":
            damaged = "".join(lines[: len(lines) // 2])
        else:
            damaged = "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        path = tmp_path / f"crash-{where}.jsonl"
        path.write_text(damaged)

        rec = ChargingService.recover(path, CHARGERS, config=CONFIG)
        # Re-feed the full original stream: already-journaled submissions
        # are idempotent no-ops, the tail is processed fresh.
        for r in stream:
            rec.submit(r)
        rec.advance(stream[-1].submitted_at + 300.0)
        rec.drain()
        rec.journal.close()

        assert rec.final_schedule() == svc.final_schedule()
        assert rec.metrics_snapshot() == svc.metrics_snapshot()
        assert path.read_bytes() == raw

    def test_recovery_replays_advance_records(self, tmp_path):
        # Explicit clock advances trigger folds/departures; they must be
        # journaled inputs, or a recovered daemon would stall at the last
        # submission time.
        reqs = generate_requests(5, rate=0.5, rng=3)
        svc = ChargingService(CHARGERS, config=CONFIG, journal_path=tmp_path / "a.jsonl")
        for r in reqs:
            svc.submit(r)
        svc.advance(reqs[-1].submitted_at + 500.0)  # departs + completes
        svc.journal.close()
        assert len(svc.final_schedule()) > 0

        rec = ChargingService.recover(tmp_path / "a.jsonl", CHARGERS, config=CONFIG)
        rec.journal.close()
        assert rec.final_schedule() == svc.final_schedule()
        assert rec.clock.now == svc.clock.now

    def test_recover_of_a_missing_journal_is_a_typed_error(self, tmp_path):
        # A journal always exists once a service has opened it, so a
        # missing one means lost history, never an empty service.
        missing = tmp_path / "gone" / "svc.jsonl"
        with pytest.raises(RecoveryError) as info:
            ChargingService.recover(missing, CHARGERS, config=CONFIG)
        assert str(missing) in str(info.value)
        assert not missing.exists()
        assert list(tmp_path.iterdir()) == []

    def test_recover_rejects_mismatched_configuration(self, tmp_path, stream):
        run_uninterrupted(tmp_path, stream, tag="cfg")
        other = ServiceConfig(epoch=30.0, window=120.0)
        with pytest.raises(ServiceError):
            ChargingService.recover(tmp_path / "cfg.jsonl", CHARGERS, config=other)

    def test_recovered_daemon_keeps_serving(self, tmp_path, stream):
        svc, raw = run_uninterrupted(tmp_path, stream, tag="live")
        rec = ChargingService.recover(tmp_path / "live.jsonl", CHARGERS, config=CONFIG)
        extra = generate_requests(5, rate=0.5, rng=99)
        t0 = rec.clock.now
        for k, r in enumerate(extra):
            rec.submit(
                type(r)(
                    request_id=f"extra-{k}",
                    device=r.device,
                    submitted_at=t0 + 1.0 + r.submitted_at,
                )
            )
        rec.drain()
        rec.journal.close()
        counts = rec.counts()
        assert sum(counts.values()) == len(stream) + len(extra)
        assert counts["admitted"] == counts["grouped"] == counts["charging"] == 0
        assert len(rec.final_schedule()) > len(svc.final_schedule())
