"""The storage seam: every durable file operation goes through ``repro.io``.

Two contracts:

- **A fresh journal starts a new history.**  Opening a service journal
  at a path deletes the snapshots an older history left beside it, so
  recovery never restores one history's state over another's journal —
  neither loudly (a CLI run on a used journal directory) nor silently.
- **The storage sees everything.**  A recording storage that wraps the
  POSIX one, driven through serving, auto-snapshots, compaction, a kill
  with a torn tail and supervised recovery, saw every file the journal
  directory ends up holding being created, and every fsync, rename and
  unlink the run made — in the order the fsync suites pin
  (``test_service_event_proportional.py``, ``test_io.py``).
"""

from __future__ import annotations

import os
import stat
from pathlib import Path

from repro.cli import serve_main
from repro.faults import FaultPlan, merge_timeline
from repro.geometry import Field, Point
from repro.io import POSIX
from repro.service import (
    ChargingService,
    ServiceConfig,
    generate_requests,
    list_snapshots,
)
from repro.shard import ShardedService, ShardSupervisor
from repro.wpt import Charger

CHARGERS = [
    Charger(charger_id="c0", position=Point(25.0, 25.0)),
    Charger(charger_id="c1", position=Point(75.0, 75.0)),
]
CONFIG = ServiceConfig(epoch=60.0, window=120.0)

#: What each storage operation asks of the operating system.
INPUT = ["file"]  # one journal fsync barrier per input
PUBLISH = ["file", "replace", "dir"]  # a durable rename


def stream(seed, n=30):
    return generate_requests(
        n, rate=0.25, deadline_slack=900.0, max_price_factor=1.3, rng=seed
    )


def serve(path, requests, **kw):
    svc = ChargingService(
        CHARGERS, config=CONFIG, journal_path=path, journal_sync=False, **kw
    )
    for r in requests:
        svc.submit(r)
    svc.drain()
    svc.journal.close()
    return svc


# --------------------------------------------------------------------- #
# a fresh journal starts a new history


class TestFreshJournal:
    def test_snapshots_of_an_older_history_do_not_outrank_a_new_run(
        self, tmp_path
    ):
        path = tmp_path / "svc.jsonl"
        serve(path, stream(33), snapshot_every=40)
        assert list_snapshots(path)
        (path.parent / (path.name + ".snap-0000000007.tmp")).write_bytes(b"{")
        live = serve(path, stream(34))
        rec = ChargingService.recover(path, CHARGERS, config=CONFIG, journal_sync=False)
        rec.journal.close()
        assert rec.final_schedule() == live.final_schedule()
        assert rec.metrics_snapshot() == live.metrics_snapshot()
        assert rec.metrics.counter("recovery.snapshot_used", operational=True).value == 0
        assert os.listdir(tmp_path) == ["svc.jsonl"]

    def test_cli_rerun_on_a_used_journal_directory(self, tmp_path, capsys):
        journal = str(tmp_path / "journal")
        base = ["--rate", "0.5", "--journal", journal, "--snapshot-every", "40"]
        assert serve_main(["--n", "300", "--seed", "7", *base]) == 0
        capsys.readouterr()
        rc = serve_main(["--n", "20", "--seed", "8", "--check-recovery", *base])
        assert rc == 0, capsys.readouterr().err
        assert "recovery check OK" in capsys.readouterr().err

    def test_removal_is_durable_only_when_something_was_removed(
        self, tmp_path, monkeypatch
    ):
        calls = []
        real = os.fsync

        def fsync(fd):
            calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        path = tmp_path / "svc.jsonl"
        ChargingService(CHARGERS, journal_path=path).journal.close()
        assert calls == ["file"]
        (tmp_path / "svc.jsonl.snap-0000000040").write_bytes(b"{}")
        calls.clear()
        ChargingService(CHARGERS, journal_path=path).journal.close()
        assert calls == ["dir", "file"]


# --------------------------------------------------------------------- #
# a recording storage


class RecordingStorage:
    """Wraps a storage and logs every operation asked of it.

    :attr:`log` holds ``(operation, path)`` pairs; :attr:`os_calls` the
    fsyncs (``"file"`` / ``"dir"``), renames and unlinks each operation
    implies, in order — what the operating system should see.
    """

    def __init__(self, inner=POSIX):
        self.inner = inner
        self.log = []
        self.os_calls = []

    def open_append(self, path, truncate):
        self.log.append(("open_append", Path(path)))
        return self.inner.open_append(path, truncate)

    def append(self, fh, data):
        self.log.append(("append", Path(fh.name)))
        self.inner.append(fh, data)

    def barrier(self, fh):
        self.log.append(("barrier", Path(fh.name)))
        self.os_calls.extend(INPUT)
        self.inner.barrier(fh)

    def truncate(self, fh, size):
        self.log.append(("truncate", Path(fh.name)))
        self.inner.truncate(fh, size)

    def publish(self, path, chunks=None, tmp=None, durable=True):
        self.log.append(("publish", Path(path)))
        self.os_calls.extend(PUBLISH if durable else ["replace"])
        self.inner.publish(path, chunks, tmp=tmp, durable=durable)

    def read(self, path):
        self.log.append(("read", Path(path)))
        return self.inner.read(path)

    def listdir(self, directory):
        self.log.append(("listdir", Path(directory)))
        return self.inner.listdir(directory)

    def remove(self, paths, durable=False):
        paths = list(paths)
        self.log.extend(("remove", Path(p)) for p in paths)
        removed = self.inner.remove(paths, durable)
        self.os_calls.extend(["unlink"] * removed + (["dir"] if durable and removed else []))
        return removed


def os_log(monkeypatch):
    """Every real ``os.fsync`` (``"file"``/``"dir"``), rename and unlink."""
    calls = []
    real_fsync, real_replace, real_unlink = os.fsync, os.replace, os.unlink

    def fsync(fd):
        calls.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    def unlink(path, *args, **kwargs):
        calls.append("unlink")
        real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(os, "unlink", unlink)
    return calls


class TestRecordingStorage:
    def test_one_shard_life_goes_through_the_storage(self, tmp_path, monkeypatch):
        calls = os_log(monkeypatch)
        storage = RecordingStorage()
        service_cls = type("RecordedService", (ShardedService,), {"storage": storage})
        journal_dir = tmp_path / "svc"
        svc = service_cls(
            CHARGERS, n_shards=1, field=Field(100.0, 100.0), config=CONFIG,
            journal_dir=journal_dir, snapshot_every=12,
        )
        sup = ShardSupervisor(svc, seed=3)
        (kernel,) = svc.kernels.values()
        requests = stream(35, n=40)
        timeline = merge_timeline(requests, FaultPlan([]))

        def phase(run):
            """The OS calls and storage operations *run* caused."""
            c, s = len(storage.os_calls), len(storage.log)
            run()
            return storage.os_calls[c:], storage.log[s:]

        # Serving: one barrier per input; an input that snapshots
        # publishes after its barrier (the snapshot covers its records),
        # then prunes, then publishes the compacted journal.
        compacted = 0
        for item in timeline[:30]:
            made, ops = phase(lambda: sup.apply(item))
            published = [p.name for op, p in ops if op == "publish"]
            if not published:
                assert made == INPUT
            elif len(published) == 1:
                assert made == INPUT + PUBLISH
                assert published[0].startswith("shard-0000.jsonl.snap-")
            else:
                assert made[:4] == INPUT + PUBLISH and made[-3:] == PUBLISH
                assert set(made[4:-3]) <= {"unlink"}
                assert published[1] == "shard-0000.jsonl"
                compacted += 1
        assert compacted >= 1 and kernel.journal.base_seq > 0

        # Kill with a torn tail, then supervised recovery: the tail is cut
        # through the storage; the replay journal is one input, fsynced
        # once by its durable publish over the journal.
        path = kernel.journal.path
        made, ops = phase(lambda: sup.kill_shard(0, torn=True))
        assert ops[:2] == [("open_append", path), ("truncate", path)]
        commit = ops.index(("publish", path))
        assert ("open_append", path.with_name(path.name + ".recover")) in ops[:commit]
        assert not [op for op in ops[:commit] if op[0] == "barrier"]
        assert made[:3] == PUBLISH and made.count("replace") == made.count("dir")
        assert sup.stats["recoveries"] == 1

        for item in timeline[30:]:
            sup.apply(item)
        sup.call("drain")
        sup.close()
        svc.close()

        # Everything the OS saw came through the storage, in order ...
        assert calls == storage.os_calls
        # ... and every file left in the directory was created by it.
        created = {p for op, p in storage.log if op in ("open_append", "publish")}
        files = {journal_dir / name for name in os.listdir(journal_dir)}
        assert files <= created
        assert {p.name for p in files} >= {
            "manifest.json", "shard-0000.jsonl", "supervisor.jsonl",
        }
