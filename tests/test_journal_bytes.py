"""The on-disk format, pinned: journals, snapshots and manifests byte for byte.

``tests/fixtures/journal_v1/`` is the journal directory of one supervised
chaos run, generated with::

    ccs-serve --n 80 --rate 0.5 --seed 7 --chargers 8 --shards 2 \
        --snapshot-every 20 --fault-plan seed:13 --journal journal_v1

(shard kills, snapshot corruption and crash-looping recoveries on top of
charger outages and cancellations).  A fresh run must reproduce every
file of it byte for byte — same ``sha`` values, same schemas — and
recovering it must reproduce the fault-free outcome.  Compaction is a
byte-range copy: it reads no record back as JSON.
"""

from __future__ import annotations

import json
import os
import shutil
import stat
from pathlib import Path

import pytest

from repro.cli import _grid_chargers, _load_fault_plan, serve_main
from repro.faults import FaultPlan, drive
from repro.faults.plan import SUPERVISOR_KINDS
from repro.geometry import Field
from repro.service import Journal, ServiceConfig, generate_requests
from repro.shard import ShardedService

FIXTURE = Path(__file__).parent / "fixtures" / "journal_v1"
ARGS = [
    "--n", "80", "--rate", "0.5", "--seed", "7", "--chargers", "8",
    "--shards", "2", "--snapshot-every", "20", "--fault-plan", "seed:13",
]


def files(root: Path):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def fault_free():
    """Schedule and metrics of the same inputs with no shard chaos."""
    requests = generate_requests(80, rate=0.5, field=Field(100.0, 100.0), rng=7)
    chargers = _grid_chargers(8, 100.0)
    plan = _load_fault_plan("seed:13", requests, chargers, n_shards=2)
    plan = FaultPlan([
        e for e in plan.events
        if e.kind not in SUPERVISOR_KINDS and e.kind != "recovery_crash"
    ])
    service = ShardedService(
        chargers, n_shards=2, field=Field(100.0, 100.0), config=ServiceConfig(),
    )
    drive(service, requests, plan)
    return canonical(service.final_schedule()), canonical(service.metrics_snapshot())


class TestJournalV1Fixture:
    def test_fresh_run_reproduces_every_file(self, tmp_path, fault_free):
        out = tmp_path / "journal_v1"
        metrics = tmp_path / "metrics.json"
        rc = serve_main(ARGS + ["--journal", str(out), "--metrics-json", str(metrics)])
        assert rc == 0
        want, got = files(FIXTURE), files(out)
        assert sorted(got) == sorted(want)
        for name in want:
            assert got[name] == want[name], name
        assert canonical(json.loads(metrics.read_text())) == fault_free[1]

    def test_recovering_the_fixture_reproduces_the_fault_free_run(
        self, tmp_path, fault_free
    ):
        copy = tmp_path / "journal_v1"
        shutil.copytree(FIXTURE, copy)
        service = ShardedService.recover(
            copy, _grid_chargers(8, 100.0), config=ServiceConfig(),
            snapshot_every=20,
        )
        try:
            got = (
                canonical(service.final_schedule()),
                canonical(service.metrics_snapshot()),
            )
        finally:
            service.close()
        assert got == fault_free


class TestDurableManifest:
    def build(self, journal_dir):
        return ShardedService(
            _grid_chargers(8, 100.0), n_shards=2, field=Field(100.0, 100.0),
            config=ServiceConfig(), journal_dir=journal_dir, journal_sync=False,
        )

    def test_manifest_is_a_durable_rename(self, tmp_path, monkeypatch):
        log = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            log.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        def replace(src, dst):
            log.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        out = tmp_path / "svc"
        self.build(out).close()
        assert log == ["file", "replace", "dir"]
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "shard-0000.jsonl", "shard-0001.jsonl",
        ]
        assert (out / "manifest.json").read_bytes() == (
            FIXTURE / "manifest.json"
        ).read_bytes()

    def test_recovery_never_rewrites_the_manifest(self, tmp_path, monkeypatch):
        out = tmp_path / "svc"
        self.build(out).close()

        def refuse(_self):
            raise AssertionError("recovery must not write the manifest")

        monkeypatch.setattr(ShardedService, "_write_manifest", refuse)
        ShardedService.recover(
            out, _grid_chargers(8, 100.0), config=ServiceConfig(),
            journal_sync=False,
        ).close()


def journal_with_records(path, n):
    journal = Journal(path, sync=False)
    for k in range(n):
        journal.append("submit", float(k), {"id": f"r{k}", "x": k * 0.5})
    return journal


class TestByteRangeCompaction:
    @pytest.fixture
    def no_json_reads(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("compaction must not read records back")

        monkeypatch.setattr(Journal, "read", staticmethod(refuse))
        monkeypatch.setattr(json, "loads", refuse)

    def test_copies_the_kept_bytes_without_parsing(self, tmp_path, no_json_reads):
        path = tmp_path / "j.jsonl"
        journal = journal_with_records(path, 10)
        before = path.read_bytes()
        cut = len(b"".join(before.splitlines(keepends=True)[:6]))

        assert journal.truncate_prefix(6) == 6
        assert path.read_bytes() == before[cut:]
        journal.append("drain", 10.0, {})
        journal.close()

        json_loads = json.JSONDecoder().decode
        lines = path.read_bytes().splitlines()
        assert [json_loads(line.decode())["seq"] for line in lines] == list(range(6, 11))

    def test_keeps_the_last_record_and_counts_from_the_new_base(self, tmp_path, no_json_reads):
        path = tmp_path / "j.jsonl"
        journal = journal_with_records(path, 6)
        assert journal.truncate_prefix(4) == 4
        assert journal.truncate_prefix(5) == 1  # counted from base seq 4
        assert journal.truncate_prefix(99) == 0  # the last record always stays
        assert journal.truncate_prefix(3) == 0
        journal.close()
        assert len(path.read_bytes().splitlines()) == 1

    def test_result_reads_back_as_a_compacted_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = journal_with_records(path, 8)
        assert journal.truncate_prefix(5) == 5
        journal.close()
        read = Journal.read(path)
        assert not read.torn and read.base_seq == 5
        assert [r["seq"] for r in read.records] == [5, 6, 7]

    def test_compaction_is_a_durable_rename(self, tmp_path, monkeypatch):
        path = tmp_path / "j.jsonl"
        journal = journal_with_records(path, 5)
        log = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            log.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file")
            real_fsync(fd)

        def replace(src, dst):
            log.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        assert journal.truncate_prefix(3) == 3
        assert log == ["file", "replace", "dir"]
        journal.close()
