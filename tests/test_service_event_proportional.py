"""Event-proportional kernel: boundary skipping and one fsync per input.

The epoch machine jumps straight to the next boundary that can do work
(see ``ChargingService._next_wake``).  These tests hold it to the old
step-every-boundary machine — kept here, as a reference subclass, never
in the library — byte for byte, bound the work a huge clock jump costs,
and count the journal's fsync barriers.
"""

from __future__ import annotations

import json
import os
import random
import stat
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.core import Device
from repro.geometry import Point
from repro.service import ChargingRequest, ChargingService, ServiceConfig
from repro.service.journal import Journal
from repro.service.snapshot import list_snapshots
from repro.wpt import Charger

_EPS = 1e-9


class SteppingService(ChargingService):
    """Reference epoch machine: processes every boundary, work or not."""

    def _advance_to(self, to):
        t = max(float(to), self.clock.now)
        while (self._epoch_index + 1) * self.config.epoch <= t + _EPS:
            boundary = (self._epoch_index + 1) * self.config.epoch
            self._run_epoch(boundary)
            self._epoch_index += 1
        self._process_completions(t)
        self.clock.advance(t)
        self._update_gauges()


def make_chargers():
    return [
        Charger(charger_id="c0", position=Point(20.0, 20.0), capacity=3),
        Charger(charger_id="c1", position=Point(80.0, 80.0), capacity=3),
        Charger(charger_id="c2", position=Point(80.0, 20.0)),
    ]


def request(rid, t, device="d0", x=10.0, y=10.0, demand=20e3, deadline=None):
    return ChargingRequest(
        request_id=rid,
        device=Device(device_id=device, position=Point(x, y), demand=demand),
        submitted_at=t,
        deadline=deadline,
    )


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def live_devices(service):
    """The device-in-service index, recounted from scratch."""
    counts = {}
    rids = service._queue + service._evacuating + list(service._rid_of_index.values())
    for rid in rids:
        device = service.requests[rid].request.device.device_id
        counts[device] = counts.get(device, 0) + 1
    return counts


# --------------------------------------------------------------------- #
# random input streams with large time gaps

def random_ops(seed, n, window):
    """A seeded input stream: bursts, long idle gaps, tight deadlines,
    cancels of recent requests, charger outages and recoveries.

    Times are in epochs; *window* (in epochs) keeps most deadlines
    admissible so plan and evacuation expiries happen.
    """
    rng = random.Random(seed)

    def gap():
        u = rng.random()
        if u < 0.5:
            return rng.uniform(0.0, 1.0)
        if u < 0.8:
            return rng.uniform(1.0, 5.0)
        return rng.uniform(10.0, 200.0)

    ops = []
    for _ in range(n):
        u = rng.random()
        if u < 0.55:
            slack = None if rng.random() < 0.4 else window + rng.uniform(0.5, 4.0)
            ops.append((
                "submit", gap() if rng.random() < 0.6 else 0.0,
                rng.randrange(8),  # device id: repeats exercise duplicates
                rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0),
                rng.uniform(1e3, 60e3), slack,
            ))
        elif u < 0.7:
            ops.append(("advance", gap()))
        elif u < 0.75:
            ops.append(("back", rng.uniform(0.0, 5.0)))
        elif u < 0.85:
            ops.append(("cancel", rng.randrange(4)))
        elif u < 0.91:
            ops.append(("fail", rng.randrange(3)))
        elif u < 0.98:
            ops.append(("restore", rng.randrange(3)))
        else:
            ops.append(("drain",))
    return ops


def feed(service, ops, epoch):
    """Apply *ops*; returns each input's answer and the state after it,
    and checks the device index against a recount after every input."""
    answers = []
    now = 0.0
    rids = []
    for op in ops:
        kind = op[0]
        if kind == "submit":
            _k, gap, device, x, y, demand, slack = op
            now += gap * epoch
            rid = f"r{len(rids)}"
            rids.append(rid)
            deadline = None if slack is None else now + slack * epoch
            answers.append(service.submit(
                request(rid, now, f"d{device}", x, y, demand, deadline)
            ))
        elif kind == "advance":
            now += op[1] * epoch
            answers.append(service.advance(now))
        elif kind == "back":
            answers.append(service.advance(now - op[1] * epoch))
        elif kind == "cancel":
            if rids:  # one of the most recent requests
                rid = rids[max(0, len(rids) - 1 - op[1])]
                answers.append(service.cancel(rid, at=now))
        elif kind == "fail":
            answers.append(service.fail_charger(f"c{op[1]}", at=now))
        elif kind == "restore":
            answers.append(service.restore_charger(f"c{op[1]}", at=now))
        else:
            answers.append(service.drain())
        now = max(now, service.clock.now)
        assert service._live_devices == live_devices(service)
        answers.append(canonical(service.state()))
    return answers


class TestSkippingMatchesStepping:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=hst.integers(min_value=0, max_value=2**32 - 1),
        n=hst.integers(min_value=1, max_value=60),
        epoch=hst.sampled_from([60.0, 7.3, 0.1]),
        window=hst.sampled_from([0.5, 1.0, 2.0, 3.7]),
        drain=hst.booleans(),
    )
    def test_identical_journal_metrics_schedule_and_state(
        self, seed, n, epoch, window, drain
    ):
        ops = random_ops(seed, n, window)
        config = ServiceConfig(epoch=epoch, window=window * epoch)
        with tempfile.TemporaryDirectory() as tmp:
            outs = []
            for cls in (ChargingService, SteppingService):
                path = Path(tmp) / f"{cls.__name__}.jsonl"
                service = cls(
                    make_chargers(), config=config, journal_path=path,
                    journal_sync=False,
                )
                answers = feed(service, ops + ([("drain",)] if drain else []), epoch)
                service.journal.close()
                outs.append((
                    answers,
                    path.read_bytes(),
                    canonical(service.metrics_snapshot()),
                    canonical(service.final_schedule()),
                    canonical(service.state()),
                ))
            skipping, stepping = outs
            assert skipping[0] == stepping[0]
            assert skipping[1] == stepping[1]
            assert skipping[2] == stepping[2]
            assert skipping[3] == stepping[3]
            assert skipping[4] == stepping[4]

    @pytest.mark.parametrize(
        "ops",
        [
            # A cancel kills a planned singleton between boundaries: its
            # window commitment is forgotten at the very next boundary,
            # long before the window would have elapsed.
            [("submit", 0.02, 0, 10.0, 10.0, 20e3, None), ("advance", 1.0),
             ("cancel", 0), ("advance", 1.5)],
            # An outage with nothing planned only dirties availability;
            # the next boundary's fold clears the flag.
            [("fail", 0), ("advance", 1.5)],
        ],
    )
    def test_scripted_wake_reasons(self, ops):
        config = ServiceConfig(epoch=60.0, window=3.7 * 60.0)
        runs = []
        for cls in (ChargingService, SteppingService):
            runs.append(feed(cls(make_chargers(), config=config), ops, 60.0))
        assert runs[0] == runs[1]

    def test_restored_index_is_rederived(self, tmp_path):
        service = ChargingService(make_chargers(), journal_path=tmp_path / "j.jsonl")
        service.submit(request("a", 1.0, "d0"))
        service.submit(request("b", 2.0, "d1", x=90.0, y=90.0))
        service.advance(70.0)
        service.submit(request("c", 71.0, "d2"))
        fresh = ChargingService(make_chargers())
        fresh._restore_state(json.loads(canonical(service.state())))
        assert fresh._live_devices == {"d0": 1, "d1": 1, "d2": 1}
        assert canonical(fresh.state()) == canonical(service.state())


class TestOperationCount:
    def test_huge_advance_runs_a_handful_of_boundaries(self):
        service = ChargingService(make_chargers())
        calls = []
        run_epoch = service._run_epoch
        service._run_epoch = lambda boundary: (calls.append(boundary), run_epoch(boundary))
        service.submit(request("a", 1.0))
        service.advance(1e9)
        assert len(calls) <= 10
        assert service.request_state("a") == "done"
        assert service._epoch_index == int(1e9 // service.config.epoch)

    def test_idle_kernel_skips_to_the_target(self):
        service = ChargingService(make_chargers())
        calls = []
        service._run_epoch = calls.append
        service.advance(1e9)
        assert calls == []
        assert service.clock.now == 1e9


# --------------------------------------------------------------------- #
# fsync barriers


class FsyncLog:
    """Records every ``os.fsync`` as ``"file"`` or ``"dir"``."""

    def __init__(self, monkeypatch):
        self.calls = []
        real = os.fsync

        def fsync(fd):
            kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
            self.calls.append(kind)
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)

    def take(self):
        calls, self.calls = self.calls, []
        return calls


class TestOneFsyncPerInput:
    def test_each_journaled_input_fsyncs_once(self, tmp_path, monkeypatch):
        log = FsyncLog(monkeypatch)
        service = ChargingService(make_chargers(), journal_path=tmp_path / "j.jsonl")
        assert log.take() == ["file"]  # the bare ``open`` append

        seq = service.journal.seq
        service.submit(request("a", 1.0))
        assert service.journal.seq - seq >= 2  # submit + admit
        assert log.take() == ["file"]
        service.submit(request("b", 2.0, "d1", x=90.0, y=90.0))
        assert log.take() == ["file"]

        seq = service.journal.seq
        service.advance(500.0)  # several boundaries: plan, depart, complete
        assert service.journal.seq - seq > 3
        assert log.take() == ["file"]

        assert service.fail_charger("c2", at=510.0) is True
        assert log.take() == ["file"]
        assert service.restore_charger("c2", at=520.0) is True
        assert log.take() == ["file"]
        service.submit(request("c", 530.0, "d2"))
        assert service.cancel("c", at=531.0) == "cancelled"
        assert log.take() == ["file", "file"]
        service.submit(request("d", 540.0, "d3"))
        log.take()
        service.drain()
        assert log.take() == ["file"]

    def test_snapshot_waits_for_the_records_it_covers(self, tmp_path, monkeypatch):
        path = tmp_path / "j.jsonl"
        service = ChargingService(
            make_chargers(), journal_path=path, snapshot_every=4, compact=False
        )
        inodes = []
        real = os.fsync

        def fsync(fd):
            inodes.append(os.fstat(fd).st_ino)
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        service.submit(request("a", 1.0))
        service.submit(request("b", 2.0, "d1", x=90.0, y=90.0))  # snapshot due
        journal = path.stat().st_ino
        (_seq, snap), = list_snapshots(path)
        # First submit's barrier; then the second's, taken before the
        # snapshot file is written; then the snapshot file and its
        # directory (a durable rename), and none after it.
        assert inodes == [
            journal, journal, snap.stat().st_ino, path.parent.stat().st_ino
        ]
        assert service.metrics.counter("snapshots_written", operational=True).value == 1

    def test_no_op_inputs_take_no_fsync(self, tmp_path, monkeypatch):
        service = ChargingService(make_chargers(), journal_path=tmp_path / "j.jsonl")
        service.submit(request("a", 1.0))
        service.advance(100.0)
        service.drain()
        log = FsyncLog(monkeypatch)
        service.submit(request("a", 1.0))  # resubmit
        service.advance(50.0)  # backward
        service.drain()  # second drain
        assert service.cancel("a") == "done"  # past the point of no return
        assert service.cancel("nope") is None
        assert log.take() == []

    def test_no_fsync_without_sync(self, tmp_path, monkeypatch):
        log = FsyncLog(monkeypatch)
        service = ChargingService(
            make_chargers(), journal_path=tmp_path / "j.jsonl", journal_sync=False
        )
        service.submit(request("a", 1.0))
        service.drain()
        assert log.take() == []

    def test_bare_appends_still_fsync_each(self, tmp_path, monkeypatch):
        log = FsyncLog(monkeypatch)
        journal = Journal(tmp_path / "j.jsonl", sync=True)
        journal.append("open", 0.0, {})
        journal.append("submit", 1.0, {})
        assert log.take() == ["file", "file"]
        with journal.batch():
            journal.append("advance", 2.0, {})
            with journal.batch():
                journal.append("advance", 3.0, {})
            assert log.take() == []
        assert log.take() == ["file"]
        with pytest.raises(RuntimeError):
            with journal.batch():
                journal.append("advance", 4.0, {})
                raise RuntimeError("input died")
        assert log.take() == []
        journal.close()


class TestRecoveryFsync:
    def _history(self, path, snapshot):
        service = ChargingService(
            make_chargers(), journal_path=path, journal_sync=False
        )
        for k in range(12):
            service.submit(request(f"r{k}", 10.0 * k + 1.0, f"d{k}"))
            if snapshot and k == 7:
                service.write_snapshot()
        service.advance(400.0)
        service.journal.close()
        return service

    @pytest.mark.parametrize("snapshot", [False, True])
    def test_replay_journal_fsynced_once_then_renamed_durably(
        self, tmp_path, monkeypatch, snapshot
    ):
        # Recovery works in place: the replay is checked against the
        # journal it reads, which it neither renames nor rewrites, and one
        # fsync makes the recovered journal durable.
        path = tmp_path / "j.jsonl"
        live = self._history(path, snapshot)
        raw = path.read_bytes()
        log = FsyncLog(monkeypatch)
        real_replace = os.replace

        def replace(src, dst):
            log.calls.append("replace")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        recovered = ChargingService.recover(path, make_chargers(), journal_sync=True)
        assert log.take() == ["file"]
        assert recovered.journal.path == path
        assert path.read_bytes() == raw
        assert canonical(recovered.state()) == canonical(live.state())
        used = recovered.metrics.counter("recovery.snapshot_used", operational=True)
        assert used.value == (1 if snapshot else 0)
        recovered.journal.close()
