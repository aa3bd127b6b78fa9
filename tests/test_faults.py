"""The fault-injection layer itself: plans, faulty journals, executors.

Three contracts under test:

1. **Fault plans are data**: seed-generated plans are deterministic,
   JSON round-trippable, and validated on construction.
2. **Journal failure semantics** (see ``docs/FAULTS.md``): a failed
   append never leaves a half-written record behind a success path —
   a clean ``OSError`` truncates back and raises the typed
   :class:`~repro.errors.JournalWriteError` without consuming ``seq``;
   a torn write leaves garbage that ``Journal.read`` drops as an
   invalid tail.
3. **Executor failure semantics**: one task failing (exception, worker
   crash, or hang) never takes down the run — every other task
   completes and is cached, retries stay within budget, and terminal
   failures surface as one typed :class:`~repro.errors.TaskFailedError`
   carrying the partial results.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.errors import (
    ConfigurationError,
    InjectedFaultError,
    JournalWriteError,
    TaskFailedError,
)
from repro.experiments.exec import ParallelExecutor, ResultCache, SerialExecutor, Task
from repro.faults import FaultEvent, FaultPlan, FaultyExecutor, FaultyStorage
from repro.service.journal import Journal
from repro.service.loadgen import generate_requests


class TestFaultEvent:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(t=1.0, kind="meteor_strike", target="c0")

    def test_rejects_negative_and_nonfinite_times(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(t=-1.0, kind="charger_down", target="c0")
        with pytest.raises(ConfigurationError):
            FaultEvent(t=float("nan"), kind="charger_down", target="c0")

    def test_journal_write_requires_a_mode(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(t=0.0, kind="journal_write", target="5")
        with pytest.raises(ConfigurationError):
            FaultEvent(t=0.0, kind="journal_write", target="5", mode="sharknado")
        FaultEvent(t=0.0, kind="journal_write", target="5", mode="torn")

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(t=0.0, kind="worker_crash", target="0", count=0)

    def test_index_targets_must_be_decimal_integers(self):
        # Journal seqs, task indices and shard ids are read back with
        # int(); a target that cannot be one fails here, not mid-run.
        for kind, mode in (("journal_write", "torn"), ("worker_crash", None),
                           ("shard_kill", None), ("snapshot_corrupt", None),
                           ("crash_in_snapshot", None), ("recovery_crash", None)):
            for target in ("x", "one", "-1", "1.5", " 2", "", "\u0663"):
                with pytest.raises(ConfigurationError, match="target"):
                    FaultEvent(t=0.0, kind=kind, target=target, mode=mode)
            FaultEvent(t=0.0, kind=kind, target="07", mode=mode)


class TestFaultPlan:
    def test_events_are_time_sorted(self):
        plan = FaultPlan([
            FaultEvent(t=9.0, kind="charger_up", target="c0"),
            FaultEvent(t=3.0, kind="charger_down", target="c0"),
        ])
        assert [e.t for e in plan] == [3.0, 9.0]

    def test_generation_is_deterministic(self):
        kwargs = dict(charger_ids=["c0", "c1", "c2"], journal_faults=3, n_tasks=8)
        a = FaultPlan.generate(42, **kwargs)
        b = FaultPlan.generate(42, **kwargs)
        c = FaultPlan.generate(43, **kwargs)
        assert a == b
        assert a != c

    def test_round_trips_through_dict_and_file(self, tmp_path):
        plan = FaultPlan.generate(7, charger_ids=["c0", "c1"], journal_faults=2,
                                  n_tasks=4)
        assert FaultPlan.from_dict(plan.to_dict()) == plan
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.load(path) == plan

    @pytest.mark.parametrize("doc", [
        {"events": [{"t": 0.0, "kind": "cancel"}]},
        {"events": [{"t": "soon", "kind": "cancel", "target": "r1"}]},
        {"events": [{"t": 0.0, "kind": "worker_crash", "target": "1", "count": "x"}]},
        {"events": [{"t": 0.0, "kind": "shard_kill", "target": "one"}]},
        {"events": [7]},
        {"events": 7},
        [],
    ])
    def test_malformed_documents_are_configuration_errors(self, doc):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_dict(doc)

    def test_unreadable_files_are_configuration_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            FaultPlan.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="cannot read"):
            FaultPlan.load(bad)
        bad.write_bytes(b"\xff\xfe")
        with pytest.raises(ConfigurationError, match="cannot read"):
            FaultPlan.load(bad)

    def test_views_partition_by_consumer(self):
        plan = FaultPlan([
            FaultEvent(t=5.0, kind="charger_down", target="c0"),
            FaultEvent(t=0.0, kind="journal_write", target="3", mode="torn"),
            FaultEvent(t=0.0, kind="worker_crash", target="2", count=2),
            FaultEvent(t=8.0, kind="cancel", target="r1"),
        ])
        assert [e.kind for e in plan.kernel_events()] == ["charger_down", "cancel"]
        assert plan.journal_faults() == {3: "torn"}
        assert plan.worker_crashes() == {2: 2}

    def test_generation_leaves_one_charger_standing(self):
        plan = FaultPlan.generate(
            1, charger_ids=["c0", "c1", "c2"], outage_prob=1.0, journal_faults=0
        )
        downed = {e.target for e in plan if e.kind == "charger_down"}
        assert len(downed) <= 2


def _plan_digest(plan: FaultPlan) -> str:
    return hashlib.sha256(
        json.dumps(plan.to_dict(), sort_keys=True).encode("utf-8")
    ).hexdigest()


class TestPlanDigests:
    """Generated plans are pinned byte for byte: the deployed-daemon
    benchmark builds its timelines with ``FaultPlan.generate``, so any
    refactor of the draws must reproduce every plan exactly."""

    REQUESTS = generate_requests(40, rate=0.05, rng=3)
    CHARGERS = [f"c{i}" for i in range(6)]

    @pytest.mark.parametrize("seed,generate,keyed,supervised", [
        (0, "86d4b63cc4002a9fd3a015c299b17d1afed2e97d19ae65188850d7fe2b5b2117",
         "f23179625de9b99fe1979d00d6183fa2994d88d601f80b0b8513bacbde9b12b2",
         "9f75e539125bbea429e7a2803db84dadb259014b1b3cb0f08c00d09a2bbc5ec4"),
        (7, "05a35f5dd490a9379e707f4d9006e85c88bfb6834cbe83b6fd0d845d23604ad4",
         "628c043626e9dcf297865d295e8e7c4d958b24fa03b16ca58796ef3016f4a65c",
         "d9e8c356d32650bc73d0e35413c7583ee4d55ef4a2c9b4660750940b2f57c950"),
        (13, "b39351314d00794a948bd43ae1303f5c9f9f3865e2fa3bb87a3941286d6eaffa",
         "a7a945a6f767304255448c3e7fdcd3f46df1e3ee10a26ad8dea6fd3d5c956530",
         "d8d97d28ca39ffc143d4df6caced89fad2556a7a567df32b2fdf14f179a3baa5"),
    ])
    def test_generated_plans_are_pinned(self, seed, generate, keyed, supervised):
        assert _plan_digest(FaultPlan.generate(
            seed, charger_ids=self.CHARGERS, requests=self.REQUESTS,
            journal_faults=3, n_tasks=5,
        )) == generate
        assert _plan_digest(FaultPlan.generate_keyed(
            seed, charger_ids=self.CHARGERS, requests=self.REQUESTS,
        )) == keyed
        assert _plan_digest(FaultPlan.generate(
            seed, n_shards=4, horizon=900.0, journal_faults=0,
        )) == supervised


class TestCliPlanPins:
    """``ccs-serve --fault-plan seed:K`` assembles its plan in
    ``cli._load_fault_plan``: one journal fault at one shard, the shard
    chaos mix at more.  Each plan is pinned byte for byte."""

    @pytest.mark.parametrize("seed,n_shards,digest", [
        (3, 1, "825ca1d4fde3edcb53ca50fde7ad2f6818e4540aa76843b332a260c22e7d5ab9"),
        (3, 4, "6a09a85eced50858227ae862bb59b7babb15c437fa1faf7945c833e227d253ff"),
        (13, 1, "4061efc3a3375cd44476ce3b2b8a4b6f7551bee527241ef3281749ef8310f5c5"),
        (13, 4, "1465482aadb1ad49c6e302d1f9f3e2cc3a480434cdfff92cba8bd0c88159338f"),
    ])
    def test_seeded_cli_plans_are_pinned(self, seed, n_shards, digest):
        from repro.cli import _grid_chargers, _load_fault_plan

        plan = _load_fault_plan(
            f"seed:{seed}", generate_requests(150, rate=0.5, rng=7),
            _grid_chargers(8, 100.0), n_shards,
        )
        assert _plan_digest(plan) == digest
        kinds = {e.kind for e in plan}
        assert ("journal_write" in kinds) == (n_shards == 1)
        assert bool(kinds & {"shard_kill", "crash_in_snapshot"}) == (n_shards > 1)


class TestJournalSync:
    def test_sync_flag_controls_fsync(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        with Journal(tmp_path / "a.journal", sync=True) as j:
            j.append("open", 0.0, {})
            j.append("submit", 1.0, {"id": "r1"})
        synced = len(calls)
        with Journal(tmp_path / "b.journal", sync=False) as j:
            j.append("open", 0.0, {})
            j.append("submit", 1.0, {"id": "r1"})
        assert synced == 2 and len(calls) == 2

    def test_failed_append_truncates_and_does_not_consume_seq(self, tmp_path):
        path = tmp_path / "svc.journal"
        storage = FaultyStorage(fail_at={1: "enospc"})
        journal = Journal(path, sync=False, storage=storage)
        journal.append("open", 0.0, {})
        with pytest.raises(JournalWriteError):
            journal.append("submit", 1.0, {"id": "r1"})
        # The journal on disk is still a valid one-record prefix...
        records, torn, *_ = Journal.read(path)
        assert [r["event"] for r in records] == ["open"] and not torn
        # ...and the retry reuses the same seq and succeeds.
        assert journal.seq == 1
        assert journal.append("submit", 1.0, {"id": "r1"}) == 1
        records, torn, *_ = Journal.read(path)
        assert [r["event"] for r in records] == ["open", "submit"] and not torn
        assert storage.fired == [(1, "enospc")] and storage.fail_at == {}
        journal.close()

    def test_torn_write_leaves_an_invalid_tail(self, tmp_path):
        path = tmp_path / "svc.journal"
        journal = Journal(path, sync=False, storage=FaultyStorage(fail_at={1: "torn"}))
        journal.append("open", 0.0, {})
        with pytest.raises(InjectedFaultError):
            journal.append("submit", 1.0, {"id": "r1"})
        # Half a record reached disk — the "process" is gone, no cleanup.
        raw = path.read_bytes()
        assert not raw.endswith(b"\n")
        records, torn, *_ = Journal.read(path)
        assert [r["event"] for r in records] == ["open"]
        assert torn
        journal.close()

    def test_closed_after_broken_restore_fails_loudly(self, tmp_path):
        from repro.errors import JournalError

        path = tmp_path / "svc.journal"
        journal = Journal(path)

        def explode(line):
            raise OSError("disk on fire")

        journal._write = explode
        journal._restore = lambda offset: setattr(journal, "_fh", None)
        with pytest.raises(JournalWriteError):
            journal.append("open", 0.0, {})
        with pytest.raises(JournalError):
            journal.append("open", 0.0, {})


def _tasks(kind, n, params=None, seed=5):
    return [Task(kind=kind, params=dict(params or {}), seed=seed, trial=t)
            for t in range(n)]


class TestExecutorFailureIsolation:
    def test_serial_executor_stays_fail_fast(self):
        tasks = _tasks("repro.faults.tasks:raise", 1)
        with pytest.raises(ValueError):
            SerialExecutor().run(tasks)

    def test_one_bad_task_does_not_abort_the_others(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks("repro.faults.tasks:echo", 4)
        tasks[2] = Task(kind="repro.faults.tasks:raise", params={}, seed=5, trial=2)
        pool = ParallelExecutor(jobs=2, cache=cache, retries=1)
        with pytest.raises(TaskFailedError) as exc_info:
            pool.run(tasks)
        err = exc_info.value
        assert set(err.failures) == {2}
        assert isinstance(err.failures[2], ValueError)
        # Partial results: every other task completed and was cached.
        assert [r is not None for r in err.results] == [True, True, False, True]
        assert pool.computed == 3
        hit, value = cache.load(tasks[0])
        assert hit and value == err.results[0]

    def test_retry_budget_is_respected(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        params = {"marker_dir": str(marker), "fail_attempts": 2}
        tasks = _tasks("repro.faults.tasks:raise", 2, params)
        # Two failures then success needs three attempts: retries=2 is enough.
        results = ParallelExecutor(jobs=2, retries=2).run(tasks)
        assert [r["attempts"] for r in results] == [3, 3]

    def test_exhausted_retries_surface_the_last_error(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        params = {"marker_dir": str(marker), "fail_attempts": 5}
        tasks = _tasks("repro.faults.tasks:raise", 1, params)
        with pytest.raises(TaskFailedError) as exc_info:
            ParallelExecutor(jobs=1, retries=1).run(tasks)
        assert isinstance(exc_info.value.failures[0], ValueError)
        # retries=1 means exactly two attempts were made.
        counter = marker / "attempts-raise-5-0"
        assert counter.read_text() == "2"

    def test_error_message_names_the_failed_tasks(self):
        tasks = _tasks("repro.faults.tasks:raise", 2)
        with pytest.raises(TaskFailedError) as exc_info:
            ParallelExecutor(jobs=2, retries=0).run(tasks)
        message = str(exc_info.value)
        assert "2 task(s) failed terminally" in message
        assert "task 0" in message and "task 1" in message

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=0)
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=1, retries=-1)
        with pytest.raises(ValueError):
            ParallelExecutor(jobs=1, task_timeout=0.0)


class TestWorkerCrashes:
    def test_crashed_worker_does_not_take_down_the_run(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        tasks = _tasks("repro.faults.tasks:echo", 4)
        tasks[1] = Task(
            kind="repro.faults.tasks:crash",
            params={"marker_dir": str(marker), "crash_attempts": 1},
            seed=5, trial=1,
        )
        results = ParallelExecutor(jobs=2, retries=2).run(tasks)
        assert results[1]["attempts"] == 2
        assert all(r is not None for r in results)

    def test_crash_beyond_budget_is_terminal_but_isolated(self, tmp_path):
        from concurrent.futures.process import BrokenProcessPool

        marker = tmp_path / "markers"
        marker.mkdir()
        cache = ResultCache(tmp_path / "cache")
        tasks = _tasks("repro.faults.tasks:echo", 4)
        tasks[0] = Task(
            kind="repro.faults.tasks:crash",
            params={"marker_dir": str(marker), "crash_attempts": 10},
            seed=5, trial=0,
        )
        pool = ParallelExecutor(jobs=2, cache=cache, retries=1)
        with pytest.raises(TaskFailedError) as exc_info:
            pool.run(tasks)
        err = exc_info.value
        assert set(err.failures) == {0}
        assert isinstance(err.failures[0], BrokenProcessPool)
        assert [r is not None for r in err.results] == [False, True, True, True]
        hit, _ = cache.load(tasks[3])
        assert hit

    def test_faulty_executor_injects_crashes_under_real_tasks(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        tasks = _tasks("repro.faults.tasks:echo", 3)
        pool = FaultyExecutor(
            jobs=2, crashes={1: 1}, marker_dir=str(marker), retries=2
        )
        results = pool.run(tasks)
        serial = SerialExecutor().run(tasks)
        assert results == serial
        assert (marker / f"attempts-{tasks[1].fingerprint}").read_text() == "2"

    def test_faulty_executor_requires_marker_dir(self):
        with pytest.raises(ValueError):
            FaultyExecutor(jobs=1, crashes={0: 1})

    def test_hung_task_is_terminated_and_retried(self, tmp_path):
        marker = tmp_path / "markers"
        marker.mkdir()
        tasks = [Task(
            kind="repro.faults.tasks:hang",
            params={"marker_dir": str(marker), "hang_attempts": 1,
                    "hang_seconds": 600.0},
            seed=5, trial=0,
        )]
        results = ParallelExecutor(jobs=1, retries=1, task_timeout=0.5).run(tasks)
        assert results[0]["attempts"] == 2
