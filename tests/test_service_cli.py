"""Smoke tests for the ``ccs-serve`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import serve_main
from repro.faults import FaultEvent, FaultPlan
from repro.service import read_trace, write_trace
from repro.service.loadgen import generate_requests


class TestServeCli:
    def test_loadgen_run(self, capsys):
        assert serve_main(["--n", "20", "--rate", "0.5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "requests: 20" in out
        assert "0 full solves" in out

    def test_journal_metrics_and_recovery_check(self, tmp_path, capsys):
        journal = tmp_path / "service"
        metrics = tmp_path / "metrics.json"
        rc = serve_main(
            [
                "--n", "25", "--rate", "0.4", "--seed", "7",
                "--duration", "600",
                "--journal", str(journal),
                "--metrics-json", str(metrics),
                "--check-recovery",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "recovery check OK" in captured.err
        snap = json.loads(metrics.read_text())
        assert snap["counters"]["submitted"] == 25
        assert (journal / "shard-0000.jsonl").exists()
        assert (journal / "manifest.json").exists()

    def test_trace_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        requests = generate_requests(10, rate=0.5, rng=11)
        write_trace(trace, requests)
        assert [r.request_id for r in read_trace(trace)] == [
            r.request_id for r in requests
        ]
        assert serve_main(["--trace", str(trace)]) == 0
        assert "requests: 10" in capsys.readouterr().out

    def test_burst_and_diurnal_profiles(self, capsys):
        for profile in ("burst", "diurnal"):
            assert serve_main(
                ["--loadgen", profile, "--n", "10", "--rate", "0.5", "--seed", "2"]
            ) == 0
        assert "requests: 10" in capsys.readouterr().out

    def test_empty_burst_stream(self, capsys):
        assert serve_main(["--loadgen", "burst", "--n", "0"]) == 0
        assert "requests: 0" in capsys.readouterr().out

    def test_bad_stream_arguments_exit_2(self, capsys):
        # The generator's own checks, reported as one line, not a traceback.
        for argv, message in (
            (["--n", "-1"], "n must be nonnegative, got -1"),
            (["--rate", "0"], "arrival rate must be positive, got 0.0"),
        ):
            assert serve_main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"ccs-serve: {message}\n"

    @pytest.mark.parametrize("argv,plan", [
        (["--fault-plan", "{plan}"], {"events": [
            {"t": 0.0, "kind": "journal_write", "target": "x", "mode": "torn"}]}),
        (["--shards", "2", "--fault-plan", "{plan}"], {"events": [
            {"t": 5.0, "kind": "shard_kill", "target": "one"}]}),
        (["--fault-plan", "{plan}"], "{not json"),
        (["--fault-plan", "{plan}"], {"events": [{"t": 1.0, "kind": "cancel"}]}),
        (["--fault-plan", "{missing}"], None),
        (["--fault-plan", "seed:x"], None),
        (["--epoch", "0"], None),
        (["--window", "-1"], None),
        (["--queue-limit", "0"], None),
        (["--max-active", "0"], None),
        (["--halo", "-5", "--shards", "2"], None),
        (["--trace", "{missing}"], None),
        (["--trace", "{plan}"], "{garbled\n"),
        (["--seed", "-1"], None),
        (["--epoch", "nan"], None),
        (["--epoch", "inf"], None),
        (["--window", "nan"], None),
        (["--duration", "nan"], None),
        (["--duration", "inf"], None),
        (["--field", "nan"], None),
    ], ids=[
        "journal-seq-x", "shard-one", "not-json", "no-target", "missing-file",
        "seed-x", "epoch", "window", "queue-limit", "max-active", "halo",
        "trace-missing", "trace-garbled", "seed-negative", "epoch-nan",
        "epoch-inf", "window-nan", "duration-nan", "duration-inf", "field-nan",
    ])
    def test_bad_arguments_are_one_line_and_exit_2(self, tmp_path, capsys, argv, plan):
        # Each check lives where the value is used (the config, the plan,
        # the partition); the CLI reports whichever one fails.
        path = tmp_path / "plan.json"
        if plan is not None:
            path.write_text(plan if isinstance(plan, str) else json.dumps(plan))
        argv = [a.format(plan=path, missing=tmp_path / "missing.json") for a in argv]
        rc = serve_main(["--n", "10", "--journal", str(tmp_path / "svc"), *argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        assert err.startswith("ccs-serve: ") and err.count("\n") == 1

    def test_check_recovery_requires_journal(self, capsys):
        assert serve_main(["--check-recovery"]) == 2
        assert "--check-recovery requires --journal" in capsys.readouterr().err

    def test_entry_point_registered(self):
        import tomllib

        with open("pyproject.toml", "rb") as fh:
            cfg = tomllib.load(fh)
        assert cfg["project"]["scripts"]["ccs-serve"] == "repro.cli:serve_main"


class TestServeRecoveryCli:
    """``--snapshot-every`` / supervised chaos / ``--recover-only`` and the
    one-line structured error contract (exit 3, JSON on stderr)."""

    def _run(self, journal, extra=()):
        return serve_main(
            [
                "--n", "25", "--rate", "0.4", "--seed", "7",
                "--journal", str(journal),
                "--snapshot-every", "10",
                *extra,
            ]
        )

    def test_snapshot_run_then_recover_only(self, tmp_path, capsys):
        journal = tmp_path / "svc"
        assert self._run(journal, ["--check-recovery"]) == 0
        assert "recovery check OK" in capsys.readouterr().err
        assert list(journal.glob("shard-0000.jsonl.snap-*"))
        assert serve_main(["--journal", str(journal), "--recover-only"]) == 0
        assert "recovered:" in capsys.readouterr().out

    def test_recover_only_sharded(self, tmp_path, capsys):
        journal = tmp_path / "svc"
        rc = serve_main(
            [
                "--n", "25", "--rate", "0.4", "--seed", "7",
                "--shards", "4", "--journal", str(journal),
                "--snapshot-every", "10",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = serve_main(
            ["--shards", "4", "--journal", str(journal), "--recover-only"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "recovered:" in out

    def test_supervised_chaos_run_checks_out(self, tmp_path, capsys):
        journal = tmp_path / "svc"
        rc = serve_main(
            [
                "--n", "30", "--rate", "0.4", "--seed", "7",
                "--shards", "4", "--journal", str(journal),
                "--snapshot-every", "15",
                "--fault-plan", "seed:3",
                "--check-recovery",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "supervisor:" in captured.out
        assert "recovery check OK" in captured.err

    def test_corrupt_manifest_is_a_structured_error(self, tmp_path, capsys):
        journal = tmp_path / "svc"
        journal.mkdir()
        (journal / "manifest.json").write_text("{oops")
        rc = serve_main(
            ["--shards", "4", "--journal", str(journal), "--recover-only"]
        )
        err = capsys.readouterr().err.strip()
        assert rc == 3
        doc = json.loads(err.splitlines()[-1])
        assert doc["error"] == "RecoveryError"
        assert "manifest" in doc["message"]

    @pytest.mark.parametrize("defect", [
        lambda doc: doc.pop("shards"),
        lambda doc: doc.pop("n_shards"),
        lambda doc: doc.pop("field"),
        lambda doc: doc["shards"].update({"0": "c0"}),
        lambda doc: doc.update(halo="wide"),
        lambda doc: doc["shards"].update({"x": doc["shards"].pop("0")}),
        lambda doc: doc.update(n_shards=0),
        lambda doc: doc.update(n_shards=-4),
    ], ids=[
        "no-shards", "no-n-shards", "no-field", "shard-not-a-list",
        "halo-not-a-number", "shard-key-not-an-int", "zero-shards",
        "negative-shards",
    ])
    def test_malformed_manifest_is_a_structured_error(self, tmp_path, capsys, defect):
        journal = tmp_path / "svc"
        argv = ["--shards", "4", "--journal", str(journal)]
        assert serve_main(["--n", "10", *argv]) == 0
        manifest = journal / "manifest.json"
        doc = json.loads(manifest.read_text())
        defect(doc)
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        assert serve_main([*argv, "--recover-only"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        doc = json.loads(err)
        assert doc["error"] == "RecoveryError"
        assert "manifest" in doc["message"]

    def test_unrecoverable_journal_is_a_structured_error(self, tmp_path, capsys):
        journal = tmp_path / "svc"
        assert self._run(journal) == 0
        capsys.readouterr()
        # Compaction truncated the journal prefix; garbling every
        # snapshot leaves nothing to recover from.
        snaps = list(journal.glob("shard-0000.jsonl.snap-*"))
        assert len(snaps) >= 2
        for snap in snaps:
            snap.write_bytes(snap.read_bytes()[:20])
        rc = serve_main(["--journal", str(journal), "--recover-only"])
        err = capsys.readouterr().err.strip()
        assert rc == 3
        doc = json.loads(err.splitlines()[-1])
        assert doc["error"] == "RecoveryError"

    def test_file_where_the_journal_directory_belongs(self, tmp_path, capsys):
        # A single-file journal, as written before every run journaled
        # into a directory, is a typed error, not a traceback.
        journal = tmp_path / "one.jsonl"
        journal.write_text('{"data":{},"event":"open","seq":0}\n')
        rc = serve_main(
            ["--shards", "4", "--journal", str(journal), "--recover-only"]
        )
        err = capsys.readouterr().err.strip()
        assert rc == 3
        doc = json.loads(err.splitlines()[-1])
        assert doc["error"] == "RecoveryError"
        assert "not a journal directory" in doc["message"]
        assert "manifest.json" in doc["message"]

    def test_shard_kill_heals_a_single_shard(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        FaultPlan([
            FaultEvent(t=120.0, kind="shard_kill", target="0", mode="torn"),
            FaultEvent(t=240.0, kind="shard_kill", target="0"),
        ]).save(plan)
        rc = serve_main(
            [
                "--n", "30", "--rate", "0.4", "--seed", "7",
                "--journal", str(tmp_path / "svc"),
                "--fault-plan", str(plan),
                "--check-recovery",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "faults: 2 scheduled, 2 shard kills (1 torn)" in captured.out
        assert "0 escalations" in captured.out
        assert "recovery check OK" in captured.err

    def test_journal_faults_need_a_single_shard(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        FaultPlan([
            FaultEvent(t=0.0, kind="journal_write", target="5", mode="torn"),
        ]).save(plan)
        rc = serve_main(
            [
                "--n", "10", "--rate", "0.4", "--seed", "7", "--chargers", "8",
                "--shards", "4", "--journal", str(tmp_path / "svc"),
                "--fault-plan", str(plan),
            ]
        )
        assert rc == 2
        assert "journal_write faults are per-kernel" in capsys.readouterr().err

    def test_flag_validation(self, capsys):
        assert serve_main(["--recover-only"]) == 2
        assert "--recover-only requires --journal" in capsys.readouterr().err
        assert serve_main(["--snapshot-every", "0"]) == 2
        assert "--snapshot-every must be >= 1" in capsys.readouterr().err
        assert serve_main(["--snapshot-keep", "0"]) == 2
        assert "--snapshot-keep must be >= 1" in capsys.readouterr().err
