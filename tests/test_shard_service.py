"""Facade tests: the sharded service behind the kernel-compatible API."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.geometry import Field, Point
from repro.service import ChargingService, ServiceConfig, generate_requests
from repro.shard import ShardedService, merge_final_schedules, shard_journal_name
from repro.shard.service import MANIFEST_NAME
from repro.wpt import Charger

FIELD = Field(100.0, 100.0)
CONFIG = ServiceConfig(epoch=60.0, window=120.0)


def make_chargers():
    return [
        Charger(charger_id="c0", position=Point(25.0, 25.0)),
        Charger(charger_id="c1", position=Point(75.0, 25.0)),
        Charger(charger_id="c2", position=Point(25.0, 75.0)),
        Charger(charger_id="c3", position=Point(75.0, 75.0)),
    ]


def make_stream(n=24, seed=11):
    return generate_requests(
        n, rate=0.2, deadline_slack=900.0, max_price_factor=1.3, rng=seed
    )


def run_service(tmp_path=None, n_shards=4, stream=None, halo=0.0):
    stream = stream if stream is not None else make_stream()
    svc = ShardedService(
        make_chargers(), n_shards=n_shards, field=FIELD, halo=halo,
        config=CONFIG,
        journal_dir=None if tmp_path is None else tmp_path / "journals",
        journal_sync=False,
    )
    for r in stream:
        svc.submit(r)
    svc.advance(stream[-1].submitted_at + 300.0)
    svc.drain()
    return svc, stream


class TestFacadeBasics:
    def test_one_kernel_per_charger_owning_cell(self):
        svc, _ = run_service()
        assert sorted(svc.kernels) == [0, 1, 2, 3]
        for sid, kernel in svc.kernels.items():
            assert isinstance(kernel, ChargingService)
            assert [c.charger_id for c in svc.shard_chargers[sid]] == [f"c{sid}"]

    def test_empty_cells_get_no_kernel(self):
        chargers = [Charger(charger_id="c0", position=Point(25.0, 25.0))]
        svc = ShardedService(chargers, n_shards=4, field=FIELD, config=CONFIG)
        assert sorted(svc.kernels) == [0]

    def test_no_chargers_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedService([], n_shards=2, field=FIELD)

    def test_counts_conserve_the_stream(self):
        svc, stream = run_service()
        counts = svc.counts()
        assert sum(counts.values()) == len(stream)
        # Fully drained: nothing left in a live state.
        assert counts.get("admitted", 0) == counts.get("grouped", 0) == 0
        assert counts.get("charging", 0) == 0

    def test_request_state_and_unknown_request(self):
        svc, stream = run_service()
        assert isinstance(svc.request_state(stream[0].request_id), str)
        with pytest.raises(KeyError):
            svc.request_state("nope")
        assert svc.cancel("nope") is None

    def test_unknown_charger_raises(self):
        svc, _ = run_service()
        with pytest.raises(ServiceError):
            svc.fail_charger("ghost")

    def test_submit_is_idempotent_through_the_router(self):
        svc, stream = run_service()
        before = svc.counts()
        svc.submit(stream[0])  # re-feed: sticky route, kernel no-ops
        assert svc.counts() == before


class TestMergedViews:
    def test_schedule_is_sorted_and_tagged(self):
        svc, _ = run_service()
        schedule = svc.final_schedule()
        assert schedule
        assert all("shard" in s for s in schedule)
        keys = [(s["departed"], s["shard"], s["seq"]) for s in schedule]
        assert keys == sorted(keys)

    def test_merge_final_schedules_is_deterministic(self):
        svc, _ = run_service()
        per_shard = {
            sid: kernel.final_schedule() for sid, kernel in svc.kernels.items()
        }
        reversed_order = dict(sorted(per_shard.items(), reverse=True))
        assert merge_final_schedules(per_shard) == (
            merge_final_schedules(reversed_order)
        )

    def test_metrics_counters_sum_over_shards(self):
        svc, _ = run_service()
        merged = svc.metrics_snapshot()
        by_shard = [k.metrics_snapshot() for _, k in sorted(svc.kernels.items())]
        for name, total in merged["counters"].items():
            assert total == sum(s["counters"].get(name, 0) for s in by_shard)
        # Gauges are per-shard labeled, never summed.
        for name, labels in merged["gauges"].items():
            assert set(labels) <= {f"shard-{sid:04d}" for sid in svc.kernels}


class TestDurability:
    def test_manifest_written_and_versioned(self, tmp_path):
        svc, _ = run_service(tmp_path)
        doc = json.loads((tmp_path / "journals" / MANIFEST_NAME).read_text())
        assert doc["schema"] == 1
        assert doc["n_shards"] == 4
        assert doc["shards"] == {
            "0": ["c0"], "1": ["c1"], "2": ["c2"], "3": ["c3"]
        }

    def test_recover_matches_the_dead_service(self, tmp_path):
        svc, _ = run_service(tmp_path)
        svc.close()
        rec = ShardedService.recover(
            tmp_path / "journals", make_chargers(), config=CONFIG,
            journal_sync=False,
        )
        rec.close()
        assert rec.final_schedule() == svc.final_schedule()
        assert rec.metrics_snapshot() == svc.metrics_snapshot()
        assert rec.counts() == svc.counts()
        assert rec.router.assignment == svc.router.assignment

    def test_recovered_service_keeps_serving(self, tmp_path):
        svc, stream = run_service(tmp_path)
        svc.close()
        rec = ShardedService.recover(
            tmp_path / "journals", make_chargers(), config=CONFIG,
            journal_sync=False,
        )
        extra = make_stream(n=5, seed=77)
        t0 = max(k.clock.now for k in rec.kernels.values())
        for k, r in enumerate(extra):
            rec.submit(
                type(r)(
                    request_id=f"extra-{k}",
                    device=r.device,
                    submitted_at=t0 + 1.0 + r.submitted_at,
                )
            )
        rec.drain()
        rec.close()
        assert sum(rec.counts().values()) == len(stream) + len(extra)

    def test_recover_rejects_unknown_manifest_schema(self, tmp_path):
        svc, _ = run_service(tmp_path)
        svc.close()
        path = tmp_path / "journals" / MANIFEST_NAME
        doc = json.loads(path.read_text())
        doc["schema"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ServiceError):
            ShardedService.recover(tmp_path / "journals", make_chargers(),
                                   config=CONFIG)

    def test_recover_rejects_missing_chargers(self, tmp_path):
        svc, _ = run_service(tmp_path)
        svc.close()
        with pytest.raises(ServiceError):
            ShardedService.recover(
                tmp_path / "journals", make_chargers()[:2], config=CONFIG
            )

    def test_journal_less_shard_cannot_recover(self):
        svc, _ = run_service(tmp_path=None)
        with pytest.raises(ServiceError):
            svc.recover_shard(0)

    def test_journal_files_one_per_kernel(self, tmp_path):
        svc, _ = run_service(tmp_path)
        svc.close()
        names = sorted(p.name for p in (tmp_path / "journals").iterdir())
        assert names == [MANIFEST_NAME] + [shard_journal_name(s) for s in range(4)]
