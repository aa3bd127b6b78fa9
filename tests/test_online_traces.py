"""Tests for the request-stream generators of ``repro.service.loadgen``.

Every stream the online policies and the daemon consume comes from that
one module: the shared-stream profiles, the 24 h diurnal and spatial
burst traces, and the keyed streams.  Each is pinned draw for draw.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.geometry import Field, grid_deployment
from repro.online import BatchScheduler, compare_policies
from repro.service.loadgen import (
    PROFILES,
    burst_arrivals,
    diurnal_arrivals,
    generate_clustered_requests,
    generate_keyed_requests,
    generate_requests,
)
from repro.wpt import Charger, PowerLawTariff

FIELD = Field.square(300.0)
PINS = json.loads(
    (Path(__file__).parent / "fixtures" / "stream_pins.json").read_text()
)
CAPS = {"deadline_slack": 300.0, "max_price_factor": 1.2}
CENTERS = [(20, 20), (80, 80)]


def _stream(case, seed):
    """The stream a pin names; ``online_poisson`` is the Poisson stream
    on a 300 m field that the online benchmarks use."""
    name, _, caps = case.partition("+")
    terms = CAPS if caps else {}
    if name == "online_poisson":
        return generate_requests(30, rate=1 / 30.0, field=FIELD, rng=seed)
    if name == "diurnal_arrivals":
        return diurnal_arrivals(40, FIELD, rng=seed)
    if name == "burst_arrivals":
        return burst_arrivals(4, 10, FIELD, rng=seed)
    if name == "keyed":
        return generate_keyed_requests(40, 0.5, seed, **terms)
    if name == "clustered":
        return generate_clustered_requests(40, 0.5, seed, centers=CENTERS, **terms)
    return generate_requests(40, rate=0.5, profile=name, rng=seed, **terms)


def _digest(requests):
    rows = []
    for r in requests:
        d = r.device
        values = (
            r.submitted_at, d.position.x, d.position.y, d.demand,
            d.moving_rate, r.deadline, r.max_price,
        )
        rows.append(",".join("None" if v is None else float(v).hex() for v in values))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


class TestStreamPins:
    """sha256 over the float ``.hex()`` of (t, x, y, demand, moving_rate,
    deadline, max_price) per request: any change to a draw fails here.
    Re-pin only for an intended change to a stream, and say which."""

    @pytest.mark.parametrize("key", sorted(PINS))
    def test_stream_is_pinned(self, key):
        case, _, seed = key.rpartition("/")
        assert _digest(_stream(case, int(seed))) == PINS[key]

    @pytest.mark.parametrize("case", [
        "online_poisson", "diurnal_arrivals", "burst_arrivals",
        "burst", "keyed", "clustered",
    ])
    def test_ids_follow_submission_order(self, case):
        requests = _stream(case, 7)
        times = [r.submitted_at for r in requests]
        assert times == sorted(times)
        assert [r.request_id for r in requests] == [
            f"r{k:06d}" for k in range(len(requests))
        ]
        assert [r.device.device_id for r in requests] == [
            f"d{k:06d}" for k in range(len(requests))
        ]


class TestGenerateRequests:
    @pytest.mark.parametrize("profile", PROFILES)
    def test_empty_stream(self, profile):
        assert generate_requests(0, rate=0.5, profile=profile, rng=1) == []

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_requests(5, rate=1.0, profile="lunar")


class TestDiurnalArrivals:
    def test_count_ordering_and_bounds(self):
        requests = diurnal_arrivals(60, FIELD, rng=1)
        assert len(requests) == 60
        times = [r.submitted_at for r in requests]
        assert times == sorted(times)
        assert all(FIELD.contains(r.device.position) for r in requests)

    def test_seeded(self):
        a = diurnal_arrivals(20, FIELD, rng=5)
        b = diurnal_arrivals(20, FIELD, rng=5)
        assert [x.submitted_at for x in a] == [x.submitted_at for x in b]

    def test_peak_hours_are_busier_than_trough(self):
        # Size the trace to roughly one day so both the 2 am trough and the
        # 2 pm peak are visited, then compare same-width windows.
        requests = diurnal_arrivals(
            900, FIELD, peak_rate=0.02, trough_ratio=0.1, peak_hour=14.0, rng=0
        )
        assert requests[-1].submitted_at > 15 * 3600  # trace reaches past the peak

        def count_between(h_lo, h_hi):
            return sum(
                1 for r in requests if h_lo * 3600 <= r.submitted_at <= h_hi * 3600
            )

        assert count_between(12, 16) > 2 * count_between(0, 4)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            diurnal_arrivals(-1, FIELD)
        with pytest.raises(ConfigurationError):
            diurnal_arrivals(5, FIELD, peak_rate=0.0)
        with pytest.raises(ConfigurationError):
            diurnal_arrivals(5, FIELD, trough_ratio=0.0)


class TestBurstArrivals:
    def test_burst_structure(self):
        requests = burst_arrivals(3, 8, FIELD, burst_spacing=1000.0, rng=2)
        assert len(requests) == 24
        times = [r.submitted_at for r in requests]
        assert times == sorted(times)
        # Bursts are temporally separated: requests cluster near multiples
        # of the spacing.
        for r in requests:
            nearest_burst = round(r.submitted_at / 1000.0) * 1000.0
            assert abs(r.submitted_at - nearest_burst) < 400.0

    def test_bursts_are_spatially_clustered(self):
        requests = burst_arrivals(2, 10, FIELD, cluster_spread=0.02, rng=3)
        first = [r for r in requests if r.submitted_at < 2700.0]
        xs = [r.device.position.x for r in first]
        ys = [r.device.position.y for r in first]
        # Cluster diameter far below the field side.
        assert max(xs) - min(xs) < 100.0
        assert max(ys) - min(ys) < 100.0

    def test_zero_bursts(self):
        assert burst_arrivals(0, 5, FIELD) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            burst_arrivals(1, 0, FIELD)
        with pytest.raises(ConfigurationError):
            burst_arrivals(1, 3, FIELD, burst_spacing=0.0)

    def test_batching_near_clairvoyant_on_bursts(self):
        # Bursty demand is the batcher's best case: each burst fits one
        # window, so the online cost approaches the offline optimum.
        chargers = [
            Charger(
                f"c{j}", p,
                tariff=PowerLawTariff(base=30.0, unit=2e-3, exponent=0.9),
                efficiency=0.8, capacity=6,
            )
            for j, p in enumerate(grid_deployment(FIELD, 4))
        ]
        requests = burst_arrivals(4, 10, FIELD, rng=1)
        out = compare_policies(
            {"batch": BatchScheduler(window=300.0)}, requests, chargers
        )
        assert out["batch"].competitive_ratio < 1.1
