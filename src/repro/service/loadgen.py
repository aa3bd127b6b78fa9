"""Synthetic request streams for driving (and benchmarking) the daemon.

Three arrival profiles, all seeded and fully deterministic:

- ``poisson`` — memoryless arrivals at a constant rate, the standard
  open-loop service workload;
- ``burst`` — a low background rate punctuated by periodic bursts in
  which a clump of requests lands within a few seconds (a convoy of
  devices returning from a mission leg together);
- ``diurnal`` — a sinusoidally modulated rate (thinned from a Poisson
  majorant), modelling a day/night duty cycle.

A generated stream is a list of :class:`~repro.service.request.ChargingRequest`
with strictly ordered ids; :func:`write_trace` / :func:`read_trace`
round-trip streams through JSONL files (one ``ChargingRequest.to_dict``
per line) so the CLI can replay a recorded trace instead of generating.

Two further generators exist for the sharded service (docs/SHARDING.md):

- :func:`generate_keyed_requests` draws every attribute of request *k*
  from its own :func:`~repro.rng.derive_seed`-keyed stream, so the
  request is a pure function of ``(seed, k)`` — any subset of the stream
  (e.g. the requests a spatial shard sees) is independent of how the rest
  of the stream is consumed;
- :func:`generate_clustered_requests` places keyed requests in tight
  clusters around given centers — the spatially partitionable workload
  the shard-stability regression tests drive.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..core import Device
from ..energy import uniform_demands
from ..errors import ConfigurationError
from ..geometry import Field, Point, uniform_deployment
from ..rng import RandomState, derive_seed, ensure_rng
from .request import ChargingRequest

__all__ = [
    "PROFILES",
    "generate_requests",
    "generate_keyed_requests",
    "generate_clustered_requests",
    "write_trace",
    "read_trace",
]

#: Supported arrival profiles, in CLI/help order.
PROFILES = ("poisson", "burst", "diurnal")


def _arrival_times(
    profile: str, n: int, rate: float, rng, burst_every: float, burst_size: int
) -> List[float]:
    if profile == "poisson":
        return list(rng.exponential(1.0 / rate, size=n).cumsum())
    if profile == "burst":
        # Background Poisson at rate/2, plus clumps of ``burst_size``
        # requests every ``burst_every`` seconds, each clump spread over
        # a few seconds.  Take the n earliest of the merged stream.
        times: List[float] = []
        t = 0.0
        while len(times) < n:
            t += float(rng.exponential(2.0 / rate))
            times.append(t)
        horizon = times[-1]
        k = 1
        while (k * burst_every) <= horizon and len(times) < 4 * n:
            base = k * burst_every
            times.extend(base + float(d) for d in rng.exponential(1.0, size=burst_size))
            k += 1
        return sorted(times)[:n]
    if profile == "diurnal":
        # Thin a Poisson majorant at ``rate`` down to a sinusoid with a
        # 1-hour period: lambda(t) = rate * (0.55 + 0.45 sin(2 pi t / 3600)).
        times = []
        t = 0.0
        while len(times) < n:
            t += float(rng.exponential(1.0 / rate))
            accept = 0.55 + 0.45 * math.sin(2.0 * math.pi * t / 3600.0)
            if rng.uniform() < accept:
                times.append(t)
        return times
    raise ConfigurationError(
        f"unknown load profile {profile!r}; expected one of {PROFILES}"
    )


def generate_requests(
    n: int,
    rate: float,
    field: Optional[Field] = None,
    profile: str = "poisson",
    demand_low: float = 10e3,
    demand_high: float = 40e3,
    moving_rate: float = 0.05,
    deadline_slack: Optional[float] = None,
    max_price_factor: Optional[float] = None,
    burst_every: float = 600.0,
    burst_size: int = 8,
    rng: RandomState = None,
) -> List[ChargingRequest]:
    """Generate *n* requests under the given arrival *profile*.

    Positions are uniform over *field* (default 100 m x 100 m) and demands
    uniform over ``[demand_low, demand_high]`` joules.  When
    ``deadline_slack`` is set, each request carries a deadline
    ``submitted_at + slack`` seconds out (jittered +-25%); when
    ``max_price_factor`` is set, each carries a price cap of
    ``factor x demand^0.8`` — matched to the default power-law tariff's
    curvature, so factors near 1.2 leave a deliberate unaffordable tail
    that exercises ``price`` rejections.
    """
    if n < 0:
        raise ConfigurationError(f"n must be nonnegative, got {n}")
    if rate <= 0:
        raise ConfigurationError(f"arrival rate must be positive, got {rate}")
    gen = ensure_rng(rng)
    field = field if field is not None else Field(100.0, 100.0)
    times = _arrival_times(profile, n, rate, gen, burst_every, burst_size)
    positions = uniform_deployment(field, n, gen)
    demands = uniform_demands(n, demand_low, demand_high, gen)
    requests: List[ChargingRequest] = []
    for k, (t, p, d) in enumerate(zip(times, positions, demands)):
        deadline = None
        if deadline_slack is not None:
            deadline = float(t) + deadline_slack * float(gen.uniform(0.75, 1.25))
        max_price = None
        if max_price_factor is not None:
            max_price = max_price_factor * d ** 0.8
        requests.append(
            ChargingRequest(
                request_id=f"r{k:06d}",
                device=Device(
                    device_id=f"d{k:06d}",
                    position=p,
                    demand=d,
                    moving_rate=moving_rate,
                ),
                submitted_at=float(t),
                deadline=deadline,
                max_price=max_price,
            )
        )
    return requests


def _keyed_request(
    k: int,
    seed: int,
    t: float,
    position: Point,
    demand_low: float,
    demand_high: float,
    moving_rate: float,
    deadline_slack: Optional[float],
    max_price_factor: Optional[float],
) -> ChargingRequest:
    """Build request *k* from its own ``derive_seed(seed, "request", k)`` stream."""
    gen = ensure_rng(derive_seed(seed, "request", k))
    demand = float(gen.uniform(demand_low, demand_high))
    deadline = None
    if deadline_slack is not None:
        deadline = float(t) + deadline_slack * float(gen.uniform(0.75, 1.25))
    max_price = None
    if max_price_factor is not None:
        max_price = max_price_factor * demand ** 0.8
    return ChargingRequest(
        request_id=f"r{k:06d}",
        device=Device(
            device_id=f"d{k:06d}",
            position=position,
            demand=demand,
            moving_rate=moving_rate,
        ),
        submitted_at=float(t),
        deadline=deadline,
        max_price=max_price,
    )


def _keyed_arrival_times(n: int, rate: float, seed: int) -> List[float]:
    """Poisson arrivals whose *k*-th gap comes from its own keyed stream.

    ``t_k`` is a pure function of ``(seed, k)`` — a deterministic sum of
    per-index gaps — so extending the stream never moves earlier arrivals.
    """
    times: List[float] = []
    t = 0.0
    for k in range(n):
        gap_rng = ensure_rng(derive_seed(seed, "arrival", k))
        t += float(gap_rng.exponential(1.0 / rate))
        times.append(t)
    return times


def generate_keyed_requests(
    n: int,
    rate: float,
    seed: int,
    field: Optional[Field] = None,
    demand_low: float = 10e3,
    demand_high: float = 40e3,
    moving_rate: float = 0.05,
    deadline_slack: Optional[float] = None,
    max_price_factor: Optional[float] = None,
) -> List[ChargingRequest]:
    """Generate *n* Poisson requests with per-request keyed randomness.

    Unlike :func:`generate_requests`, which draws every attribute from one
    shared stream (so consuming the stream differently changes everything
    downstream), request *k* here is a pure function of ``(seed, k)``:
    its gap comes from ``derive_seed(seed, "arrival", k)`` and its
    position/demand/deadline from ``derive_seed(seed, "request", k)``.
    Any subset of the stream — e.g. the requests one spatial shard sees —
    is therefore independent of how the rest is generated or consumed,
    which is what the shard-count stability tests rely on.
    """
    if n < 0:
        raise ConfigurationError(f"n must be nonnegative, got {n}")
    if rate <= 0:
        raise ConfigurationError(f"arrival rate must be positive, got {rate}")
    field = field if field is not None else Field(100.0, 100.0)
    times = _keyed_arrival_times(n, rate, seed)
    requests: List[ChargingRequest] = []
    for k, t in enumerate(times):
        pos_rng = ensure_rng(derive_seed(seed, "position", k))
        position = Point(
            float(pos_rng.uniform(0.0, field.width)),
            float(pos_rng.uniform(0.0, field.height)),
        )
        requests.append(
            _keyed_request(
                k, seed, t, position, demand_low, demand_high,
                moving_rate, deadline_slack, max_price_factor,
            )
        )
    return requests


def generate_clustered_requests(
    n: int,
    rate: float,
    seed: int,
    centers: Sequence[Union[Point, Tuple[float, float]]],
    radius: float = 10.0,
    field: Optional[Field] = None,
    demand_low: float = 10e3,
    demand_high: float = 40e3,
    moving_rate: float = 0.05,
    deadline_slack: Optional[float] = None,
    max_price_factor: Optional[float] = None,
) -> List[ChargingRequest]:
    """Keyed requests clustered tightly around *centers*.

    Request *k* belongs to cluster ``k % len(centers)`` and lands uniformly
    in the disc of *radius* around that center (clamped to *field*), with
    all other attributes drawn exactly as :func:`generate_keyed_requests`
    does.  Because both the cluster assignment and the in-disc jitter are
    pure functions of ``(seed, k, centers)``, the workload decomposes
    cleanly under any spatial partition whose cells contain whole clusters
    — the shape the 2→4 shard-stability regression test needs.
    """
    if n < 0:
        raise ConfigurationError(f"n must be nonnegative, got {n}")
    if rate <= 0:
        raise ConfigurationError(f"arrival rate must be positive, got {rate}")
    if not centers:
        raise ConfigurationError("clustered workload needs at least one center")
    if radius <= 0:
        raise ConfigurationError(f"cluster radius must be positive, got {radius}")
    field = field if field is not None else Field(100.0, 100.0)
    points = [c if isinstance(c, Point) else Point(float(c[0]), float(c[1])) for c in centers]
    times = _keyed_arrival_times(n, rate, seed)
    requests: List[ChargingRequest] = []
    for k, t in enumerate(times):
        center = points[k % len(points)]
        pos_rng = ensure_rng(derive_seed(seed, "position", k))
        # Uniform over the disc: radius ~ sqrt(u), angle ~ uniform.
        r = radius * math.sqrt(float(pos_rng.uniform()))
        theta = float(pos_rng.uniform(0.0, 2.0 * math.pi))
        position = Point(
            min(max(center.x + r * math.cos(theta), 0.0), field.width),
            min(max(center.y + r * math.sin(theta), 0.0), field.height),
        )
        requests.append(
            _keyed_request(
                k, seed, t, position, demand_low, demand_high,
                moving_rate, deadline_slack, max_price_factor,
            )
        )
    return requests


def write_trace(path: Union[str, Path], requests: List[ChargingRequest]) -> None:
    """Write a request stream as JSONL (one ``to_dict`` per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # ccs-lint: ignore[CCS005] -- an input trace for a later run, not
    # service state: nothing recovers from it, so it needs no storage.
    with open(path, "w", encoding="utf-8") as fh:
        for request in requests:
            fh.write(json.dumps(request.to_dict(), sort_keys=True) + "\n")


def read_trace(path: Union[str, Path]) -> List[ChargingRequest]:
    """Read a JSONL request trace written by :func:`write_trace`."""
    requests: List[ChargingRequest] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                requests.append(ChargingRequest.from_dict(json.loads(line)))
    return requests
