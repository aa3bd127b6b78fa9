"""Seeded request streams: the one home of every request generator.

Each stream is a list of :class:`~repro.service.request.ChargingRequest`
sorted by ``submitted_at``, ids ``r000000, ...`` (devices ``d000000,
...``) in that order, with an optional deadline (``deadline_slack``) and
price cap (``max_price_factor``) set by one request builder.
:func:`write_trace` / :func:`read_trace` round-trip streams through JSONL
files (one ``ChargingRequest.to_dict`` per line) so the CLI can replay a
recorded trace instead of generating.

Two families, each with its own draw-order contract:

- **Shared stream** — one generator seeded by ``rng`` feeds every draw.
  :func:`generate_requests` (profiles ``poisson``, ``burst``: a low
  background rate plus periodic clumps, and ``diurnal``: a 1 h sinusoid)
  and :func:`diurnal_arrivals` (a 24 h day/night profile) draw all
  arrival times first, then every x, every y, every demand, then one
  deadline jitter per request in id order.  :func:`burst_arrivals`
  (spatial bursts) draws the burst centres, then per burst its demands
  and per device a time jitter, x and y.  Consuming the stream
  differently changes everything downstream.
- **Keyed** — :func:`generate_keyed_requests` and
  :func:`generate_clustered_requests` draw request *k*'s gap from
  ``derive_seed(seed, "arrival", k)``, its position from
  ``derive_seed(seed, "position", k)`` and its demand, then deadline
  jitter, from ``derive_seed(seed, "request", k)``.  Request *k* is a
  pure function of ``(seed, k)``, so any subset of the stream (the
  requests one spatial shard sees) is independent of how the rest is
  generated or consumed, and prefixes are stable under extension
  (docs/SHARDING.md).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from ..core import Device
from ..energy import uniform_demands
from ..errors import ConfigurationError
from ..geometry import Field, Point, uniform_deployment
from ..rng import RandomState, derive_seed, ensure_rng
from .request import ChargingRequest

__all__ = [
    "PROFILES",
    "generate_requests",
    "diurnal_arrivals",
    "burst_arrivals",
    "generate_keyed_requests",
    "generate_clustered_requests",
    "write_trace",
    "read_trace",
]

#: Supported arrival profiles, in CLI/help order.
PROFILES = ("poisson", "burst", "diurnal")

_DAY = 86_400.0


def _check_stream(n: int, rate: float, what: str = "arrival rate") -> None:
    if n < 0:
        raise ConfigurationError(f"n must be nonnegative, got {n}")
    if rate <= 0:
        raise ConfigurationError(f"{what} must be positive, got {rate}")


def _thinned_times(
    n: int, majorant: float, accept: Callable[[float, float], bool], rng
) -> List[float]:
    """Lewis–Shedler thinning: exponential gaps at the *majorant* rate,
    each candidate ``t`` kept when ``accept(t, u)`` for a fresh uniform
    ``u``, until *n* are kept."""
    times: List[float] = []
    t = 0.0
    while len(times) < n:
        t += float(rng.exponential(1.0 / majorant))
        if accept(t, rng.uniform()):
            times.append(t)
    return times


def _request(
    k: int, t: float, position: Point, demand: float, moving_rate: float,
    deadline_slack: Optional[float], max_price_factor: Optional[float], rng,
) -> ChargingRequest:
    """Request *k*; a deadline draws its ``±25%`` jitter from *rng*."""
    deadline = None
    if deadline_slack is not None:
        deadline = float(t) + deadline_slack * float(rng.uniform(0.75, 1.25))
    max_price = None if max_price_factor is None else max_price_factor * demand ** 0.8
    return ChargingRequest(
        request_id=f"r{k:06d}",
        device=Device(f"d{k:06d}", position, demand, moving_rate=moving_rate),
        submitted_at=float(t),
        deadline=deadline,
        max_price=max_price,
    )


def _uniform_requests(
    times: Sequence[float], field: Field, demand_low: float, demand_high: float,
    moving_rate: float, deadline_slack: Optional[float],
    max_price_factor: Optional[float], rng,
) -> List[ChargingRequest]:
    """Requests at *times*, uniform over *field* (shared-stream order)."""
    positions = uniform_deployment(field, len(times), rng)
    demands = uniform_demands(len(times), demand_low, demand_high, rng)
    return [
        _request(k, t, p, d, moving_rate, deadline_slack, max_price_factor, rng)
        for k, (t, p, d) in enumerate(zip(times, positions, demands))
    ]


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
        horizon = times[-1] if times else 0.0
        k = 1
        while (k * burst_every) <= horizon and len(times) < 4 * n:
            base = k * burst_every
            times.extend(base + float(d) for d in rng.exponential(1.0, size=burst_size))
            k += 1
        return sorted(times)[:n]
    if profile == "diurnal":
        # Thin a Poisson majorant at ``rate`` down to a sinusoid with a
        # 1-hour period: lambda(t) = rate * (0.55 + 0.45 sin(2 pi t / 3600)).
        return _thinned_times(
            n, rate,
            lambda t, u: u < 0.55 + 0.45 * math.sin(2.0 * math.pi * t / 3600.0),
            rng,
        )
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
    _check_stream(n, rate)
    gen = ensure_rng(rng)
    field = field if field is not None else Field(100.0, 100.0)
    times = _arrival_times(profile, n, rate, gen, burst_every, burst_size)
    return _uniform_requests(
        times, field, demand_low, demand_high, moving_rate,
        deadline_slack, max_price_factor, gen,
    )


def diurnal_arrivals(
    n: int,
    field: Field,
    peak_rate: float = 1 / 60.0,
    trough_ratio: float = 0.15,
    peak_hour: float = 14.0,
    demand_low: float = 10e3,
    demand_high: float = 40e3,
    moving_rate: float = 0.05,
    rng: RandomState = None,
) -> List[ChargingRequest]:
    """*n* requests over one day with a sinusoidal day/night rate profile.

    The intensity is ``λ(t) = peak_rate · (r + (1-r)·(1+cos(2π(t-t_peak)/day))/2)``
    with ``r = trough_ratio``; samples are drawn by Lewis–Shedler thinning
    against the constant majorant ``peak_rate`` and truncated to *n*
    requests (wrapping into following days if the first day is too quiet).
    Night-time sparsity is the hard case for any finite commitment window.
    """
    _check_stream(n, peak_rate, "peak_rate")
    if not 0.0 < trough_ratio <= 1.0:
        raise ConfigurationError(
            f"trough_ratio must be in (0, 1], got {trough_ratio}"
        )
    gen = ensure_rng(rng)
    t_peak = peak_hour * 3600.0

    def intensity(t: float) -> float:
        phase = math.cos(2.0 * math.pi * (t - t_peak) / _DAY)
        return peak_rate * (trough_ratio + (1.0 - trough_ratio) * (1.0 + phase) / 2.0)

    times = _thinned_times(
        n, peak_rate, lambda t, u: u <= intensity(t) / peak_rate, gen
    )
    return _uniform_requests(
        times, field, demand_low, demand_high, moving_rate, None, None, gen
    )


def burst_arrivals(
    n_bursts: int,
    burst_size: int,
    field: Field,
    burst_spacing: float = 1800.0,
    burst_spread: float = 30.0,
    cluster_spread: float = 0.05,
    demand_low: float = 10e3,
    demand_high: float = 40e3,
    moving_rate: float = 0.05,
    rng: RandomState = None,
) -> List[ChargingRequest]:
    """Synchronized bursts: *n_bursts* events, each waking *burst_size* devices.

    Each burst happens at a random point of the field; its devices appear
    within ``burst_spread`` seconds around the burst time and within a
    Gaussian cluster of relative width ``cluster_spread`` around the burst
    location — the co-located, co-timed demand (e.g. a detection event
    waking a whole cluster) that makes cooperation, and batching, shine.
    """
    if n_bursts < 0 or burst_size < 1:
        raise ConfigurationError("need n_bursts >= 0 and burst_size >= 1")
    if burst_spacing <= 0 or burst_spread < 0:
        raise ConfigurationError("invalid burst timing parameters")
    gen = ensure_rng(rng)
    sigma = cluster_spread * min(field.width, field.height)

    draws: List[Tuple[float, Point, float]] = []
    centers = uniform_deployment(field, n_bursts, gen)
    for b in range(n_bursts):
        burst_time = (b + 1) * burst_spacing
        center = centers[b]
        for d in uniform_demands(burst_size, demand_low, demand_high, gen):
            jitter_t = abs(float(gen.normal(0.0, burst_spread)))
            pos = field.clamp(
                center.translated(
                    float(gen.normal(0.0, sigma)), float(gen.normal(0.0, sigma))
                )
            )
            draws.append((burst_time + jitter_t, pos, d))
    draws.sort(key=lambda draw: draw[0])
    return [
        _request(k, t, p, d, moving_rate, None, None, gen)
        for k, (t, p, d) in enumerate(draws)
    ]


def _keyed_requests(
    n: int, rate: float, seed: int, place: Callable[[int, RandomState], Point],
    demand_low: float, demand_high: float, moving_rate: float,
    deadline_slack: Optional[float], max_price_factor: Optional[float],
) -> List[ChargingRequest]:
    """The keyed loop: request *k* at ``place(k, position_rng)``.

    ``t_k`` is a deterministic sum of per-index gaps, so extending the
    stream never moves earlier arrivals.
    """
    requests: List[ChargingRequest] = []
    t = 0.0
    for k in range(n):
        t += float(ensure_rng(derive_seed(seed, "arrival", k)).exponential(1.0 / rate))
        position = place(k, ensure_rng(derive_seed(seed, "position", k)))
        gen = ensure_rng(derive_seed(seed, "request", k))
        demand = float(gen.uniform(demand_low, demand_high))
        requests.append(
            _request(
                k, t, position, demand, moving_rate,
                deadline_slack, max_price_factor, gen,
            )
        )
    return requests


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

    Positions are uniform over *field* (default 100 m x 100 m); see the
    module docstring for the keyed draw order the shard-count stability
    tests rely on.
    """
    _check_stream(n, rate)
    field = field if field is not None else Field(100.0, 100.0)

    def place(k: int, rng) -> Point:
        return Point(
            float(rng.uniform(0.0, field.width)),
            float(rng.uniform(0.0, field.height)),
        )

    return _keyed_requests(
        n, rate, seed, place, demand_low, demand_high,
        moving_rate, deadline_slack, max_price_factor,
    )


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
    _check_stream(n, rate)
    if not centers:
        raise ConfigurationError("clustered workload needs at least one center")
    if radius <= 0:
        raise ConfigurationError(f"cluster radius must be positive, got {radius}")
    field = field if field is not None else Field(100.0, 100.0)
    points = [c if isinstance(c, Point) else Point(float(c[0]), float(c[1])) for c in centers]

    def place(k: int, rng) -> Point:
        center = points[k % len(points)]
        # Uniform over the disc: radius ~ sqrt(u), angle ~ uniform.
        r = radius * math.sqrt(float(rng.uniform()))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        return Point(
            min(max(center.x + r * math.cos(theta), 0.0), field.width),
            min(max(center.y + r * math.sin(theta), 0.0), field.height),
        )

    return _keyed_requests(
        n, rate, seed, place, demand_low, demand_high,
        moving_rate, deadline_slack, max_price_factor,
    )


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
    """Read a JSONL request trace written by :func:`write_trace`.

    An unreadable file or a line that is not a request is a
    :class:`~repro.errors.ConfigurationError` naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = list(fh)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read request trace {path}: {exc}") from exc
    requests: List[ChargingRequest] = []
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if line:
            try:
                requests.append(ChargingRequest.from_dict(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"request trace {path} line {number} is not a request: {exc!r}"
                ) from exc
    return requests
