"""The experiment task model: small, pure, fingerprintable units of work.

A :class:`Task` names a registered *kind* (the computation), a
JSON-serializable ``params`` mapping (typically a serialized
:class:`~repro.workloads.WorkloadSpec`), a root ``seed``, and a ``trial``
index.  Every sweep point / table cell of the evaluation is one task, so

- tasks are independent: the instance seed is derived from
  ``(seed, trial)`` via :func:`repro.rng.derive_seed` spawn keys, never
  from shared-stream order, so results do not depend on which tasks ran
  before (or concurrently);
- tasks are addressable: :attr:`Task.fingerprint` is the SHA-256 of a
  canonical JSON payload, the key of the on-disk result cache;
- tasks are portable: both the task and its result are plain JSON data,
  so they survive pickling to a worker process and a cache round-trip
  byte-identically.

Task kinds are registered with :func:`task_kind`; the built-in kinds live
in :mod:`repro.experiments.exec.kinds` and are loaded lazily on first
execution so this module stays import-light.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional

from ...numeric import is_exact_zero

__all__ = [
    "Task",
    "TaskKindError",
    "canon_json",
    "canonical_json",
    "execute_task",
    "plain_json",
    "task_kind",
]

#: Bump when the payload layout changes — old cache entries then miss
#: cleanly instead of replaying results computed under different rules.
TASK_SCHEMA_VERSION = 1

#: kind name → callable(params, seed, trial) -> JSON-serializable result.
_KINDS: Dict[str, Callable[[Mapping[str, Any], int, int], Any]] = {}


class TaskKindError(KeyError):
    """A task named a kind that is not registered."""


def task_kind(name: str):
    """Register a function as the implementation of task kind *name*.

    The function receives ``(params, seed, trial)`` and must return plain
    JSON data (dicts/lists of numbers and strings): the result is cached
    on disk as JSON and must round-trip byte-identically.
    """

    def decorator(fn):
        if name in _KINDS:
            raise ValueError(f"task kind {name!r} registered twice")
        _KINDS[name] = fn
        return fn

    return decorator


def _canon(value: Any) -> Any:
    """Canonicalize *value* for fingerprinting.

    Mappings become sorted dicts, sequences become lists, ``-0.0`` is
    normalized to ``0.0`` (they compare equal, so they must fingerprint
    equal), and non-JSON types are rejected rather than silently
    stringified — a fingerprint must never conflate distinct inputs.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite float {value!r} cannot be fingerprinted")
        return 0.0 if is_exact_zero(value) else value
    if isinstance(value, Mapping):
        return {str(k): _canon(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    raise TypeError(f"task params must be JSON data, got {type(value).__name__}")


#: A ``-0.0`` number token in dumped JSON (``-0.01`` and friends go on
#: with a digit).  A string that merely contains ``-0.0`` also matches;
#: that only costs the slow path, never exactness.
_NEG_ZERO = re.compile(r"-0\.0(?![0-9])")

#: Scalar types whose plain dump is their canonical text (exact types:
#: subclasses such as ``numpy.float64`` or ``IntEnum`` are not listed).
_LEAVES = frozenset({str, int, float, bool, type(None)})


def _str_keyed(value: Any) -> bool:
    """True when *value* is plain JSON data whose every dict key is a ``str``.

    Exact types only: a subclass (``numpy.float64``, ``IntEnum``, an
    ``OrderedDict``) or a non-dict mapping makes this ``False``, which
    sends the value to the exact slow path.  Builds nothing, so it costs
    a fraction of :func:`_canon`.
    """
    kind = type(value)
    if kind is dict:
        for key in value:
            if type(key) is not str:
                return False
        children = value.values()
    elif kind is list or kind is tuple:
        children = value
    else:
        return kind in _LEAVES
    for child in children:
        if type(child) not in _LEAVES and not _str_keyed(child):
            return False
    return True


#: The one encoder behind every canonical dump: ``json.dumps`` with
#: these options would build an equal encoder on every call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def plain_json(value: Any) -> Optional[str]:
    """*value*'s canonical JSON from one plain dump, or ``None``.

    ``json.dumps(..., sort_keys=True)`` already is the canonical text of
    any value whose dict keys are all exact ``str`` (non-``str`` keys are
    renamed by ``str(key)`` and sorted as text by :func:`_canon`) and
    that holds no ``-0.0`` (which :func:`_canon` normalizes).  The keys
    are checked by a walk of the value before anything is dumped, the
    ``-0.0`` on the dumped text; ``None`` means a condition does not
    hold, or the walk or the dump raised, and only :func:`_canon` knows
    the canonical text (:func:`canon_json`).
    """
    try:
        if not _str_keyed(value):
            return None
        text = _CANONICAL.encode(value)
    except (TypeError, ValueError, RecursionError):
        return None
    return None if _NEG_ZERO.search(text) is not None else text


def canon_json(value: Any) -> str:
    """*value*'s canonical JSON through the :func:`_canon` rebuild.

    The exact slow path behind :func:`canonical_json`, for callers that
    already know :func:`plain_json` refused *value*; raises the typed
    errors for non-JSON input.
    """
    return _CANONICAL.encode(_canon(value))


def canonical_json(value: Any) -> str:
    """One canonical JSON text per value: sorted keys, no whitespace.

    One plain dump when that is exact (:func:`plain_json`); otherwise the
    :func:`_canon` rebuild (:func:`canon_json`), which also raises the
    typed errors for non-JSON input.
    """
    text = plain_json(value)
    return canon_json(value) if text is None else text


@dataclass(frozen=True)
class Task:
    """One unit of experiment work: ``(kind, params, seed, trial)``."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    trial: int = 0

    def payload(self) -> Dict[str, Any]:
        """The canonical dict this task fingerprints as."""
        return {
            "version": TASK_SCHEMA_VERSION,
            "kind": self.kind,
            "params": _canon(self.params),
            "seed": int(self.seed),
            "trial": int(self.trial),
        }

    @property
    def fingerprint(self) -> str:
        """SHA-256 hex digest of the canonical payload — the cache key."""
        text = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def execute_task(task: Task) -> Any:
    """Run *task* and return its (JSON-serializable) result.

    Safe to call in a worker process: the built-in kinds are imported on
    first use, so an unpickled task finds its implementation.  A kind
    named ``"some.module:name"`` is *module-qualified*: the module part
    is imported first, so kinds registered outside the built-in
    :mod:`~repro.experiments.exec.kinds` (e.g. the chaos kinds in
    :mod:`repro.faults.tasks`) resolve in spawned workers too.
    """
    if task.kind not in _KINDS:
        if ":" in task.kind:
            import importlib

            importlib.import_module(task.kind.split(":", 1)[0])
        else:
            from . import kinds  # noqa: F401 — registers the built-in task kinds

    try:
        fn = _KINDS[task.kind]
    except KeyError:
        raise TaskKindError(
            f"unknown task kind {task.kind!r}; registered: {sorted(_KINDS)}"
        ) from None
    return fn(dict(task.params), int(task.seed), int(task.trial))
