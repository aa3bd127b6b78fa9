"""Checksummed, atomically-written snapshots of kernel state.

A snapshot is one JSON document pinned to a journal seq::

    {"schema": 2, "seq": 1200, "sha": "…16 hex…", "state": {...,
        "planner": {..., "n_devices": 197, ...},
        "requests": [["r000171", 294.1, 1079.0, 4060.5, "d000171", 52.9,
                      37.2, 23350.3, 0.05, 1.0, "grouped", 3744.4, 6, null,
                      171, 300.0, null, null, null, null], ...], ...}}

``seq`` means: this state is what replaying journal records ``0..seq-1``
produces, so recovery can load the snapshot and replay only the suffix
``seq..``.  ``sha`` is a truncated SHA-256 over the canonical JSON of the
document minus the ``sha`` field (the same canonicalization as journal
records), so torn or bit-flipped snapshots are detected, not trusted.
Each request record is one flat row laid out by
:data:`~repro.service.request.RECORD_COLUMNS`, and the planner keeps only
its device count: the devices are the records' own.

Like a journal record, a snapshot costs one JSON encoding: when the plain
dump is canonical the file is the hashed body with the ``"sha"`` field
spliced in (:func:`~repro.service.journal.sealed_json`), and loading checks it
with one hash over the raw bytes minus that field, falling back to
re-canonicalizing the parsed document only when that hash misses.

Every file operation goes through a :class:`~repro.io.Storage` (the
journal's).  Write discipline is temp + publish (file fsync, rename,
directory fsync): a snapshot file either exists completely or
not at all, even across a power cut — a crash mid-write leaves only a
``*.tmp`` sibling that readers ignore.  Snapshots live next to their
journal as ``<journal>.snap-<seq:010d>``; the zero-padded seq makes
lexicographic and numeric order agree.

Loading **never repairs**: a bad snapshot raises
:class:`~repro.errors.SnapshotError` and the caller falls back to the
next older snapshot, then to full replay.  Only
:meth:`~repro.service.kernel.ChargingService.recover` decides what a
failed load means.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

from ..errors import SnapshotError
from ..experiments.exec.task import canonical_json
from ..io import POSIX, Storage
from .journal import seal_holds, sealed_json

__all__ = [
    "SNAPSHOT_SCHEMA",
    "snapshot_path",
    "list_snapshots",
    "write_snapshot",
    "load_snapshot",
    "prune_snapshots",
    "remove_snapshots",
]

#: Snapshot document version; bump on state-layout changes.  A mismatch is
#: a :class:`SnapshotError` (fall back to replay), never a best-effort read.
#: Schema 2 stores each request record as one flat row and the planner's
#: device count instead of its devices; schema 1 files are not read.
SNAPSHOT_SCHEMA = 2

#: Hex digits of SHA-256 kept per snapshot (matches the journal's).
_SHA_LEN = 16

_SUFFIX = ".snap-"
_SEQ_DIGITS = 10


def snapshot_path(journal_path: Union[str, Path], seq: int) -> Path:
    """Where the snapshot pinned to *seq* lives for this journal."""
    base = Path(journal_path)
    return base.with_name(f"{base.name}{_SUFFIX}{int(seq):0{_SEQ_DIGITS}d}")


def list_snapshots(
    journal_path: Union[str, Path], storage: Storage = POSIX
) -> List[Tuple[int, Path]]:
    """All snapshot files for this journal, newest (highest seq) first.

    Purely name-based — no file is opened, so a corrupt snapshot still
    lists (the fallback chain needs to *try* it).  Files whose seq suffix
    does not parse (including ``*.tmp`` leftovers) are ignored.
    """
    base = Path(journal_path)
    prefix = base.name + _SUFFIX
    found: List[Tuple[int, Path]] = []
    try:
        entries = storage.listdir(base.parent)
    except FileNotFoundError:
        return []
    for name in entries:
        if not name.startswith(prefix):
            continue
        tail = name[len(prefix):]
        if not (tail.isdigit() and len(tail) == _SEQ_DIGITS):
            continue
        found.append((int(tail), base.parent / name))
    found.sort(key=lambda pair: pair[0], reverse=True)
    return found


def write_snapshot(
    journal_path: Union[str, Path], seq: int, state: Dict[str, Any], storage: Storage = POSIX
) -> Path:
    """Atomically persist *state* pinned to journal seq *seq*.

    Returns the snapshot's path.  The document is fully written to a
    ``*.tmp`` sibling before :meth:`~repro.io.Storage.publish` renames
    it to its real name, so no reader ever sees a half snapshot.
    """
    doc: Dict[str, Any] = {"schema": SNAPSHOT_SCHEMA, "seq": int(seq), "state": state}
    path = snapshot_path(journal_path, seq)
    storage.publish(path, [sealed_json(doc, "state", last=False).encode("utf-8"), b"\n"])
    return path


def load_snapshot(path: Union[str, Path], storage: Storage = POSIX) -> Tuple[int, Dict[str, Any]]:
    """Read and verify one snapshot; returns ``(seq, state)``.

    Raises :class:`~repro.errors.SnapshotError` on anything short of a
    bit-exact, schema-matching, checksum-passing document — missing file,
    torn JSON, version skew, checksum mismatch.  The caller treats every
    failure identically: skip this snapshot, try the next older one.
    """
    path = Path(path)
    try:
        with storage.read(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise SnapshotError(f"snapshot {path}: unreadable: {exc}") from exc
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"snapshot {path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SnapshotError(f"snapshot {path}: not a JSON object")
    try:
        schema, seq, state, sha = doc["schema"], doc["seq"], doc["state"], doc["sha"]
    except KeyError as exc:
        raise SnapshotError(f"snapshot {path}: missing field {exc}") from exc
    if schema != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"snapshot {path}: schema version {schema!r} != supported "
            f"{SNAPSHOT_SCHEMA}"
        )
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise SnapshotError(f"snapshot {path}: bad seq {seq!r}")
    if not isinstance(state, dict):
        raise SnapshotError(f"snapshot {path}: state is not an object")
    text = raw[:-1] if raw.endswith(b"\n") else raw
    if not seal_holds(text, sha, last=False):
        body = {"schema": schema, "seq": seq, "state": state}
        if sha != _snapshot_checksum(body):
            raise SnapshotError(f"snapshot {path}: checksum mismatch")
    return seq, state


def prune_snapshots(journal_path: Union[str, Path], keep: int, storage: Storage = POSIX) -> int:
    """Delete all but the newest *keep* snapshots; returns the count removed.

    Best-effort on the unlink itself (a vanished file is already pruned),
    strict on the argument: ``keep < 1`` would delete the snapshot that
    compaction depends on, so it is rejected.
    """
    if keep < 1:
        raise ValueError(f"must keep at least one snapshot, got keep={keep}")
    stale = list_snapshots(journal_path, storage)[keep:]
    return storage.remove([path for _seq, path in stale])


def remove_snapshots(journal_path: Union[str, Path], storage: Storage = POSIX) -> int:
    """Durably delete every snapshot of this journal, ``*.tmp`` leftovers
    included, and return the count: a fresh journal starts a new history,
    which an older one's snapshots would outrank in recovery and pruning."""
    base = Path(journal_path)
    prefix = base.name + _SUFFIX
    try:
        names = storage.listdir(base.parent)
    except FileNotFoundError:
        return 0
    stale = [base.parent / name for name in names if name.startswith(prefix)]
    return storage.remove(stale, durable=True)


def _snapshot_checksum(body: Dict[str, Any]) -> str:
    payload = canonical_json(
        {"schema": body["schema"], "seq": body["seq"], "state": body["state"]}
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:_SHA_LEN]
