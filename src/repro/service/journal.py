"""Append-only durable journal of service state transitions.

One JSON object per line, written append-only::

    {"data": {...}, "event": "submit", "seq": 4, "sha": "…16 hex…", "t": 361.25}

``sha`` is a truncated SHA-256 over the record's canonical JSON (the same
canonicalization as the experiment result cache), and ``seq`` is a dense
counter — so a reader can tell exactly where a ``kill -9`` tore the file:
:func:`Journal.read` returns the longest valid prefix and stops at
the first unparsable, checksum-failing, out-of-sequence or unterminated line.

Serialize once, verify the bytes: a record costs one JSON encoding.  When
that encoding is canonical (:func:`~repro.experiments.exec.task.plain_json`:
no ``-0.0``, only ``str`` keys) the line *is* the hashed body with the
``"sha"`` field spliced in (:func:`sealed_json`), so a reader checks a line with one hash over
its raw bytes minus that field, and re-canonicalizes the parsed record
only when that hash misses (a legacy line holding ``-0.0``, say).
Recovery checks its replay against the retained lines in place, and
compaction copies the bytes from the first kept record's line (found by
counting lines from :attr:`Journal.base_seq`) to the end of the file —
nothing on disk is re-encoded.

Every file operation goes through the journal's :class:`~repro.io.Storage`;
fault injection arms a live journal by swapping it.

Recovery discipline (see :meth:`repro.service.kernel.ChargingService.recover`):
``submit`` and ``drain`` records are the *inputs*; every other event is a
deterministic consequence the kernel re-derives by replaying them.  The
journal still records all transitions, because an auditor (or an operator
tailing the file) should see the full lifecycle without running a replay.
"""

from __future__ import annotations

import hashlib
import json
import logging
from contextlib import contextmanager
from pathlib import Path
from typing import (
    Any, BinaryIO, Dict, Iterator, List, NamedTuple, Optional, Sequence, Union,
)

from ..errors import JournalError, JournalWriteError, ReplayDivergenceError
from ..experiments.exec.task import canon_json, canonical_json, plain_json
from ..io import POSIX, Storage

__all__ = ["Journal", "JournalRead", "record_checksum", "seal_holds", "sealed_json"]

_LOG = logging.getLogger("repro.service.journal")

#: Journal line-format version; bump on layout changes.
JOURNAL_SCHEMA = 1

#: Events that recovery replays; everything else is re-derived.  Fault
#: events (charger outage/recovery, cancellation) are *inputs* like
#: submissions: they originate outside the kernel, so replay must re-feed
#: them to re-derive the evacuations and re-folds they caused.
INPUT_EVENTS = frozenset(
    {"submit", "advance", "drain", "charger_down", "charger_up", "cancel"}
)

#: Hex digits of SHA-256 kept per record (collision-detection, not crypto).
_SHA_LEN = 16


class JournalRead(NamedTuple):
    """Everything :meth:`Journal.read` learns about a journal file.

    ``base_seq`` is the seq of the first retained record (0 unless the
    journal was compacted); ``dropped_bytes`` counts everything after the
    longest valid prefix — 0 on a clean file, > 0 exactly when ``torn``.
    ``lines`` holds each retained record's line exactly as it is on disk,
    without its newline, for verbatim seeding.
    """

    records: List[Dict[str, Any]]
    torn: bool
    dropped_bytes: int
    base_seq: int
    lines: List[bytes]


def _checksum(body: Union[str, bytes]) -> str:
    """Truncated SHA-256 of a canonical JSON text."""
    if isinstance(body, str):
        body = body.encode("utf-8")
    return hashlib.sha256(body).hexdigest()[:_SHA_LEN]


def record_checksum(seq: int, t: float, event: str, data: Dict[str, Any]) -> str:
    """Truncated SHA-256 over the record's canonical JSON body."""
    return _checksum(canonical_json({"seq": seq, "t": t, "event": event, "data": data}))


def sealed_json(doc: Dict[str, Any], before: str, last: bool) -> str:
    """*doc* plus its ``"sha"`` checksum field, as sorted-key JSON text.

    The checksum is over ``canonical_json(doc)``, and ``"sha"`` sorts
    just before the top-level key *before*, whose field is the first (or
    the *last*) ``,"<before>":`` in the text.  When the plain dump of
    *doc* is canonical (:func:`~repro.experiments.exec.task.plain_json`)
    that one encoding is both the hashed body and, with the field
    spliced in, the result.  Otherwise (``-0.0``, non-``str`` keys) the
    canonical body differs from the stored form: hash the one, write the
    other.
    """
    body = plain_json(doc)
    if body is None:
        sha = _checksum(canon_json(doc))
        return json.dumps({**doc, "sha": sha}, sort_keys=True, separators=(",", ":"))
    mark = f',"{before}":'
    cut = body.rindex(mark) if last else body.index(mark)
    return f'{body[:cut]},"sha":"{_checksum(body)}"{body[cut:]}'


def seal_holds(raw: bytes, sha: Any, last: bool) -> bool:
    """Whether *raw* is a :func:`sealed_json` text whose checksum is *sha*.

    One hash over the raw bytes with the ``"sha"`` field cut out — the
    first occurrence of the field, or the *last* one.  ``False`` is not a
    verdict: the text may still be valid but not canonical (a ``-0.0``
    written before the checksum normalized it), which only the
    re-canonicalizing check can tell.
    """
    if not isinstance(sha, str) or not sha.isascii():
        return False
    field = f',"sha":"{sha}"'.encode("ascii")
    cut = raw.rfind(field) if last else raw.find(field)
    return cut >= 0 and _checksum(raw[:cut] + raw[cut + len(field):]) == sha


class Journal:
    """An append-only, checksummed JSONL log of kernel transitions."""

    def __init__(
        self,
        path: Union[str, Path],
        truncate: bool = True,
        sync: bool = True,
        storage: Storage = POSIX,
    ) -> None:
        self.path = Path(path)
        self.storage = storage
        self._fh: Optional[BinaryIO] = storage.open_append(self.path, truncate)
        #: ``fsync`` the journal (power-cut safety).  On for the service
        #: daemon, off for load generators and benchmarks that only need
        #: process-crash safety.  Every record is written and flushed on
        #: its own; the fsync is one barrier per *input* — an input is
        #: durable when its call returns, and its records share one fsync
        #: (see :meth:`batch`).  A bare :meth:`append` outside a batch is
        #: its own input and fsyncs at once.
        self.sync = bool(sync)
        self.seq = 0
        #: Seq of the first record in the file (compaction moves it).
        self.base_seq = 0
        self._batch_depth = 0
        #: Records flushed but not yet fsynced (with :attr:`sync` only).
        self._unsynced = False
        #: Lines :meth:`seed` adopted from the file, records
        #: :attr:`base_seq` on, until :meth:`replay` has re-derived them.
        self._disk: Sequence[bytes] = ()

    def append(self, event: str, t: float, data: Dict[str, Any]) -> int:
        """Write one record and flush it; returns the record's ``seq``.

        Durability discipline: the file offset is captured before the
        write, and on ``OSError`` (ENOSPC, EIO, …) the file is truncated
        back to it and a typed :class:`~repro.errors.JournalWriteError`
        is raised — the journal on disk stays a valid record prefix, and
        ``seq`` is not consumed, so a caller that frees space can retry
        the same append.

        At a seq whose line :meth:`seed` adopted nothing is written: the
        record must equal that line, or
        :class:`~repro.errors.ReplayDivergenceError` is raised.
        """
        if self._fh is None:
            raise JournalError(f"journal {self.path} is closed")
        seq = self.seq
        doc: Dict[str, Any] = {"data": data, "event": event, "seq": seq, "t": float(t)}
        line = sealed_json(doc, "t", last=True) + "\n"
        ahead = seq - self.base_seq
        if ahead < len(self._disk):
            if line[:-1].encode("utf-8") != self._disk[ahead]:
                raise ReplayDivergenceError(
                    f"journal {self.path}: replayed record seq={seq} differs from the disk"
                )
        else:
            offset = self._fh.tell()
            try:
                self._write(line)
            except OSError as exc:
                self._restore(offset)
                raise JournalWriteError(
                    f"journal {self.path}: append of record seq={seq} "
                    f"event={event!r} failed: {exc}"
                ) from exc
            if offset == 0:
                self.base_seq = seq
        self.seq += 1
        return seq

    def _write(self, line: str) -> None:
        """Hand one record line to the storage."""
        assert self._fh is not None
        self.storage.append(self._fh, line.encode("utf-8"))
        if self.sync:
            self._unsynced = True
            if not self._batch_depth:
                self.barrier()

    @contextmanager
    def batch(self) -> Iterator["Journal"]:
        """Share one fsync barrier among every record written in the block.

        Records are still written and flushed one by one (a process death
        loses nothing already written); the fsync runs once, when the
        outermost batch exits normally, and only if a record was written.
        Batches nest.  A block left by an exception takes no barrier: the
        input it carried never returned, so it was never acknowledged.
        """
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
        if not self._batch_depth:
            self.barrier()

    def barrier(self) -> None:
        """Make every record written so far durable (a no-op if it is)."""
        if self._unsynced and self._fh is not None:
            self.storage.barrier(self._fh)
        self._unsynced = False

    def _restore(self, offset: int) -> None:
        """Drop a partially written record so the file ends at *offset*."""
        assert self._fh is not None
        try:
            self.storage.truncate(self._fh, offset)
        except OSError:
            # The file handle itself is broken; close it so further
            # appends fail loudly as "journal closed" rather than
            # silently corrupting the tail.
            fh, self._fh = self._fh, None
            try:
                fh.close()
            except OSError:
                pass

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # compaction and recovery seeding

    def seed(self, lines: Sequence[bytes], first_seq: int) -> None:
        """Adopt the records already in this journal's file; writes nothing.

        Recovery opens the journal without truncating it and seeds it,
        once, with the valid prefix :meth:`read` found there
        (:attr:`JournalRead.lines`, records *first_seq* on), which
        :meth:`replay` then re-derives.
        """
        self._disk = lines
        self.base_seq = int(first_seq)
        self.seq = self.base_seq + len(lines)

    @contextmanager
    def replay(self, start: int) -> Iterator["Journal"]:
        """Re-derive the seeded records from seq *start*, in place.

        The file is first cut after the seeded lines, dropping a torn
        tail.  In the block, :meth:`append` checks each record at a
        seeded seq against its line and writes only those past them;
        seeded records the block does not reach are cut when it ends
        (the caller vouches for them, see
        :meth:`~repro.service.kernel.ChargingService.recover`).  The block
        is one input (:meth:`batch`) whose barrier runs even if nothing
        was appended: one fsync covers the cuts and every record.
        """
        self._cut(len(self._disk))
        self._unsynced = self.sync
        self.seq = int(start)
        with self.batch():
            yield self
            if self.seq - self.base_seq < len(self._disk):
                self._cut(self.seq - self.base_seq)
        self._disk = ()

    def _cut(self, lines: int) -> None:
        """Cut the file to its first *lines* seeded lines."""
        assert self._fh is not None
        size = sum(map(len, self._disk[:lines])) + lines
        try:
            self.storage.truncate(self._fh, size)
        except OSError as exc:
            raise JournalWriteError(
                f"journal {self.path}: cutting the file at byte {size} failed: {exc}"
            ) from exc

    def truncate_prefix(self, min_seq: int) -> int:
        """Compact: drop records with ``seq < min_seq``; returns the count.

        A byte-range copy: the bytes from the line of the first kept
        record (found by counting lines from :attr:`base_seq`) to the end
        of the file go to a sibling temp that is published
        (:meth:`~repro.io.Storage.publish`), so a crash mid-compaction
        leaves either the old or the new journal, never a hybrid.  No
        record is parsed, verified or re-encoded: the live file holds
        only lines this journal wrote or seeded and replayed, densely
        numbered from :attr:`base_seq`.  Always keeps at least one
        record — the first retained seq is how a reader learns where a compacted journal
        starts, so the file must never go empty.  ``seq`` (the next
        append) is unaffected.
        """
        if self._fh is None:
            raise JournalError(f"journal {self.path} is closed")
        self._fh.flush()
        keep = min(int(min_seq), self.seq - 1)
        dropped = keep - self.base_seq
        if dropped <= 0 or self._fh.tell() == 0:
            return 0
        with self.storage.read(self.path) as src:
            for _ in range(dropped):
                src.readline()
            self.storage.publish(
                self.path,
                iter(lambda: src.read(1 << 16), b""),
                tmp=self.path.with_name(self.path.name + ".compact"),
            )
        self._fh.close()
        self._fh = self.storage.open_append(self.path, truncate=False)
        # Every kept record just went through the publish's fsync.
        self._unsynced = False
        self.base_seq = keep
        return dropped

    # ------------------------------------------------------------------ #
    # reading

    @staticmethod
    def read(path: Union[str, Path], storage: Storage = POSIX) -> JournalRead:
        """Longest valid record prefix plus everything recovery wants to know.

        The first record may carry any seq (a compacted journal starts at
        its compaction point); records after it must be dense.  Anything
        past the valid prefix — truncated or unterminated line, bad
        checksum, seq gap — is discarded, counted in ``dropped_bytes``,
        and logged as a structured warning so torn tails are observable
        rather than silent.  A missing file reads as an empty journal.
        """
        path = Path(path)
        records: List[Dict[str, Any]] = []
        kept: List[bytes] = []
        try:
            with storage.read(path) as fh:
                raw = fh.read()
        except FileNotFoundError:
            return JournalRead([], False, 0, 0, [])

        consumed = 0
        expected_seq: Optional[int] = None
        # Every record is written with its newline: text after the last
        # newline is a torn record, and an empty line is damage.
        *lines, tail = raw.split(b"\n")
        torn = True
        for line in lines:
            if line == b"":
                break
            try:
                doc = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError):
                break
            if not isinstance(doc, dict):
                break
            try:
                seq, t, event, data, sha = (
                    doc["seq"], doc["t"], doc["event"], doc["data"], doc["sha"],
                )
            except KeyError:
                break
            if not isinstance(seq, int) or isinstance(seq, bool):
                break
            if seq < 0 or (expected_seq is not None and seq != expected_seq):
                break
            if not seal_holds(line, sha, last=True):
                try:
                    want = record_checksum(seq, t, event, data)
                except (TypeError, ValueError):
                    break
                if sha != want:
                    break
            records.append(doc)
            kept.append(line)
            consumed += len(line) + 1
            expected_seq = seq + 1
        else:
            torn = tail != b""
        dropped = len(raw) - consumed
        base_seq = int(records[0]["seq"]) if records else 0
        if torn:
            _LOG.warning(
                "journal.torn_tail %s",
                json.dumps(
                    {
                        "dropped_bytes": dropped,
                        "kept_records": len(records),
                        "path": str(path),
                    },
                    sort_keys=True,
                ),
            )
        return JournalRead(records, torn, dropped, base_seq, kept)

