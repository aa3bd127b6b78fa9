"""A storage whose journal record appends fail on cue, and on-disk damage.

:class:`FaultyStorage` wraps a :class:`~repro.io.Storage` and passes
every operation through, except the record appends it is armed to fail
(it reads each record's ``seq`` from the record).  ``fail_at`` maps a
seq to ``"enospc"`` — ``OSError(ENOSPC)`` before any byte lands, the
clean :class:`~repro.errors.JournalWriteError` path — or ``"torn"`` —
half the record lands, then :class:`~repro.errors.InjectedFaultError`
(not an ``OSError``, so no cleanup runs), modelling ``kill -9``
mid-write.  ``crashes`` keys on recovery attempts instead: the tail
cut each attempt makes before it replays (:meth:`truncate`) pops one
mode and fails without cutting.  Recovery keeps the dead journal's
storage, so both are consumed in place across recoveries: fired faults
stay fired, later ones stay armed (record numbering is stable because
replay is byte-identical).  See ``docs/FAULTS.md``.
"""

from __future__ import annotations

import errno
import json
import os
from pathlib import Path
from typing import Any, BinaryIO, Callable, Dict, List, Optional, Tuple

from ..errors import InjectedFaultError
from ..io import POSIX, Storage
from ..service.snapshot import list_snapshots, snapshot_path

__all__ = ["FaultyStorage", "corrupt_newest_snapshot", "litter_snapshot_tmp", "tear_tail"]


class FaultyStorage:
    """A storage that fails scheduled appends and tail cuts (module docstring)."""

    def __init__(
        self, inner: Storage = POSIX, fail_at: Optional[Dict[int, str]] = None,
        crashes: Optional[List[str]] = None,
    ) -> None:
        self.inner = inner
        #: ``{seq: "enospc" | "torn"}`` — consumed in place.
        self.fail_at: Dict[int, str] = fail_at if fail_at is not None else {}
        #: Modes for recovery crashes, one per tail cut — consumed in place.
        self.crashes: List[str] = crashes if crashes is not None else []
        #: Record appends that actually failed, as ``(seq, mode)``.
        self.fired: List[Tuple[int, str]] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def truncate(self, fh: BinaryIO, size: int) -> None:
        if not self.crashes:
            self.inner.truncate(fh, size)
        elif self.crashes.pop(0) == "enospc":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), fh.name)
        else:
            raise InjectedFaultError(f"journal {fh.name}: recovery killed at its tail cut")

    def append(self, fh: BinaryIO, data: bytes) -> None:
        seq = int(json.loads(data)["seq"]) if self.fail_at else -1
        mode = self.fail_at.pop(seq, None)
        if mode is None:
            self.inner.append(fh, data)
            return
        self.fired.append((seq, mode))
        if mode == "enospc":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), fh.name)
        # torn: half the record reaches disk, then the "process dies".
        self.inner.append(fh, data[: max(1, len(data) // 2)])
        raise InjectedFaultError(f"journal {fh.name}: torn write injected at seq={seq}")


# ---------------------------------------------------------------------- #
# on-disk damage


def tear_tail(storage: Storage, path: Path, nbytes: int = 10) -> None:
    """Chop *nbytes* off the journal file (keeping at least one byte),
    tearing its final record."""
    _cut(storage, path, lambda size: max(1, size - int(nbytes)))


def corrupt_newest_snapshot(storage: Storage, journal_path: Path) -> bool:
    """Cut the newest snapshot to half, so its checksum fails and
    recovery must fall back; ``False`` if none exists."""
    snaps = list_snapshots(journal_path, storage)
    if not snaps:
        return False
    _cut(storage, snaps[0][1], lambda size: max(1, size // 2))
    return True


def litter_snapshot_tmp(storage: Storage, journal_path: Path, seq: int) -> Path:
    """Leave the half-written ``*.tmp`` a crash mid-snapshot-write
    leaves, which recovery must step over."""
    final = snapshot_path(journal_path, seq)
    tmp = final.with_name(final.name + ".tmp")
    with storage.open_append(tmp, truncate=True) as fh:
        storage.append(fh, b'{"schema":1,"seq":')
    return tmp


def _cut(storage: Storage, path: Path, size: Callable[[int], int]) -> None:
    """Truncate *path* to ``size(current size)`` bytes."""
    with storage.open_append(path, truncate=False) as fh:
        storage.truncate(fh, size(fh.tell()))
