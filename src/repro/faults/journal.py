"""A service journal whose appends fail on cue.

:class:`FaultyJournal` is a :class:`~repro.service.journal.Journal` with a
``fail_at`` map of ``{record seq: mode}``.  When the kernel appends the
record carrying a scheduled seq, the write fails in one of two ways:

``"enospc"``
    Raises ``OSError(ENOSPC)`` from ``_write`` *before* any bytes land.
    This exercises the clean failure path: ``Journal.append`` truncates
    back to the captured offset and surfaces a typed
    :class:`~repro.errors.JournalWriteError`; the journal on disk stays a
    valid prefix and ``seq`` is not consumed.

``"torn"``
    Writes roughly half the record's bytes, flushes them to disk, then
    raises :class:`~repro.errors.InjectedFaultError` — which is *not* an
    ``OSError``, so the append's truncate-and-retype cleanup never runs.
    This simulates ``kill -9`` / power loss mid-write: the process "dies"
    with a garbage tail on disk, and recovery must find the longest valid
    prefix (:meth:`Journal.read_records`) and replay past it.

The ``fail_at`` dict is consumed in place (fired entries are popped), so
:meth:`repro.shard.supervisor.ShardSupervisor.arm` hands the *same* dict
to the live journal (:meth:`FaultyJournal.adopt`) and to every recovery
journal of that shard: faults already fired stay fired, faults not yet
reached stay armed.  Record numbering is stable across recovery because
replay is byte-identical.  Fired faults are logged in :attr:`fired` as
``(seq, mode)`` for assertions.

Recovery crashes key on the *attempt*, not on a seq: a snapshot recovery
writes from the journal's compacted base seq up, so no fixed seq is sure
to be written.  ``crashes`` is a list of modes shared by every recovery
journal of one shard; each journal pops one for the first record it
writes, whatever its seq, so each recovery attempt crashes once until
the list is empty.

``sync`` defaults to ``False`` here — chaos tests measure logic, not disk
latency, and an fsync per input makes the hypothesis suite crawl.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..errors import InjectedFaultError
from ..service.journal import Journal

__all__ = ["FaultyJournal"]


class FaultyJournal(Journal):
    """A journal that fails scheduled appends (see module docstring)."""

    def __init__(
        self,
        path: Union[str, Path],
        truncate: bool = True,
        sync: bool = False,
        fail_at: Optional[Dict[int, str]] = None,
        crashes: Optional[List[str]] = None,
    ) -> None:
        super().__init__(path, truncate=truncate, sync=sync)
        #: ``{seq: "enospc" | "torn"}`` — shared and consumed in place.
        self.fail_at: Dict[int, str] = fail_at if fail_at is not None else {}
        #: Modes for first-write crashes — shared and consumed in place.
        self.crashes: List[str] = crashes if crashes is not None else []
        self._first_write = True
        #: Faults that actually fired, as ``(seq, mode)``.
        self.fired: List[Tuple[int, str]] = []

    @classmethod
    def adopt(cls, journal: Journal, fail_at: Dict[int, str]) -> "FaultyJournal":
        """Take over a live *journal*'s file, failing appends per *fail_at*.

        Closes *journal* and reopens the same path for append, keeping
        ``seq`` and ``base_seq``, so the next record lands exactly where
        *journal*'s would have.  Callers swap the result in for *journal*.
        """
        journal.barrier()
        journal.close()
        faulty = cls(journal.path, truncate=False, sync=journal.sync, fail_at=fail_at)
        faulty.seq = journal.seq
        faulty.base_seq = journal.base_seq
        return faulty

    def _write(self, line: str) -> None:
        mode = self.fail_at.pop(self.seq, None)
        if mode is None and self._first_write and self.crashes:
            mode = self.crashes.pop(0)
        self._first_write = False
        if mode is None:
            super()._write(line)
            return
        self.fired.append((self.seq, mode))
        if mode == "enospc":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(self.path))
        # torn: half the record reaches disk, then the "process dies".
        assert self._fh is not None
        self._fh.write(line[: max(1, len(line) // 2)])
        self._fh.flush()
        raise InjectedFaultError(
            f"journal {self.path}: torn write injected at seq={self.seq}"
        )
