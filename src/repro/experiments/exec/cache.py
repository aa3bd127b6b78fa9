"""Content-addressed on-disk cache of task results.

Layout (one JSON document per task, sharded by fingerprint prefix)::

    <root>/
      <fp[:2]>/<fingerprint>.json

Each entry stores the task payload it answers for, the result, and a
SHA-256 checksum of the result's canonical JSON.  :meth:`ResultCache.load`
treats *anything* suspicious — unreadable file, invalid JSON, missing
fields, fingerprint mismatch, checksum mismatch — as a miss: the entry is
logged, discarded, and the task recomputed.  A cache can therefore be
truncated by ``kill -9`` mid-write, bit-rotted, or hand-edited without
ever poisoning results.  Writes go through a temp file +
:func:`~repro.io.atomic_replace` so a concurrent reader only ever sees
complete entries, and a power cut never loses a published one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple, Union

from ...io import atomic_replace
from .task import Task, canonical_json

__all__ = ["ResultCache"]

logger = logging.getLogger("repro.experiments.exec.cache")

#: Bump to invalidate every existing entry on a format change.
_ENTRY_VERSION = 1


def _result_checksum(result: Any) -> str:
    return hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of checksummed, fingerprint-addressed task results."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultCache({str(self.root)!r})"

    def path_for(self, task_or_fingerprint: Union[Task, str]) -> Path:
        """Where the entry for a task (or raw fingerprint) lives."""
        fp = (
            task_or_fingerprint.fingerprint
            if isinstance(task_or_fingerprint, Task)
            else str(task_or_fingerprint)
        )
        return self.root / fp[:2] / f"{fp}.json"

    def load(self, task: Task) -> Tuple[bool, Any]:
        """Return ``(hit, result)``; corrupt entries count as misses.

        A discarded entry is also deleted so the follow-up
        :meth:`store` rewrites it cleanly.
        """
        path = self.path_for(task)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return False, None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._discard(path, f"unreadable entry ({exc.__class__.__name__}: {exc})")
            return False, None

        problem = self._validate(doc, task)
        if problem is not None:
            self._discard(path, problem)
            return False, None
        return True, doc["result"]

    def store(self, task: Task, result: Any) -> Path:
        """Persist *result* for *task* atomically and return the entry path."""
        path = self.path_for(task)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "version": _ENTRY_VERSION,
            "fingerprint": task.fingerprint,
            "task": task.payload(),
            "sha256": _result_checksum(result),
            "result": result,
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            atomic_replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for _ in self.root.glob("??/*.json"))

    @staticmethod
    def _validate(doc: Any, task: Task) -> Optional[str]:
        """Why *doc* cannot answer for *task*, or ``None`` if it can."""
        if not isinstance(doc, dict):
            return "entry is not a JSON object"
        if doc.get("version") != _ENTRY_VERSION:
            return f"entry version {doc.get('version')!r} != {_ENTRY_VERSION}"
        if doc.get("fingerprint") != task.fingerprint:
            return "fingerprint mismatch (stale or misplaced entry)"
        if "result" not in doc:
            return "entry has no result"
        try:
            checksum = _result_checksum(doc["result"])
        except (TypeError, ValueError) as exc:
            return f"result not checksummable ({exc})"
        if doc.get("sha256") != checksum:
            return "result checksum mismatch (corrupt or truncated entry)"
        return None

    @staticmethod
    def _discard(path: Path, reason: str) -> None:
        logger.warning("discarding cache entry %s: %s; recomputing", path, reason)
        try:
            os.unlink(path)
        except OSError:
            pass
