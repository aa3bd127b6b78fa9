"""CCS005 — append-mode file opens outside the journal implementation."""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..finding import Finding
from ..flow.program import ModuleInfo
from ..registry import Rule, register

__all__ = ["JournalAppendRule"]


@register
class JournalAppendRule(Rule):
    """Durable append-only files are written only by ``Journal.append``.

    **Invariant.** Library code never opens a file in append mode
    (``open(path, "a")`` / ``Path.open("a")``) outside
    :mod:`repro.service.journal`.  The journal is the repo's one durable
    append-only artifact, and :meth:`Journal.append` is its one writer.

    **Why.** Crash recovery replays the journal and trusts three
    properties per line: a dense ``seq``, a truncated-SHA checksum over
    canonical JSON, and flush-per-record durability.  A second append
    path — even a well-meaning debug log appended to the same file —
    breaks the dense sequence and the longest-valid-prefix read, which
    silently truncates recovery at the first foreign line.  Keeping
    *every* append-mode open inside ``service/journal.py`` makes "who can
    write a journal?" a one-file review.

    **Approved fix.** Journal writes go through ``Journal.append``; other
    durable outputs are written whole (``"w"``) to a temp sibling and
    published with ``repro.io.atomic_replace`` — the one durable publish
    path (file fsync, rename, directory fsync), used by snapshots, the
    shard manifest, recovery's replay journal and the result cache.  A
    genuinely unrelated append-mode file (none exist in the library
    today) takes an inline suppression naming the file it appends to and
    why torn tails are acceptable there.

    **Allowlisted.** ``repro/service/journal.py``.
    """

    code = "CCS005"
    title = "file opened in append mode outside service/journal.py"
    allow = ("repro/service/journal.py",)

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            mode = self._open_mode(node)
            if mode is not None and "a" in mode:
                yield self.finding(
                    info,
                    node,
                    f"file opened with append mode {mode!r}; journal durability "
                    "discipline allows appends only via Journal.append "
                    "(service/journal.py)",
                )

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[str]:
        """The constant mode string of an ``open``-like call, if any."""
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode_arg: Optional[ast.expr] = node.args[1] if len(node.args) > 1 else None
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            # pathlib.Path.open(mode=...) — first positional is the mode.
            mode_arg = node.args[0] if node.args else None
        else:
            return None
        if mode_arg is None:
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode_arg = kw.value
        if isinstance(mode_arg, ast.Constant) and isinstance(mode_arg.value, str):
            return mode_arg.value
        return None
