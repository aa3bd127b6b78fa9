"""CCS005 — durable file operations outside the storage seam."""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..finding import Finding
from ..flow.program import ModuleInfo
from ..registry import Rule, register

__all__ = ["StorageSeamRule"]

#: ``os`` functions that rename, sync, delete or cut a file.
_OS_CALLS = frozenset(
    {"fsync", "ftruncate", "remove", "rename", "replace", "truncate", "unlink"}
)
#: Methods that write, delete or cut a file whatever they are called on —
#: except on a storage, the seam itself.
_METHODS = frozenset({"truncate", "unlink", "write_bytes", "write_text"})


@register
class StorageSeamRule(Rule):
    """Service state reaches the disk only through ``repro.io``'s storage.

    **Invariant.** Under ``repro/service/`` and ``repro/shard/`` no code
    opens a file in a write, append, exclusive or update mode, calls
    ``write_text``/``write_bytes``, ``os.replace``/``os.rename``,
    ``os.fsync``, or ``unlink``/``truncate`` on anything but a storage.
    The journal, snapshots, the shard manifest and the supervision log
    take those operations from a :class:`repro.io.Storage`.  Everywhere
    else append-mode opens stay banned: the journal is the one durable
    append-only file.

    **Why.** Crash recovery trusts the order in which bytes, fsyncs and
    renames reach the disk, and that order is decided in one module.  A
    write that bypasses the storage is invisible to fault injection
    (which wraps the storage) and to a recording of the durable
    operations, so no test sees what it does on a crash; a second append
    path into a journal breaks the dense ``seq`` and silently cuts
    recovery short at the first foreign line.

    **Approved fix.** Use the storage the component holds
    (``journal.storage``, ``ShardedService.storage``, a ``storage``
    argument): ``open_append``/``append``/``barrier``, ``publish``,
    ``truncate``, ``remove``.  A file that is not service state (an
    input trace) takes an inline suppression that says so.

    **Allowlisted.** ``repro/io.py``, where the storage lives.
    """

    code = "CCS005"
    title = "durable file operation outside the storage seam (repro/io.py)"
    allow = ("repro/io.py",)
    #: Module-path prefixes where every durable operation is flagged.
    seam_scopes = ("repro/service/", "repro/shard/")

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        seam = info.module.startswith(self.seam_scopes)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            mode = self._open_mode(node)
            what = self._durable_op(info, node) if seam else None
            if mode is not None and ("a" in mode or (seam and set(mode) & set("wx+"))):
                what = f"file opened with mode {mode!r}"
            if what is not None:
                yield self.finding(
                    info,
                    node,
                    f"{what}; durable file operations go through a "
                    "repro.io.Storage (repro/io.py)",
                )

    @staticmethod
    def _durable_op(info: ModuleInfo, node: ast.Call) -> Optional[str]:
        """What a rename/sync/delete/cut/whole-file-write call does, if it is one."""
        dotted = info.resolve_dotted(node.func)
        if dotted is not None and dotted.startswith("os."):
            return f"{dotted}()" if dotted[len("os."):] in _OS_CALLS else None
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _METHODS:
            return None
        owner = func.value
        owner_name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", None)
        return None if owner_name == "storage" else f".{func.attr}()"

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
