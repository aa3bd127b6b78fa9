"""The analyzed module set: sources, ASTs, names, and the import graph.

A :class:`Program` is the collection of modules parsed *once*,
addressable both by repo-normalized path (``repro/service/kernel.py`` —
what findings and baselines key on) and by dotted module name
(``repro.service.kernel`` — what import resolution speaks).  Each module
is a :class:`ModuleInfo`, which is what a per-file rule checks; it also
carries the module's one import alias map, so every rule, the call graph
and the import graph resolve names the same way.  Files that fail to
parse never become modules; the analyzer reports them as CCS000.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["ModuleInfo", "Program", "dotted_name"]


def dotted_name(module: str) -> str:
    """Dotted module name for a repo-normalized path.

    ``repro/service/kernel.py`` → ``repro.service.kernel``;
    ``repro/lint/__init__.py`` → ``repro.lint``;
    ``benchmarks/bench_exec.py`` → ``benchmarks.bench_exec``.
    """
    parts = module.split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


@dataclass
class ModuleInfo:
    """One parsed module of the program."""

    path: str
    module: str
    modname: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    @classmethod
    def parse(cls, path: str, source: str, module: str) -> "ModuleInfo":
        """Parse *source* (the one ``ast.parse`` of a file); raises
        :class:`SyntaxError` when it cannot be parsed."""
        return cls(
            path=path,
            module=module,
            modname=dotted_name(module),
            source=source,
            tree=ast.parse(source),
        )

    @property
    def package(self) -> str:
        """The dotted package this module's relative imports resolve in."""
        if self.module.endswith("/__init__.py"):
            return self.modname
        head, _, _ = self.modname.rpartition(".")
        return head

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """Local name → absolute dotted target for every import.

        - ``import numpy as np`` → ``{"np": "numpy"}``
        - ``import numpy.random`` → ``{"numpy": "numpy"}`` (attribute
          access reaches the submodule through the top-level binding)
        - ``from numpy.random import seed`` →
          ``{"seed": "numpy.random.seed"}``
        - ``from .journal import Journal`` in ``repro/service/kernel.py``
          → ``{"Journal": "repro.service.journal.Journal"}``

        Relative imports resolve against :attr:`package`, so the result
        joins directly with program module names.  Flow-insensitive:
        rebinding an imported name mid-function can evade it, and the
        rules err toward silence rather than false alarms.
        """
        aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.asname is not None:
                        aliases[item.asname] = item.name
                    else:
                        top = item.name.split(".")[0]
                        aliases[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    base = node.module or ""
                else:
                    # level=1 resolves in the module's own package, each
                    # further dot climbs one package higher.
                    parts = self.package.split(".") if self.package else []
                    base = ".".join(parts[: max(0, len(parts) - node.level + 1)])
                    if node.module:
                        base = f"{base}.{node.module}" if base else node.module
                for item in node.names:
                    if item.name == "*":
                        continue
                    bound = item.asname if item.asname is not None else item.name
                    aliases[bound] = f"{base}.{item.name}" if base else item.name
        return aliases

    def resolve_dotted(self, node: ast.expr) -> Optional[str]:
        """Absolute dotted path of a Name/Attribute chain, or ``None``.

        ``np.random.seed`` under ``import numpy as np`` resolves to
        ``numpy.random.seed``; anything that is not a pure attribute
        chain rooted at an imported name resolves to ``None``.
        """
        parts: List[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


class Program:
    """An immutable set of parsed modules plus their import graph."""

    def __init__(self, modules: Iterable[ModuleInfo]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: Memo for derived analyses (call graph, purity): several flow
        #: rules run over one program; each layer is built exactly once.
        self.analysis_cache: Dict[str, object] = {}
        for info in modules:
            # First binding wins: analyzing overlapping paths must not
            # silently replace a module with a same-named shadow.
            self.modules.setdefault(info.modname, info)

    @classmethod
    def from_sources(
        cls, items: Sequence[Tuple[str, str, Optional[str]]]
    ) -> "Program":
        """Build a program from ``(path, source, module)`` triples.

        *module* is the repo-normalized module path; ``None`` derives it
        from *path* via :func:`repro.lint.analyzer.normalize_module`.
        Unparsable sources are skipped.
        """
        from ..analyzer import normalize_module

        infos: List[ModuleInfo] = []
        for path, source, module in items:
            try:
                infos.append(ModuleInfo.parse(
                    path, source, module if module is not None else normalize_module(path)
                ))
            except SyntaxError:
                continue
        return cls(infos)

    def __contains__(self, modname: str) -> bool:
        return modname in self.modules

    def __len__(self) -> int:
        return len(self.modules)

    def get(self, modname: str) -> Optional[ModuleInfo]:
        return self.modules.get(modname)

    def by_module(self, module: str) -> Optional[ModuleInfo]:
        """Look up a module by its repo-normalized path."""
        return self.modules.get(dotted_name(module))

    def resolve_prefix(self, dotted: str) -> Optional[Tuple[str, str]]:
        """Split *dotted* into ``(program modname, remainder)``.

        The longest prefix of *dotted* that names a program module wins:
        ``repro.service.journal.Journal.append`` resolves to
        ``("repro.service.journal", "Journal.append")``.  Returns ``None``
        when no prefix is a program module (stdlib, numpy, …).
        """
        parts = dotted.split(".")
        for k in range(len(parts), 0, -1):
            head = ".".join(parts[:k])
            if head in self.modules:
                return head, ".".join(parts[k:])
        return None

    def import_edges(self) -> Dict[str, List[str]]:
        """Module import graph restricted to program modules.

        Edges point importer → imported; targets outside the program are
        dropped.  Used by CCS010 to bound which modules a spawned worker
        process re-imports.
        """
        edges: Dict[str, List[str]] = {}
        for modname, info in sorted(self.modules.items()):
            targets: List[str] = []
            for dotted in info.aliases.values():
                hit = self.resolve_prefix(dotted)
                if hit is not None and hit[0] != modname and hit[0] not in targets:
                    targets.append(hit[0])
            edges[modname] = sorted(targets)
        return edges
