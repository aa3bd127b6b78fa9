"""The rule model and registry.

A rule is a class with a ``CCS0xx`` code, a one-line title, an optional
*scope* (module-path prefixes it applies to; ``None`` = everywhere), an
*allow* list (module paths exempt by design — the one blessed
implementation site of the invariant), and a :meth:`Rule.check` that
walks one parsed :class:`~repro.lint.flow.program.ModuleInfo` and yields
findings.  A :class:`FlowRule` instead sees the whole
:class:`~repro.lint.flow.program.Program` at once; both kinds build
findings with :meth:`Rule.finding`.

The rule docstring is user-facing: ``ccs-lint --explain CCS0xx`` renders
it verbatim, so each docstring states the invariant, *why* it matters
(what silently breaks when it is violated), and the approved fix.
"""

from __future__ import annotations

import ast
import inspect
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Type

from .finding import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .flow.program import ModuleInfo, Program

__all__ = ["FlowRule", "Rule", "all_rules", "get_rule", "register"]

#: code -> rule class; populated by the :func:`register` decorator.
_REGISTRY: Dict[str, Type["Rule"]] = {}


class Rule:
    """Base class for ccs-lint rules."""

    #: ``CCS0xx`` identifier; unique across the registry.
    code: str = ""
    #: One-line summary shown by ``--list-rules``.
    title: str = ""
    #: Module-path prefixes this rule is restricted to (``None`` = all files).
    scope: Optional[Tuple[str, ...]] = None
    #: Module paths exempt by design (the invariant's implementation site).
    allow: Tuple[str, ...] = ()
    #: Whole-program rules run once over a :class:`Program`, not per file.
    whole_program: bool = False

    def applies_to(self, module: str) -> bool:
        """Whether this rule runs on *module* (a repo-normalized path)."""
        if any(module == a or module.startswith(a.rstrip("/") + "/") for a in self.allow):
            return False
        if self.scope is None:
            return True
        return any(module.startswith(s) for s in self.scope)

    def check(self, info: "ModuleInfo") -> Iterator[Finding]:
        """Yield findings for one module; overridden by every per-file rule."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type checkers

    def finding(self, info: "ModuleInfo", node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at *node* inside module *info*."""
        line = int(getattr(node, "lineno", 1))
        col = int(getattr(node, "col_offset", 0)) + 1
        snippet = info.lines[line - 1] if 0 < line <= len(info.lines) else ""
        return Finding(
            path=info.path,
            module=info.module,
            line=line,
            col=col,
            code=self.code,
            message=message,
            snippet=snippet,
        )

    @classmethod
    def explanation(cls) -> str:
        """The rule's docstring, dedented — the ``--explain`` text."""
        doc = cls.__doc__ or "(no documentation)"
        return inspect.cleandoc(doc)


class FlowRule(Rule):
    """Base class for whole-program (cross-file) rules.

    A flow rule sees the entire :class:`~repro.lint.flow.program.Program`
    at once — call graph, purity summaries, taint — and yields findings
    that may anchor in any module.  The analyzer routes each finding
    through that file's inline suppressions exactly like a per-file
    finding, and ``applies_to`` filters by the *finding's* module, so
    ``scope``/``allow`` keep their usual meaning.
    """

    whole_program: bool = True

    def check_program(self, program: "Program") -> Iterator[Finding]:
        """Yield findings over the whole program; overridden by subclasses."""
        raise NotImplementedError
        yield  # pragma: no cover - makes this a generator for type checkers


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (codes must be unique)."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"rule code {cls.code} registered twice")
    _REGISTRY[cls.code] = cls
    return cls


def _load_builtin_rules() -> None:
    # Imported lazily so registry.py itself stays import-cycle-free.
    from . import rules  # noqa: F401  (importing registers the rule classes)


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by code."""
    _load_builtin_rules()
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    """The rule registered under *code*; raises ``KeyError`` if unknown."""
    _load_builtin_rules()
    return _REGISTRY[code]()
