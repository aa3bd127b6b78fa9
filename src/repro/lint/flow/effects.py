"""Per-function *direct* effect scans: the atoms the summaries aggregate.

One pass over each function body records everything the whole-program
rules reason about transitively:

- **source reads** — calls/reads whose value depends on something other
  than the arguments: the wall clock, process-global RNG, OS entropy,
  UUIDs, environment variables, directory listing order, and unordered
  ``set`` iteration (the catalog below);
- **global mutations** — writes to module-level mutable state (CCS010);
- **self mutations** — writes to ``self``-reachable state (CCS011);
- **mutable default arguments** — shared across calls *and* across
  fork-spawned workers (CCS010).

The scan is syntactic and name-resolved only; it never imports analyzed
code.  Each atom carries its AST node so findings anchor at the exact
offending expression, not at the function header.

The source catalog (:func:`classify_source` and its tables below) is
the linter's one definition of a clock or RNG read: the per-file rules
CCS001 and CCS002 classify with it too, adding only their own policy.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .callgraph import (
    CallGraph,
    FunctionInfo,
    _FunctionScope,
    decorator_nodes,
    function_scope,
)

__all__ = [
    "CLOCK_DEFAULT_MEMBERS",
    "Effects",
    "GlobalWrite",
    "SelfWrite",
    "SourceRead",
    "classify_source",
    "module_level_mutables",
    "scan_effects",
]

#: ``time`` members that read a clock whenever called.
_TIME_CLOCK_MEMBERS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)

#: ``time`` members that read the clock only when the time argument is
#: omitted (``time.gmtime()`` formats *now*; ``time.gmtime(0)`` is pure).
#: ``strftime`` is the same trap one argument later: ``strftime(fmt)``
#: reads the clock, ``strftime(fmt, t)`` is pure.
CLOCK_DEFAULT_MEMBERS = frozenset(
    {"gmtime", "localtime", "ctime", "asctime", "strftime"}
)

_DATETIME_READS = frozenset(
    {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: numpy.random members that are stateless constructors, not global state.
_ALLOWED_NP_RANDOM = frozenset(
    {
        "Generator",
        "default_rng",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Exact dotted names that read OS entropy or host identity.
_ENTROPY_READS = frozenset(
    {
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "uuid.getnode",
    }
)

#: Dotted names whose *result order* depends on the filesystem.
_FS_ORDER_READS = frozenset(
    {"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"}
)

#: Environment reads.
_ENV_READS = frozenset({"os.getenv", "os.environ"})

#: Method names that mutate the common built-in containers in place.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

#: Callables whose result is a fresh mutable container.
_MUTABLE_FACTORIES = frozenset(
    {
        "list",
        "dict",
        "set",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
    }
)


@dataclass(frozen=True)
class SourceRead:
    """One direct nondeterminism-source read inside a function body."""

    kind: str  # "wallclock" | "global_rng" | "entropy" | "env" | "fs_order" | "set_order"
    dotted: str  # human-readable source name, e.g. "time.time"
    node: ast.AST

    @property
    def line(self) -> int:
        return int(getattr(self.node, "lineno", 1))


@dataclass(frozen=True)
class GlobalWrite:
    """A mutation of a module-level name from inside a function."""

    name: str
    node: ast.AST


@dataclass(frozen=True)
class SelfWrite:
    """A mutation of ``self``-reachable state from inside a method."""

    attr: str
    node: ast.AST


@dataclass
class Effects:
    """Everything one function does directly (no propagation)."""

    sources: List[SourceRead] = field(default_factory=list)
    global_writes: List[GlobalWrite] = field(default_factory=list)
    self_writes: List[SelfWrite] = field(default_factory=list)
    mutable_defaults: List[ast.AST] = field(default_factory=list)


def classify_source(dotted: str, node: ast.AST) -> Optional[SourceRead]:
    """Classify a resolved dotted name as a nondeterminism source read.

    *node* should be the most specific AST node for the read (the call,
    or the attribute chain for non-call reads like ``os.environ[...]``).
    """
    if dotted.startswith("time."):
        member = dotted.split(".", 1)[1]
        if member in _TIME_CLOCK_MEMBERS:
            return SourceRead("wallclock", dotted, node)
        if member in CLOCK_DEFAULT_MEMBERS and _defaults_to_now(member, node):
            return SourceRead("wallclock", dotted, node)
    if dotted in _DATETIME_READS:
        return SourceRead("wallclock", dotted, node)
    if dotted == "random" or dotted.startswith("random."):
        member = dotted.split(".", 1)[1] if "." in dotted else ""
        if member not in ("Random", "SystemRandom", ""):
            return SourceRead("global_rng", dotted, node)
    if dotted.startswith("numpy.random."):
        member = dotted.split(".")[2]
        if member not in _ALLOWED_NP_RANDOM:
            return SourceRead("global_rng", dotted, node)
    if dotted in _ENTROPY_READS or dotted.startswith("secrets."):
        return SourceRead("entropy", dotted, node)
    if dotted in _ENV_READS or dotted.startswith("os.environ."):
        return SourceRead("env", dotted, node)
    if dotted in _FS_ORDER_READS:
        return SourceRead("fs_order", dotted, node)
    return None


def _defaults_to_now(member: str, node: ast.AST) -> bool:
    """Whether a clock-defaulting ``time`` call omitted its time argument."""
    if not isinstance(node, ast.Call):
        return False
    n_args = len(node.args) + len(node.keywords)
    return n_args <= 1 if member == "strftime" else n_args == 0


def module_level_mutables(tree: ast.Module) -> Dict[str, ast.AST]:
    """Names bound at module level to a mutable container literal/factory.

    These are exactly the objects that live once per *process*: mutated
    from a worker, each fork sees (and mutates) its own copy, so results
    depend on worker placement.  Assignments of immutable values, and
    re-exports, are ignored.
    """
    mutables: Dict[str, ast.AST] = {}
    for stmt in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = list(stmt.targets), stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        if not _is_mutable_value(value):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                mutables[target.id] = stmt
    return mutables


def _is_mutable_value(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        parts: List[str] = []
        current: ast.expr = value.func
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if isinstance(current, ast.Name):
            parts.append(current.id)
            dotted = ".".join(reversed(parts))
            return dotted in _MUTABLE_FACTORIES
    return False


def scan_effects(graph: CallGraph, fn: FunctionInfo) -> Effects:
    """Scan *fn*'s body for direct effects (sources, writes, defaults)."""
    scope = function_scope(graph, fn)
    resolver = graph._resolvers[fn.modname]
    effects = Effects()

    mutables = module_level_mutables(graph.program.modules[fn.modname].tree)
    local_names = _assigned_locals(fn.node)
    global_decls = {
        name
        for node in ast.walk(fn.node)
        if isinstance(node, ast.Global)
        for name in node.names
    }

    for default in list(fn.node.args.defaults) + [
        d for d in fn.node.args.kw_defaults if d is not None
    ]:
        if _is_mutable_value(default):
            effects.mutable_defaults.append(default)

    # Top-down chain classification, mirroring CCS001: once a chain is
    # classified as a source, its sub-chains are not re-reported.
    # Decorator expressions are import-time, not call-time: skipped.
    skip = decorator_nodes(fn.node)
    classified: Set[int] = set()
    for node in ast.walk(fn.node):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Call):
            dotted = resolver.resolve_dotted(node.func)
            if dotted is not None:
                read = classify_source(dotted, node)
                if read is not None:
                    effects.sources.append(read)
                    for sub in ast.walk(node.func):
                        classified.add(id(sub))
        elif isinstance(node, (ast.Attribute, ast.Name)) and id(node) not in classified:
            dotted = resolver.resolve_dotted(node)
            if dotted is not None:
                read = classify_source(dotted, node)
                if read is not None:
                    effects.sources.append(read)
                    for sub in ast.walk(node):
                        classified.add(id(sub))

        # Mutations.
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                _record_store(
                    target, scope, mutables, local_names, global_decls, effects, node
                )
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            _record_store(
                node.target, scope, mutables, local_names, global_decls, effects, node
            )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATING_METHODS:
                _record_method_mutation(
                    node.func.value, scope, mutables, local_names, global_decls,
                    effects, node,
                )
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                _record_store(
                    target, scope, mutables, local_names, global_decls, effects, node
                )

    # De-duplicate source reads that the walk visited twice (a call and
    # its func chain can both classify at the same location).
    unique: Dict[Tuple[int, int, str], SourceRead] = {}
    for read in effects.sources:
        key = (read.line, int(getattr(read.node, "col_offset", 0)), read.dotted)
        unique.setdefault(key, read)
    effects.sources = [unique[k] for k in sorted(unique)]
    return effects


def _assigned_locals(fn_node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


def _root_of(target: ast.expr) -> Tuple[ast.expr, bool]:
    """Peel Subscript/Attribute layers; True when any layer was peeled."""
    current = target
    peeled = False
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        current = current.value
        peeled = True
    return current, peeled


def _record_store(
    target: ast.expr,
    scope: _FunctionScope,
    mutables: Dict[str, ast.AST],
    local_names: Set[str],
    global_decls: Set[str],
    effects: Effects,
    node: ast.AST,
) -> None:
    root, peeled = _root_of(target)
    if not isinstance(root, ast.Name):
        return
    if scope.self_name is not None and root.id == scope.self_name and peeled:
        # self.attr = ..., self.attr[k] = ..., self.attr.field = ...
        effects.self_writes.append(SelfWrite(attr=_first_attr(target), node=node))
        return
    if root.id not in mutables:
        return
    # A bare assignment anywhere in the function makes the name local
    # (Python scoping), so only `global`-declared rebinds touch the
    # module object; subscript/attribute stores always do.
    shadowed = root.id in local_names and root.id not in global_decls
    if peeled and not shadowed:
        effects.global_writes.append(GlobalWrite(name=root.id, node=node))
    elif not peeled and root.id in global_decls:
        effects.global_writes.append(GlobalWrite(name=root.id, node=node))


def _first_attr(target: ast.expr) -> str:
    """The attribute name closest to ``self`` in a store target chain."""
    chain: List[str] = []
    current = target
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        if isinstance(current, ast.Attribute):
            chain.append(current.attr)
        current = current.value
    return chain[-1] if chain else "?"


def _record_method_mutation(
    base: ast.expr,
    scope: _FunctionScope,
    mutables: Dict[str, ast.AST],
    local_names: Set[str],
    global_decls: Set[str],
    effects: Effects,
    node: ast.AST,
) -> None:
    root, peeled = _root_of(base)
    if not isinstance(root, ast.Name):
        return
    if scope.self_name is not None and root.id == scope.self_name:
        if peeled:  # self.attr.append(...) — mutation of self-reachable state
            effects.self_writes.append(SelfWrite(attr=_first_attr(base), node=node))
        return
    shadowed = root.id in local_names and root.id not in global_decls
    if root.id in mutables and not shadowed:
        effects.global_writes.append(GlobalWrite(name=root.id, node=node))
