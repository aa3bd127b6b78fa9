"""A name-resolution-based, conservative call graph.

Functions are identified by *qualified name* —
``repro.service.kernel.ChargingService.submit`` — and edges are resolved
purely from names and declared types, never from runtime values:

- import aliases (absolute *and* relative, :attr:`ModuleInfo.aliases`)
  resolve cross-module calls;
- ``self.method(...)`` dispatches within the class and its in-program
  base classes;
- ``self.attr.method(...)`` resolves through *attribute type bindings*
  inferred from ``self.attr = ClassName(...)`` assignments, stores of
  annotated parameters (``self.j = j`` with ``j: Journal``), and
  ``self.attr: ClassName`` / ``Optional[ClassName]`` /
  ``Dict[K, ClassName]`` / ``List[ClassName]`` annotations;
- parameter annotations and single-assignment locals
  (``j = Journal(path)``) bind names inside a function body the same way;
- calling a class is an edge to its ``__init__``.

Anything dynamic — callbacks, ``getattr``, values whose type no
annotation or constructor names — stays unresolved.  Like the alias
map itself, the graph errs toward silence: a missing edge can hide a
real violation (documented limitation), a fabricated edge would spray
false findings across the tree.  Nested ``def``s fold into their
enclosing function: a local helper's effects are charged to the function
that defines it, since that is where it is (almost always) called.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .program import ModuleInfo, Program

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "build_callgraph",
]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class FunctionInfo:
    """One program function or method."""

    qname: str
    modname: str
    name: str
    node: FunctionNode
    cls: Optional[str] = None  # owning class qname, if a method
    decorators: Tuple[str, ...] = ()
    is_property: bool = False

    @property
    def module(self) -> str:
        return self.modname


@dataclass
class ClassInfo:
    """One program class: methods, bases, and attribute type bindings."""

    qname: str
    modname: str
    name: str
    node: ast.ClassDef
    bases: Tuple[str, ...] = ()  # resolved dotted base names, best effort
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: self.attr → class qname (a single, unambiguous binding).
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: self.attr → element class qname for list/dict-of-instances attrs.
    attr_elem_types: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, anchored at its AST node."""

    caller: str
    callee: str
    node: ast.AST

    @property
    def line(self) -> int:
        return int(getattr(self.node, "lineno", 1))


class CallGraph:
    """Functions, classes, and resolved call edges for a program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.edges: Dict[str, List[CallSite]] = {}
        self._reverse: Optional[Dict[str, List[str]]] = None
        self._resolvers: Dict[str, "_ModuleResolver"] = {}

    # ------------------------------------------------------------------ #
    # lookup

    def callees(self, qname: str) -> List[CallSite]:
        return self.edges.get(qname, [])

    def callers(self, qname: str) -> List[str]:
        if self._reverse is None:
            rev: Dict[str, List[str]] = {}
            for caller, sites in self.edges.items():
                for site in sites:
                    rev.setdefault(site.callee, []).append(caller)
            self._reverse = {k: sorted(set(v)) for k, v in rev.items()}
        return self._reverse.get(qname, [])

    def class_of(self, fn: FunctionInfo) -> Optional[ClassInfo]:
        return self.classes.get(fn.cls) if fn.cls is not None else None

    def method_on(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Resolve *name* on *cls*, walking in-program base classes."""
        seen: Set[str] = set()
        queue: List[ClassInfo] = [cls]
        while queue:
            current = queue.pop(0)
            if current.qname in seen:
                continue
            seen.add(current.qname)
            if name in current.methods:
                return current.methods[name]
            for base in current.bases:
                base_cls = self.classes.get(base)
                if base_cls is not None:
                    queue.append(base_cls)
        return None

    def is_subclass_of(self, cls: ClassInfo, base_qname: str) -> bool:
        """Whether *cls* is *base_qname* or transitively derives from it."""
        seen: Set[str] = set()
        queue: List[str] = [cls.qname]
        while queue:
            current = queue.pop(0)
            if current == base_qname:
                return True
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is not None:
                queue.extend(info.bases)
        return False

    def reachable_from(self, roots: Sequence[str]) -> Dict[str, Tuple[str, ...]]:
        """BFS over call edges from *roots*.

        Returns ``{qname: witness chain}`` where the chain is the shortest
        discovered call path ``(root, …, qname)`` — the evidence a finding
        message renders.  Roots map to one-element chains.
        """
        chains: Dict[str, Tuple[str, ...]] = {}
        queue: List[str] = []
        for root in roots:
            if root in self.functions and root not in chains:
                chains[root] = (root,)
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for site in self.callees(current):
                if site.callee in chains or site.callee not in self.functions:
                    continue
                chains[site.callee] = chains[current] + (site.callee,)
                queue.append(site.callee)
        return chains

    # ------------------------------------------------------------------ #
    # iteration

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qname in sorted(self.functions):
            yield self.functions[qname]


# ---------------------------------------------------------------------- #
# construction


def _annotation_class(
    annotation: Optional[ast.expr], resolver: "_ModuleResolver"
) -> Tuple[Optional[str], Optional[str]]:
    """``(instance class, element class)`` a type annotation names.

    ``Journal`` → ``(qname, None)``; ``Optional[Journal]`` unwraps;
    ``List[Journal]`` / ``Dict[int, Journal]`` / ``Sequence[Journal]``
    yield ``(None, qname)``.  Anything else is ``(None, None)``.
    """
    if annotation is None:
        return None, None
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        cls = resolver.class_for_expr(annotation)
        return (cls.qname if cls is not None else None), None
    if isinstance(annotation, ast.Subscript):
        head = annotation.value
        head_name = head.attr if isinstance(head, ast.Attribute) else (
            head.id if isinstance(head, ast.Name) else ""
        )
        inner = annotation.slice
        if head_name in ("Optional", "Union"):
            elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            for elt in elts:
                instance, _ = _annotation_class(elt, resolver)
                if instance is not None:
                    return instance, None
            return None, None
        if head_name in (
            "List", "Sequence", "Set", "FrozenSet", "Tuple", "Iterable",
            "list", "set", "tuple",
        ):
            elts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            for elt in elts:
                instance, _ = _annotation_class(elt, resolver)
                if instance is not None:
                    return None, instance
            return None, None
        if head_name in ("Dict", "Mapping", "MutableMapping", "dict", "DefaultDict", "OrderedDict"):
            if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
                instance, _ = _annotation_class(inner.elts[1], resolver)
                if instance is not None:
                    return None, instance
    return None, None


class _ModuleResolver:
    """Name resolution context for one module."""

    def __init__(self, graph: CallGraph, info: ModuleInfo) -> None:
        self.graph = graph
        self.info = info
        self.local_functions: Dict[str, FunctionInfo] = {}
        self.local_classes: Dict[str, ClassInfo] = {}

    def resolve_dotted(self, node: ast.expr) -> Optional[str]:
        """Absolute dotted path of a Name/Attribute chain, or ``None``."""
        return self.info.resolve_dotted(node)

    def resolve_qname(self, dotted: str) -> Optional[Union[FunctionInfo, ClassInfo]]:
        """Program function/class a dotted path names, if any."""
        hit = self.graph.program.resolve_prefix(dotted)
        if hit is None:
            return None
        modname, remainder = hit
        if not remainder:
            return None
        parts = remainder.split(".")
        head_fn = self.graph.functions.get(f"{modname}.{parts[0]}")
        head_cls = self.graph.classes.get(f"{modname}.{parts[0]}")
        if len(parts) == 1:
            return head_fn if head_fn is not None else head_cls
        if len(parts) == 2 and head_cls is not None:
            return self.graph.method_on(head_cls, parts[1])
        return None

    def class_for_expr(self, node: ast.expr) -> Optional[ClassInfo]:
        """The program class a Name/Attribute type expression names."""
        if isinstance(node, ast.Name) and node.id in self.local_classes:
            return self.local_classes[node.id]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotation: resolve the bare class name locally.
            name = node.value.split("[", 1)[0].strip()
            if name in self.local_classes:
                return self.local_classes[name]
            dotted = self.info.aliases.get(name)
            if dotted is not None:
                target = self.resolve_qname(dotted)
                if isinstance(target, ClassInfo):
                    return target
            return None
        dotted = self.resolve_dotted(node)
        if dotted is None:
            return None
        target = self.resolve_qname(dotted)
        return target if isinstance(target, ClassInfo) else None


class _FunctionScope:
    """Name bindings inside one function body."""

    def __init__(
        self,
        resolver: _ModuleResolver,
        fn: FunctionInfo,
        owner: Optional[ClassInfo],
    ) -> None:
        self.resolver = resolver
        self.fn = fn
        self.owner = owner
        self.self_name: Optional[str] = None
        #: local name → instance class qname
        self.locals: Dict[str, str] = {}
        #: local name → element class qname (containers of instances)
        self.local_elems: Dict[str, str] = {}
        self._bind_params()
        self._bind_locals()

    def _bind_params(self) -> None:
        args = self.fn.node.args
        positional = list(args.posonlyargs) + list(args.args)
        if (
            self.owner is not None
            and positional
            and "staticmethod" not in self.fn.decorators
        ):
            # `self` (or `cls` for classmethods) dispatches on the owner.
            self.self_name = positional[0].arg
            positional = positional[1:]
        for arg in positional + list(args.kwonlyargs):
            instance, elem = _annotation_class(arg.annotation, self.resolver)
            if instance is not None:
                self.locals[arg.arg] = instance
            elif elem is not None:
                self.local_elems[arg.arg] = elem

    def _bind_locals(self) -> None:
        # Single flow-insensitive pass: a name assigned a resolvable
        # constructor call binds to that class; a later conflicting
        # assignment drops the binding (conservative toward silence).
        dropped: Set[str] = set()
        for node in ast.walk(self.fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                cls = self._constructed_class(node.value)
                name = target.id
                if name in dropped:
                    continue
                if cls is not None:
                    if name in self.locals and self.locals[name] != cls.qname:
                        dropped.add(name)
                        del self.locals[name]
                    else:
                        self.locals[name] = cls.qname
                elif name in self.locals:
                    dropped.add(name)
                    del self.locals[name]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                instance, elem = _annotation_class(node.annotation, self.resolver)
                if instance is not None:
                    self.locals[node.target.id] = instance
                elif elem is not None:
                    self.local_elems[node.target.id] = elem

    def _constructed_class(self, value: ast.expr) -> Optional[ClassInfo]:
        if isinstance(value, ast.Call):
            target = self.resolve_callable(value.func)
            if isinstance(target, ClassInfo):
                return target
        return None

    # -------------------------------------------------------------- #
    # expression typing

    def instance_class(self, node: ast.expr) -> Optional[ClassInfo]:
        """The program class an expression is an *instance* of, if known."""
        graph = self.resolver.graph
        if isinstance(node, ast.Name):
            if node.id == self.self_name and self.owner is not None:
                return self.owner
            qname = self.locals.get(node.id)
            return graph.classes.get(qname) if qname is not None else None
        if isinstance(node, ast.Call):
            target = self.resolve_callable(node.func)
            if isinstance(target, ClassInfo):
                return target
            return None
        if isinstance(node, ast.Attribute):
            base = self.instance_class(node.value)
            if base is not None:
                qname = self._attr_type(base, node.attr)
                return graph.classes.get(qname) if qname is not None else None
            return None
        if isinstance(node, ast.Subscript):
            elem = self.element_class(node.value)
            return elem
        return None

    def element_class(self, node: ast.expr) -> Optional[ClassInfo]:
        """The element class of a container expression, if known."""
        graph = self.resolver.graph
        if isinstance(node, ast.Name):
            qname = self.local_elems.get(node.id)
            return graph.classes.get(qname) if qname is not None else None
        if isinstance(node, ast.Attribute):
            base = self.instance_class(node.value)
            if base is not None:
                qname = self._attr_elem_type(base, node.attr)
                return graph.classes.get(qname) if qname is not None else None
        return None

    def _attr_type(self, cls: ClassInfo, attr: str) -> Optional[str]:
        seen: Set[str] = set()
        queue = [cls.qname]
        while queue:
            qname = queue.pop(0)
            if qname in seen:
                continue
            seen.add(qname)
            info = self.resolver.graph.classes.get(qname)
            if info is None:
                continue
            if attr in info.attr_types:
                return info.attr_types[attr]
            queue.extend(info.bases)
        return None

    def _attr_elem_type(self, cls: ClassInfo, attr: str) -> Optional[str]:
        seen: Set[str] = set()
        queue = [cls.qname]
        while queue:
            qname = queue.pop(0)
            if qname in seen:
                continue
            seen.add(qname)
            info = self.resolver.graph.classes.get(qname)
            if info is None:
                continue
            if attr in info.attr_elem_types:
                return info.attr_elem_types[attr]
            queue.extend(info.bases)
        return None

    # -------------------------------------------------------------- #
    # call resolution

    def resolve_callable(
        self, func: ast.expr
    ) -> Optional[Union[FunctionInfo, ClassInfo]]:
        """What a call's ``func`` expression names, if resolvable."""
        graph = self.resolver.graph
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.resolver.local_functions:
                return self.resolver.local_functions[name]
            if name in self.resolver.local_classes:
                return self.resolver.local_classes[name]
            if (
                name == self.self_name
                and self.owner is not None
                and "classmethod" in self.fn.decorators
            ):
                # `cls(...)` inside a classmethod constructs the owner.
                return self.owner
            dotted = self.resolver.info.aliases.get(name)
            if dotted is not None:
                return self.resolver.resolve_qname(dotted)
            return None
        if isinstance(func, ast.Attribute):
            # Instance dispatch: self.m / self.attr.m / local.m / call().m
            base_cls = self.instance_class(func.value)
            if base_cls is not None:
                return graph.method_on(base_cls, func.attr)
            # A same-module class qualifying a method (`Kernel.recover(p)`)
            # is not in the import aliases, so check local classes first.
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in self.resolver.local_classes
            ):
                owner_cls = self.resolver.local_classes[func.value.id]
                return graph.method_on(owner_cls, func.attr)
            # Class-qualified or module-qualified dotted path.
            dotted = self.resolver.resolve_dotted(func)
            if dotted is not None:
                return self.resolver.resolve_qname(dotted)
        return None

    def resolve_call_target(self, func: ast.expr) -> Optional[str]:
        """Resolve a call to a function qname (classes → ``__init__``)."""
        target = self.resolve_callable(func)
        if isinstance(target, FunctionInfo):
            return target.qname
        if isinstance(target, ClassInfo):
            init = self.resolver.graph.method_on(target, "__init__")
            return init.qname if init is not None else None
        return None


def _decorator_names(node: FunctionNode, resolver: _ModuleResolver) -> Tuple[str, ...]:
    names: List[str] = []
    for dec in node.decorator_list:
        expr = dec.func if isinstance(dec, ast.Call) else dec
        dotted = resolver.resolve_dotted(expr)
        if dotted is None and isinstance(expr, ast.Name):
            dotted = expr.id
        elif dotted is None and isinstance(expr, ast.Attribute):
            dotted = expr.attr
        if dotted is not None:
            names.append(dotted)
    return tuple(names)


def _collect_definitions(graph: CallGraph) -> Dict[str, _ModuleResolver]:
    """First pass: register every function/class, then resolve bases."""
    resolvers: Dict[str, _ModuleResolver] = {}
    for modname in sorted(graph.program.modules):
        info = graph.program.modules[modname]
        resolver = _ModuleResolver(graph, info)
        resolvers[modname] = resolver
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    qname=f"{modname}.{stmt.name}",
                    modname=modname,
                    name=stmt.name,
                    node=stmt,
                )
                graph.functions[fn.qname] = fn
                resolver.local_functions[stmt.name] = fn
            elif isinstance(stmt, ast.ClassDef):
                cls = ClassInfo(
                    qname=f"{modname}.{stmt.name}",
                    modname=modname,
                    name=stmt.name,
                    node=stmt,
                )
                graph.classes[cls.qname] = cls
                resolver.local_classes[stmt.name] = cls
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = FunctionInfo(
                            qname=f"{cls.qname}.{sub.name}",
                            modname=modname,
                            name=sub.name,
                            node=sub,
                            cls=cls.qname,
                        )
                        graph.functions[method.qname] = method
                        cls.methods[sub.name] = method
    # Second sweep now that every class is registered: decorators, bases,
    # and attribute type bindings (which may reference foreign classes).
    for modname, resolver in resolvers.items():
        for fn in list(graph.functions.values()):
            if fn.modname != modname:
                continue
            fn.decorators = _decorator_names(fn.node, resolver)
            fn.is_property = any(
                d in ("property", "functools.cached_property", "cached_property")
                for d in fn.decorators
            )
        for cls in list(graph.classes.values()):
            if cls.modname != modname:
                continue
            bases: List[str] = []
            for base in cls.node.bases:
                target = resolver.class_for_expr(base)
                if target is not None:
                    bases.append(target.qname)
            cls.bases = tuple(bases)
    return resolvers


def _bind_attributes(graph: CallGraph, resolvers: Dict[str, _ModuleResolver]) -> None:
    """Infer ``self.attr`` type bindings from every method body."""
    for cls in graph.classes.values():
        resolver = resolvers[cls.modname]
        instance_bindings: Dict[str, Set[str]] = {}
        elem_bindings: Dict[str, Set[str]] = {}
        for method in cls.methods.values():
            scope = _FunctionScope(resolver, method, cls)
            if scope.self_name is None:
                continue
            for node in ast.walk(method.node):
                target: Optional[ast.expr] = None
                value: Optional[ast.expr] = None
                annotation: Optional[ast.expr] = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign):
                    target, value, annotation = node.target, node.value, node.annotation
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != scope.self_name
                ):
                    continue
                attr = target.attr
                instance, elem = _annotation_class(annotation, resolver)
                if instance is None and elem is None and value is not None:
                    # Type the right-hand side through the method scope:
                    # covers constructor calls *and* annotated parameters
                    # stored on self (`self.journal = journal` where the
                    # __init__ signature says `journal: Optional[Journal]`).
                    bound = scope.instance_class(value)
                    bound_elem = scope.element_class(value) if bound is None else None
                    if bound is not None:
                        instance = bound.qname
                    elif bound_elem is not None:
                        elem = bound_elem.qname
                    elif isinstance(value, (ast.List, ast.ListComp)):
                        first: Optional[ast.expr]
                        if isinstance(value, ast.List):
                            first = value.elts[0] if value.elts else None
                        else:
                            first = value.elt
                        if isinstance(first, ast.Call):
                            ctor = scope.resolve_callable(first.func)
                            if isinstance(ctor, ClassInfo):
                                elem = ctor.qname
                if instance is not None:
                    instance_bindings.setdefault(attr, set()).add(instance)
                if elem is not None:
                    elem_bindings.setdefault(attr, set()).add(elem)
        # Only unambiguous bindings survive: two different classes assigned
        # to the same attribute means we know nothing safe about it.
        cls.attr_types = {
            attr: next(iter(classes))
            for attr, classes in instance_bindings.items()
            if len(classes) == 1
        }
        cls.attr_elem_types = {
            attr: next(iter(classes))
            for attr, classes in elem_bindings.items()
            if len(classes) == 1
        }


def decorator_nodes(fn_node: FunctionNode) -> Set[int]:
    """AST node ids inside *fn_node*'s decorator expressions.

    Decorators execute once at import time (deterministically), not per
    call, so edge collection and effect scans skip them: ``@task_kind``
    registering a worker is not the worker mutating the registry.
    """
    ids: Set[int] = set()
    for dec in fn_node.decorator_list:
        for node in ast.walk(dec):
            ids.add(id(node))
    return ids


def _collect_edges(graph: CallGraph, resolvers: Dict[str, _ModuleResolver]) -> None:
    for fn in graph.iter_functions():
        resolver = resolvers[fn.modname]
        owner = graph.class_of(fn)
        scope = _FunctionScope(resolver, fn, owner)
        sites: List[CallSite] = []
        skip = decorator_nodes(fn.node)
        call_funcs: Set[int] = {
            id(node.func) for node in ast.walk(fn.node) if isinstance(node, ast.Call)
        }
        for node in ast.walk(fn.node):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Call):
                callee = scope.resolve_call_target(node.func)
                if callee is not None:
                    sites.append(CallSite(caller=fn.qname, callee=callee, node=node))
            elif isinstance(node, ast.Attribute) and id(node) not in call_funcs:
                # Property access is a call in disguise: resolve
                # ``task.fingerprint`` to the @property method.
                base_cls = scope.instance_class(node.value)
                if base_cls is not None:
                    method = graph.method_on(base_cls, node.attr)
                    if method is not None and method.is_property:
                        sites.append(
                            CallSite(caller=fn.qname, callee=method.qname, node=node)
                        )
        graph.edges[fn.qname] = sites


def function_scope(graph: CallGraph, fn: FunctionInfo) -> _FunctionScope:
    """A resolution scope for *fn*'s body (used by the effect scanner)."""
    return _FunctionScope(graph._resolvers[fn.modname], fn, graph.class_of(fn))


def build_callgraph(program: Program) -> CallGraph:
    """Build the full call graph for *program* (parse-free: reuses ASTs)."""
    graph = CallGraph(program)
    resolvers = _collect_definitions(graph)
    graph._resolvers = resolvers
    _bind_attributes(graph, resolvers)
    _collect_edges(graph, resolvers)
    return graph
