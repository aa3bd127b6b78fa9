"""CCS006 — unordered iteration in canonical-output code."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Union

from ..finding import Finding
from ..flow.program import ModuleInfo
from ..registry import Rule, register

__all__ = ["UnorderedIterationRule"]

#: Call targets whose *output order* follows the iteration order of their
#: argument — iterating a set through these leaks nondeterminism.
ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "iter", "reversed"})

#: Order-insensitive reducers: iterating a set through these is fine.
ORDER_FREE_CALLS = frozenset(
    {"sorted", "len", "sum", "min", "max", "any", "all", "set", "frozenset"}
)

#: Attribute names known (domain knowledge) to hold Python sets:
#: ``Coalition.members``.
KNOWN_SET_ATTRS = frozenset({"members"})

#: Annotation heads that mark a name as a set.
SET_ANNOTATIONS = frozenset({"set", "Set", "frozenset", "FrozenSet", "MutableSet", "AbstractSet"})


@register
class UnorderedIterationRule(Rule):
    """No iteration over sets in code that feeds fingerprints or goldens.

    **Invariant.** Code under ``repro/experiments/exec/``,
    ``repro/service/``, and ``repro/shard/`` (the places whose outputs
    are canonical-JSON
    fingerprinted, journaled, or pinned as goldens) never iterates a
    ``set`` / ``frozenset`` directly — every set is passed through
    ``sorted(...)`` (or an order-insensitive reducer such as ``sum`` /
    ``min`` / ``len``) before its elements are observed in order.

    **Why.** Set iteration order depends on element hashes; for strings
    it changes per process under hash randomization, and for any type it
    changes as the set's history changes.  Task fingerprints, cache keys,
    journal records, and the golden experiment tables are all *byte*
    -compared — one ``for x in some_set`` that decides output order makes
    serial and parallel runs disagree, recovery replay diverge, and
    goldens flap at random.  ``dict`` iteration is insertion-ordered and
    therefore allowed (deterministic inputs give deterministic order).

    **Approved fix.** ``for x in sorted(the_set)``; build lists when
    order matters; keep genuine order-free reductions (``sum``, ``min``,
    ``len``, set algebra) as they are — the rule already permits them.

    **Detection.** Statically visible sets only: set literals/
    comprehensions, ``set(...)`` / ``frozenset(...)`` calls, names
    assigned or annotated as sets in the same scope, set-typed
    parameters, and the domain attribute ``.members``.  Iterating an
    opaque expression that happens to be a set at runtime is not caught —
    the rule under-approximates rather than crying wolf.
    """

    code = "CCS006"
    title = "iteration over a set in canonical-fingerprint/golden-feeding code"
    scope = ("repro/experiments/exec/", "repro/service/", "repro/shard/")

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        findings: List[Finding] = []
        self._check_scope(info.tree, set(), info, findings)
        for finding in sorted(findings, key=Finding.sort_key):
            yield finding

    # ------------------------------------------------------------------ #
    # scope walking

    def _check_scope(
        self,
        scope_node: Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef],
        inherited_sets: Set[str],
        info: ModuleInfo,
        findings: List[Finding],
    ) -> None:
        """Analyze one function/module scope, then recurse into nested defs."""
        set_names = set(inherited_sets)
        if isinstance(scope_node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in self._all_args(scope_node.args):
                if arg.annotation is not None and self._is_set_annotation(arg.annotation):
                    set_names.add(arg.arg)

        body_nodes = self._scope_body_walk(scope_node)

        # Pass 1: which local names are statically sets?
        for node in body_nodes:
            if isinstance(node, ast.Assign) and self._is_set_expr(node.value, set_names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_names.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if self._is_set_annotation(node.annotation) or (
                    node.value is not None and self._is_set_expr(node.value, set_names)
                ):
                    set_names.add(node.target.id)

        # Pass 2: flag unordered observations of those sets.
        for node in body_nodes:
            self._check_node(node, set_names, info, findings)

        # Recurse into nested scopes.
        for node in body_nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_scope(node, set_names, info, findings)

    @staticmethod
    def _all_args(args: ast.arguments) -> List[ast.arg]:
        out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if args.vararg is not None:
            out.append(args.vararg)
        if args.kwarg is not None:
            out.append(args.kwarg)
        return out

    @staticmethod
    def _scope_body_walk(
        scope_node: Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef],
    ) -> List[ast.AST]:
        """All nodes of this scope, excluding nested function bodies."""
        out: List[ast.AST] = []
        stack: List[ast.AST] = list(ast.iter_child_nodes(scope_node))
        while stack:
            node = stack.pop()
            out.append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested scope handled recursively
            stack.extend(ast.iter_child_nodes(node))
        return out

    # ------------------------------------------------------------------ #
    # classification

    def _is_set_annotation(self, node: ast.expr) -> bool:
        head: Optional[ast.expr] = node
        if isinstance(head, ast.Subscript):
            head = head.value
        if isinstance(head, ast.Name):
            return head.id in SET_ANNOTATIONS
        if isinstance(head, ast.Attribute):
            return head.attr in SET_ANNOTATIONS
        if isinstance(head, ast.Constant) and isinstance(head.value, str):
            # String annotation: cheap textual head check.
            text = head.value.split("[")[0].strip()
            return text.split(".")[-1] in SET_ANNOTATIONS
        return False

    def _is_set_expr(self, node: ast.expr, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in {"set", "frozenset"}:
                return True
        if isinstance(node, ast.Name) and node.id in set_names:
            return True
        if isinstance(node, ast.Attribute) and node.attr in KNOWN_SET_ATTRS:
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            # Set algebra stays a set when either side is known to be one.
            return self._is_set_expr(node.left, set_names) or self._is_set_expr(
                node.right, set_names
            )
        return False

    def _check_node(
        self,
        node: ast.AST,
        set_names: Set[str],
        info: ModuleInfo,
        findings: List[Finding],
    ) -> None:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if self._is_set_expr(node.iter, set_names):
                findings.append(self._flag(info, node.iter, "for-loop"))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                if self._is_set_expr(gen.iter, set_names):
                    findings.append(self._flag(info, gen.iter, "comprehension"))
        elif isinstance(node, ast.Call):
            name = self._call_name(node)
            if name in ORDER_SENSITIVE_CALLS and node.args:
                if self._is_set_expr(node.args[0], set_names):
                    findings.append(self._flag(info, node.args[0], f"{name}(...)"))
            elif name == "join" and node.args and self._is_set_expr(node.args[0], set_names):
                findings.append(self._flag(info, node.args[0], "str.join"))

    @staticmethod
    def _call_name(node: ast.Call) -> Optional[str]:
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return None

    def _flag(self, info: ModuleInfo, node: ast.expr, where: str) -> Finding:
        return self.finding(
            info,
            node,
            f"set iterated in {where}: iteration order is nondeterministic in "
            "canonical-output code — wrap in sorted(...) (order-free reducers "
            "like sum/min/len are fine)",
        )
