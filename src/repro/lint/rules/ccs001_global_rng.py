"""CCS001 — all randomness flows through ``repro.rng``."""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from ..finding import Finding
from ..flow.effects import classify_source
from ..flow.program import ModuleInfo
from ..registry import Rule, register

__all__ = ["GlobalRngRule"]


@register
class GlobalRngRule(Rule):
    """No ``random`` module and no global-state ``numpy.random`` calls.

    **Invariant.** Every random draw in this repo flows through
    :mod:`repro.rng` (``ensure_rng`` / ``spawn`` / ``derive_seed``), which
    hands out explicit ``numpy.random.Generator`` streams keyed by
    SeedSequence spawn paths.

    **Why.** Task fingerprints and the serial == parallel equivalence
    guarantee (docs/EXECUTION.md) hold because a task's randomness is a
    pure function of ``(root seed, spawn path)``.  One call that touches
    process-global RNG state — ``random.random()``, ``np.random.seed``,
    ``np.random.rand``, a shared ``RandomState`` — makes results depend
    on execution order and worker placement: byte-identical replay, the
    result cache, and the golden traces all silently break.

    **Approved fix.** Thread a ``numpy.random.Generator`` through
    explicitly; create streams with ``repro.rng.ensure_rng`` and derive
    child seeds with ``repro.rng.derive_seed`` / ``repro.rng.spawn``.
    Stateless ``numpy.random`` members (``Generator``, ``default_rng``,
    ``SeedSequence``, the bit generators) are allowed everywhere.

    **Allowlisted.** ``repro/rng.py`` — the single blessed wrapper.
    """

    code = "CCS001"
    title = "global RNG state (random module / legacy numpy.random) used outside repro.rng"
    allow = ("repro/rng.py",)

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        findings: List[Finding] = []

        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.name == "random" or item.name.startswith("random."):
                        findings.append(
                            self.finding(
                                info,
                                node,
                                "the stdlib 'random' module is process-global state; "
                                "use repro.rng (ensure_rng / derive_seed) instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    findings.append(
                        self.finding(
                            info,
                            node,
                            "importing from the stdlib 'random' module; "
                            "use repro.rng (ensure_rng / derive_seed) instead",
                        )
                    )
                elif node.level == 0 and node.module == "numpy.random":
                    for item in node.names:
                        if item.name != "*" and classify_source(
                            f"numpy.random.{item.name}", node
                        ) is not None:
                            findings.append(
                                self.finding(
                                    info,
                                    node,
                                    f"numpy.random.{item.name} is legacy global-state "
                                    "RNG API; use an explicit Generator from "
                                    "repro.rng.ensure_rng",
                                )
                            )

        findings.extend(self._check_attribute_chains(info))
        for finding in sorted(findings, key=Finding.sort_key):
            yield finding

    def _check_attribute_chains(self, info: ModuleInfo) -> List[Finding]:
        findings: List[Finding] = []
        # Visit top-down and stop descending once a chain is classified, so
        # ``np.random.seed`` is one finding, not also an inner ``np.random``.
        stack: List[Tuple[ast.AST, bool]] = [(info.tree, False)]
        while stack:
            node, skip = stack.pop()
            if skip:
                continue
            classified = False
            if isinstance(node, (ast.Attribute, ast.Name)):
                dotted = info.resolve_dotted(node)
                if dotted is not None:
                    classified = self._classify(dotted, node, info, findings)
            for child in ast.iter_child_nodes(node):
                stack.append((child, classified))
        return findings

    def _classify(
        self, dotted: str, node: ast.AST, info: ModuleInfo, findings: List[Finding]
    ) -> bool:
        """Record a finding (or an allowance) for *dotted*; True = handled."""
        if dotted == "numpy.random":
            findings.append(
                self.finding(
                    info,
                    node,
                    "referencing the global numpy.random module; pass an explicit "
                    "Generator from repro.rng.ensure_rng instead",
                )
            )
            return True
        if dotted.startswith("numpy.random."):
            # Stateless members (the catalog's allowed constructors) are
            # handled too: their inner ``numpy.random`` is not a reference.
            if classify_source(dotted, node) is not None:
                member = dotted.split(".")[2]
                findings.append(
                    self.finding(
                        info,
                        node,
                        f"numpy.random.{member} touches process-global RNG state; "
                        "use an explicit Generator from repro.rng.ensure_rng",
                    )
                )
            return True
        if dotted == "random" or dotted.startswith("random."):
            # The import itself is already flagged; flagging usages too
            # would duplicate noise, but aliased *members* imported via
            # ``from random import x`` only show up here.  Every member
            # counts (``random.Random`` too): the whole module is banned.
            if "." in dotted:
                findings.append(
                    self.finding(
                        info,
                        node,
                        f"stdlib {dotted}() draws from process-global RNG state; "
                        "use repro.rng instead",
                    )
                )
            return True
        return False
