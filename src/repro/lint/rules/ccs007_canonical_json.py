"""CCS007 — ``json.dumps`` without ``sort_keys=True`` in canonical code."""

from __future__ import annotations

import ast
from typing import Iterator

from ..finding import Finding
from ..flow.program import ModuleInfo
from ..registry import Rule, register

__all__ = ["CanonicalJsonRule"]


@register
class CanonicalJsonRule(Rule):
    """``json.dumps`` / ``json.dump`` must pass ``sort_keys=True`` here.

    **Invariant.** In the canonical-output subtrees
    (``repro/experiments/exec/``, ``repro/service/``,
    ``repro/shard/``), every JSON
    serialization call sorts its keys — or, better, goes through
    :func:`repro.experiments.exec.task.canonical_json`, which also
    normalizes ``-0.0`` and rejects non-finite floats.

    **Why.** Python dicts serialize in insertion order; two code paths
    building "the same" record in different key order produce different
    bytes.  Task fingerprints, cache entries, journal checksums, and the
    byte-compared equivalence suite all assume one canonical byte string
    per value — an unsorted ``json.dumps`` makes equal states hash
    unequal, which shows up as cache misses at best and
    recovery-divergence assertions at worst.

    **Approved fix.** Use ``canonical_json(value)`` for anything
    fingerprinted or checksummed; otherwise pass ``sort_keys=True``
    explicitly (a literal ``True``, so the guarantee is visible at the
    call site).
    """

    code = "CCS007"
    title = "json.dumps/json.dump without sort_keys=True in canonical-output code"
    scope = ("repro/experiments/exec/", "repro/service/", "repro/shard/")

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = info.resolve_dotted(node.func)
            if dotted not in ("json.dumps", "json.dump"):
                continue
            if self._sorts_keys(node):
                continue
            yield self.finding(
                info,
                node,
                f"{dotted}(...) without sort_keys=True cannot produce canonical "
                "bytes; use canonical_json(...) or pass sort_keys=True",
            )

    @staticmethod
    def _sorts_keys(node: ast.Call) -> bool:
        for kw in node.keywords:
            if kw.arg == "sort_keys":
                return isinstance(kw.value, ast.Constant) and kw.value.value is True
            if kw.arg is None:
                # ``**kwargs`` — cannot see inside; trust the call site.
                return True
        return False
