"""CCS003 — float-literal ``==`` / ``!=`` comparisons."""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..finding import Finding
from ..flow.program import ModuleInfo
from ..registry import Rule, register

__all__ = ["FloatEqualityRule"]


@register
class FloatEqualityRule(Rule):
    """No ``==`` / ``!=`` against a float literal.

    **Invariant.** Exact float comparisons are only ever made against
    *named sentinels* from :mod:`repro.numeric` (``EXACT_ZERO``,
    ``EXACT_ONE``) or through its helpers (``is_exact_zero``,
    ``is_exact``); approximate comparisons go through
    ``repro.numeric.isclose`` or a named tolerance constant
    (``DEFAULT_REL_TOL``, ``CACHE_REL_TOL``, ...).

    **Why.** A bare ``x == 0.0`` does not say whether the author meant "x
    was *constructed* as exactly zero" (a valid sentinel guard — e.g. the
    session price of an empty member list) or "x is numerically
    negligible" (a bug magnet after any accumulation: ``0.1 + 0.2 !=
    0.3``).  Routing the first kind through ``is_exact_zero`` makes the
    intent machine-visible and reviews trivial, and keeps every tolerance
    the repo relies on (cache-coherence audits, golden-trace drift
    bounds) defined once in ``repro/numeric.py`` instead of scattered as
    magic literals.

    **Approved fix.** Exact sentinel guard → ``is_exact_zero(x)`` /
    ``x == EXACT_ZERO``.  Approximate comparison →
    ``repro.numeric.isclose(a, b)`` or an explicit named tolerance.
    Comparisons against ``float("inf")`` are exact by construction and
    are not flagged.
    """

    code = "CCS003"
    title = "float literal compared with == / != (use repro.numeric sentinels/tolerances)"

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for k, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[k], operands[k + 1]
                literal = self._float_literal(left)
                if literal is None:
                    literal = self._float_literal(right)
                if literal is None:
                    continue
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield self.finding(
                    info,
                    node,
                    f"float literal {literal!r} compared with {symbol}; use "
                    "repro.numeric (is_exact_zero / EXACT_* sentinels / isclose)",
                )

    @staticmethod
    def _float_literal(node: ast.expr) -> Optional[float]:
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return node.value
        # A negated literal (``x == -1.0``) parses as UnaryOp(USub, 1.0).
        if (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and isinstance(node.operand, ast.Constant)
            and type(node.operand.value) is float
        ):
            return -node.operand.value if isinstance(node.op, ast.USub) else node.operand.value
        return None
