"""CCS008 — dtype narrowing / unordered reductions in array-engine code."""

from __future__ import annotations

import ast
from typing import Iterator

from ..finding import Finding
from ..flow.program import ModuleInfo
from ..registry import Rule, register

__all__ = ["ArrayNumericRule"]

#: numpy scalar types narrower than the engine's float64/int64 discipline.
_NARROW_TYPES = frozenset(
    {
        "float16",
        "float32",
        "half",
        "single",
        "int8",
        "int16",
        "int32",
        "uint8",
        "uint16",
        "uint32",
        "longdouble",  # wider, but still a platform-dependent departure
    }
)

#: numpy callables whose float reduction order is unspecified-for-speed.
_UNORDERED_REDUCERS = frozenset(
    {
        "numpy.sum",
        "numpy.add.reduce",
        "numpy.nansum",
        "numpy.einsum",
        "numpy.dot",
        "numpy.matmul",
    }
)


@register
class ArrayNumericRule(Rule):
    """No dtype narrowing or unordered float reductions in the array engine.

    **Invariant.** Inside the array-engine modules
    (``repro/game/arraycore.py``, ``repro/wpt/vector.py``) every float
    array is float64, every index array is int64, and every float
    reduction either runs as an explicit Python-loop accumulation or is
    a numpy reduction carrying a ``ccs-lint: ignore[CCS008]`` suppression
    that names the object-engine call it mirrors.

    **Why.** The array engine's contract is *bit-identity* with the
    object engine: same switch sequence, same total cost to the last
    bit, on every platform.  A narrowed dtype (``np.float32``,
    ``dtype="int32"``) silently rounds 29 bits away and overflows int32
    at realistic demand scales; an unordered reduction (``np.sum``,
    ``ndarray.sum``, ``np.add.reduce``, ``np.dot``) is free to use
    pairwise or SIMD-blocked association, which produces different bits
    than the object engine's left-to-right Python accumulation — and the
    golden fixtures, the equivalence fuzz suite, and the Zobrist-keyed
    cycle detector all compare exactly.

    **Approved fix.** Build arrays with ``dtype=float`` / ``np.int64``.
    Replace reductions whose object-engine counterpart is a Python loop
    with the same loop.  Where the object engine itself performs the
    identical numpy reduction on the identical operands (the
    ``move_sum`` pairwise ``.sum()``), keep the call and suppress with
    ``# ccs-lint: ignore[CCS008] -- <which object-engine call this
    mirrors>`` so the shared-order argument is recorded at the site.
    """

    code = "CCS008"
    title = "dtype narrowing or unordered float reduction in array-engine code"
    scope = ("repro/game/arraycore.py", "repro/wpt/vector.py")

    def check(self, info: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(info.tree):
            if isinstance(node, (ast.Attribute, ast.Name)):
                dotted = info.resolve_dotted(node)
                if (
                    dotted is not None
                    and dotted.startswith("numpy.")
                    and dotted.rsplit(".", 1)[-1] in _NARROW_TYPES
                ):
                    yield self.finding(
                        info,
                        node,
                        f"{dotted} narrows the array engine's float64/int64 "
                        "discipline; bit-identity with the object engine is lost",
                    )
            if not isinstance(node, ast.Call):
                continue
            dotted = info.resolve_dotted(node.func)
            if dotted in _UNORDERED_REDUCERS:
                yield self.finding(
                    info,
                    node,
                    f"{dotted}(...) reduces floats in unspecified order; "
                    "accumulate with an explicit loop (or suppress, naming "
                    "the object-engine call whose order this mirrors)",
                )
                continue
            if (
                dotted is None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "sum"
            ):
                # ``<array expr>.sum()`` — numpy's pairwise reduction.
                yield self.finding(
                    info,
                    node,
                    ".sum() on an array reduces floats in unspecified order; "
                    "accumulate with an explicit loop (or suppress, naming "
                    "the object-engine call whose order this mirrors)",
                )
            for kw in node.keywords:
                if kw.arg != "dtype":
                    continue
                if (
                    isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)
                    and kw.value.value in _NARROW_TYPES
                ):
                    yield self.finding(
                        info,
                        kw.value,
                        f"dtype={kw.value.value!r} narrows the array engine's "
                        "float64/int64 discipline",
                    )
