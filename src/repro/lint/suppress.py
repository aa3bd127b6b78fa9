"""Inline suppression comments.

Two forms, parsed from real comment tokens (never from string literals)::

    fh = open(path, "w")  # ccs-lint: ignore[CCS005] -- an input trace, not service state
    # ccs-lint: ignore[CCS003, CCS006] -- reason applies to the next line
    value = compute()

A suppression at the end of a code line silences the named codes for
findings anchored on that physical line.  A suppression comment *alone*
on a line covers the next code line below it (intervening comment or
blank lines included), so a justification can span several comment
lines.  ``ignore`` with no bracket list silences every rule on the line
(discouraged — name the codes).

The ``--`` reason text is free-form but strongly encouraged: the
suppression policy (docs/LINTING.md) asks every ignore to say *why* the
invariant holds anyway at that site.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, List, Tuple

__all__ = ["ALL_CODES", "Suppressions", "parse_suppressions"]

#: Sentinel meaning "every code is suppressed on this line".
ALL_CODES = "*"

_PATTERN = re.compile(
    r"#\s*ccs-lint\s*:\s*ignore(?:\[(?P<codes>[A-Za-z0-9_,\s]*)\])?"
)


class Suppressions:
    """Per-line suppressed code sets for one source file."""

    def __init__(self, by_line: Dict[int, FrozenSet[str]]) -> None:
        self._by_line = by_line
        self.matched: Dict[Tuple[int, str], bool] = {}

    def is_suppressed(self, code: str, *lines: int) -> bool:
        """Whether *code* is silenced on any of the given physical lines."""
        for line in lines:
            codes = self._by_line.get(line)
            if codes is not None and (ALL_CODES in codes or code in codes):
                return True
        return False

    @property
    def lines(self) -> List[int]:
        """Physical lines carrying a suppression comment (for audits)."""
        return sorted(self._by_line)


def parse_suppressions(source: str) -> Suppressions:
    """Extract ``# ccs-lint: ignore[...]`` comments from *source*.

    Tolerant of tokenization failures (the analyzer reports a syntax
    error separately); a file that cannot be tokenized simply has no
    suppressions.
    """
    by_line: Dict[int, FrozenSet[str]] = {}
    # A suppression comment on the final line of a file with no trailing
    # newline must still tokenize: some tokenizer versions error on (or
    # drop) an unterminated last line, so normalize before tokenizing.
    # Line numbers are unaffected — nothing is added before the comment.
    if source and not source.endswith("\n"):
        source = source + "\n"
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return Suppressions({})
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PATTERN.search(tok.string)
        if match is None:
            continue
        raw = match.group("codes")
        if raw is None:
            codes = frozenset({ALL_CODES})
        else:
            names = frozenset(c.strip().upper() for c in raw.split(",") if c.strip())
            codes = names if names else frozenset({ALL_CODES})
        line = tok.start[0]
        by_line[line] = by_line.get(line, frozenset()) | codes
        # A standalone suppression comment covers the statement below it:
        # carry the codes through any further comment/blank lines down to
        # (and including) the first code line.
        stripped = tok.line.strip()
        if stripped.startswith("#"):
            lines = source.splitlines()
            cursor = line  # 1-based; lines[cursor] is the next physical line
            while cursor < len(lines):
                text = lines[cursor].strip()
                cursor += 1
                by_line[cursor] = by_line.get(cursor, frozenset()) | codes
                if text == "" or text.startswith("#"):
                    continue
                break
    return Suppressions(by_line)
