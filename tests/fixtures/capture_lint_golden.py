"""Regenerate ``lint/golden_findings.json`` — the pinned ccs-lint findings.

Run from the repo root, only after an *intentional* change to what a
rule reports::

    PYTHONPATH=src python tests/fixtures/capture_lint_golden.py

See ``tests/test_lint_golden.py`` for what is pinned.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO))

from tests.test_lint_golden import GOLDEN, collect  # noqa: E402


def main() -> None:
    doc = collect()
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.relative_to(REPO)}")


if __name__ == "__main__":
    main()
