"""Regenerate ``experiments_golden.json`` — the pinned evaluation outputs.

Companion to ``capture_ccsga_golden.py``: where that file pins the game
*dynamics*, this one pins the *evaluation*: the rendered Table 2
(small-scale optimality) and Table 3 (field experiment) at their
canonical parameters plus the aggregate statistics EXPERIMENTS.md quotes,
and every experiment id's output and task fingerprints at the small
sizes of ``tests/test_exec_equivalence.py``.  See
``tests/test_experiments_golden.py`` for what is compared.

Run from the repo root, only after an *intentional* behaviour change::

    PYTHONPATH=src python tests/fixtures/capture_experiments_golden.py
    # or: make golden-experiments
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO))

from tests.test_experiments_golden import GOLDEN_FILE, collect  # noqa: E402


if __name__ == "__main__":
    golden = collect()
    with open(GOLDEN_FILE, "w") as fh:
        json.dump(golden, fh, indent=2)
        fh.write("\n")
    print(f"wrote {GOLDEN_FILE.relative_to(REPO)}")
    print(golden["table2"]["rendered"])
    print()
    print(golden["table3"]["rendered"])
