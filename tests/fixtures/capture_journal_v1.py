"""Regenerate ``journal_v1/`` — the pinned on-disk format of one chaos run.

Run from the repo root, only after an *intentional* change to what the
service writes (a snapshot schema bump, say)::

    PYTHONPATH=src python tests/fixtures/capture_journal_v1.py

It runs the ``ccs-serve`` command in ``tests/test_journal_bytes.py``'s
docstring into a fresh directory and replaces every file of the fixture
with its output.  Check ``git diff --stat`` afterwards: only the files
the change meant to alter may differ.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO))

from repro.cli import serve_main  # noqa: E402
from tests.test_journal_bytes import ARGS, FIXTURE  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / FIXTURE.name
        if serve_main(ARGS + ["--journal", str(out)]) != 0:
            raise SystemExit("ccs-serve failed; the fixture is unchanged")
        shutil.rmtree(FIXTURE)
        shutil.copytree(out, FIXTURE)
    for path in sorted(FIXTURE.iterdir()):
        print(f"wrote {path.relative_to(REPO)}")


if __name__ == "__main__":
    main()
