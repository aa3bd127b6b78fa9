"""Pinned ccs-lint findings: the analyzer's output, finding by finding.

``tests/fixtures/lint/golden_findings.json`` pins every finding (code,
module, line, col, message) of

- each per-file rule's violating fixture under its ``MODULE_LABELS``
  label (``tests/test_lint.py``);
- each whole-program fixture program ``tests/fixtures/lint/flow/*_bad``;
- the inline-suppressed findings of the ``src benchmarks examples`` scan
  (which has no active findings).

A refactor of the analyzer or of a rule must leave all of them exactly
as they are.  After an *intentional* change to a rule's output,
regenerate from the repo root with::

    PYTHONPATH=src python tests/fixtures/capture_lint_golden.py

The file also checks that one analysis parses each file exactly once.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

from repro.lint import analyze_paths, analyze_source
from repro.lint.analyzer import analyze_sources

from .test_lint import MODULE_LABELS

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "fixtures" / "lint"
GOLDEN = FIXTURES / "golden_findings.json"
SCAN = ("src", "benchmarks", "examples")


def pin(findings):
    return [[f.code, f.module, f.line, f.col, f.message] for f in findings]


def flow_items(name):
    base = FIXTURES / "flow" / name
    return [
        (str(path), path.read_text(encoding="utf-8"), path.relative_to(base).as_posix())
        for path in sorted(base.rglob("*.py"))
    ]


def collect():
    """Every pinned finding, keyed by what was analyzed.

    The scan runs on repo-relative paths (as ``make lint`` does), so the
    caller must have the repo root as its working directory.
    """
    fixtures = {}
    for code, label in sorted(MODULE_LABELS.items()):
        path = FIXTURES / f"{code.lower()}_bad.py"
        report = analyze_source(path.read_text(encoding="utf-8"), str(path), module=label)
        fixtures[path.name] = {
            "findings": pin(report.findings),
            "suppressed": pin(report.suppressed),
        }
    flow = {}
    for base in sorted((FIXTURES / "flow").glob("*_bad")):
        reports = analyze_sources(flow_items(base.name))
        flow[base.name] = {
            "findings": pin(f for r in reports for f in r.findings),
            "suppressed": pin(f for r in reports for f in r.suppressed),
        }
    reports = analyze_paths(list(SCAN))
    return {
        "fixtures": fixtures,
        "flow": flow,
        "scan": {
            "findings": pin(f for r in reports for f in r.findings),
            "suppressed": pin(f for r in reports for f in r.suppressed),
        },
    }


def test_findings_match_the_pins(monkeypatch):
    monkeypatch.chdir(REPO)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = collect()
    for section in ("fixtures", "flow"):
        assert sorted(got[section]) == sorted(golden[section])
        for name in golden[section]:
            assert got[section][name] == golden[section][name], name
    assert got["scan"] == golden["scan"]


def test_one_parse_per_analyzed_file(tmp_path, monkeypatch):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("import time\nT = time.time()\n")
    (tmp_path / "pkg" / "b.py").write_text("from .a import T\n\ndef f():\n    return T\n")
    (tmp_path / "broken.py").write_text("def broken(:\n")
    calls = []
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):
        calls.append(source)
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    reports = analyze_paths([tmp_path])
    assert len(reports) == 3
    assert len(calls) == 3
    codes = sorted(f.code for r in reports for f in r.findings)
    assert codes == ["CCS000", "CCS002"]
