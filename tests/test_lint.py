"""Tests for ccs-lint, the domain-aware static analyzer.

Three layers:

- per-rule behaviour against the fixture snippets in
  ``tests/fixtures/lint/`` (every rule has a violating and a clean file);
- the machinery: inline suppressions, the baseline round-trip, the CLI;
- the tier-1 gate: ``src/`` itself analyzes clean, and *reintroducing*
  a determinism violation (global RNG, wall-clock read) fails here.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import analyze_paths, analyze_source
from repro.lint.analyzer import SYNTAX_ERROR_CODE, normalize_module
from repro.lint.baseline import Baseline
from repro.lint.cli import main as lint_main
from repro.lint.finding import Finding
from repro.lint.registry import all_rules, get_rule

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
FIXTURES = Path(__file__).parent / "fixtures" / "lint"

#: Synthetic module labels that put each fixture inside the rule's scope
#: while staying outside its ``allow`` list.
MODULE_LABELS = {
    "CCS001": "repro/sim/noise.py",
    "CCS002": "repro/service/kernel.py",
    "CCS003": "repro/core/instance.py",
    "CCS004": "repro/service/plan.py",
    "CCS005": "repro/service/metrics.py",
    "CCS006": "repro/experiments/exec/task.py",
    "CCS007": "repro/service/snapshot.py",
    "CCS008": "repro/game/arraycore.py",
}
RULE_CODES = sorted(MODULE_LABELS)


def analyze_fixture(code: str, kind: str):
    path = FIXTURES / f"{code.lower()}_{kind}.py"
    return analyze_source(path.read_text(encoding="utf-8"), str(path), module=MODULE_LABELS[code])


# --------------------------------------------------------------------- #
# the rule catalog


def test_registry_has_all_rules():
    codes = [rule.code for rule in all_rules()]
    assert codes == sorted(codes)
    for code in RULE_CODES:
        assert code in codes


def test_every_rule_documents_itself():
    for rule in all_rules():
        assert re.fullmatch(r"CCS\d{3}", rule.code)
        assert rule.title
        explanation = rule.explanation()
        assert len(explanation.split()) >= 10, f"{rule.code} explanation too thin"


@pytest.mark.parametrize("code", RULE_CODES)
def test_rule_flags_violating_fixture(code):
    report = analyze_fixture(code, "bad")
    hits = [f for f in report.findings if f.code == code]
    assert hits, f"{code} found nothing in its violating fixture"
    for finding in hits:
        assert finding.line > 0
        assert code in finding.render()


@pytest.mark.parametrize("code", RULE_CODES)
def test_rule_passes_clean_fixture(code):
    report = analyze_fixture(code, "ok")
    assert report.findings == [], "\n".join(f.render() for f in report.findings)
    assert report.suppressed == []


def test_allow_list_exempts_owning_module():
    # The exact source that is a violation anywhere else is legal inside
    # the module that owns the invariant.
    source = (FIXTURES / "ccs005_bad.py").read_text(encoding="utf-8")
    inside = analyze_source(source, "io.py", module="repro/io.py")
    assert [f for f in inside.findings if f.code == "CCS005"] == []


def test_scoped_rule_ignores_out_of_scope_modules():
    source = (FIXTURES / "ccs006_bad.py").read_text(encoding="utf-8")
    outside = analyze_source(source, "geometry.py", module="repro/geometry/point.py")
    assert [f for f in outside.findings if f.code == "CCS006"] == []


def test_syntax_error_becomes_ccs000():
    report = analyze_source("def broken(:\n", "broken.py", module="repro/x.py")
    assert [f.code for f in report.findings] == [SYNTAX_ERROR_CODE]


def test_normalize_module():
    assert normalize_module("src/repro/service/journal.py") == "repro/service/journal.py"
    assert (
        normalize_module("/abs/repo/src/repro/game/coalition.py")
        == "repro/game/coalition.py"
    )
    assert normalize_module("./tools/script.py") == "tools/script.py"
    assert normalize_module(REPO / "benchmarks" / "e2e" / "run.py") == (
        "benchmarks/e2e/run.py"
    )


def test_absolute_and_relative_invocations_agree(tmp_path, monkeypatch):
    # Module labels outside the package come from the project root, not
    # the working directory: CCS002's benchmark/example scopes must match
    # however the files were named.
    def scan(paths):
        return [
            (
                r.module,
                [(f.code, f.module, f.line, f.col, f.message) for f in r.findings],
                [(f.code, f.module, f.line, f.col, f.message) for f in r.suppressed],
            )
            for r in analyze_paths(paths)
        ]

    monkeypatch.chdir(REPO)
    relative = scan(["benchmarks", "examples"])
    monkeypatch.chdir(tmp_path)
    absolute = scan([REPO / "benchmarks", REPO / "examples"])
    assert absolute == relative
    assert all(module.startswith(("benchmarks/", "examples/")) for module, _f, _s in relative)
    assert not any(findings for _m, findings, _s in relative)


# --------------------------------------------------------------------- #
# inline suppressions


def test_same_line_suppression_silences_named_code():
    src = "import random  # ccs-lint: ignore[CCS001] -- fixture\n"
    report = analyze_source(src, "m.py", module=MODULE_LABELS["CCS001"])
    assert report.findings == []
    assert [f.code for f in report.suppressed] == ["CCS001"]


def test_standalone_suppression_covers_next_code_line():
    src = (
        "# ccs-lint: ignore[CCS001] -- justification that spans\n"
        "# more than one comment line before the code\n"
        "import random\n"
    )
    report = analyze_source(src, "m.py", module=MODULE_LABELS["CCS001"])
    assert report.findings == []
    assert [f.code for f in report.suppressed] == ["CCS001"]


def test_wrong_code_suppression_does_not_silence():
    src = "import random  # ccs-lint: ignore[CCS002] -- wrong code\n"
    report = analyze_source(src, "m.py", module=MODULE_LABELS["CCS001"])
    assert [f.code for f in report.findings] == ["CCS001"]
    assert report.suppressed == []


def test_bare_ignore_silences_everything_on_the_line():
    src = "import random  # ccs-lint: ignore\n"
    report = analyze_source(src, "m.py", module=MODULE_LABELS["CCS001"])
    assert report.findings == []
    assert [f.code for f in report.suppressed] == ["CCS001"]


def test_suppression_in_string_literal_is_inert():
    src = 'NOTE = "# ccs-lint: ignore[CCS001]"\nimport random\n'
    report = analyze_source(src, "m.py", module=MODULE_LABELS["CCS001"])
    assert [f.code for f in report.findings] == ["CCS001"]


# --------------------------------------------------------------------- #
# the baseline


def bad_findings(code: str = "CCS003"):
    return analyze_fixture(code, "bad").findings


def test_baseline_round_trip(tmp_path):
    findings = bad_findings()
    path = tmp_path / "baseline.json"
    count = Baseline.write(path, findings)
    assert count == len(findings)
    baseline = Baseline.load(path)
    assert len(baseline) == len(findings)
    new, baselined = baseline.partition(findings)
    assert new == []
    assert baselined == findings


def test_baseline_survives_line_shifts(tmp_path):
    source = (FIXTURES / "ccs003_bad.py").read_text(encoding="utf-8")
    path = tmp_path / "baseline.json"
    Baseline.write(path, bad_findings())
    shifted = "# a new leading comment\n# another\n\n" + source
    report = analyze_source(shifted, "m.py", module=MODULE_LABELS["CCS003"])
    new, baselined = Baseline.load(path).partition(report.findings)
    assert new == []
    assert len(baselined) == len(report.findings)


def test_editing_a_baselined_line_resurfaces_it(tmp_path):
    source = (FIXTURES / "ccs003_bad.py").read_text(encoding="utf-8")
    path = tmp_path / "baseline.json"
    Baseline.write(path, bad_findings())
    edited = source.replace("share == 0.5", "share == 0.75")
    report = analyze_source(edited, "m.py", module=MODULE_LABELS["CCS003"])
    new, _ = Baseline.load(path).partition(report.findings)
    # The edited line carried two findings (0.5 and -1.5); both resurface.
    assert {f.snippet.strip() for f in new} == {"return share == 0.75 or -1.5 == x"}
    assert len(new) == 2


def test_baseline_entries_are_a_multiset():
    line = "    x = y == 0.5\n"
    src = "def f(y):\n" + line + line.replace("x", "z")
    report = analyze_source(src, "m.py", module=MODULE_LABELS["CCS003"])
    assert len(report.findings) == 2
    baseline = Baseline(
        __import__("collections").Counter({report.findings[0].key(): 1})
    )
    new, baselined = baseline.partition(report.findings)
    # Two identical-content findings, one baseline entry: one absorbed.
    assert len(new) == 1 and len(baselined) == 1


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError):
        Baseline.load(path)


def test_missing_baseline_is_empty(tmp_path):
    baseline = Baseline.load(tmp_path / "nope.json")
    assert len(baseline) == 0


# --------------------------------------------------------------------- #
# the CLI


def test_cli_explain_every_rule(capsys):
    for rule in all_rules():
        assert lint_main(["--explain", rule.code]) == 0
        out = capsys.readouterr().out
        assert rule.code in out and rule.title in out


def test_cli_explain_unknown_rule(capsys):
    assert lint_main(["--explain", "CCS999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULE_CODES:
        assert code in out


def test_cli_missing_path_is_usage_error(capsys):
    assert lint_main(["definitely/not/a/path.py"]) == 2


def test_cli_flags_violations_and_baseline_silences_them(tmp_path, capsys):
    bad = FIXTURES / "ccs001_bad.py"
    assert lint_main([str(bad), "--no-baseline"]) == 1
    captured = capsys.readouterr()
    assert "CCS001" in captured.out

    baseline = tmp_path / "baseline.json"
    assert lint_main([str(bad), "--baseline", str(baseline), "--write-baseline"]) == 0
    capsys.readouterr()
    assert lint_main([str(bad), "--baseline", str(baseline)]) == 0
    assert "baselined" in capsys.readouterr().err


def test_cli_clean_file_exits_zero(capsys):
    ok = FIXTURES / "ccs001_ok.py"
    assert lint_main([str(ok), "--no-baseline"]) == 0


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--list-rules"],
        cwd=REPO,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "CCS001" in proc.stdout


# --------------------------------------------------------------------- #
# the tier-1 gate: src itself


def src_reports():
    return analyze_paths([SRC])


def test_src_tree_is_lint_clean():
    findings = [f for r in src_reports() for f in r.findings]
    findings.sort(key=Finding.sort_key)
    baseline = Baseline.load(REPO / ".ccs-lint-baseline.json")
    new, _ = baseline.partition(findings)
    assert new == [], "ccs-lint findings in src:\n" + "\n".join(f.render() for f in new)


def test_checked_in_baseline_is_empty():
    # The burn-down is done; the baseline must not silently regrow.
    baseline = Baseline.load(REPO / ".ccs-lint-baseline.json")
    assert len(baseline) == 0


def test_every_inline_suppression_names_a_code_and_a_reason():
    pattern = re.compile(r"#\s*ccs-lint\s*:\s*ignore(?P<codes>\[[^\]]+\])?(?P<reason>.*)")
    for path in sorted(SRC.rglob("*.py")):
        if (SRC / "repro" / "lint") in path.parents:
            continue  # the linter's own docs/patterns mention the marker
        for k, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            match = pattern.search(line)
            if match is None:
                continue
            assert match.group("codes"), f"{path}:{k}: bare ignore (name the codes)"
            reason = match.group("reason")
            assert "--" in reason or "see above" in reason, (
                f"{path}:{k}: suppression without a reason"
            )


@pytest.mark.parametrize(
    "code,snippet",
    [
        ("CCS001", "import random\n_ccs_reintro = random.random()\n"),
        ("CCS001", "import numpy as np\n_ccs_reintro = np.random.seed(3)\n"),
        ("CCS002", "import time\n_ccs_reintro_t = time.time()\n"),
        ("CCS002", "from time import perf_counter\n_ccs_reintro_t = perf_counter()\n"),
    ],
)
def test_reintroduced_determinism_violation_fails(code, snippet):
    # Appending a global-RNG or wall-clock read to a real src module must
    # produce a finding — the invariant cannot be quietly reintroduced.
    target = SRC / "repro" / "sim" / "noise.py"
    source = target.read_text(encoding="utf-8") + "\n" + snippet
    report = analyze_source(source, str(target))
    assert any(f.code == code for f in report.findings)


# --------------------------------------------------------------------- #
# mypy (runs only where mypy is installed, e.g. CI)


def test_mypy_strict_core_passes():
    pytest.importorskip("mypy")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
