"""Drive the rules over files: parse once, run every applicable rule.

The analyzer is pure stdlib and side-effect free: it reads sources,
parses each exactly once into a
:class:`~repro.lint.flow.program.ModuleInfo` (a file that fails to parse
becomes one CCS000 finding instead), and runs every rule over that one
parse set.  Per-file rules check each module on its own; whole-program
:class:`~repro.lint.registry.FlowRule`\\ s run once over the
:class:`~repro.lint.flow.program.Program` the same modules make up.
Every finding then passes through its own file's inline suppressions.
Baselines are the CLI's concern (:mod:`repro.lint.cli`), so library
callers — the test suite, a future pre-commit hook — always see the full
picture.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .finding import Finding
from .flow.program import ModuleInfo, Program
from .registry import FlowRule, Rule, all_rules
from .suppress import parse_suppressions

__all__ = [
    "FileReport",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "iter_python_files",
    "normalize_module",
]

#: Reserved code for files the analyzer cannot parse at all.
SYNTAX_ERROR_CODE = "CCS000"


@dataclass
class FileReport:
    """Per-file analysis outcome: active findings plus suppressed ones."""

    path: str
    module: str
    findings: List[Finding]
    suppressed: List[Finding]


#: Files that mark a project root.  A module outside the ``repro``
#: package is labelled relative to the nearest directory holding one.
PROJECT_MARKERS = ("pyproject.toml", "setup.py")


def _project_root(directory: Path) -> Optional[Path]:
    """Nearest of *directory* and its ancestors holding a project marker."""
    for candidate in (directory, *directory.parents):
        if any((candidate / marker).is_file() for marker in PROJECT_MARKERS):
            return candidate
    return None


def normalize_module(path: Union[str, Path]) -> str:
    """Repo-normalized module path, independent of the working directory.

    Package files normalize to the part from the last ``repro/`` on:
    ``src/repro/service/journal.py`` and
    ``/somewhere/repo/src/repro/service/journal.py`` both give
    ``repro/service/journal.py``.  Other files are labelled relative to
    their project root (the nearest ancestor holding a
    :data:`PROJECT_MARKERS` file), so ``benchmarks/e2e/run.py`` gets the
    same label whether it was named relative to the root or by its
    absolute path.  Outside any project a path normalizes to its POSIX
    form unchanged.
    """
    parts = Path(path).as_posix().split("/")
    for k in range(len(parts) - 1, -1, -1):
        if parts[k] == "repro":
            return "/".join(parts[k:])
    resolved = Path(path).resolve()
    root = _project_root(resolved.parent)
    if root is not None:
        return resolved.relative_to(root).as_posix()
    return "/".join(p for p in parts if p not in (".", ""))


def analyze_source(
    source: str,
    path: str,
    module: Optional[str] = None,
    rules: Optional[Sequence[Rule]] = None,
) -> FileReport:
    """Analyze one in-memory source text, as a one-module program.

    *module* defaults to ``normalize_module(path)``; tests pass synthetic
    module paths (e.g. ``repro/service/kernel.py``) to exercise scoped
    rules on fixture snippets.
    """
    return analyze_sources([(path, source, module)], rules=rules)[0]


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Every ``.py`` file under *paths*, sorted, ``__pycache__`` excluded."""
    out: List[Path] = []
    for item in paths:
        p = Path(item)
        if p.is_dir():
            out.extend(
                f for f in sorted(p.rglob("*.py")) if "__pycache__" not in f.parts
            )
        else:
            out.append(p)
    return out


def analyze_paths(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[Rule]] = None,
) -> List[FileReport]:
    """Analyze every ``.py`` file under *paths* (files or directories) as
    one program; an explicit *rules* list restricts the run to those."""
    items: List[Tuple[str, str, Optional[str]]] = [
        (str(p), p.read_text(encoding="utf-8"), None) for p in iter_python_files(paths)
    ]
    return analyze_sources(items, rules=rules)


def analyze_sources(
    items: Sequence[Tuple[str, str, Optional[str]]],
    rules: Optional[Sequence[Rule]] = None,
) -> List[FileReport]:
    """Analyze in-memory ``(path, source, module)`` triples as one program.

    Each source is parsed once.  Per-file rules see each module alone;
    flow rules see them all as one program, and ``applies_to`` filters on
    the module a finding anchors in, so ``scope``/``allow`` mean the same
    for both kinds.  *module* ``None`` derives it from *path*.  Tests use
    this to build multi-file fixture programs.
    """
    active_rules = list(rules) if rules is not None else all_rules()
    flow_rules = [r for r in active_rules if isinstance(r, FlowRule)]
    reports: List[FileReport] = []
    raw: List[List[Finding]] = []  # unsuppressed findings, one list per report
    infos: List[ModuleInfo] = []
    for path, text, module in items:
        mod = module if module is not None else normalize_module(path)
        reports.append(FileReport(path=path, module=mod, findings=[], suppressed=[]))
        raw.append([])
        try:
            info = ModuleInfo.parse(path, text, mod)
        except SyntaxError as exc:
            reports[-1].findings.append(_syntax_error(path, mod, text, exc))
            continue
        infos.append(info)
        for rule in active_rules:
            if not rule.whole_program and rule.applies_to(mod):
                raw[-1].extend(rule.check(info))
    if flow_rules:
        program = Program(infos)
        by_path = {report.path: k for k, report in enumerate(reports)}
        for rule in flow_rules:
            for finding in rule.check_program(program):
                if rule.applies_to(finding.module):
                    raw[by_path[finding.path]].append(finding)
    for (_, text, _), report, found in zip(items, reports, raw):
        if not found:
            continue
        suppressions = parse_suppressions(text)
        for finding in sorted(found, key=Finding.sort_key):
            if suppressions.is_suppressed(finding.code, finding.line):
                report.suppressed.append(finding)
            else:
                report.findings.append(finding)
    return reports


def _syntax_error(path: str, module: str, source: str, exc: SyntaxError) -> Finding:
    """The CCS000 finding for a file that cannot be parsed."""
    lines = source.splitlines()
    line = exc.lineno or 1
    return Finding(
        path=path,
        module=module,
        line=line,
        col=exc.offset or 1,
        code=SYNTAX_ERROR_CODE,
        message=f"file cannot be parsed: {exc.msg}",
        snippet=lines[line - 1] if 0 < line <= len(lines) else "",
    )
