"""The ``repro lint`` rule engine: files, suppressions, runner, stats.

The engine is deliberately dependency-free (stdlib ``ast`` + ``tokenize``)
so it can run in CI before anything heavy imports.  It parses every
target file once into a :class:`SourceFile`, hands the whole set to each
registered rule as a :class:`Project` (rules that need cross-file
information — the import-layering DAG, cycle detection — see everything),
and filters the resulting :class:`Violation` stream through inline
suppressions.

Suppression syntax
------------------
``# repro-lint: disable=RL003`` on the offending line (or on a standalone
comment line immediately above it) silences the named code(s) there;
several codes are comma-separated and an optional trailing ``(reason)``
documents why.  ``# repro-lint: disable-file=RL001`` anywhere in a file's
first 20 lines silences a code for the whole file.  Suppressions are
counted in the stats so a tree full of them is still visible, and every
suppression must *earn its keep*: a ``disable=`` comment that no longer
silences any violation of a rule that ran is reported as unused (and
fails the run) so stale escapes cannot accumulate after the underlying
code is fixed.

Adding a rule
-------------
Subclass :class:`Rule`, give it a unique ``code``/``name``/``rationale``,
implement ``check(file, project)`` yielding :class:`Violation`, and add an
instance to :data:`repro.analysis.lint.ALL_RULES`.  Per-file rules ignore
``project``; cross-file rules index ``project.files`` / ``project.modules``.
"""

from __future__ import annotations

import ast
import io
import pathlib
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

_DISABLE_PREFIX = "repro-lint:"
_FILE_SCOPE_LINES = 20


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location."""

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class SuppressionEntry:
    """One parsed ``# repro-lint: disable[-file]=...`` comment.

    ``used_codes`` records which of its codes actually silenced a
    violation during the run — the unused-suppression audit compares it
    against ``codes`` afterwards.
    """

    line: int                       # line the comment sits on
    codes: Set[str]
    targets: Set[int] = field(default_factory=set)   # lines it covers
    file_wide: bool = False
    used_codes: Set[str] = field(default_factory=set)


@dataclass
class Suppressions:
    """Parsed ``# repro-lint: disable=...`` comments for one file."""

    entries: List[SuppressionEntry] = field(default_factory=list)

    def covers(self, violation: Violation) -> bool:
        hit = False
        for entry in self.entries:
            if violation.code in entry.codes and (
                    entry.file_wide or violation.line in entry.targets):
                entry.used_codes.add(violation.code)
                hit = True
        return hit

    def unused(self, rules_run: Iterable[str]) -> List[Tuple[int, List[str]]]:
        """(comment line, dead codes) for every suppression that never fired.

        Only codes of rules that actually ran count as dead — a
        suppression for a rule excluded from this run is not evidence
        the escape is stale.
        """
        ran = set(rules_run)
        stale: List[Tuple[int, List[str]]] = []
        for entry in self.entries:
            dead = sorted((entry.codes & ran) - entry.used_codes)
            if dead:
                stale.append((entry.line, dead))
        return stale


def _parse_suppressions(text: str) -> Suppressions:
    supp = Suppressions()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        comments = [(tok.start[0], tok.string, tok.line)
                    for tok in tokens if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return supp
    for line_no, comment, physical_line in comments:
        body = comment.lstrip("#").strip()
        if not body.startswith(_DISABLE_PREFIX):
            continue
        directive = body[len(_DISABLE_PREFIX):].strip()
        file_scope = directive.startswith("disable-file=")
        if file_scope:
            spec = directive[len("disable-file="):]
        elif directive.startswith("disable="):
            spec = directive[len("disable="):]
        else:
            continue
        # Cut an optional trailing "(reason)" and anything after whitespace.
        spec = spec.split("(")[0].split()[0] if spec.split() else ""
        codes = {code.strip().upper() for code in spec.split(",") if code.strip()}
        if not codes:
            continue
        if file_scope:
            if line_no <= _FILE_SCOPE_LINES:
                supp.entries.append(SuppressionEntry(
                    line=line_no, codes=codes, file_wide=True))
            continue
        targets = {line_no}
        # A standalone comment line suppresses the line below it (and its
        # own line, covering the statement-start line AST nodes report
        # for multi-line statements).
        if physical_line.strip().startswith("#"):
            targets.add(line_no + 1)
        supp.entries.append(SuppressionEntry(
            line=line_no, codes=codes, targets=targets))
    return supp


@dataclass
class SourceFile:
    """One parsed python file plus its lint-relevant metadata."""

    path: pathlib.Path
    text: str
    tree: ast.Module
    module: Optional[str]          # dotted name, e.g. "repro.nn.layers"
    suppressions: Suppressions

    @property
    def package(self) -> Optional[str]:
        """Top-level ``repro`` subpackage this module lives in, if any.

        Modules sitting directly in ``repro/`` (``cli``, ``__init__``)
        report their own stem so the layer map can place them explicitly.
        """
        if self.module is None or not self.module.startswith("repro"):
            return None
        parts = self.module.split(".")
        if len(parts) == 1:                    # "repro" itself (__init__)
            return "__facade__"
        return parts[1]                        # repro/cli.py -> "cli"

    def is_repro_module(self) -> bool:
        return self.module is not None and self.module.startswith("repro")


class Project:
    """Every file in one lint run, indexed for cross-file rules."""

    def __init__(self, files: Sequence[SourceFile]):
        self.files: Tuple[SourceFile, ...] = tuple(files)
        self.modules: Dict[str, SourceFile] = {
            f.module: f for f in files if f.module is not None}
        self._cache: Dict[str, object] = {}

    def cached(self, key: str, build):
        """Compute-once storage for expensive cross-file analyses."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]


class Rule:
    """Base class for lint rules; subclasses yield :class:`Violation`."""

    code: str = "RL000"
    name: str = "unnamed"
    rationale: str = ""

    def check(self, file: SourceFile, project: Project) -> Iterable[Violation]:
        raise NotImplementedError


def module_name_for(path: pathlib.Path) -> Optional[str]:
    """Infer the dotted module name for files under a ``src/repro`` tree."""
    parts = path.with_suffix("").parts
    for anchor in range(len(parts) - 1, -1, -1):
        if parts[anchor] == "repro" and anchor > 0 and parts[anchor - 1] == "src":
            dotted = parts[anchor:]
            if dotted[-1] == "__init__":
                dotted = dotted[:-1]
            return ".".join(dotted)
    return None


def collect_files(paths: Sequence[str]) -> Tuple[List[SourceFile], List[str]]:
    """Expand ``paths`` to parsed :class:`SourceFile` objects.

    Returns ``(files, errors)`` — unparsable files become error strings
    rather than exceptions so one syntax error doesn't hide the rest of
    the report.
    """
    seen: Set[pathlib.Path] = set()
    targets: List[pathlib.Path] = []
    for raw in paths:
        root = pathlib.Path(raw)
        if root.is_file() and root.suffix == ".py":
            candidates: Iterable[pathlib.Path] = [root]
        elif root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        else:
            candidates = []
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen or "__pycache__" in candidate.parts:
                continue
            seen.add(resolved)
            targets.append(candidate)

    files: List[SourceFile] = []
    errors: List[str] = []
    for target in targets:
        try:
            text = target.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(target))
        except (OSError, SyntaxError, ValueError) as error:
            errors.append(f"{target}: cannot lint: {error}")
            continue
        files.append(SourceFile(
            path=target, text=text, tree=tree,
            module=module_name_for(target),
            suppressions=_parse_suppressions(text)))
    return files, errors


@dataclass(frozen=True)
class UnusedSuppression:
    """A ``disable=`` comment whose codes silenced nothing this run."""

    path: str
    line: int
    codes: Tuple[str, ...]

    def render(self) -> str:
        return (f"{self.path}:{self.line}:0: unused suppression for "
                f"{', '.join(self.codes)} — no violation left to silence; "
                "delete the comment")


@dataclass
class LintReport:
    """Outcome of one lint run, renderable as text or JSON stats."""

    violations: List[Violation]
    suppressed: List[Violation]
    files_scanned: int
    rules_run: List[str]
    errors: List[str] = field(default_factory=list)
    unused: List[UnusedSuppression] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.errors and not self.unused

    def by_code(self, which: Sequence[Violation]) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in which:
            counts[violation.code] = counts.get(violation.code, 0) + 1
        return counts

    def stats(self) -> Dict[str, object]:
        """The ``--stats`` JSON payload (trend-trackable across PRs)."""
        return {
            "rules_run": sorted(self.rules_run),
            "files_scanned": self.files_scanned,
            "violations_total": len(self.violations),
            "violations_by_code": self.by_code(self.violations),
            "suppressed_total": len(self.suppressed),
            "suppressed_by_code": self.by_code(self.suppressed),
            "unused_suppressions": [
                {"path": u.path, "line": u.line, "codes": list(u.codes)}
                for u in self.unused],
            "parse_errors": len(self.errors),
        }

    def payload(self) -> Dict[str, object]:
        """The ``--format json`` document: every finding, machine-readable."""
        def finding(violation: Violation) -> Dict[str, object]:
            return {"path": violation.path, "line": violation.line,
                    "col": violation.col, "code": violation.code,
                    "message": violation.message}

        order = lambda v: (v.path, v.line, v.col, v.code)
        return {
            "ok": self.ok,
            "violations": [finding(v)
                           for v in sorted(self.violations, key=order)],
            "suppressed": [finding(v)
                           for v in sorted(self.suppressed, key=order)],
            "unused_suppressions": [
                {"path": u.path, "line": u.line, "codes": list(u.codes)}
                for u in self.unused],
            "errors": list(self.errors),
            "stats": self.stats(),
        }

    def render(self) -> str:
        lines = [v.render() for v in sorted(
            self.violations, key=lambda v: (v.path, v.line, v.col, v.code))]
        lines.extend(u.render() for u in self.unused)
        lines.extend(self.errors)
        summary = (f"{len(self.violations)} violation(s), "
                   f"{len(self.suppressed)} suppressed, "
                   f"{len(self.unused)} unused suppression(s), "
                   f"{self.files_scanned} file(s) scanned")
        lines.append(summary if lines else f"clean: {summary}")
        return "\n".join(lines)


def run_lint(paths: Sequence[str], rules: Sequence[Rule]) -> LintReport:
    """Lint ``paths`` with ``rules`` and return the filtered report."""
    files, errors = collect_files(paths)
    project = Project(files)
    kept: List[Violation] = []
    suppressed: List[Violation] = []
    for rule in rules:
        for file in files:
            for violation in rule.check(file, project):
                if file.suppressions.covers(violation):
                    suppressed.append(violation)
                else:
                    kept.append(violation)
    rules_run = [rule.code for rule in rules]
    unused: List[UnusedSuppression] = []
    for file in files:
        for line, dead in file.suppressions.unused(rules_run):
            unused.append(UnusedSuppression(
                path=str(file.path), line=line, codes=tuple(dead)))
    return LintReport(violations=kept, suppressed=suppressed,
                      files_scanned=len(files),
                      rules_run=rules_run,
                      errors=errors, unused=unused)
