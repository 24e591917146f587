"""daisylint core: findings, the rule registry, suppression, baseline.

The framework is deliberately small — one AST parse per file, one linear
pass per rule — so the whole suite stays fast enough to run on every
commit.  The moving parts:

* :class:`Finding` — one diagnostic, with a *fingerprint* that is stable
  under line-number drift (it hashes the stripped source line, not the
  line number), so baseline entries survive unrelated edits.
* :class:`Rule` + :func:`register` — the registry.  Rules carry a stable
  ``code`` (``DL001``…), declare which repo paths they apply to via
  :meth:`Rule.applies`, and yield findings from :meth:`Rule.check`.
* :class:`ModuleInfo` — the per-file bundle every rule receives: source
  text, AST with parent links, and the suppression table parsed from
  ``# daisylint: disable=CODE`` comments.
* :class:`Baseline` — the checked-in ledger of grandfathered findings
  (``tools/daisylint/baseline.json``).  A run fails only on findings
  *not* in the baseline; baseline entries that no longer fire are
  reported as stale so the burn-down stays honest.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

#: Codes whose findings may never be grandfathered: determinism (DL001)
#: regressions must be fixed, not baselined.
NEVER_BASELINE = ("DL001",)

_DISABLE_RE = re.compile(r"daisylint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule."""

    code: str
    path: str  # repo-relative, forward slashes
    line: int
    col: int
    message: str
    source_line: str = ""

    @property
    def fingerprint(self) -> str:
        """Stable identity for baseline matching (line-number independent).

        Two findings on identical source lines in the same file get
        distinct fingerprints via the occurrence index appended by
        :func:`fingerprint_findings`; this property is the raw prefix.
        """
        return f"{self.path}::{self.code}::{self.source_line.strip()}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "source_line": self.source_line.strip(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Finding":
        return cls(
            code=data["code"],
            path=data["path"],
            line=data["line"],
            col=data["col"],
            message=data["message"],
            source_line=data.get("source_line", ""),
        )


def fingerprint_findings(findings: Iterable[Finding]) -> list[tuple[str, Finding]]:
    """Pair each finding with its occurrence-disambiguated fingerprint.

    Findings sharing (path, code, stripped line) are numbered in line
    order, so a file with two identical offending lines keeps two distinct
    baseline entries.
    """
    ordered = sorted(findings, key=lambda f: (f.path, f.code, f.line, f.col))
    seen: dict[str, int] = {}
    out: list[tuple[str, Finding]] = []
    for finding in ordered:
        raw = finding.fingerprint
        n = seen.get(raw, 0)
        seen[raw] = n + 1
        digest = hashlib.sha256(f"{raw}::{n}".encode()).hexdigest()[:16]
        out.append((digest, finding))
    return out


@dataclass
class ModuleInfo:
    """Everything a rule needs about one source file."""

    path: Path
    relpath: str
    text: str
    tree: ast.Module
    #: line number -> set of codes disabled on that line ("all" disables every rule)
    suppressions: dict[int, set[str]]
    lines: list[str] = field(default_factory=list)
    _parents: dict[int, ast.AST] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, relpath: str, text: str) -> "ModuleInfo":
        tree = ast.parse(text, filename=str(path))
        info = cls(
            path=path,
            relpath=relpath,
            text=text,
            tree=tree,
            suppressions=_scan_suppressions(text),
            lines=text.splitlines(),
        )
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                info._parents[id(child)] = parent
        return info

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(id(node))

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def finding(
        self, code: str, node: ast.AST, message: str
    ) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            code=code,
            path=self.relpath,
            line=lineno,
            col=col,
            message=message,
            source_line=self.source_line(lineno),
        )

    def suppressed(self, finding: Finding) -> bool:
        codes = self.suppressions.get(finding.line, set())
        return finding.code in codes or "all" in codes


def _scan_suppressions(text: str) -> dict[int, set[str]]:
    """Parse ``# daisylint: disable=CODE[,CODE]`` comments, per line.

    Uses the tokenizer (not a regex over raw lines) so string literals
    that merely *mention* the marker never suppress anything.
    """
    table: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _DISABLE_RE.search(tok.string)
            if not match:
                continue
            codes = {c.strip() for c in match.group(1).split(",") if c.strip()}
            table.setdefault(tok.start[0], set()).update(codes)
    except tokenize.TokenError:  # pragma: no cover - unparsable files fail earlier
        pass
    return table


class Rule:
    """Base class: subclass, set ``code``/``name``/``rationale``, register.

    ``check`` yields findings for one module; ``applies`` gates which
    repo-relative paths the rule runs on (default: every file).  File
    rules (``scope = "file"``) see one module at a time; project rules
    (:class:`ProjectRule`) run once over the merged whole-program model.
    """

    code: str = ""
    name: str = ""
    rationale: str = ""
    scope: str = "file"

    def applies(self, relpath: str) -> bool:
        return True

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


class ProjectRule(Rule):
    """A rule over the merged :class:`tools.daisylint.project.ProjectModel`.

    Project rules never run per file — :func:`run` invokes
    :meth:`check_project` once after every module summary is collected.
    Suppression comments still apply: findings are filtered against the
    summary's suppression table by line, exactly like file findings.
    """

    scope = "project"

    def applies(self, relpath: str) -> bool:
        return False

    def check_project(self, project) -> Iterator[Finding]:
        raise NotImplementedError
        yield  # pragma: no cover


#: The registry: code -> rule instance, populated by :func:`register`.
RULES: dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding a rule to the registry (codes must be unique)."""
    rule = cls()
    if not rule.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return cls


def iter_rules() -> list[Rule]:
    return [RULES[code] for code in sorted(RULES)]


class Baseline:
    """The checked-in ledger of grandfathered findings.

    Format (``baseline.json``)::

        {"version": 1,
         "entries": {"<fingerprint>": {"code": ..., "path": ..., "message": ...}}}

    Entries exist so *pre-existing* cosmetic findings do not block CI
    while they are burned down; codes in :data:`NEVER_BASELINE` are
    rejected at write time.
    """

    def __init__(self, entries: dict[str, dict] | None = None):
        self.entries: dict[str, dict] = dict(entries or {})

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.exists():
            return cls()
        data = json.loads(path.read_text())
        return cls(data.get("entries", {}))

    def save(self, path: Path) -> None:
        payload = {"version": 1, "entries": dict(sorted(self.entries.items()))}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    @classmethod
    def from_findings(cls, pairs: Iterable[tuple[str, Finding]]) -> "Baseline":
        entries: dict[str, dict] = {}
        for digest, finding in pairs:
            if finding.code in NEVER_BASELINE:
                raise ValueError(
                    f"{finding.code} findings must be fixed, not baselined: "
                    f"{finding.render()}"
                )
            entries[digest] = finding.to_json()
        return cls(entries)


@dataclass
class RunResult:
    """Outcome of linting a set of paths against a baseline."""

    findings: list[Finding]
    new: list[tuple[str, Finding]]
    matched: list[tuple[str, Finding]]
    stale: list[str]
    files_checked: int
    #: The merged whole-program model (when project analysis ran).
    project: object | None = None

    @property
    def exit_code(self) -> int:
        return 1 if self.new else 0

    def to_json(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "total_findings": len(self.findings),
            "new": [f.to_json() | {"fingerprint": d} for d, f in self.new],
            "baseline_matched": len(self.matched),
            "stale_baseline_entries": sorted(self.stale),
            "rules": {
                rule.code: {"name": rule.name, "rationale": rule.rationale}
                for rule in iter_rules()
            },
        }


def lint_module(module: ModuleInfo, rules: Iterable[Rule] | None = None) -> list[Finding]:
    """Run every applicable file rule on one parsed module, minus suppressions."""
    out: list[Finding] = []
    for rule in rules if rules is not None else iter_rules():
        if rule.scope != "file" or not rule.applies(module.relpath):
            continue
        for finding in rule.check(module):
            if not module.suppressed(finding):
                out.append(finding)
    out.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return out


def analyze_path(path_str: str, relpath: str) -> dict:
    """Fully analyze one file into a serializable payload.

    The payload — file-scope findings plus the module summary the project
    rules consume — is what ``--jobs`` worker processes return and what
    the result cache stores, so one format serves both.
    """
    from tools.daisylint.project import summarize_module

    path = Path(path_str)
    text = path.read_text()
    module = ModuleInfo.parse(path, relpath, text)
    findings = lint_module(module)
    summary = summarize_module(
        module.tree, relpath, text, suppressions=module.suppressions
    )
    return {
        "relpath": relpath,
        "findings": [f.to_json() | {"line": f.line, "col": f.col,
                                    "source_line": f.source_line} for f in findings],
        "summary": summary.to_json(),
    }


def iter_python_files(targets: Iterable[Path], root: Path) -> Iterator[tuple[Path, str]]:
    """Yield (path, repo-relative posix path) for every target .py file."""
    for target in targets:
        target = target if target.is_absolute() else root / target
        if target.is_dir():
            files = sorted(p for p in target.rglob("*.py") if "__pycache__" not in p.parts)
        else:
            files = [target]
        for path in files:
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = path.as_posix()
            yield path, rel


def _collect_payloads(
    files: list[tuple[Path, str]],
    jobs: int,
    cache,
    on_error: Callable[[Path, Exception], None] | None,
) -> list[dict]:
    """Analysis payloads for every file: cache hits, then (parallel) misses."""
    payloads: dict[str, dict] = {}
    misses: list[tuple[Path, str]] = []
    for path, rel in files:
        hit = cache.get(path, rel) if cache is not None else None
        if hit is not None:
            payloads[rel] = hit
        else:
            misses.append((path, rel))

    def handle_error(path: Path, exc: Exception) -> None:
        if on_error is None:
            raise exc
        on_error(path, exc)

    if jobs > 1 and len(misses) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                rel: pool.submit(analyze_path, str(path), rel)
                for path, rel in misses
            }
            for path, rel in misses:
                try:
                    payload = futures[rel].result()
                except (OSError, SyntaxError, ValueError) as exc:
                    handle_error(path, exc)
                    continue
                payloads[rel] = payload
                if cache is not None:
                    cache.put(path, rel, payload)
    else:
        for path, rel in misses:
            try:
                payload = analyze_path(str(path), rel)
            except (OSError, SyntaxError, ValueError) as exc:
                handle_error(path, exc)
                continue
            payloads[rel] = payload
            if cache is not None:
                cache.put(path, rel, payload)

    if cache is not None:
        cache.save()
    return [payloads[rel] for _path, rel in files if rel in payloads]


def run(
    targets: Iterable[Path],
    root: Path,
    baseline: Baseline | None = None,
    rules: Iterable[Rule] | None = None,
    on_error: Callable[[Path, Exception], None] | None = None,
    jobs: int = 1,
    cache=None,
    project: bool = True,
) -> RunResult:
    """Lint ``targets`` (files or directories) relative to repo ``root``.

    ``jobs`` > 1 fans per-file analysis out over a process pool; ``cache``
    (a :class:`tools.daisylint.cache.FileCache`) skips unchanged files.
    Both paths produce identical payloads, so results are byte-identical
    regardless of parallelism or cache state.  With ``project`` enabled
    (the default), the whole-program model is built from the collected
    module summaries and every registered :class:`ProjectRule` runs over
    it; ``rules`` (when given) filters project rules the same way it
    filters file rules — note explicit ``rules`` bypass the cache, whose
    payloads always reflect the full registry.
    """
    from tools.daisylint.project import ModuleSummary, ProjectModel

    baseline = baseline or Baseline()
    files = list(iter_python_files(targets, root))

    findings: list[Finding] = []
    summaries: list[ModuleSummary] = []
    if rules is None:
        payloads = _collect_payloads(files, jobs, cache, on_error)
        files_checked = len(payloads)
        for payload in payloads:
            findings.extend(Finding.from_json(f) for f in payload["findings"])
            summaries.append(ModuleSummary.from_json(payload["summary"]))
        active_rules: list[Rule] = iter_rules()
    else:
        # Explicit rule subsets (tests, focused runs): analyze inline.
        from tools.daisylint.project import summarize_module

        active_rules = list(rules)
        files_checked = 0
        for path, rel in files:
            try:
                module = ModuleInfo.parse(path, rel, path.read_text())
            except (OSError, SyntaxError, ValueError) as exc:
                if on_error is None:
                    raise
                on_error(path, exc)
                continue
            files_checked += 1
            findings.extend(lint_module(module, rules=active_rules))
            summaries.append(summarize_module(
                module.tree, rel, module.text, suppressions=module.suppressions
            ))

    if project:
        model = ProjectModel(summaries)
        by_relpath = {s.relpath: s for s in summaries}
        for rule in active_rules:
            if rule.scope != "project":
                continue
            for finding in rule.check_project(model):
                summary = by_relpath.get(finding.path)
                if summary is not None and summary.suppressed(
                    finding.code, finding.line
                ):
                    continue
                findings.append(finding)
    else:
        model = None

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    pairs = fingerprint_findings(findings)
    new = [(d, f) for d, f in pairs if d not in baseline.entries]
    matched = [(d, f) for d, f in pairs if d in baseline.entries]
    fired = {d for d, _ in pairs}
    stale = [d for d in baseline.entries if d not in fired]
    return RunResult(
        findings=findings,
        new=new,
        matched=matched,
        stale=stale,
        files_checked=files_checked,
        project=model,
    )
