"""Framework core of the simulator-invariant static-analysis pass.

The pieces every rule shares:

- :class:`SourceFile` — one parsed module: AST, raw lines, and the
  ``# repro: allow(<rule>, ...)`` suppressions harvested from its comments;
- :class:`Rule` / :class:`ProjectRule` — the two rule shapes (per-file AST
  walks vs. whole-project conformance checks) and the registry that binds
  rule ids to instances;
- :class:`LintEngine` — file collection, rule dispatch, suppression
  matching, and the :class:`LintResult` the CLI and CI gate on.

Suppression syntax
------------------
A comment ``# repro: allow(rule-id)`` (multiple ids comma-separated)
suppresses matching findings on its own physical line.  When the comment
is a *standalone* line, it covers the next code line instead (skipping
blank and further comment lines, so the reason may wrap), keeping wide
statements under the line-length limit::

    # repro: allow(bits-unmasked-shift-accum)  -- bounded by tree depth
    way = (way << 1) | int(go_right)

Suppressions that never match anything are themselves reported
(``lint-unused-suppression``, a warning) so stale allowances cannot
accumulate silently.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "LintEngine",
    "LintResult",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "SourceFile",
    "all_rules",
    "register_rule",
]

# Simulation-kernel package names: determinism and bit-width rules apply
# only to files under a directory with one of these names.  The five the
# issue names plus the core predictor engine, the branch/BTB models, and
# the batched fast-path kernels, which are kernel state machines in the
# same sense.  The job service rides along: its replay/fingerprint paths
# must be as deterministic as the kernels they schedule (its two real
# wall-clock reads carry explicit allow markers).
KERNEL_DIR_NAMES = frozenset(
    {"cache", "policies", "frontend", "traces", "core", "btb", "branch",
     "kernel", "service"}
)

# Modules allowed to read process configuration (environment variables).
CONFIG_MODULE_NAMES = frozenset({"config.py", "settings.py"})

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")


@dataclass(frozen=True, slots=True)
class Finding:
    """One diagnostic: a rule violation anchored at ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} [{self.severity}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }


class SourceFile:
    """A parsed module plus its suppression comments."""

    def __init__(self, path: Path, text: str):
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree: ast.Module | None = None
        self.parse_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(text, filename=str(path))
        except SyntaxError as error:
            self.parse_error = error
        # Declaration site: line -> rule ids named by an allow() there.
        self.suppressions: dict[int, set[str]] = {}
        # Effective site: code line -> (declaration line, rule id) covering it.
        self._coverage: dict[int, set[tuple[int, str]]] = {}
        self.used_suppressions: set[tuple[int, str]] = set()
        self._collect_suppressions()

    # ------------------------------------------------------------------
    def _collect_suppressions(self) -> None:
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.text).readline))
        except (tokenize.TokenError, SyntaxError, IndentationError):
            return
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(token.string)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(1).split(",") if part.strip()}
            if not rules:
                continue
            line = token.start[0]
            self.suppressions.setdefault(line, set()).update(rules)
            covered = self._covered_line(line)
            for rule_id in rules:
                self._coverage.setdefault(covered, set()).add((line, rule_id))

    def _covered_line(self, line: int) -> int:
        """The code line an allow() on ``line`` applies to.

        A trailing comment covers its own line; a standalone comment
        covers the next code line, skipping blank lines and further
        comment lines (so a wrapped reason stays attached).
        """
        if not self.lines[line - 1].lstrip().startswith("#"):
            return line
        for following in range(line + 1, len(self.lines) + 1):
            stripped = self.lines[following - 1].strip()
            if stripped and not stripped.startswith("#"):
                return following
        return line

    def allows(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is suppressed at ``line`` (marking it used)."""
        for declared_line, declared_rule in self._coverage.get(line, ()):
            if declared_rule == rule_id:
                self.used_suppressions.add((declared_line, rule_id))
                return True
        return False

    # ------------------------------------------------------------------
    @property
    def dir_names(self) -> frozenset[str]:
        return frozenset(part.name for part in self.path.parents)

    @property
    def is_kernel(self) -> bool:
        return bool(self.dir_names & KERNEL_DIR_NAMES)

    @property
    def is_config_module(self) -> bool:
        return self.path.name in CONFIG_MODULE_NAMES


@dataclass
class ProjectContext:
    """Everything a rule may need beyond the file in hand."""

    files: list[SourceFile] = field(default_factory=list)

    def file_for(self, path: Path) -> SourceFile | None:
        resolved = path.resolve()
        for source in self.files:
            if source.path.resolve() == resolved:
                return source
        return None


class Rule:
    """A per-file AST rule.  Subclasses set ``id``/``description`` and
    implement :meth:`check_file`."""

    id: str = ""
    description: str = ""
    severity: str = "error"

    def check_file(self, source: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, source: SourceFile, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=str(source.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=self.severity,
        )


class ProjectRule(Rule):
    """A whole-project rule (conformance/budget checks that need imports
    or cross-file state).  Runs once per engine invocation, and only when
    the scanned files include the installed ``repro`` package itself."""

    def check_file(self, source: SourceFile, ctx: ProjectContext) -> Iterable[Finding]:
        return ()

    def check_project(self, ctx: ProjectContext) -> Iterable[Finding]:
        raise NotImplementedError


_RULES: dict[str, Rule] = {}


def register_rule(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator: instantiate and index a rule by its id."""
    rule = rule_class()
    if not rule.id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    _RULES[rule.id] = rule
    return rule_class


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, in id order."""
    _load_builtin_rules()
    return tuple(_RULES[rule_id] for rule_id in sorted(_RULES))


def _load_builtin_rules() -> None:
    # Imported for their registration side effect; late so core.py can be
    # imported by the rule modules themselves.
    from repro.analysis.lint import (  # noqa: F401
        bitwidth,
        contracts,
        determinism,
        flow_bitwidth,
        flow_protocol,
        flow_state,
        telemetry,
    )


@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: list[Finding]
    suppressed: list[Finding]
    files_checked: int
    rules_run: tuple[str, ...]

    @property
    def errors(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.severity == "warning"]

    @property
    def has_errors(self) -> bool:
        return bool(self.errors)

    @property
    def exit_code(self) -> int:
        return 1 if self.has_errors else 0


class LintEngine:
    """Collect files, run rules, match suppressions."""

    def __init__(
        self,
        paths: Iterable[str | Path],
        rules: Iterable[str] | None = None,
    ):
        self.paths = [Path(path) for path in paths]
        available = {rule.id: rule for rule in all_rules()}
        if rules is None:
            self.rules = tuple(available.values())
        else:
            unknown = sorted(set(rules) - set(available))
            if unknown:
                raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
            self.rules = tuple(available[rule_id] for rule_id in sorted(set(rules)))

    # ------------------------------------------------------------------
    def _collect_files(self) -> Iterator[Path]:
        seen: set[Path] = set()
        for path in self.paths:
            if path.is_file() and path.suffix == ".py":
                candidates: Iterable[Path] = [path]
            elif path.is_dir():
                candidates = sorted(path.rglob("*.py"))
            else:
                raise FileNotFoundError(f"no such file or directory: {path}")
            for candidate in candidates:
                if "__pycache__" in (part.name for part in candidate.parents):
                    continue
                resolved = candidate.resolve()
                if resolved not in seen:
                    seen.add(resolved)
                    yield candidate

    def _covers_repro_package(self, ctx: ProjectContext) -> bool:
        """Project rules audit the real package, not fixture trees."""
        try:
            import repro

            package_root = Path(repro.__file__).resolve().parent
        except ImportError:  # pragma: no cover - repro is always importable here
            return False
        return any(
            source.path.resolve().is_relative_to(package_root) for source in ctx.files
        )

    # ------------------------------------------------------------------
    def run(self) -> LintResult:
        ctx = ProjectContext()
        findings: list[Finding] = []
        for path in self._collect_files():
            source = SourceFile(path, path.read_text(encoding="utf-8"))
            ctx.files.append(source)
            if source.parse_error is not None:
                findings.append(
                    Finding(
                        rule="lint-parse-error",
                        path=str(path),
                        line=source.parse_error.lineno or 1,
                        col=(source.parse_error.offset or 0) + 1,
                        message=f"syntax error: {source.parse_error.msg}",
                    )
                )

        for rule in self.rules:
            if isinstance(rule, ProjectRule):
                if self._covers_repro_package(ctx):
                    findings.extend(rule.check_project(ctx))
            else:
                for source in ctx.files:
                    if source.tree is not None:
                        findings.extend(rule.check_file(source, ctx))

        kept, suppressed = self._apply_suppressions(ctx, findings)
        kept.extend(self._suppression_hygiene(ctx))
        kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return LintResult(
            findings=kept,
            suppressed=suppressed,
            files_checked=len(ctx.files),
            rules_run=tuple(rule.id for rule in self.rules),
        )

    # ------------------------------------------------------------------
    def _apply_suppressions(
        self, ctx: ProjectContext, findings: list[Finding]
    ) -> tuple[list[Finding], list[Finding]]:
        kept: list[Finding] = []
        suppressed: list[Finding] = []
        for finding in findings:
            source = ctx.file_for(Path(finding.path))
            if source is not None and source.allows(finding.rule, finding.line):
                suppressed.append(finding)
            else:
                kept.append(finding)
        return kept, suppressed

    def _suppression_hygiene(self, ctx: ProjectContext) -> list[Finding]:
        """Warn on allow() comments that name unknown rules or never fire."""
        known = {rule.id for rule in all_rules()}
        selected = {rule.id for rule in self.rules}
        hygiene: list[Finding] = []
        for source in ctx.files:
            for line, rule_ids in sorted(source.suppressions.items()):
                for rule_id in sorted(rule_ids):
                    if rule_id not in known:
                        hygiene.append(
                            Finding(
                                rule="lint-unknown-suppression",
                                path=str(source.path),
                                line=line,
                                col=1,
                                message=f"allow() names unknown rule {rule_id!r}",
                                severity="warning",
                            )
                        )
                    elif (
                        rule_id in selected
                        and (line, rule_id) not in source.used_suppressions
                    ):
                        hygiene.append(
                            Finding(
                                rule="lint-unused-suppression",
                                path=str(source.path),
                                line=line,
                                col=1,
                                message=f"suppression for {rule_id!r} matched no finding",
                                severity="warning",
                            )
                        )
        return hygiene


# ----------------------------------------------------------------------
# Shared AST helpers used by the rule modules.
# ----------------------------------------------------------------------
def node_key(node: ast.AST) -> str:
    """A structural key for expression equality (ignores load/store ctx)."""
    return ast.dump(node, annotate_fields=False).replace("Store()", "Load()").replace(
        "Del()", "Load()"
    )


def terminal_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a Name/Attribute/Subscript chain.

    ``self._shct[sig]`` -> ``_shct``; ``table[i]`` -> ``table``.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def dotted_names(node: ast.AST) -> list[str]:
    """All identifiers along an attribute chain, outermost first."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        names.append(node.id)
    names.reverse()
    return names


def iter_parented(tree: ast.AST) -> Iterator[tuple[ast.AST, ast.AST | None]]:
    """Walk ``tree`` yielding (node, parent) pairs."""
    stack: list[tuple[ast.AST, ast.AST | None]] = [(tree, None)]
    while stack:
        node, parent = stack.pop()
        yield node, parent
        for child in ast.iter_child_nodes(node):
            stack.append((child, node))
