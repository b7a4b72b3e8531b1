"""The AST lint engine: rule registry, suppression handling, file driver.

``repro.lint`` is a repo-specific static analyzer: generic linters cannot
know that ``accesses`` is a model quantity that may legitimately be zero,
that every random draw must route through :mod:`repro.util.rng`, or that
``except Exception`` can swallow the :class:`~repro.runtime.errors.ReproError`
taxonomy the evaluation pool depends on.  The engine here is deliberately
small:

* a :class:`Rule` base class — one instance per rule id, registered through
  the :func:`register` decorator into :data:`RULES`;
* a :class:`ModuleContext` per linted file, carrying the parsed tree (with
  parent back-links), source lines, import aliases, and the per-line
  suppressions parsed from ``# repro: noqa[RULE1,RULE2] -- why`` comments;
* :func:`run_lint` / :func:`lint_source` drivers that parse, dispatch every
  registered (or selected) rule, filter suppressed violations, and return a
  deterministic, sorted :class:`LintResult`.

Rules are pure functions of the module context: they may not import the
modules they analyze, so linting never executes repository code.
"""

from __future__ import annotations

import ast
import hashlib
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

__all__ = [
    "Severity",
    "Violation",
    "ModuleContext",
    "Rule",
    "RULES",
    "register",
    "ASTCache",
    "LintResult",
    "lint_source",
    "run_lint",
    "iter_python_files",
    "walk",
]

#: ``# repro: noqa[NUM001,ERR001] -- justification`` (the justification text
#: after the bracket is free-form but required for the suppression to count
#: as *justified*; program mode rejects unjustified suppressions outright).
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Z0-9_,\s]+)\]")

#: The justification convention: `` -- why`` after the closing bracket.
_NOQA_JUSTIFIED_RE = re.compile(
    r"#\s*repro:\s*noqa\[[A-Z0-9_,\s]+\]\s*--\s*\S"
)


class Severity(Enum):
    """How serious a violation is; both levels gate the CI job."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class Violation:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: Severity = field(compare=False)
    message: str = field(compare=False)
    #: Optional structured payload (interval bounds, units, drift values)
    #: surfaced as ``detail`` in JSON and ``properties`` in SARIF.  Must
    #: be JSON-safe: the value-analysis rules stringify infinities.
    detail: "dict[str, object] | None" = field(default=None, compare=False)

    def format(self) -> str:
        """``path:line:col: RULE [severity] message`` — editor-clickable."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} [{self.severity.value}] {self.message}"
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable form for the ``--json`` reporter."""
        data: dict[str, object] = {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.detail is not None:
            data["detail"] = dict(self.detail)
        return data


def walk(node: ast.AST) -> tuple[ast.AST, ...]:
    """Every node under *node*, itself included, in ``ast.walk`` BFS order.

    Both lint tiers walk the same modules and functions many times over,
    so the tuple is computed once per node and stored on it as
    ``repro_walk`` (as :class:`ModuleContext` stores ``repro_parent``):
    the memo lives exactly as long as the tree.  It stays exact because
    no rule mutates a tree after parsing.
    """
    nodes: "tuple[ast.AST, ...] | None" = getattr(node, "repro_walk", None)
    if nodes is None:
        nodes = tuple(ast.walk(node))
        node.repro_walk = nodes  # type: ignore[attr-defined]
    return nodes


class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.lines: list[str] = source.splitlines()
        self.tree = tree
        #: line number -> set of suppressed rule names on that line.
        self.noqa: dict[int, set[str]] = {}
        #: line number -> whether that line's noqa carries a ``-- why``.
        self.noqa_justified: dict[int, bool] = {}
        #: local alias -> dotted module name, from import statements
        #: (``import numpy as np`` -> ``{"np": "numpy"}``).
        self.import_aliases: dict[str, str] = {}
        #: local name -> ``module.attr`` for from-imports
        #: (``from time import time`` -> ``{"time": "time.time"}``).
        self.from_imports: dict[str, str] = {}
        self._annotate_parents()
        self._parse_noqa()
        self._collect_imports()

    # -- construction helpers -------------------------------------------------
    def _annotate_parents(self) -> None:
        # One BFS pass links every child to its parent and records the
        # module's walk order (the list grows while it is iterated, which
        # visits nodes exactly as ``ast.walk``'s queue does).
        order: list[ast.AST] = [self.tree]
        for parent in order:
            for child in ast.iter_child_nodes(parent):
                child.repro_parent = parent  # type: ignore[attr-defined]
                order.append(child)
        self.tree.repro_walk = tuple(order)  # type: ignore[attr-defined]

    def _parse_noqa(self) -> None:
        for lineno, line in enumerate(self.lines, start=1):
            match = _NOQA_RE.search(line)
            if match:
                names = {part.strip() for part in match.group(1).split(",") if part.strip()}
                self.noqa.setdefault(lineno, set()).update(names)
                self.noqa_justified[lineno] = bool(_NOQA_JUSTIFIED_RE.search(line))

    def _collect_imports(self) -> None:
        for node in walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_aliases[alias.asname or alias.name.split(".")[0]] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    # -- rule-facing API ------------------------------------------------------
    def parent(self, node: ast.AST) -> "ast.AST | None":
        """The syntactic parent of *node* (None for the module root)."""
        return getattr(node, "repro_parent", None)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from *node*'s parent up to the module root."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> "ast.FunctionDef | ast.AsyncFunctionDef | None":
        """The nearest enclosing function definition, if any."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def enclosing_class(self, node: ast.AST) -> "ast.ClassDef | None":
        """The nearest enclosing class definition, if any."""
        for anc in self.ancestors(node):
            if isinstance(anc, ast.ClassDef):
                return anc
        return None

    def is_suppressed(self, violation: Violation) -> bool:
        """Whether a ``# repro: noqa[...]`` on the line covers this rule."""
        return violation.rule in self.noqa.get(violation.line, set())

    def is_suppression_justified(self, line: int) -> bool:
        """Whether the noqa on *line* carries the ``-- why`` justification."""
        return self.noqa_justified.get(line, False)

    def resolve_call_chain(self, node: ast.AST) -> "list[str] | None":
        """Resolve an attribute/name chain to dotted parts, imports applied.

        ``np.random.rand`` with ``import numpy as np`` resolves to
        ``["numpy", "random", "rand"]``; a from-import alias expands to its
        source module.  Returns ``None`` for non-static chains (calls,
        subscripts, ...).
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.append(current.id)
        parts.reverse()
        root = parts[0]
        if root in self.import_aliases:
            parts[0:1] = self.import_aliases[root].split(".")
        elif root in self.from_imports:
            parts[0:1] = self.from_imports[root].split(".")
        return parts


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`, which
    yields :class:`Violation`\\ s for one module.  ``packages`` restricts a
    rule to files whose path contains one of the named directory segments
    (``None`` applies everywhere under the linted roots).
    """

    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    #: Directory-segment scope, e.g. ``("sim", "core")``; None = everywhere.
    packages: "tuple[str, ...] | None" = None

    def applies_to(self, path: str) -> bool:
        """Whether this rule runs on the file at *path*."""
        if self.packages is None:
            return True
        parts = Path(path).parts
        return any(pkg in parts for pkg in self.packages)

    def check(self, ctx: ModuleContext) -> Iterator[Violation]:
        """Yield violations found in *ctx*; overridden by every rule."""
        raise NotImplementedError

    def violation(
        self, ctx: ModuleContext, node: ast.AST, message: str
    ) -> Violation:
        """Build a violation anchored at *node*'s location."""
        return Violation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.name,
            severity=self.severity,
            message=message,
        )


#: The global rule registry: rule name -> singleton instance.
RULES: dict[str, Rule] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of *cls* to :data:`RULES`."""
    if not cls.name:
        raise ValueError(f"rule class {cls.__name__} must set a name")
    if cls.name in RULES:
        raise ValueError(f"duplicate rule name {cls.name!r}")
    RULES[cls.name] = cls()
    return cls


class ASTCache:
    """Per-run parse cache: each file's source is parsed exactly once.

    Keyed by ``(path, sha256(source))`` so a content change within one run
    (e.g. a fixer rewriting between passes) re-parses, while the common
    case — the per-file rule engine and the whole-program analyzer both
    visiting the same file — reuses the one :class:`ModuleContext`.
    ``parses``/``hits`` make the single-parse property measurable.
    """

    def __init__(self) -> None:
        self._contexts: dict[tuple[str, str], ModuleContext] = {}
        self.parses = 0
        self.hits = 0

    @staticmethod
    def _digest(source: str) -> str:
        return hashlib.sha256(source.encode("utf-8")).hexdigest()

    def context(self, path: str, source: "str | None" = None) -> ModuleContext:
        """The parsed :class:`ModuleContext` for *path*.

        Reads the file when *source* is not given.  Propagates
        ``SyntaxError`` / ``OSError`` to the caller (the drivers turn those
        into ``SYNTAX`` violations).
        """
        if source is None:
            source = Path(path).read_text(encoding="utf-8")
        key = (str(path), self._digest(source))
        cached = self._contexts.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        tree = ast.parse(source, filename=str(path))
        ctx = ModuleContext(str(path), source, tree)
        self.parses += 1
        self._contexts[key] = ctx
        return ctx


@dataclass
class LintResult:
    """The outcome of one lint run."""

    violations: list[Violation]
    files_checked: int
    suppressed: int = 0
    #: Split of :attr:`suppressed` by whether the noqa carries a ``-- why``.
    suppressed_justified: int = 0
    suppressed_unjustified: int = 0
    #: Parser work done by this run (single-parse satellite): ``parses``
    #: counts real ``ast.parse`` calls, ``parse_reuses`` cache hits.
    parses: int = 0
    parse_reuses: int = 0

    @property
    def ok(self) -> bool:
        """Whether the run found no violations at all."""
        return not self.violations

    def summary(self) -> dict[str, object]:
        """The run's summary numbers — the single source both the text and
        JSON reporters render, so their outputs cannot drift apart."""
        return {
            "violations": len(self.violations),
            "files_checked": self.files_checked,
            "suppressed": self.suppressed,
            "suppressed_justified": self.suppressed_justified,
            "suppressed_unjustified": self.suppressed_unjustified,
            "parses": self.parses,
            "parse_reuses": self.parse_reuses,
            "ok": self.ok,
        }


def _select_rules(rules: "Sequence[str] | None") -> list[Rule]:
    if rules is None:
        return [RULES[name] for name in sorted(RULES)]
    selected = []
    for name in rules:
        if name not in RULES:
            known = ", ".join(sorted(RULES))
            raise KeyError(f"unknown lint rule {name!r} (known rules: {known})")
        selected.append(RULES[name])
    return selected


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    rules: "Sequence[str] | None" = None,
) -> list[Violation]:
    """Lint one source string; the unit used by the test suite."""
    tree = ast.parse(source, filename=path)
    ctx = ModuleContext(path, source, tree)
    found: list[Violation] = []
    for rule in _select_rules(rules):
        if not rule.applies_to(path):
            continue
        for violation in rule.check(ctx):
            if not ctx.is_suppressed(violation):
                found.append(violation)
    return sorted(found)


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    """All ``.py`` files under *paths* (files pass through), sorted."""
    seen: set[Path] = set()
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def run_lint(
    paths: "Sequence[str | Path]",
    *,
    rules: "Sequence[str] | None" = None,
    cache: "ASTCache | None" = None,
) -> LintResult:
    """Lint every Python file under *paths* with the selected rules.

    Violations are sorted by (path, line, col, rule); a file that fails to
    parse contributes one ``SYNTAX`` error violation rather than aborting
    the run.  Passing a shared :class:`ASTCache` lets a caller (e.g. the
    whole-program driver) guarantee each file is parsed once per run.
    """
    selected = _select_rules(rules)
    cache = cache if cache is not None else ASTCache()
    parses_before, hits_before = cache.parses, cache.hits
    violations: list[Violation] = []
    suppressed = 0
    justified = 0
    files = 0
    for file_path in iter_python_files(Path(p) for p in paths):
        files += 1
        rel = str(file_path)
        try:
            ctx = cache.context(rel)
        except (SyntaxError, ValueError, OSError) as exc:
            violations.append(
                Violation(
                    path=rel,
                    line=getattr(exc, "lineno", None) or 1,
                    col=0,
                    rule="SYNTAX",
                    severity=Severity.ERROR,
                    message=f"could not parse: {exc}",
                )
            )
            continue
        for rule in selected:
            if not rule.applies_to(rel):
                continue
            for violation in rule.check(ctx):
                if ctx.is_suppressed(violation):
                    suppressed += 1
                    if ctx.is_suppression_justified(violation.line):
                        justified += 1
                else:
                    violations.append(violation)
    return LintResult(
        sorted(violations),
        files_checked=files,
        suppressed=suppressed,
        suppressed_justified=justified,
        suppressed_unjustified=suppressed - justified,
        parses=cache.parses - parses_before,
        parse_reuses=cache.hits - hits_before,
    )
