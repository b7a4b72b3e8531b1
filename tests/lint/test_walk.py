"""The memoized tree walk both lint tiers share (``repro.lint.engine.walk``).

* equivalence: on every node of every fixture and ``src/repro`` module,
  ``walk(node)`` is ``ast.walk(node)`` — the same nodes in the same BFS
  order — and a second call returns the stored tuple;
* a guard: no module of ``repro.lint`` calls ``ast.walk`` except the
  helper itself, so a new rule cannot quietly bring back the repeated
  walks the memo removed.
"""

import ast
from pathlib import Path

import pytest

import repro
import repro.lint
from repro.lint.engine import ModuleContext, walk

FIXTURES = Path(__file__).resolve().parent / "fixtures"
PACKAGE = Path(repro.__file__).resolve().parent
LINT_PACKAGE = Path(repro.lint.__file__).resolve().parent

CORPUS = sorted(FIXTURES.rglob("*.py")) + sorted(PACKAGE.rglob("*.py"))


def _corpus_id(path: Path) -> str:
    base = FIXTURES.parent if FIXTURES in path.parents else PACKAGE.parent
    return path.relative_to(base).as_posix()


def _context(path: Path) -> ModuleContext:
    source = path.read_text(encoding="utf-8")
    return ModuleContext(str(path), source, ast.parse(source, filename=str(path)))


class TestWalkMatchesAstWalk:
    def test_corpus_is_not_empty(self):
        assert len(CORPUS) > 150

    @pytest.mark.parametrize("path", CORPUS, ids=_corpus_id)
    def test_every_node_walks_like_ast_walk(self, path):
        ctx = _context(path)
        # The module's order is recorded while parents are annotated.
        recorded = walk(ctx.tree)
        assert recorded == tuple(ast.walk(ctx.tree))
        for node in recorded:
            nodes = walk(node)
            assert nodes == tuple(ast.walk(node))
            assert walk(node) is nodes

    def test_fresh_tree_without_context(self):
        tree = ast.parse("def f(a):\n    return [a * i for i in range(3)]\n")
        nodes = walk(tree)
        assert nodes == tuple(ast.walk(tree))
        assert walk(tree) is nodes
        assert nodes[0] is tree


def _ast_walk_calls(tree: ast.Module) -> "list[ast.AST]":
    """Every reference to ``ast.walk`` in *tree*, however it was imported."""
    modules: set[str] = set()
    direct: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name for a in node.names if a.name == "ast")
        elif isinstance(node, ast.ImportFrom) and node.module == "ast":
            direct.update(a.asname or a.name for a in node.names if a.name == "walk")
    found: list[ast.AST] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "walk"
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ) or (isinstance(node, ast.Name) and node.id in direct):
            found.append(node)
    return found


def _inside_helper(ctx: ModuleContext, node: ast.AST) -> bool:
    func = ctx.enclosing_function(node)
    return (
        func is not None
        and func.name == "walk"
        and ctx.enclosing_function(func) is None
        and ctx.enclosing_class(func) is None
        and Path(ctx.path) == LINT_PACKAGE / "engine.py"
    )


class TestNoStrayAstWalk:
    def test_lint_package_walks_only_through_the_helper(self):
        stray = []
        for path in sorted(LINT_PACKAGE.rglob("*.py")):
            ctx = _context(path)
            stray.extend(
                f"{path.relative_to(LINT_PACKAGE)}:{node.lineno}"
                for node in _ast_walk_calls(ctx.tree)
                if not _inside_helper(ctx, node)
            )
        assert not stray, (
            "call repro.lint.engine.walk instead of ast.walk (memoized per "
            f"node, shared by both tiers): {stray}"
        )

    def test_guard_sees_every_import_form(self):
        source = (
            "import ast\nimport ast as syntax\nfrom ast import walk as w\n"
            "a = ast.walk\nb = syntax.walk\nc = w\n"
        )
        assert len(_ast_walk_calls(ast.parse(source))) == 3
