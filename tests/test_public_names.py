"""Every public name of the package has a caller outside the tests.

The package's ``__all__`` is everything ``__init__.py`` imports.  A name in
it that only the tests use is dead weight, so each non-module name must be
referenced in ``src/``, ``scripts/`` or ``perfbench/`` (the benchmark's own
tests excluded) somewhere other than ``__init__.py`` and the body of its
own definition.  A reference is a loaded name, an attribute, or a string
constant equal to the name: the benchmark's tracer looks functions up by
name.  Each of those tracer targets must exist in turn.
"""

import ast
import importlib
import types
from pathlib import Path

import cstrans

ROOT = Path(__file__).resolve().parents[1]


class _References(ast.NodeVisitor):
    def __init__(self) -> None:
        self.enclosing: list[str] = []
        self.names: set[str] = set()

    def _definition(self, node) -> None:
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _add(self, name: str) -> None:
        if name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self._add(node.value)


def test_every_public_name_is_used_outside_the_tests():
    refs = _References()
    for top in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py" or "tests" in path.relative_to(ROOT).parts:
                continue
            refs.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    public = [n for n in cstrans.__all__ if not isinstance(getattr(cstrans, n), types.ModuleType)]
    assert public
    assert [n for n in public if n not in refs.names] == []


def test_every_tracer_target_exists():
    # The benchmark's tracer wraps functions it names as strings; a target
    # renamed or deleted in ``src/`` would silently go untraced.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    [targets] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        )
    ]
    assert targets
    missing = [
        f"{module}.{name}"
        for module, name, _ in targets
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
