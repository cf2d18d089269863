"""Every module-level import in the package's modules is used there, every
module-level private name is used in its own module, and the package's
``__all__`` lists exactly the names ``__init__.py`` imports.

A stdlib ``ast`` pass stands in for a linter: a name bound by an import at
module level must appear as a name somewhere in the same module.
``__init__.py`` re-exports its imports and ``__future__`` imports bind no
names, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kbens"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_x`` names (defs, classes, assignments) never read."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name.startswith("_") and not name.startswith("__") and name not in read]


def export_mismatch(source: str) -> list[str]:
    """Names ``__init__.py`` imports but leaves out of ``__all__``, and names
    ``__all__`` lists more than once or without importing them."""
    tree = ast.parse(source)
    imported: set[str] = set()
    exported: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = ast.literal_eval(node.value)
    repeated = {name for name in exported if exported.count(name) > 1}
    return sorted(imported.symmetric_difference(exported) | repeated)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"aggregate.py", "cli.py", "kb.py", "trainer.py"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d, e\nprint(sys, e)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: d"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_private_name(module):
    assert unused_private_names(module.read_text(encoding="utf-8")) == []


def test_detects_an_unused_private_name():
    source = (
        "_USED = 1\n_SPARE, x = 2, 3\n__version__ = '1'\n"
        "def _helper():\n    return _USED\n"
        "class _Unused:\n    pass\n"
        "def public():\n    return _helper()\n"
    )
    assert unused_private_names(source) == ["line 2: _SPARE", "line 6: _Unused"]


def test_all_lists_exactly_the_imported_names():
    assert export_mismatch((PACKAGE / "__init__.py").read_text(encoding="utf-8")) == []


def test_detects_an_export_mismatch():
    source = (
        "from .a import One, Two\nfrom .b import three as Three\n"
        "__all__ = ['One', 'One', 'Three', 'Four']\n"
    )
    assert export_mismatch(source) == ["Four", "One", "Two"]
