"""Every module-level import in the package's modules is used there.

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


def test_modules_found():
    assert {p.name for p in MODULES} >= {"aggregate.py", "cli.py", "kb.py", "trainer.py"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom a.b import c as d, e\nprint(sys, e)\n"
    assert unused_imports(source) == ["line 2: os", "line 3: d"]
