"""Every name a module imports is used in it (the package __init__, which
re-exports, excepted)."""

import ast
from pathlib import Path

import wreathcalc

SRC = Path(wreathcalc.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    # quoted annotations are not read: with postponed evaluation of
    # annotations the modules need no quotes around imported names
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted("%s (line %d)" % (name, line)
                  for name, line in imported.items() if name not in used)


def test_source_modules_import_no_unused_names():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text(encoding="utf-8"))
             for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_the_guard_sees_an_unused_import():
    assert unused_imports("from fractions import Fraction\nimport os\n"
                          "os.sep\n") == ["Fraction (line 1)"]
    assert unused_imports("from typing import Iterator\n"
                          "def f() -> Iterator[int]:\n    pass\n") == []
