"""Every function and method of the package is named somewhere.

A function defined in src/instantons is an orphan when no name or attribute
in src/, tests/ or perfbench/ refers to it: nothing can call it.  Dunder
methods are exempt, since Python calls them itself.  The scan is by name, so
a function that shares its name with one in use (a method called `rank`, say)
passes; it catches the code that nothing names at all.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "instantons"


def _trees(*dirs: Path):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _named(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def orphans() -> list[str]:
    named = set()
    for _path, tree in _trees(ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
        named |= _named(tree)
    found = []
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in named:
                    found.append(f"{path.stem}.{name} (line {node.lineno})")
    return found


def test_no_orphaned_functions():
    assert orphans() == []


if __name__ == "__main__":
    print("\n".join(orphans()) or "no orphans")
