"""Static checks of the source, in place of a linter: every module of the
package and every script uses each name it imports, and every top-level
function and class of the package has a user in the program."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "cellformer").glob("*.py"))
MODULES = sorted([*PACKAGE, *(ROOT / "scripts").glob("*.py")])
# the program: the package, its scripts and the benchmark, which patches
# package functions by name
PROGRAM = sorted([*MODULES, *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, as `name (line n)`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom typing import Optional, Callable\n"
              "def f(g: Callable) -> str:\n    return os.path.sep\n")
    assert unused_imports(source) == ["Optional (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def references(node: ast.AST) -> Counter:
    """The names read under `node`: a `Name`, the attribute of an
    `Attribute`, or a string constant (a name looked up at run time)."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            found[n.value] += 1
    return found


def unreferenced_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """The top-level functions and classes of the `package` sources (by
    module name) that no source of `package` or `others` references outside
    their own definition, as `module.name`."""
    trees = {name: ast.parse(source) for name, source in package.items()}
    total = Counter()
    for tree in [*trees.values(), *map(ast.parse, others)]:
        total += references(tree)
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and total[node.name] == references(node)[node.name]]


def test_the_check_finds_a_definition_without_a_user():
    package = {"core": ("class Used:\n    pass\n"
                        "def loop(n):\n    return loop(n - 1) if n else Used()\n"
                        "def by_name():\n    pass\n"
                        "def orphan():\n    return by_attribute\n"
                        "def by_attribute():\n    pass\n")}
    other = ("import core\nprint(core.loop(2), core.by_attribute)\n"
             "setattr(core, 'by_name', None)\n")
    assert unreferenced_definitions(package, [other]) == ["core.orphan"]
    assert unreferenced_definitions(package, []) == ["core.loop", "core.by_name", "core.orphan"]


def test_every_package_definition_has_a_user():
    package = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    others = [p.read_text(encoding="utf-8") for p in PROGRAM if p not in PACKAGE]
    assert unreferenced_definitions(package, others) == []
