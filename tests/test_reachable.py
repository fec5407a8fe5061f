"""Every top-level function, class and method of the library is reached from
the library itself or from the benchmark in perfbench/, never from tests
alone: code that only tests call belongs under tests/.  The scan is by
name (AST), so a name reached anywhere counts as reached everywhere.
``oracles.py`` is exempt; its reference implementations are for tests
and for ``--paranoid``."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "coxmorse"
EXEMPT = {"oracles.py"}


def definitions(tree):
    """(name, node) of each top-level function and class, and of each
    method of a top-level class, dunders left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name, item


def references(node):
    """How often each name is read in ``node``: as a name, an attribute,
    an imported name or a part of a dotted string such as the patched
    "Class.method"."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            parts = sub.value.split(".")
            if all(map(str.isidentifier, parts)):
                names.update(parts)
    return names


def test_no_library_code_is_reached_only_from_tests():
    sources = sorted(LIBRARY.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in sources}
    # the package's __init__ re-exports names; an export alone reaches nothing
    trees.pop(LIBRARY / "__init__.py")
    read = sum(map(references, trees.values()), Counter())
    unreached = []
    for path, tree in trees.items():
        if path.parent != LIBRARY or path.name in EXEMPT:
            continue
        for name, node in definitions(tree):
            # a definition does not reach itself
            if read[name] == references(node)[name]:
                unreached.append(f"{path.name}: {name}")
    assert not unreached
