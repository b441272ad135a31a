"""Everything ``src/kserver`` defines is used by ``src/kserver``.

A top-level function or class, or a public method, that nothing else in
the package names is API that only tests keep alive: it belongs in
``tests/`` or nowhere.  Names are read off the syntax trees, as a
``Name``, an ``Attribute`` or an imported name, so a docstring or a
comment that mentions one does not count.  Neither does a use inside the
definition itself or an export from ``__init__.py``.
"""

import ast
from collections import defaultdict
from pathlib import Path

import kserver

PACKAGE = Path(kserver.__file__).parent

# names the package does not call, each kept for a reader outside it
ALLOWED = {
    "oracle_opt": "the README's independent brute-force oracle",
    "oracle_work_vector": "the README's independent brute-force oracle",
    "measure_strict_ratio": "the benchmark's serve_verify calls it (perfbench/workloads.py)",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree):
    """(name, first line, last line) of each top-level function and class
    and each public method."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not item.name.startswith("_"):
                    yield item.name, item.lineno, item.end_lineno


def references(tree):
    """(name, line) of every name a module uses or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name, node.lineno


def unused(package):
    """``module:line name`` of each definition that nothing else names."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    used = defaultdict(list)
    for module, tree in trees.items():
        if module != "__init__.py":
            for name, line in references(tree):
                used[name].append((module, line))
    return [
        f"{module}:{first} {name}"
        for module, tree in trees.items()
        for name, first, last in definitions(tree)
        if all(where == module and first <= line <= last for where, line in used[name])
    ]


def test_every_definition_is_named_elsewhere_in_the_package():
    # both ways: an allowance the package no longer needs goes too
    missing = unused(PACKAGE)
    assert sorted(entry.split()[1] for entry in missing) == sorted(ALLOWED), missing
