"""Dead-code guard: every module-level function and class in src/fluxtem is reached by the program.

A definition counts as reached when a `Name` or `Attribute` node in the
package or in perfbench/ refers to it, when `fluxtem.__all__` exports
it, or when pyproject.toml names it (an entry point).  Uses from tests/
do not count: a helper only the tests need belongs in tests/.
"""

import ast
import re
from pathlib import Path

import fluxtem

ROOT = Path(__file__).resolve().parent.parent


def unreached_definitions(root):
    """(module, name) of each module-level def or class under root/src/fluxtem that nothing reaches."""
    package = sorted((root / "src" / "fluxtem").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in package + sorted((root / "perfbench").glob("*.py"))}
    reached = set(fluxtem.__all__) | set(re.findall(r"\w+", (root / "pyproject.toml").read_text()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
    return [
        (path.stem, node.name)
        for path in package
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in reached
    ]


def test_every_definition_in_src_is_reached():
    assert unreached_definitions(ROOT) == []
