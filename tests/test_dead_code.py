"""Dead-code guards: every module-level function and class in src/fluxtem is reached from a root,
every module-level assigned name is read, and every name src/fluxtem imports is used.

The roots are what runs without being named: the module-level
statements of src/fluxtem (other than its definitions), the class-body
statements that are not methods, every dunder method, everything in
perfbench/, and the names pyproject.toml lists (the entry point).  From
there reach is transitive: a definition is reached when a `Name` or
`Attribute` node in a root or in a reached definition names it, and only
then are the names inside it followed.  Methods are definitions too, so
a method nothing calls reaches nothing.  Names match by spelling, not by
scope, which errs towards counting a definition as reached.

Uses from tests/ do not count: a helper only the tests need belongs in
tests/.  Neither does `__all__`: a string naming a definition reaches
nothing, so a definition only exported is reported.

A module-level assignment is read when a `Name` or `Attribute` node that
loads a value in src/ or perfbench/ spells its name; tests/ do not count
here either.

An imported name is used when a `Name` or `Attribute` node of its own
module names it; `from __future__` imports are directives, not names.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(nodes):
    """Every name a `Name` or `Attribute` node under `nodes` refers to."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    return found


def unreached_definitions(root):
    """(module, name) of each module-level def or class under root/src/fluxtem that no root reaches."""
    package = sorted((root / "src" / "fluxtem").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in package}
    roots = [ast.parse(path.read_text(), str(path)) for path in sorted((root / "perfbench").glob("*.py"))]
    follow = {}  # name -> the nodes whose names are followed once that name is reached
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                # a class's own nodes are its header; its methods are definitions of their own
                follow.setdefault(node.name, []).extend([*node.decorator_list, *node.bases, *node.keywords])
                for member in node.body:
                    if isinstance(member, DEFINITIONS) and not re.fullmatch(r"__\w+__", member.name):
                        follow.setdefault(member.name, []).append(member)
                    else:
                        roots.append(member)
            elif isinstance(node, DEFINITIONS):
                follow.setdefault(node.name, []).append(node)
            else:
                roots.append(node)
    reached = set()
    pending = _names(roots) | set(re.findall(r"\w+", (root / "pyproject.toml").read_text()))
    while pending:
        name = pending.pop()
        reached.add(name)
        pending |= _names(follow.pop(name, [])) - reached
    return [
        (path.stem, node.name)
        for path in package
        for node in trees[path].body
        if isinstance(node, DEFINITIONS) and node.name not in reached
    ]


def unread_assignments(root):
    """(module, name) of each name a module-level statement under root/src/fluxtem assigns and nothing reads."""
    package = sorted((root / "src" / "fluxtem").glob("*.py"))
    sources = package + sorted((root / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    found = []
    for path in package:
        for node in trees[path].body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            # `a, b = ...` assigns each name of the tuple
            names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            found += [(path.stem, name) for name in names if name not in read]
    return found


def unused_imports(root):
    """(module, name) of each name a module under root/src/fluxtem imports and never refers to."""
    found = []
    for path in sorted((root / "src" / "fluxtem").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = _names([tree])
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    # `import a.b` binds `a`; `from m import *` binds nothing to check
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "*" and name not in used:
                        found.append((path.stem, name))
    return found


def test_every_definition_in_src_is_reached():
    assert unreached_definitions(ROOT) == []


def test_the_guard_follows_reach_from_the_roots_only(tmp_path):
    package = tmp_path / "src" / "fluxtem"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "pyproject.toml").write_text('[project.scripts]\nfluxtem = "fluxtem.main:entry"\n')
    (package / "__init__.py").write_text('__all__ = ["exported"]\n')
    (package / "main.py").write_text(
        "def entry():\n    used()\n\n"
        "def used():\n    return Holder().method()\n\n"
        "class Holder:\n"
        "    size = sized()\n\n"
        "    def __init__(self):\n        from_dunder()\n\n"
        "    def method(self):\n        return from_method()\n\n"
        "    def uncalled(self):\n        return from_uncalled_method()\n\n"
        "def sized():\n    pass\n\n"
        "def from_dunder():\n    pass\n\n"
        "def from_method():\n    pass\n\n"
        "def from_uncalled_method():\n    pass\n\n"
        "def benched():\n    pass\n\n"
        "def exported():\n    pass\n\n"
        "def a():\n    return b()\n\n"
        "def b():\n    return a_only_tests_call()\n\n"
        "def a_only_tests_call():\n    pass\n\n"
        "TABLE = {'main': used}\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text("from fluxtem import main\n\nmain.benched()\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_main.py").write_text("from fluxtem.main import a\n\na()\n")
    # the chain a -> b -> a_only_tests_call is named whole: only tests/ and the chain itself use it
    assert unreached_definitions(tmp_path) == [
        ("main", "from_uncalled_method"),
        ("main", "exported"),
        ("main", "a"),
        ("main", "b"),
        ("main", "a_only_tests_call"),
    ]


def test_every_module_level_assignment_in_src_is_read():
    assert unread_assignments(ROOT) == []


def test_the_assignment_guard_names_each_unread_name(tmp_path):
    package = tmp_path / "src" / "fluxtem"
    package.mkdir(parents=True)
    (tmp_path / "perfbench").mkdir()
    (package / "main.py").write_text(
        "from . import other\n\n"
        "READ = 1\n"
        "UNREAD = 2\n"
        "FIRST, SECOND = 3, 4\n"
        "typed: int = 5\n"
        "BENCHED = 6\n"
        "ONLY_TESTS_READ = 7\n"
        "ATTRIBUTE_READ = 8\n"
        "STORED_ONLY = 9\n\n"
        "def f(holder):\n"
        "    holder.STORED_ONLY = READ + FIRST\n"
        "    return other.ATTRIBUTE_READ\n"
    )
    (tmp_path / "perfbench" / "run.py").write_text("from fluxtem import main\n\nprint(main.BENCHED)\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_main.py").write_text("from fluxtem import main\n\nassert main.ONLY_TESTS_READ\n")
    assert unread_assignments(tmp_path) == [
        ("main", "UNREAD"),
        ("main", "SECOND"),
        ("main", "typed"),
        ("main", "ONLY_TESTS_READ"),
        ("main", "STORED_ONLY"),
    ]


def test_every_import_in_src_is_used():
    assert unused_imports(ROOT) == []


def test_the_import_guard_names_each_unused_import(tmp_path):
    package = tmp_path / "src" / "fluxtem"
    package.mkdir(parents=True)
    (package / "main.py").write_text(
        "from __future__ import annotations\n\n"
        "import math\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n\n"
        "from .constants import CODATA, PhysicalConstants\n\n"
        "if TYPE_CHECKING:\n    from .config import RunConfig, load_config\n\n"
        "def area(cfg: RunConfig):\n"
        "    from .errors import ConfigError\n"
        "    return np.pi * os.path.sep\n"
    )
    assert unused_imports(tmp_path) == [
        ("main", "math"),
        ("main", "CODATA"),
        ("main", "PhysicalConstants"),
        ("main", "load_config"),
        ("main", "ConfigError"),
    ]
