"""Dead-code guards: every module-level function and class in src/fluxtem is reached from a root,
every module-level assigned name is read, and every name src/fluxtem imports is used.

The roots are what runs without being named: the module-level
statements of src/fluxtem (other than its definitions), the class-body
statements that are not methods, every dunder method, everything in
perfbench/, and the names pyproject.toml lists (the entry point).  From
there reach is transitive: a module-level definition is reached when a
`Name` or `Attribute` node in a root or in a reached definition names it,
and only then are the names inside it followed.  Methods and properties
are definitions too, reported as `Class.member`, but only an `Attribute`
node reaches one: a local name or a parameter of the same spelling does
not.  Names match by spelling, not by scope, which errs towards counting
a definition as reached.

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
    """("name", id) for each `Name` node under `nodes`, and ("attr", attr) for each `Attribute` node."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(("name", node.id))
            elif isinstance(node, ast.Attribute):
                found.add(("attr", node.attr))
    return found


def _members(node):
    """The methods and properties of a class node, dunders left out."""
    return [m for m in node.body if isinstance(m, DEFINITIONS) and not re.fullmatch(r"__\w+__", m.name)]


def unreached_definitions(root):
    """(module, name) of each module-level def or class, and (module, "Class.member") of each method or
    property, under root/src/fluxtem that no root reaches."""
    package = sorted((root / "src" / "fluxtem").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in package}
    roots = [ast.parse(path.read_text(), str(path)) for path in sorted((root / "perfbench").glob("*.py"))]
    follow = {}  # ("name" or "attr", name) -> the nodes whose names are followed once that is reached
    for tree in trees.values():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                # a class's own nodes are its header; its members are definitions of their own
                own = [*node.decorator_list, *node.bases, *node.keywords] if isinstance(node, ast.ClassDef) else [node]
                for kind in ("name", "attr"):
                    follow.setdefault((kind, node.name), []).extend(own)
            else:
                roots.append(node)
            if isinstance(node, ast.ClassDef):
                members = _members(node)
                roots += [member for member in node.body if member not in members]
                for member in members:
                    follow.setdefault(("attr", member.name), []).append(member)
    reached = set()
    entry_points = set(re.findall(r"\w+", (root / "pyproject.toml").read_text()))
    pending = _names(roots) | {(kind, name) for name in entry_points for kind in ("name", "attr")}
    while pending:
        key = pending.pop()
        reached.add(key)
        pending |= _names(follow.pop(key, [])) - reached
    found = []
    for path in package:
        for node in trees[path].body:
            if isinstance(node, DEFINITIONS):
                if ("name", node.name) not in reached and ("attr", node.name) not in reached:
                    found.append((path.stem, node.name))
                if isinstance(node, ast.ClassDef):
                    unreached = [m for m in _members(node) if ("attr", m.name) not in reached]
                    found += [(path.stem, f"{node.name}.{m.name}") for m in unreached]
    return found


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
        used = {name for _, name in _names([tree])}
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
        "def used(spelled=0):\n    named = 1\n    return Holder().method() + spelled + named\n\n"
        "class Holder:\n"
        "    size = sized()\n\n"
        "    def __init__(self):\n        from_dunder()\n\n"
        "    def method(self):\n        return from_method()\n\n"
        "    def uncalled(self):\n        return from_uncalled_method()\n\n"
        "    @property\n    def named(self):\n        return 1\n\n"
        "    def spelled(self):\n        return 2\n\n"
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
    # the chain a -> b -> a_only_tests_call is named whole: only tests/ and the chain itself use it;
    # a local name and a parameter reach no member of the same spelling
    assert unreached_definitions(tmp_path) == [
        ("main", "Holder.uncalled"),
        ("main", "Holder.named"),
        ("main", "Holder.spelled"),
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
