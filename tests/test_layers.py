"""Layer guard: every import inside the package points down one fixed layer order.

LAYERS lists the modules of src/fluxtem from the bottom up, the order in
which the simulation runs: shared plumbing, the run config, the detector
model, then device sizing, beam optics, the k-electron protocol, the
estimator and the command line.  A module may import only modules listed
before it, so the import graph has no cycle and no function-level import
is needed to break one.  The package's `__init__` sits below every layer
and imports nothing from it.

Every package import is checked, at module level or inside a function or
an `if TYPE_CHECKING:` block: `from . import m`, `from .m import x` and
their absolute `fluxtem` spellings.  A name imported from the package
that is not a module comes from `__init__`.

A second guard keeps `fileio.write_csv_parts` the package's one fork
helper: no other module names `os.fork`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAYERS = ("errors", "streams", "fileio", "hexcsv", "config", "detector", "device", "optics", "protocol", "estimator", "cli", "__main__")


def _imported_modules(node, modules):
    """The package modules an import node names; empty for an import from outside the package."""
    if isinstance(node, ast.Import):
        parts = [alias.name.split(".") for alias in node.names]
        return [part[1] if len(part) > 1 else "__init__" for part in parts if part[0] == "fluxtem"]
    if node.level > 1 or (node.level == 0 and (node.module or "").split(".")[0] != "fluxtem"):
        return []
    module = (node.module or "").split(".")
    if node.level == 0:
        module = module[1:]
    if module and module[0]:
        return [module[0]]
    return [alias.name if alias.name in modules else "__init__" for alias in node.names]


def layer_violations(root, layers=LAYERS):
    """(importer, imported) of each package import under root/src/fluxtem that does not point down `layers`.

    A module missing from `layers` is reported once, as (module, None).
    """
    paths = sorted((root / "src" / "fluxtem").glob("*.py"))
    modules = {path.stem for path in paths}
    rank = {"__init__": -1, **{name: i for i, name in enumerate(layers)}}
    found = []
    for path in paths:
        importer = path.stem
        if importer not in rank:
            found.append((importer, None))
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [(importer, name) for name in _imported_modules(node, modules) if rank.get(name, len(layers)) >= rank[importer]]
    return found


def test_every_package_import_points_down_the_layer_order():
    assert layer_violations(ROOT) == []


def test_the_layer_guard_names_each_import_at_or_above_its_importer(tmp_path):
    package = tmp_path / "src" / "fluxtem"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from .high import main\n")
    (package / "low.py").write_text(
        "from __future__ import annotations\n\n"
        "import numpy as np\n\n"
        "def f():\n    from .mid import g\n    return g(np.pi)\n"
    )
    (package / "mid.py").write_text(
        "from . import low\n"
        "from fluxtem import high\n\n"
        "def g(x):\n    from .mid import g as again\n    return low.f, high, again\n"
    )
    (package / "high.py").write_text(
        "from typing import TYPE_CHECKING\n\n"
        "import fluxtem.mid\n"
        "from . import __version__, low, mid\n"
        "from .low import f\n"
        "from fluxtem.mid import g\n\n"
        "if TYPE_CHECKING:\n    from .mid import X\n\n"
        "def main():\n    from . import low as again\n"
    )
    (package / "stray.py").write_text("from . import low\n")
    assert layer_violations(tmp_path, ("low", "mid", "high")) == [
        ("__init__", "high"),
        ("low", "mid"),
        ("mid", "high"),
        ("mid", "mid"),
        ("stray", None),
    ]


def fork_users(root):
    """The modules under root/src/fluxtem that name `os.fork`, as `os.fork` or through `from os import fork`."""
    found = set()
    for path in sorted((root / "src" / "fluxtem").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "fork" and getattr(node.value, "id", None) == "os":
                found.add(path.stem)
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(a.name == "fork" for a in node.names):
                found.add(path.stem)
    return sorted(found)


def test_only_fileio_forks():
    assert fork_users(ROOT) == ["fileio"]


def test_the_fork_guard_names_each_module_that_names_os_fork(tmp_path):
    package = tmp_path / "src" / "fluxtem"
    package.mkdir(parents=True)
    (package / "calls.py").write_text("import os\n\ndef f():\n    return os.fork()\n")
    (package / "refers.py").write_text("import os\n\nFORK = os.fork\n")
    (package / "imports.py").write_text("from os import getpid, fork\n")
    (package / "clean.py").write_text("import os\n\ndef fork(pid):\n    return os.getpid() + pid\n")
    assert fork_users(tmp_path) == ["calls", "imports", "refers"]
