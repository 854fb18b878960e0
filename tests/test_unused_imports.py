"""No module of the package or of its tests imports a name it never
uses, and no package attribute shadows a submodule.

A stand-in for a linter's unused-import rule, read from each module's
syntax tree: an imported name must appear as a name somewhere else in
its module.  The package re-exports nothing, so `__init__` is held to
the same rule.
"""

import ast
import glob
import os
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = sorted(glob.glob(os.path.join(ROOT, "src", "su2strata", "*.py"))
                 + glob.glob(os.path.join(ROOT, "tests", "*.py")))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_every_import_is_used(path):
    with open(path) as f:
        assert unused_imports(f.read()) == []


def test_an_unused_import_is_found():
    source = ("from .presentations import Presentation, Word\n"
              "import itertools\n"
              "import numpy as np\n"
              "x = np.zeros(3)\n"
              "y: Word = None\n")
    assert unused_imports(source) == [(1, "Presentation"), (2, "itertools")]


def test_a_submodule_import_gives_the_module():
    # a package-level `from .cohomology import cohomology` would rebind
    # the attribute this import reads to the function
    import su2strata.cohomology as coh
    assert isinstance(coh, types.ModuleType)
    assert coh.__name__ == "su2strata.cohomology"
