"""No module-level private function or class of the package goes unused.

A stand-in for a linter's dead-code rule, read from the syntax trees of
every module: a private (`_name`) function or class defined at a
module's top level must be named, as a name, an attribute or an import,
by some top-level statement of the package other than its own
definition, so a helper that only calls itself counts as unused.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "su2strata")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))


def _names(node) -> set:
    """Every identifier a statement names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unused_privates(sources: dict) -> list:
    """(module, line, name) of each private top-level function or class
    that no other top-level statement of `sources` names."""
    statements = [(module, stmt) for module, source in sources.items()
                  for stmt in ast.parse(source).body]
    named = [_names(stmt) for _, stmt in statements]
    out = []
    for k, (module, stmt) in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and \
                stmt.name.startswith("_") and not stmt.name.startswith("__"):
            if not any(stmt.name in names
                       for j, names in enumerate(named) if j != k):
                out.append((module, stmt.lineno, stmt.name))
    return sorted(out)


def test_every_private_helper_is_used():
    sources = {}
    for path in MODULES:
        with open(path) as f:
            sources[os.path.basename(path)] = f.read()
    assert unused_privates(sources) == []


def test_an_unused_private_helper_is_found():
    sources = {
        "a.py": ("def _used():\n    return 1\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Orphan:\n    pass\n"
                 "def public():\n    return _used()\n"),
        "b.py": ("from .a import _imported\n"
                 "def _imported():\n    pass\n"
                 "def _by_attribute():\n    pass\n"
                 "x = module._by_attribute\n"),
    }
    assert unused_privates(sources) == [("a.py", 3, "_recursive"),
                                        ("a.py", 5, "_Orphan")]
