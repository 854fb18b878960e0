"""Only `presentations` touches what a representation keeps, a
representation is made only by its constructor, and only `cohomology`
reads what a summary is a row of.

Every value a `Representation` keeps sits in its one memo, read and
written only through `presentations.kept`; a chart keeps its image
stack and makes a row's representation by the constructor when the row
is read.  So no statement in `src/` outside `Representation.__init__`
stores a slot of a representation, none names `Representation.__new__`,
and none outside `kept` reads the memo (`constructor_breaches`).
A `CohomologySummary` is a row of its shape group's analysis; other
modules read that analysis through `cohomology`'s accessors
(`_bases`, `_smallest_kept_d0`).  Here each module's syntax tree is
searched for an attribute, or a string such as a `getattr` argument,
that names a private slot of `Representation` or of
`CohomologySummary`; only the module that defines the class may name
one.
"""

import ast
import glob
import os

import pytest

from su2strata.cohomology import CohomologySummary
from su2strata.presentations import Representation

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "su2strata")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))
SLOTS = set(Representation.__slots__)
PRIVATE = {name for name in SLOTS if name.startswith("_")}
SUMMARY_PRIVATE = set(CohomologySummary.__slots__)


def private_slot_names(source: str, private=PRIVATE) -> list:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in private:
            out.append((node.lineno, name))
    return sorted(out)


def test_the_memo_is_one_private_slot():
    assert "_kept" in PRIVATE and len(PRIVATE) == 2   # and the Jacobian


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_other_module_names_a_private_slot(path):
    with open(path) as f:
        names = private_slot_names(f.read())
    if os.path.basename(path) == "presentations.py":
        assert names                     # the search does see them
    else:
        assert names == []


def test_a_private_slot_name_is_found():
    source = ("from .presentations import kept\n"
              "x = kept(rep, 'label', f)\n"
              "rep._kept['label'] = 0\n"
              "J = getattr(rep, '_jacobian')\n"
              "y = rep.kept\n")
    assert private_slot_names(source) == [(3, "_kept"), (4, "_jacobian")]


def test_a_summary_is_two_private_slots():
    assert SUMMARY_PRIVATE == {"_of", "_row"}


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_other_module_names_a_summary_slot(path):
    with open(path) as f:
        names = private_slot_names(f.read(), SUMMARY_PRIVATE)
    if os.path.basename(path) == "cohomology.py":
        assert names                     # the search does see them
    else:
        assert names == []


def test_a_summary_slot_name_is_found():
    source = ("from .cohomology import _bases\n"
              "x = _bases(summaries, 1)\n"
              "of, g = summary._of, summary._row\n"
              "S0 = getattr(summary, '_of').S0\n"
              "y = summary.of\n")
    assert private_slot_names(source, SUMMARY_PRIVATE) == [
        (3, "_of"), (3, "_row"), (4, "_of")]


def constructor_breaches(source: str) -> list:
    """(scope, line, name) of each statement in a module that makes or
    writes a representation other than through its constructor: an
    attribute store, or a `setattr` by string, of a `Representation`
    slot outside `Representation.__init__`; any `Representation.__new__`;
    and a read of the memo `_kept` outside `kept`, the only way to store
    into it but by the constructor's own store of the empty memo."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            elif isinstance(child, ast.Attribute):
                store = isinstance(child.ctx, ast.Store)
                if (store and child.attr in SLOTS
                        and scope != "Representation.__init__") or (
                        child.attr == "__new__"
                        and isinstance(child.value, ast.Name)
                        and child.value.id == "Representation") or (
                        child.attr == "_kept" and not store
                        and scope != "kept"):
                    out.append((scope, child.lineno, child.attr))
            elif isinstance(child, ast.Call) and child.args[1:] and \
                    isinstance(child.args[1], ast.Constant) and \
                    child.args[1].value in SLOTS and \
                    ast.unparse(child.func) in ("setattr",
                                                "object.__setattr__") \
                    and scope != "Representation.__init__":
                out.append((scope, child.lineno, child.args[1].value))
            visit(child, inner)

    visit(ast.parse(source), "")
    return out


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_a_representation_is_made_only_by_its_constructor(path):
    with open(path) as f:
        assert constructor_breaches(f.read()) == []


def test_a_second_way_to_make_a_representation_is_found():
    # a row sequence that makes its reps by `__new__` and a keeping
    # method, writing into the memo, as a chart once did
    source = (
        "class Representation:\n"
        "    def __init__(self, presentation, images):\n"
        "        self.images = images\n"
        "        self._kept = {}\n"
        "    def _keep(self, presentation, images):\n"
        "        self.presentation = presentation\n"
        "        self.images = images\n"
        "class _Rows:\n"
        "    def __getitem__(self, i):\n"
        "        rep = Representation.__new__(Representation)\n"
        "        rep._keep(*self.stacks)\n"
        "        rep._kept['adjoints'] = self.A[i]\n"
        "        return rep\n"
        "def kept(rep, key, compute):\n"
        "    if key not in rep._kept:\n"
        "        rep._kept[key] = compute()\n"
        "    return rep._kept[key]\n"
        "def rebuilt(rep, images):\n"
        "    object.__setattr__(rep, 'images', images)\n"
        "    setattr(rep, 'relator_residual', 0.0)\n"
        "    setattr(rep, 'label', 0)\n"
        "    rep._kept.clear()\n"
        "    chart.images = images\n")   # by name: any object's slot
    assert constructor_breaches(source) == [
        ("Representation._keep", 6, "presentation"),
        ("Representation._keep", 7, "images"),
        ("_Rows.__getitem__", 10, "__new__"),
        ("_Rows.__getitem__", 12, "_kept"),
        ("rebuilt", 19, "images"),
        ("rebuilt", 20, "relator_residual"),
        ("rebuilt", 22, "_kept"),
        ("rebuilt", 23, "images")]
