"""Only `presentations` touches what a representation keeps.

Every value a `Representation` keeps sits in its one memo, read and
written through `presentations.kept` by lone calls; a chart's only
write is each representation's row of its Ad stack, made where the
chart's representations are built (`presentations._representations`).
Here each module's syntax tree is searched for an attribute, or a
string such as a `getattr` argument, that names a private slot of
`Representation`; only `presentations` may name one.
"""

import ast
import glob
import os

import pytest

from su2strata.presentations import Representation

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "su2strata")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))
PRIVATE = {name for name in Representation.__slots__ if name.startswith("_")}


def private_slot_names(source: str) -> list:
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            continue
        if name in PRIVATE:
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
