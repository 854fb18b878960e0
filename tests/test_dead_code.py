"""No function, class or class member of the package goes unused.

A stand-in for a linter's dead-code rule, read from the syntax trees of
every module.  A function or class defined at a module's top level is
named when some top-level statement of the package other than its own
definition names it: as a name read at module level, as `<module>.<name>`
read through its own module, or in an import.  So a helper that only
calls itself counts as unused, and so does one whose name is elsewhere
only stored, a function's local, or the attribute of something else.
A member of a class (a method or property, a class attribute, a
dataclass field or a `__slots__` entry; dunders aside) is named when
some statement of the package outside its own definition reads it as
an attribute, `x.name`.  Two rules read that one walk:

- a private one (`_name`, or a member of a private class) must be
  named;
- a public one must be named, or be on SURFACE, which says who outside
  the package uses it.  An entry that is gone, or that the package now
  names, is stale.  An entry that only the bench uses must be a traced
  function in `bench/spans.py`'s TRACED, read from its syntax tree; once
  the bench drops it, the rule points at the code to delete.

A third rule keeps errors from becoming values: every exception of a
class that `errors.py` defines, or numpy's `LinAlgError`, that the
package makes must be made as the operand of a `raise`, and a name
bound by `except ... as e` must not be returned, yielded, assigned,
put in a list, tuple, set or dict, or appended, outside the functions
KEPT_ERRORS lists with their reasons.  So no stage can put an error in
a row's place, return one or keep one for later.
"""

import ast
import glob
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "su2strata")
MODULES = sorted(glob.glob(os.path.join(SRC, "*.py")))
SPANS = os.path.join(ROOT, "bench", "spans.py")

BENCH = "bench only"
# `<module>.<name>` or `<module>.<class>.<member>` -> who uses it
SURFACE = {
    "su2.trace": "demos/quaternion_tour.py",
    "presentations.Word.letters": "README, demos/fox_jacobian.py",
    "presentations.polish_images": "README tour, demos/fox_jacobian.py",
    "strata.sample_stratum": "acceptance tests, demos/strata_census.py",
    "symplectic.goldman_form": "demos/goldman_audit.py",
    "symplectic.trace_derivative": "acceptance test 06",
    "presentations.relator_residual": BENCH,
    "cohomology.system_d1": BENCH,
    "cohomology.cocycle_value": BENCH,
    "cohomology.pullback_cocycle": BENCH,
    "invariants.trace_fingerprint": BENCH,
    "invariants.deduplicate_points": BENCH,
    "invariants.clean_intersection_check": BENCH,
    "torsion.mayer_vietoris_torsion": BENCH,
}

# `<module>.<function>` -> why it may keep an error it caught; none may
KEPT_ERRORS = {}


def _names(node, modules) -> set:
    """Every identifier a statement reads at module level: a name read
    where no enclosing function binds it, `<module>.<name>` for an
    attribute read of one of `modules`, or a `from` import.  A name only
    stored, read as a function's local or read as the attribute of
    anything else does not count."""
    out = set()

    def visit(sub, local):
        if isinstance(sub, (ast.FunctionDef, ast.Lambda)):
            local = local | _locals(sub)
        if isinstance(sub, ast.Name):
            if isinstance(sub.ctx, ast.Load) and sub.id not in local:
                out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            if isinstance(sub.ctx, ast.Load) and isinstance(
                    sub.value, ast.Name) and sub.value.id in modules:
                out.add(f"{sub.value.id}.{sub.attr}")
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
        for child in ast.iter_child_nodes(sub):
            visit(child, local)

    visit(node, frozenset())
    return out


def _locals(fn) -> set:
    """The names a function or lambda binds: its arguments, and what its
    own body stores, defines or imports, nested scopes aside, less the
    names it declares global."""
    a = fn.args
    bound = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                 a.vararg, a.kwarg) if arg}
    declared = set()
    todo = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Load):
            bound.add(sub.id)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in sub.names)
        elif isinstance(sub, ast.Global):
            declared.update(sub.names)
        if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
            bound.add(sub.name)
        elif not isinstance(sub, ast.Lambda):
            todo += ast.iter_child_nodes(sub)
    return bound - declared


def _reads(node) -> Counter:
    """How often a node reads each attribute, `x.name` in Load context."""
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute)
                   and isinstance(sub.ctx, ast.Load))


def _members(cls) -> list:
    """(line, name, node) of each member a class body defines, dunders
    aside: its methods and properties, its class attributes and
    dataclass fields, and the names in its `__slots__`."""
    out = []
    for node in cls.body:
        names = []
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, ast.AnnAssign):
            names = [ast.unparse(node.target)]
        elif isinstance(node, ast.Assign):
            names = [ast.unparse(t) for t in node.targets]
            if names == ["__slots__"]:
                names = list(ast.literal_eval(node.value))
        out += [(node.lineno, name, node) for name in names
                if not name.startswith("__")]
    return out


def definitions(sources: dict) -> list:
    """((module, line, name), named) for each top-level function or
    class of `sources`, and as `<class>.<member>` for each member of
    such a class, dunders aside.  named is whether another top-level
    statement names the function or class, or whether a statement
    outside the member's own definition reads the member."""
    modules = {module[:-3] for module in sources}
    statements = [(module, stmt) for module, source in sources.items()
                  for stmt in ast.parse(source).body]
    named = [_names(stmt, modules) for _, stmt in statements]
    reads = sum(map(_reads, (stmt for _, stmt in statements)), Counter())
    out = []
    for k, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) or \
                stmt.name.startswith("__"):
            continue
        keys = {stmt.name, f"{module[:-3]}.{stmt.name}"}
        out.append(((module, stmt.lineno, stmt.name),
                    any(keys & names for j, names in enumerate(named)
                        if j != k)))
        if isinstance(stmt, ast.ClassDef):
            out += [((module, line, f"{stmt.name}.{name}"),
                     reads[name] > _reads(node)[name])
                    for line, name, node in _members(stmt)]
    return out


def _private(name: str) -> bool:
    """Whether a function, class or `<class>.<member>` is private: its
    name, or its class's, starts with an underscore."""
    return any(part.startswith("_") for part in name.split("."))


def unused_privates(sources: dict) -> list:
    """(module, line, name) of each private definition that nothing
    else in `sources` names."""
    return sorted(d for d, named in definitions(sources)
                  if _private(d[2]) and not named)


def surface_breaches(sources: dict, surface: dict, traced: dict) -> list:
    """What the public rule finds in `sources`: each public name that
    nothing names and `surface` does not list, each stale `surface`
    entry, and each bench-only entry that `traced` lacks."""
    public = {f"{module[:-3]}.{name}": named
              for (module, _, name), named in definitions(sources)
              if not _private(name)}
    out = [f"{q} is unused" for q, named in public.items()
           if not named and q not in surface]
    for q, user in surface.items():
        module, name = q.split(".", 1)
        if q not in public:
            out.append(f"{q} is listed but gone")
        elif public[q]:
            out.append(f"{q} is listed but named in the package")
        if user == BENCH and name not in traced.get(module, ()):
            out.append(f"{q} is listed for the bench but not traced")
    return sorted(out)


def unraised_errors(sources: dict) -> list:
    """(module, line, class) of each call in `sources` that makes an
    exception of a class `errors.py` defines, or a `LinAlgError`, and is
    not the operand of a `raise`."""
    classes = {stmt.name for stmt in ast.parse(sources["errors.py"]).body
               if isinstance(stmt, ast.ClassDef)} | {"LinAlgError"}
    out = []
    for module, source in sources.items():
        tree = ast.parse(source)
        raised = {id(node.exc) for node in ast.walk(tree)
                  if isinstance(node, ast.Raise)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call) in raised:
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            if name in classes:
                out.append((module, call.lineno, name))
    return sorted(out)


def _hands_on(node, name: str) -> bool:
    """Whether `node` hands the bare name on as a value: returns, yields
    or assigns it, puts it in a display, or passes it to an append."""
    def bare(v):
        return isinstance(v, ast.Name) and v.id == name and isinstance(
            v.ctx, ast.Load) or isinstance(v, ast.IfExp) and (
                bare(v.body) or bare(v.orelse))
    if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom, ast.Assign,
                         ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
        return bare(node.value)
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return any(map(bare, node.elts))
    if isinstance(node, ast.Dict):
        return any(map(bare, node.keys + node.values))
    return isinstance(node, ast.Call) and getattr(
        node.func, "attr", None) == "append" and any(map(bare, node.args))


def kept_errors(sources: dict, allowed: dict) -> list:
    """(module, line, scope) of each place in `sources` that hands on a
    name bound by `except ... as e` (`_hands_on`), where scope is the
    `<module>.<function>` (or `.<class>.<method>`) it lies in, unless
    `allowed` lists that scope."""
    out = []
    for module, source in sources.items():
        todo = [(module[:-3], stmt) for stmt in ast.parse(source).body]
        while todo:
            scope, node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                scope = f"{scope}.{node.name}"
            if isinstance(node, ast.ExceptHandler) and node.name and \
                    scope not in allowed:
                out += [(module, sub.lineno, scope) for stmt in node.body
                        for sub in ast.walk(stmt)
                        if _hands_on(sub, node.name)]
            todo += [(scope, child) for child in ast.iter_child_nodes(node)]
    return sorted(out)


def _sources() -> dict:
    sources = {}
    for path in MODULES:
        with open(path) as f:
            sources[os.path.basename(path)] = f.read()
    return sources


def _traced() -> dict:
    with open(SPANS) as f:
        tree = ast.parse(f.read())
    (value,) = [stmt.value for stmt in tree.body
                if isinstance(stmt, ast.Assign)
                and [ast.unparse(t) for t in stmt.targets] == ["TRACED"]]
    return ast.literal_eval(value)


def test_every_private_helper_is_used():
    assert unused_privates(_sources()) == []


def test_every_error_made_is_raised():
    assert unraised_errors(_sources()) == []


def test_no_caught_error_is_kept_but_where_listed():
    assert kept_errors(_sources(), KEPT_ERRORS) == []
    # and no site keeps what it catches, listed or not
    assert kept_errors(_sources(), {}) == []


def test_every_public_name_is_used_or_on_the_surface():
    assert surface_breaches(_sources(), SURFACE, _traced()) == []


def test_an_unused_private_helper_is_found():
    sources = {
        "a.py": ("def _used():\n    return 1\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Orphan:\n    pass\n"
                 "def public():\n    return _used()\n"),
        "b.py": ("from .a import _imported\n"
                 "def _imported():\n    pass\n"
                 "def _argument():\n    pass\n"
                 "def _by_attribute():\n    pass\n"
                 "x = b._by_attribute\n"
                 "def _shadowed():\n    pass\n"
                 "def f(_argument):\n    _shadowed = _argument\n    return _shadowed\n"
                 "def _by_other():\n    pass\n"
                 "y = rep._by_other\n"
                 "class _Box:\n    size = 1\n"
                 "    def _peek(self):\n        return self.size\n"
                 "box = _Box()\n"),
    }
    assert unused_privates(sources) == [("a.py", 3, "_recursive"),
                                        ("a.py", 5, "_Orphan"),
                                        ("b.py", 4, "_argument"),
                                        ("b.py", 9, "_shadowed"),
                                        ("b.py", 14, "_by_other"),
                                        ("b.py", 19, "_Box._peek")]


def test_an_unlisted_stale_or_untraced_public_name_is_found():
    sources = {
        "a.py": ("def helper():\n    return 1\n"
                 "def orphan():\n    return orphan()\n"
                 "def listed():\n    extra = helper()\n    return extra\n"
                 "def extra():\n    pass\n"
                 "def benched():\n    pass\n"
                 "class Untraced:\n    pass\n"),
        "b.py": "from .a import imported\ndef imported():\n    pass\n",
        "c.py": ("@dataclass\nclass Point:\n    x: float\n"
                 "    dead: float = 0.0\n"
                 "    def norm(self):\n        return abs(self.x)\n"
                 "    def dead_method(self):\n"
                 "        return self.dead_method()\n"
                 "def residual():\n    pass\n"
                 "p = Point(1.0)\n"
                 "y = p.norm() + p.residual\n"),
    }
    surface = {"a.listed": "README", "a.helper": "README",
               "a.gone": "demo", "a.benched": BENCH, "a.Untraced": BENCH,
               "c.Point.norm": "README"}
    assert surface_breaches(sources, surface, {"a": ("benched",)}) == [
        "a.Untraced is listed for the bench but not traced",
        "a.extra is unused",
        "a.gone is listed but gone",
        "a.helper is listed but named in the package",
        "a.orphan is unused",
        "c.Point.dead is unused",
        "c.Point.dead_method is unused",
        "c.Point.norm is listed but named in the package",
        "c.residual is unused"]


def test_an_error_made_and_not_raised_is_found():
    sources = {
        "errors.py": ("class DomainError(Exception):\n    pass\n"
                      "class RankError(DomainError):\n    pass\n"),
        "a.py": ("def f(x):\n"
                 "    if x:\n        raise RankError('raised')\n"
                 "    out = [DomainError('in place')]\n"
                 "    return RankError('returned')\n"
                 "def g(e):\n"
                 "    raise errors.DomainError('through its module') from e\n"
                 "def h():\n"
                 "    return np.linalg.LinAlgError('made')\n"
                 "def k(e):\n"
                 "    if isinstance(e, RankError):\n        raise e\n"
                 "    raise _wrapped(RankError('wrapped'))\n"
                 "    return ValueError('not a package error')\n"),
    }
    assert unraised_errors(sources) == [("a.py", 4, "DomainError"),
                                        ("a.py", 5, "RankError"),
                                        ("a.py", 9, "LinAlgError"),
                                        ("a.py", 13, "RankError")]


def test_a_caught_error_kept_as_a_value_is_found():
    sources = {
        "a.py": ("def f(x):\n"
                 "    try:\n        return g(x)\n"
                 "    except ValueError as e:\n        return e\n"
                 "def h(rows):\n"
                 "    out = []\n"
                 "    for r in rows:\n"
                 "        try:\n            out.append(g(r))\n"
                 "        except KeyError as e:\n"
                 "            out.append(e)\n"
                 "            kept = e\n"
                 "            yield {r: e}, (None if r else e)\n"
                 "    return out\n"
                 "class Box:\n"
                 "    def open(self):\n"
                 "        try:\n            pass\n"
                 "        except OSError as err:\n"
                 "            self.last = [err]\n"
                 "def ok(x):\n"
                 "    try:\n        return g(x)\n"
                 "    except ValueError as e:\n"
                 "        log(str(e), e.args)\n"
                 "        if isinstance(e, KeyError):\n            raise e\n"
                 "        raise RuntimeError(f'bad {e}') from e\n"
                 "    except TypeError:\n        return None\n"
                 "def listed(x):\n"
                 "    try:\n        return g(x)\n"
                 "    except ValueError as e:\n        return e\n"),
    }
    assert kept_errors(sources, {"a.listed": "a reason"}) == [
        ("a.py", 5, "a.f"),
        ("a.py", 12, "a.h"),
        ("a.py", 13, "a.h"),
        ("a.py", 14, "a.h"),
        ("a.py", 14, "a.h"),
        ("a.py", 21, "a.Box.open")]
