"""Span recording for the traced benchmark run, done from outside the
package.

`install` replaces every module binding of each function in TRACED with
a wrapper that records one span (name, start, end, parent) per call.
Names copied by `from .x import f` live in several module dictionaries
at once, so every su2strata module is scanned for the original object,
and a binding left unpatched anywhere raises.  `numpy.linalg.svd` is
patched on the numpy module, which the package reaches through
`np.linalg.svd`; numpy's own internal callers keep the original.

Spans are kept in flat arrays in memory and written out once, at the
end of the run.  A span's self time is its duration minus the durations
of its direct children; calls are single-threaded and nested, so the
children never overlap.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

# module -> functions; "Class.method" names a method patched on its class
TRACED = {
    "su2": ("multiply", "ad", "exp", "log", "inverse"),
    "presentations": ("Representation.__init__", "evaluate_images",
                      "relator_residual", "polish_images",
                      "fox_jacobian_at"),
    "cohomology": ("system_d0", "system_d1", "system_cohomology",
                   "stabilizer_axis", "restricted_system", "cocycle_value",
                   "pullback_cocycle"),
    "strata": ("classify_stratum", "stratum_tangent_dim", "sample_stratum",
               "sample_surface_representation"),
    "symplectic": ("goldman_form", "gram_matrix"),
    "torsion": ("stratum_volume", "sequence_torsion",
                "mayer_vietoris_torsion"),
    "invariants": ("enumerate_moduli", "heegaard_mv_torsion",
                   "clean_intersection_check", "trace_fingerprint",
                   "deduplicate_points", "find_conjugator",
                   "apply_value_table", "assemble_invariant"),
    "cli": ("dispatch",),
}
SVD = "numpy.linalg.svd"


def traced_names() -> list:
    """Every traced function as `<module>.<function>`, SVD last."""
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns] \
        + [SVD]


class Tracer:
    """Flat, append-only span store with a call stack for parents."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(self.clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        nid = self.intern(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy()}

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(name, parent, start, end, n_names: int):
    """Per-name (calls, self seconds) from a span list.

    Self time of a span is its duration minus the summed durations of
    the spans whose parent it is.
    """
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    calls = np.bincount(name, minlength=n_names)
    self_s = np.bincount(name, weights=own, minlength=n_names)
    return calls, self_s


def roots(parent) -> np.ndarray:
    """Index of the root span above each span (a root is its own)."""
    parent = np.asarray(parent, dtype=np.int64)
    root = np.arange(parent.size)
    up = parent.copy()
    while (has := up >= 0).any():
        root[has] = up[has]
        up[has] = parent[up[has]]
    return root


def _originals(modules: dict) -> tuple:
    """(name -> (owner, attribute, original)) for every listed function
    that exists, and the listed names that do not."""
    found, absent = {}, []
    for mod, fns in TRACED.items():
        m = modules[mod]
        for fn in fns:
            owner, attr = m, fn
            if "." in fn:
                cls, attr = fn.split(".")
                owner = getattr(m, cls, None)
            if owner is None or attr not in vars(owner):
                absent.append(f"{mod}.{fn}")
                continue
            found[f"{mod}.{fn}"] = (owner, attr, vars(owner)[attr])
    return found, absent


def _bindings(modules: dict, originals: dict) -> list:
    """(module, attribute, name) for every module-level binding of an
    original function across the package."""
    by_id = {id(orig): name for name, (_, _, orig) in originals.items()}
    out = []
    for m in modules.values():
        for attr, val in vars(m).items():
            if id(val) in by_id:
                out.append((m, attr, by_id[id(val)]))
    return out


def install(tracer: Tracer, modules: dict):
    """Patch every binding of every traced function; return
    (restore, absent), where restore() undoes the patching and absent
    lists the traced names the package no longer defines.

    `modules` maps short module names ("su2", "cli", ...) to every
    loaded su2strata module, including the package itself.
    """
    import numpy.linalg

    originals, absent = _originals(modules)
    wrappers = {name: tracer.wrap(orig, name)
                for name, (_, _, orig) in originals.items()}
    undo = []

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
        undo.clear()

    for name, (owner, attr, orig) in originals.items():
        if isinstance(owner, type):
            setattr(owner, attr, wrappers[name])
            undo.append((owner, attr, orig))
    for m, attr, name in _bindings(modules, originals):
        setattr(m, attr, wrappers[name])
        undo.append((m, attr, originals[name][2]))
    svd = numpy.linalg.svd
    numpy.linalg.svd = tracer.wrap(svd, SVD)
    undo.append((numpy.linalg, "svd", svd))

    left = _bindings(modules, originals)
    left += [(owner, attr, name) for name, (owner, attr, orig)
             in originals.items()
             if isinstance(owner, type) and vars(owner)[attr] is orig]
    if left:
        restore()
        raise RuntimeError("traced functions left unpatched: " + ", ".join(
            f"{getattr(o, '__name__', o)}.{a} ({n})" for o, a, n in left))
    return restore, absent
