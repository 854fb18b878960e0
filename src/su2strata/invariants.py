"""Flat moduli enumeration and stratified invariant sums.

Built-in moduli charts cover the genus-1 Heegaard examples (s3, s1xs2,
lens(p,q)) and commuting triples (t3).  Chern-Simons values and
spectral flows are external inputs everywhere: points default to
cs = 0 and tables supplied by the caller override them; nothing here
computes either quantity.

Positive-dimensional families integrate with a uniform-angle chart and
trapezoidal weights on interior grid nodes; chart endpoints are
isolated lower-stratum points of weight 1.

Every example is one chart driver (`_chart_points`) fed its rows and its
splitting.  The driver builds every representation of the chart in one
stacked pass, analyses their full-coefficient systems in one stacked
analysis, labels them in one axis test and analyses the stabilizer lines
of the reducible ones in one more, and returns one `Chart` of columns.
With a splitting, one Mayer-Vietoris builder (`_glued_torsions`) then
folds the handle and surface words over the chart's stacks, makes every
point's handlebody and surface representations, analyses their systems
in one more stacked analysis, and forms the restriction maps, the
surface Gram matrices and the torsion sequences as stacked products, one
stack per shape.  A point's torsion follows its stratum: the unit
half-density at stratum 0, elsewhere the splitting's torsion; t3 has no
built-in splitting, so its other points carry torsion = None until the
caller supplies values.  Each stage checks its rows in order, the last
one clean intersection (a declared dimension is h1 of its stratum
system), and the first row that fails raises the error a lone call
raises there, so a chart that returns has no failed point.  A chart
keeps nothing on its representations but their Ad stack rows;
`heegaard_mv_torsion` and `clean_intersection_check` are batches of one
that keep nothing either: they read a rep's kept label and summary.
Built-in charts are fundamental domains for conjugation, so no dedup
runs; `deduplicate_points` stays for the bench.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import su2
from .cohomology import (_FULL_BASIS, DEFAULT_TOL, CoefficientSystem,
                         _in_basis, _system_cohomologies, cohomology,
                         full_system)
from .conventions import MAX_CHART_POINTS
from .errors import CleanIntersectionError, DomainError, InputError
from .presentations import (Presentation, Representation, Word, _fields,
                            _fold_words, _json_float, _read_only,
                            _representations, commutator, cyclic_group,
                            evaluate_images, fox_fold, free_group,
                            generator, surface_group)
from .strata import StratumLabel, _labels, classify_stratum
from .torsion import TorsionValue, _mayer_vietoris_torsions


@dataclass(frozen=True)
class HeegaardData:
    """Genus-g splitting: which surface words generate each handlebody
    and how everything maps into the manifold group.

    surface_to_handle* give the image of each surface generator as a
    word in that handlebody's free generators; handle*_to_manifold give
    the image of each handlebody generator as a word in the manifold
    presentation's generators.  The handlebodies are free(g) and the
    surface is surface(g).
    """

    genus: int
    presentation_n: Presentation
    surface_to_handle1: tuple
    surface_to_handle2: tuple
    handle1_to_manifold: tuple
    handle2_to_manifold: tuple

    def __post_init__(self):
        g = self.genus
        if len(self.surface_to_handle1) != 2 * g or \
                len(self.surface_to_handle2) != 2 * g:
            raise DomainError("surface maps need 2*genus entries")
        if len(self.handle1_to_manifold) != g or \
                len(self.handle2_to_manifold) != g:
            raise DomainError("manifold maps need genus entries")


@dataclass(frozen=True)
class ModuliPoint:
    point_id: str
    rep: Representation
    stratum: StratumLabel
    component_dim: int
    fingerprint: tuple


class Chart:
    """A moduli chart as columns in point order: unique ids, reps,
    labels, component dims, weights, an (N, k) read-only fingerprint
    array, cs values and torsions (None until a table gives one); an
    index, a slice or iteration reads `ModuliPoint` rows."""

    __slots__ = ("ids", "reps", "labels", "dims", "weights",
                 "fingerprints", "cs", "torsions")

    def __init__(self, *columns):
        for slot, column in zip(self.__slots__, columns):
            setattr(self, slot, column)

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self.__getitem__, range(len(self))[i]))
        return ModuliPoint(self.ids[i], self.reps[i], self.labels[i],
                           self.dims[i], tuple(self.fingerprints[i].tolist()))


@dataclass(frozen=True)
class InvariantResult:
    k: int
    total: complex
    per_stratum: dict
    magnitude_bound: float
    point_count: int


_FINGERPRINT_DECIMALS = 7
_FINGERPRINT_SCALE = 10.0 ** _FINGERPRINT_DECIMALS
_CONJUGATOR_TOL = 1e-7


def trace_fingerprint(rep: Representation) -> tuple:
    """Traces of generators, ordered pairs, and the full product,
    rounded to 1e-7; a chart takes its points' from one stacked
    `_fingerprints`."""
    return tuple(_fingerprints(rep.images).tolist())


def _fingerprints(images: np.ndarray) -> np.ndarray:
    """`trace_fingerprint` of (n, 4) images as an array, or of each row
    of an (N, n, 4) stack as an (N, k) array."""
    n = images.shape[-2]
    i, j = np.triu_indices(n, 1)    # the pairs i < j, in lexical order
    pairs = su2.multiply(images[..., i, :], images[..., j, :])
    full = evaluate_images(images, Word(range(1, n + 1)))
    traces = 2.0 * np.concatenate(
        (images[..., 0], pairs[..., 0], full[..., :1]), axis=-1)
    return np.round(traces, _FINGERPRINT_DECIMALS) + 0.0


def find_conjugator(rep1: Representation, rep2: Representation):
    """Group element conjugating rep1 onto rep2, or None.

    q x_j q^-1 = y_j is q x_j - y_j q = 0, linear in q in R^4: the
    candidate is the right singular vector of the smallest singular
    value of the stacked equations, kept if it conjugates every image
    to within _CONJUGATOR_TOL.
    """
    a, b = rep1.images, rep2.images
    if a.shape != b.shape:
        return None
    q = np.linalg.svd(_conjugation_equations(a, b))[2][-1]
    if float(np.abs(su2.conjugate(a, q) - b).max()) < _CONJUGATOR_TOL:
        return q
    return None


def _conjugation_equations(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(4n x 4) matrix of q -> (q x_j - y_j q)_j, the blocks
    R(x_j) - L(y_j) of right and left quaternion multiplication:
    [[s, -d^T], [d, s I - [v]_x]] with s = w_x - w_y, d = v_x - v_y and
    v = v_x + v_y."""
    s = x[:, 0] - y[:, 0]
    d1, d2, d3 = (x[:, 1:] - y[:, 1:]).T
    v1, v2, v3 = (x[:, 1:] + y[:, 1:]).T
    blocks = [[s, -d1, -d2, -d3],
              [d1, s, v3, -v2],
              [d2, -v3, s, v1],
              [d3, v2, -v1, s]]
    return np.moveaxis(np.array(blocks), 2, 0).reshape(-1, 4)


def _within_a_step(prints: np.ndarray, queries: np.ndarray) -> tuple:
    """The (query, print) index pairs of the rows of two equal-width
    fingerprint arrays within one rounding step (1e-7) in every
    component, by query then print, with every fingerprint quantised in
    one call as round() rounds.  Each row's key is one fixed positive
    weighting of its steps, so rows within a step have keys within the
    weights' sum: one window per query of the sorted print keys gives
    the candidates, and every component is then compared."""
    S = np.rint(np.concatenate((prints, queries))
                * _FINGERPRINT_SCALE).astype(np.int64)
    # pseudo-random weights, so that no family of traces shares a key
    w = np.arange(S.shape[1]) * 7919 % 1021 + 1
    keys, n = S @ w, len(prints)
    order = np.argsort(keys[:n])
    ranked = keys[:n][order]
    start = np.searchsorted(ranked, keys[n:] - w.sum())
    count = np.searchsorted(ranked, keys[n:] + w.sum(), "right") - start
    q = np.repeat(np.arange(len(queries)), count)
    p = order[np.arange(count.sum())
              + np.repeat(start - np.cumsum(count) + count, count)]
    near = (np.abs(S[n:][q] - S[p]) <= 1).all(axis=1)
    by = np.lexsort((p[near], q[near]))
    return q[near][by].tolist(), p[near][by].tolist()


def deduplicate_points(points):
    """Merge conjugate points, keeping the first of each class in order.

    Conjugate points can round one step (1e-7) apart in any fingerprint
    component, so the earlier kept points within a step in every
    component, all found by one `_within_a_step`, are candidates; only
    a confirmed conjugator merges.
    """
    points = list(points)
    if not points:
        return []
    prints = np.array([pt.fingerprint for pt in points], dtype=float)
    merged: set = set()
    for i, j in zip(*_within_a_step(prints, prints)):
        if j < i and i not in merged and j not in merged and find_conjugator(
                points[i].rep, points[j].rep) is not None:
            merged.add(i)
    return [pt for i, pt in enumerate(points) if i not in merged]


# -- Heegaard Mayer-Vietoris pipeline ---------------------------------

def _stratum_systems(reps, labels, summaries, tol: float) -> tuple:
    """The coefficients each rep's label picks, made once from its
    full-coefficient summary, and the summary of that system: the full
    algebra and that summary at irreducible points, the stabilizer line
    (the summary's h0 basis) and its summary, from one stacked analysis
    of the lines, at reducible ones, and None at stratum 0.  Two
    columns; the first line whose analysis fails raises."""
    bases = [None if label.i == 0 else _FULL_BASIS if label.i == 3
             else s.basis_h0 for label, s in zip(labels, summaries)]
    out = [s if label.i == 3 else None for label, s in zip(labels, summaries)]
    lines = [i for i, label in enumerate(labels) if label.i == 1]
    for i, s in zip(lines, _system_cohomologies(
            [CoefficientSystem(reps[i], bases[i]) for i in lines], tol)):
        out[i] = s
    return bases, out


def _glued_torsions(heegaard: HeegaardData, n_reps, bases, summaries,
                    tol: float) -> list:
    """The Mayer-Vietoris torsion of a splitting at each manifold rep
    that has a stratum basis, given its rows of the two
    `_stratum_systems` columns.  Each check runs over every row, in the
    order a lone `heegaard_mv_torsion` meets them, and the first row
    that fails raises that call's error.  Stacks have one row per rep:
    one fold of each handle word over the chart images and of each
    surface word over the handle holonomies, one stacked analysis of
    the handle and surface systems, one W of the surface relator, then,
    per shape of the four summaries, the restriction maps, the surface
    Gram matrix and the sequence as stacked products.  The handle and
    surface representations are made here and not kept."""
    if not n_reps:
        return []
    handle, s_pres = free_group(heegaard.genus), surface_group(heegaard.genus)
    images = np.array([rep.images for rep in n_reps])
    q1, fox1 = _fold_words(images, heegaard.handle1_to_manifold)
    q2, fox2 = _fold_words(images, heegaard.handle2_to_manifold)
    via1, fox_s1 = _fold_words(q1, heegaard.surface_to_handle1)
    via2, fox_s2 = _fold_words(q2, heegaard.surface_to_handle2)
    subs = [_representations(handle, q1), _representations(handle, q2)]
    for gap in np.abs(via1 - via2).max(axis=(1, 2), initial=0.0).tolist():
        if gap > 100 * tol:
            raise DomainError(
                f"the two handlebody routes disagree on the surface rep "
                f"(gap {gap:.3e}); gluing data is inconsistent")
    subs.append(_representations(s_pres, via1))
    handles = iter(_system_cohomologies(
        [CoefficientSystem(sub, b) for b, *three in zip(bases, *subs)
         for sub in three], tol))
    shapes: dict = {}
    for r, (b, s) in enumerate(zip(bases, summaries)):
        sums = [s, *(next(handles) for _ in range(3))]
        shapes.setdefault((b.shape[1], *(x.h1 for x in sums)),
                          []).append((r, sums))
    W = fox_fold(via1, s_pres.relators[0])[2]
    n = s_pres.num_generators
    out: list = [None] * len(n_reps)
    for group in shapes.values():
        r, sums = map(list, zip(*group))
        B = np.array([bases[i] for i in r])
        # harmonic bases, each stacked with its lone layout, so that
        # every product below gives each row its lone product
        bn, b1, b2, bs = (np.array([s.basis_h1.T for s in col])
                          for col in zip(*sums))
        # restrictions in harmonic h1 coordinates, and the harmonic
        # surface classes embedded in full algebra coordinates by
        # kron(I_n, basis), its products formed as np.kron forms them
        r1 = b1 @ _in_basis(B, fox1[r]) @ bn.mT
        r2 = b2 @ _in_basis(B, fox2[r]) @ bn.mT
        rho1 = bs @ _in_basis(B, fox_s1[r]) @ b1.mT
        rho2 = bs @ _in_basis(B, fox_s2[r]) @ b2.mT
        E = (np.eye(n)[:, None, :, None] * B[:, None, :, None, :]).reshape(
            len(B), 3 * n, -1) @ bs.mT
        for i, t in zip(r, _mayer_vietoris_torsions(
                r1, r2, rho1, rho2, E.mT @ W[r] @ E, tol)):
            out[i] = t
    return out


def heegaard_mv_torsion(heegaard: HeegaardData, n_rep: Representation,
                        tol: float = DEFAULT_TOL) -> TorsionValue:
    """Mayer-Vietoris torsion of a splitting at a manifold rep, with
    coefficients picked by the rep's stratum (full algebra at
    irreducible points, the stabilizer line at reducible ones; stratum
    0 is refused): `_glued_torsions`' batch of one."""
    label = classify_stratum(n_rep, tol)
    if label.i == 0:
        raise DomainError("stratum 0 uses the constant unit torsion, not "
                          "the Mayer-Vietoris assembly")
    return _glued_torsions(heegaard, [n_rep], *_stratum_systems(
        [n_rep], [label], [cohomology(n_rep, tol)], tol), tol)[0]


# -- clean intersection -----------------------------------------------

def clean_intersection_check(point: ModuliPoint, tol: float = DEFAULT_TOL):
    """Raise `CleanIntersectionError` unless the declared component
    dimension is h1 of the manifold presentation at the point
    (coefficients by stratum); stratum 0 passes vacuously.
    `_check_clean`'s batch of one."""
    _check_clean([point.point_id], [point.component_dim], _stratum_systems(
        [point.rep], [point.stratum], [cohomology(point.rep, tol)], tol)[1])


def _check_clean(ids, declared, summaries):
    """Raise `CleanIntersectionError` at the first point whose declared
    component dimension is not h1 of its stratum system's summary
    (`_stratum_systems`); a point without one, at stratum 0, passes."""
    for pid, dim, s in zip(ids, declared, summaries):
        if s is not None and s.h1 != dim:
            raise CleanIntersectionError(
                f"point {pid}: declared dim {dim} != cohomology dim {s.h1}")


# -- built-in moduli drivers ------------------------------------------

_AXIS = np.array([1.0, 0.0, 0.0])


def lens_heegaard(p: int, q: int) -> HeegaardData:
    """Genus-1 splitting of lens(p, q): handle 1 kills the b-curve,
    handle 2 kills a^p b^q; the handle-2 core maps to a^(q^-1 mod p)."""
    if p < 1 or q < 1 or math.gcd(p, q) != 1:
        raise DomainError("lens needs p >= 1, q >= 1, gcd(p, q) = 1")
    x = generator(0)
    qi = pow(q, -1, p) if p > 1 else 0
    return HeegaardData(
        genus=1,
        presentation_n=cyclic_group(p),
        surface_to_handle1=(x, Word()),
        surface_to_handle2=(x ** q, x ** (-p)),
        handle1_to_manifold=(generator(0),),
        handle2_to_manifold=(generator(0) ** qi,))


def s1xs2_heegaard() -> HeegaardData:
    """Genus-1 splitting of S^1 x S^2: both handles kill the b-curve."""
    x = generator(0)
    return HeegaardData(
        genus=1,
        presentation_n=free_group(1),
        surface_to_handle1=(x, Word()),
        surface_to_handle2=(x, Word()),
        handle1_to_manifold=(generator(0),),
        handle2_to_manifold=(generator(0),))


def t3_presentation() -> Presentation:
    gens = ("x", "y", "z")
    rels = (commutator(generator(0), generator(1)),
            commutator(generator(0), generator(2)),
            commutator(generator(1), generator(2)))
    return Presentation(gens, rels)


def _grid_size(example: str, samples: int, points: int) -> int:
    """samples, if at least 2 and the chart's points are bounded."""
    if samples < 2:
        raise InputError(f"samples must be at least 2, got {samples}")
    _chart_bound(f"{example} chart with samples {samples}", points)
    return samples


def _chart_bound(chart: str, points: int):
    """Refuse a chart of more than MAX_CHART_POINTS points, whose
    points would all be held in memory: checked before any
    representation is built."""
    if points > MAX_CHART_POINTS:
        raise InputError(f"{chart} has {points} points, "
                         f"more than {MAX_CHART_POINTS}")


def _chart_points(pres: Presentation, heegaard, rows, tol: float) -> Chart:
    """The chart of one point per row (point_id, angles, component_dim,
    weight), with images exp(angle * i), built in one stacked pass.  Its
    fingerprints, full summaries, labels, stratum summaries and torsions
    by stratum (the unit half-density at stratum 0, else the
    splitting's, or None without one) are columns computed a stack at a
    time, each stage raising its first failing row, and the clean check
    (`_check_clean`) runs last; cs values start at 0."""
    images = su2.exp(np.array([angles for _, angles, _, _ in rows],
                              dtype=float)[..., None] * _AXIS)
    reps = _representations(pres, images)
    fulls = _system_cohomologies([full_system(rep) for rep in reps], tol)
    labels = _labels(images, fulls, tol)
    bases, summaries = _stratum_systems(reps, labels, fulls, tol)
    torsions = [TorsionValue(1.0, 0.0) if b is None else None for b in bases]
    if heegaard is not None:
        glued = [i for i, b in enumerate(bases) if b is not None]
        columns = ([col[i] for i in glued] for col in (reps, bases, summaries))
        for i, t in zip(glued, _glued_torsions(heegaard, *columns, tol)):
            torsions[i] = t
    ids, _, dims, weights = zip(*rows)
    _check_clean(ids, dims, summaries)
    return Chart(ids, reps, labels, dims, weights,
                 _read_only(_fingerprints(images)), [0.0] * len(ids), torsions)


def enumerate_moduli(example: str, *, p: int = None, q: int = 1,
                     samples: int = 16, tol: float = DEFAULT_TOL):
    """The chart of a built-in example, from its rows and splitting: a
    fundamental domain for conjugation (lens n <= p//2, s1xs2 angles in
    [0, pi], t3 first angles in (0, pi) and the central corners)."""
    if example == "s3":
        heegaard = lens_heegaard(1, 1)
        rows = [("s3:trivial", [0.0], 0, 1.0)]
    elif example == "lens":
        if p is None:
            raise DomainError("lens needs p")
        _chart_bound(f"lens chart with p {p}", p // 2 + 1)
        heegaard = lens_heegaard(p, q)
        rows = [(f"lens({p},{q}):n={n}", [2.0 * math.pi * n / p], 0, 1.0)
                for n in range(p // 2 + 1)]
    elif example == "s1xs2":
        heegaard = s1xs2_heegaard()
        M = _grid_size(example, samples, samples + 1)
        delta = math.pi / M
        rows = [("s1xs2:trivial", [0.0], 0, 1.0),
                *((f"s1xs2:j={j}/{M}", [j * delta], 1, delta)
                  for j in range(1, M)),
                ("s1xs2:central", [math.pi], 0, 1.0)]
    elif example == "t3":
        # commuting triples share an axis: chart (t1, t2, t3) in
        # [0, pi] x [0, 2pi)^2 modulo the axis flip, with trapezoid
        # weights on interior t1 nodes and the 8 all-central corners as
        # stratum-0 points; no built-in splitting
        M = _grid_size(example, samples, 8 + (samples - 1) * samples ** 2)
        d1 = math.pi / M
        d2 = 2.0 * math.pi / M
        heegaard = None
        rows = [(f"t3:central({int(c1 > 0)},{int(c2 > 0)},{int(c3 > 0)})",
                 (c1, c2, c3), 0, 1.0)
                for c1, c2, c3 in itertools.product((0.0, math.pi), repeat=3)]
        rows += [(f"t3:grid({i},{j},{k})/{M}", (i * d1, j * d2, k * d2), 3,
                  d1 * d2 * d2)
                 for i in range(1, M) for j in range(M) for k in range(M)]
    else:
        raise DomainError(f"unknown example {example!r}")
    pres = t3_presentation() if heegaard is None else heegaard.presentation_n
    return _chart_points(pres, heegaard, rows, tol)


def _table_key(entry, field: str):
    """A value-table entry's point_id, or its fingerprint: as given if
    all floats, else by `_json_float` (an int may overflow a float)."""
    _fields(entry, "table entry", ("point_id", "fingerprint"), (field,))
    if "point_id" in entry and "fingerprint" in entry:
        raise InputError(
            f"table entry names both point_id and fingerprint: {entry}")
    if "point_id" in entry:
        if not isinstance(entry["point_id"], str):
            raise InputError(f"point_id must be a string: {entry}")
        return entry["point_id"]
    if "fingerprint" not in entry:
        raise InputError("table entry needs point_id or fingerprint")
    fp = entry["fingerprint"]
    if isinstance(fp, (list, tuple)) and not set(map(type, fp)) <= {float}:
        fp = [_json_float(v, None) for v in fp]
    if not isinstance(fp, (list, tuple)) or None in fp:
        raise InputError(f"fingerprint must list numbers: {entry}")
    return fp


def apply_value_table(chart: Chart, table, field: str) -> Chart:
    """The chart sharing every column of `chart` but the cs or torsion
    one, which {point_id|fingerprint, value} entries set at every point
    they match, the last value winning.  Fingerprints of the chart's
    width, clamped to [-4, 4], are one array matched by one
    `_within_a_step`; others match nothing.  Entries are checked in
    order (values by `_json_float`); the first that fails raises."""
    entries, keys = list(table), []
    try:
        for entry in entries:
            keys.append(_table_key(entry, field))
    except InputError:
        pass    # raised again below, once the entries before it pass
    width = chart.fingerprints.shape[1]
    fps = [n for n, key in enumerate(keys)
           if not isinstance(key, str) and len(key) == width]
    F = np.array([keys[n] for n in fps], dtype=float).reshape(-1, width)
    # NaN fails the comparison and goes to -4, as max(-4.0, nan) does
    q, p = _within_a_step(chart.fingerprints,
                          np.where(F >= -4.0, np.minimum(F, 4.0), -4.0))
    ids = dict(zip(chart.ids, range(len(chart))))
    matches = [[ids[key]] if isinstance(key, str) and key in ids else []
               for key in keys]
    for i, j in zip(q, p):
        matches[fps[i]].append(j)
    name = "cs" if field == "cs" else "torsions"
    column = list(getattr(chart, name))
    for entry, hits in zip(entries, matches):
        if not hits:
            raise InputError(f"table entry matches no point: {entry}")
        v = _json_float(entry[field])
        if not math.isfinite(v):
            raise InputError(f"{field} must be a finite number: {entry}")
        if field == "torsion" and v <= 0:
            raise InputError("torsion values must be positive")
        value = v % 1.0 if field == "cs" else TorsionValue(v, math.log(v))
        for i in hits:
            column[i] = value
    if len(keys) < len(entries):
        _table_key(entries[len(keys)], field)
    return Chart(*(column if slot == name else getattr(chart, slot)
                   for slot in Chart.__slots__))


# -- invariant sums ----------------------------------------------------

def assemble_invariant(chart: Chart, k: int) -> InvariantResult:
    """Stratified sum of weight * exp(2 pi i k cs) * torsion.

    Refuses points with missing torsion; a chart refuses a failed clean
    intersection before it returns.  Columns are summed in point order,
    and the total is the exact sum of the per-stratum values in stratum
    order.
    """
    if int(k) != k:
        raise DomainError("level k must be an integer")
    per = {0: 0.0 + 0.0j, 1: 0.0 + 0.0j, 3: 0.0 + 0.0j}
    bound = 0.0
    for pid, label, weight, cs, t in zip(
            chart.ids, chart.labels, chart.weights, chart.cs, chart.torsions):
        if t is None:
            raise DomainError(f"point {pid} has no torsion value; supply one")
        phase = cmath.exp(2j * math.pi * k * cs)
        per[label.i] += weight * phase * t.value
        bound += weight * t.value
    total = per[0] + per[1] + per[3]
    return InvariantResult(k=int(k), total=total, per_stratum=per,
                           magnitude_bound=bound, point_count=len(chart))


def stationary_phase_sum(entries, k: int) -> complex:
    """Leading large-k evaluation from (torsion, spectral flow, cs)
    triples:

        (1/2) e^{3 pi i/4} sum_i sqrt(t_i) e^{-2 pi i I_i/4}
                                  e^{2 pi i cs_i (k+2)}.
    """
    if int(k) != k:
        raise DomainError("level k must be an integer")
    total = 0.0 + 0.0j
    for i, entry in enumerate(entries):
        t, flow, cs = map(_json_float, entry)
        if not (math.isfinite(t) and math.isfinite(cs)):
            raise DomainError("torsion and cs entries must be finite")
        if t <= 0:
            raise DomainError("torsion entries must be positive")
        if not flow.is_integer():
            raise DomainError("spectral flow must be an integer")
        phases = (-2j * math.pi * flow / 4.0, 2j * math.pi * cs * (k + 2))
        if not all(map(cmath.isfinite, phases)):
            raise DomainError(f"entry {i} (flow {flow}, cs {cs}): its "
                              f"phase overflows at level {k}")
        total += math.sqrt(t) * cmath.exp(phases[0]) * cmath.exp(phases[1])
    return 0.5 * cmath.exp(3j * math.pi / 4.0) * total
