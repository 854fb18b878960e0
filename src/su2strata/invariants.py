"""Flat moduli enumeration and stratified invariant sums.

Built-in moduli drivers cover the genus-1 Heegaard examples (s3, s1xs2,
lens(p,q)) and commuting triples (t3).  Chern-Simons values and
spectral flows are external inputs everywhere: points default to
cs = 0 and tables supplied by the caller override them; nothing here
computes either quantity.

Positive-dimensional families integrate with a uniform-angle chart and
trapezoidal weights on interior grid nodes; chart endpoints are
isolated lower-stratum points of weight 1.  The t3 driver has no
built-in Heegaard gluing, so its points carry torsion = None until the
caller supplies values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from . import su2
from .cohomology import (DEFAULT_TOL, CoefficientSystem, pullback_cocycle,
                         stabilizer_axis, system_cohomology)
from .errors import (CleanIntersectionError, DomainError, InputError,
                     PresentationError)
from .presentations import (Presentation, Representation, Word, commutator,
                            cyclic_group, free_group, generator, surface_group)
from .strata import StratumLabel, classify_stratum
from .symplectic import pairing_matrix
from .torsion import TorsionValue, mayer_vietoris_torsion


@dataclass(frozen=True)
class HeegaardData:
    """Genus-g splitting: which surface words generate each handlebody
    and how everything maps into the manifold group.

    surface_to_handle* give the image of each surface generator as a
    word in that handlebody's free generators; handle*_to_manifold give
    the image of each handlebody generator as a word in the manifold
    presentation's generators.
    """

    genus: int
    presentation_n: Presentation
    handle1_generators: tuple
    handle2_generators: tuple
    surface_to_handle1: tuple
    surface_to_handle2: tuple
    handle1_to_manifold: tuple
    handle2_to_manifold: tuple

    def __post_init__(self):
        g = self.genus
        if len(self.handle1_generators) != g or \
                len(self.handle2_generators) != g:
            raise DomainError("each handlebody needs exactly genus generators")
        if len(self.surface_to_handle1) != 2 * g or \
                len(self.surface_to_handle2) != 2 * g:
            raise DomainError("surface maps need 2*genus entries")
        if len(self.handle1_to_manifold) != g or \
                len(self.handle2_to_manifold) != g:
            raise DomainError("manifold maps need genus entries")


@dataclass(frozen=True)
class CleanVerdict:
    passes: bool
    stratum: int
    declared_dim: int
    cohomology_dim: int


@dataclass(frozen=True)
class ModuliPoint:
    point_id: str
    rep: Representation
    stratum: StratumLabel
    component_dim: int
    weight: float
    fingerprint: tuple
    cs_value: float = 0.0
    torsion: TorsionValue | None = None
    clean: CleanVerdict | None = None


@dataclass(frozen=True)
class InvariantResult:
    k: int
    total: complex
    per_stratum: dict
    magnitude_bound: float
    point_count: int


_FINGERPRINT_DECIMALS = 7


def trace_fingerprint(rep: Representation) -> tuple:
    """Traces of generators, ordered pairs, and the full product,
    rounded to 1e-7."""
    imgs = rep.images
    vals = [su2.trace(q) for q in imgs]
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            vals.append(su2.trace(su2.multiply(imgs[i], imgs[j])))
    full = su2.identity()
    for q in imgs:
        full = su2.multiply(full, q)
    vals.append(su2.trace(full))
    return _round_fingerprint(vals)


def _round_fingerprint(vals) -> tuple:
    return tuple(float(np.round(v, _FINGERPRINT_DECIMALS)) + 0.0 for v in vals)


def find_conjugator(rep1: Representation, rep2: Representation,
                    tol: float = 1e-7):
    """Group element conjugating rep1 onto rep2, or None.

    Aligns the first noncentral axis, then fixes the residual rotation
    about it with a second independent axis, then verifies all images.
    """
    a, b = rep1.images, rep2.images
    if a.shape != b.shape:
        return None
    n = a.shape[0]
    central_gate = 1e-6
    noncentral = []
    for j in range(n):
        c1 = su2.is_central(a[j], central_gate)
        c2 = su2.is_central(b[j], central_gate)
        if c1 != c2:
            return None
        if c1:
            if np.linalg.norm(a[j] - b[j]) > tol:
                return None
        else:
            noncentral.append(j)
    q = su2.identity()
    if noncentral:
        k = noncentral[0]
        u = su2.axis_of(a[k], central_gate)
        v = su2.axis_of(b[k], central_gate)
        q = _axis_aligner(u, v)
        cur = np.array([su2.conjugate(img, q) for img in a])
        for l in noncentral[1:]:
            p1 = su2.axis_of(cur[l], central_gate)
            p2 = su2.axis_of(b[l], central_gate)
            p1 = p1 - (p1 @ v) * v
            p2 = p2 - (p2 @ v) * v
            if np.linalg.norm(p1) > 1e-4 and np.linalg.norm(p2) > 1e-4:
                psi = math.atan2(float(v @ np.cross(p1, p2)), float(p1 @ p2))
                q2 = su2.exp(0.5 * psi * v)
                q = su2.multiply(q2, q)
                cur = np.array([su2.conjugate(img, q) for img in a])
                break
    else:
        cur = a
    if float(np.abs(cur - b).max()) < tol:
        return q
    return None


def _axis_aligner(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    c = float(u @ v)
    if c > 1.0 - 1e-12:
        return su2.identity()
    if c < -1.0 + 1e-12:
        w = np.cross(u, np.array([1.0, 0.0, 0.0]))
        if np.linalg.norm(w) < 1e-6:
            w = np.cross(u, np.array([0.0, 1.0, 0.0]))
        w /= np.linalg.norm(w)
        return su2.exp(0.5 * math.pi * w)
    axis = np.cross(u, v)
    axis /= np.linalg.norm(axis)
    return su2.exp(0.5 * math.acos(max(-1.0, min(1.0, c))) * axis)


def deduplicate_points(points, tol: float = 1e-7):
    """Merge conjugate points: equal fingerprints trigger an exact
    conjugator search; only confirmed matches merge."""
    kept: list = []
    for pt in points:
        merged = False
        for prev in kept:
            if pt.fingerprint == prev.fingerprint and \
                    find_conjugator(pt.rep, prev.rep, tol) is not None:
                merged = True
                break
        if not merged:
            kept.append(pt)
    return kept


# -- Heegaard Mayer-Vietoris pipeline ---------------------------------

def _free_presentation(names) -> Presentation:
    return Presentation(tuple(names), (), "free", len(names))


def heegaard_representations(heegaard: HeegaardData, n_rep: Representation,
                             tol: float = DEFAULT_TOL):
    """Handlebody and surface representations induced by a manifold
    rep; the two gluing routes must induce the same surface rep."""
    h1_pres = _free_presentation(heegaard.handle1_generators)
    h2_pres = _free_presentation(heegaard.handle2_generators)
    h1_imgs = np.array([n_rep.evaluate(w) for w in heegaard.handle1_to_manifold])
    h2_imgs = np.array([n_rep.evaluate(w) for w in heegaard.handle2_to_manifold])
    h1_rep = Representation(h1_pres, h1_imgs)
    h2_rep = Representation(h2_pres, h2_imgs)
    via1 = np.array([h1_rep.evaluate(w) for w in heegaard.surface_to_handle1])
    via2 = np.array([h2_rep.evaluate(w) for w in heegaard.surface_to_handle2])
    gap = float(np.abs(via1 - via2).max()) if via1.size else 0.0
    if gap > 100 * tol:
        raise DomainError(
            f"the two handlebody routes disagree on the surface rep "
            f"(gap {gap:.3e}); gluing data is inconsistent")
    sigma_rep = Representation(surface_group(heegaard.genus), via1)
    return h1_rep, h2_rep, sigma_rep


def _h1_data(rep: Representation, basis: np.ndarray, tol: float):
    sys = CoefficientSystem(rep, basis)
    return sys, system_cohomology(sys, tol)


def _restriction_matrix(target, source, word_map) -> np.ndarray:
    """Matrix of the cocycle pullback in harmonic h1 coordinates."""
    t_sys, t_sum = target
    s_sys, s_sum = source
    out = np.zeros((t_sum.h1, s_sum.h1))
    for c in range(s_sum.h1):
        u = s_sum.basis_h1[:, c].reshape(s_sys.n, s_sys.k)
        pb = pullback_cocycle(t_sys, s_sys, word_map, u)
        out[:, c] = t_sum.basis_h1.T @ pb.reshape(-1)
    return out


def heegaard_mv_torsion(heegaard: HeegaardData, n_rep: Representation,
                        tol: float = DEFAULT_TOL) -> TorsionValue:
    """Mayer-Vietoris torsion of a splitting at a manifold rep, with
    coefficients picked by the rep's stratum (full algebra at
    irreducible points, the stabilizer line at reducible ones)."""
    label = classify_stratum(n_rep, tol)
    if label.i == 0:
        raise DomainError(
            "stratum 0 uses the constant unit torsion, not the "
            "Mayer-Vietoris assembly")
    if label.i == 3:
        basis = np.eye(3)
    else:
        basis = stabilizer_axis(n_rep, tol).reshape(3, 1)

    h1_rep, h2_rep, sigma_rep = heegaard_representations(heegaard, n_rep, tol)
    dn = _h1_data(n_rep, basis, tol)
    dh1 = _h1_data(h1_rep, basis, tol)
    dh2 = _h1_data(h2_rep, basis, tol)
    ds = _h1_data(sigma_rep, basis, tol)

    r1 = _restriction_matrix(dh1, dn, heegaard.handle1_to_manifold)
    r2 = _restriction_matrix(dh2, dn, heegaard.handle2_to_manifold)
    rho1 = _restriction_matrix(ds, dh1, heegaard.surface_to_handle1)
    rho2 = _restriction_matrix(ds, dh2, heegaard.surface_to_handle2)

    # harmonic surface classes embedded in full algebra coordinates
    s_sys, s_sum = ds
    E = np.kron(np.eye(s_sys.n), basis) @ s_sum.basis_h1
    omega = E.T @ pairing_matrix(sigma_rep) @ E

    return mayer_vietoris_torsion(r1, r2, rho1, rho2, omega, tol)


# -- clean intersection -----------------------------------------------

def clean_intersection_check(point: ModuliPoint,
                             tol: float = DEFAULT_TOL) -> CleanVerdict:
    """Declared component dimension against h1 of the manifold
    presentation at the point (coefficients by stratum).  Stratum 0
    passes vacuously."""
    i = point.stratum.i
    if i == 0:
        return CleanVerdict(True, 0, point.component_dim, point.component_dim)
    if i == 3:
        basis = np.eye(3)
    else:
        basis = stabilizer_axis(point.rep, tol).reshape(3, 1)
    _, summary = _h1_data(point.rep, basis, tol)
    return CleanVerdict(summary.h1 == point.component_dim, i,
                        point.component_dim, summary.h1)


# -- built-in moduli drivers ------------------------------------------

_AXIS = np.array([1.0, 0.0, 0.0])


def _torus_element(theta: float) -> np.ndarray:
    return su2.exp(theta * _AXIS)


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
        handle1_generators=("x",),
        handle2_generators=("y",),
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
        handle1_generators=("x",),
        handle2_generators=("y",),
        surface_to_handle1=(x, Word()),
        surface_to_handle2=(x, Word()),
        handle1_to_manifold=(generator(0),),
        handle2_to_manifold=(generator(0),))


def _point(pid, rep, component_dim, weight, tol, torsion=None):
    label = classify_stratum(rep, tol)
    pt = ModuliPoint(
        point_id=pid, rep=rep, stratum=label, component_dim=component_dim,
        weight=weight, fingerprint=trace_fingerprint(rep), torsion=torsion)
    return replace(pt, clean=clean_intersection_check(pt, tol))


def _enumerate_lens(p: int, q: int, tol: float):
    heegaard = lens_heegaard(p, q)
    pres = heegaard.presentation_n
    points = []
    for n in range(p // 2 + 1):
        theta = 2.0 * math.pi * n / p
        rep = Representation(pres, [_torus_element(theta)])
        pid = f"lens({p},{q}):n={n}"
        label = classify_stratum(rep, tol)
        if label.i == 0:
            torsion = TorsionValue(1.0, 0.0)
        else:
            torsion = heegaard_mv_torsion(heegaard, rep, tol)
        points.append(_point(pid, rep, 0, 1.0, tol, torsion))
    return points


def _enumerate_s3(tol: float):
    heegaard = lens_heegaard(1, 1)
    rep = Representation.trivial(heegaard.presentation_n)
    return [_point("s3:trivial", rep, 0, 1.0, tol, TorsionValue(1.0, 0.0))]


def _enumerate_s1xs2(samples: int, tol: float):
    heegaard = s1xs2_heegaard()
    pres = heegaard.presentation_n
    M = max(2, samples)
    delta = math.pi / M
    points = [_point("s1xs2:trivial", Representation.trivial(pres), 0, 1.0,
                     tol, TorsionValue(1.0, 0.0))]
    for j in range(1, M):
        rep = Representation(pres, [_torus_element(j * delta)])
        torsion = heegaard_mv_torsion(heegaard, rep, tol)
        points.append(_point(f"s1xs2:j={j}/{M}", rep, 1, delta, tol, torsion))
    rep = Representation(pres, [_torus_element(math.pi)])
    points.append(_point("s1xs2:central", rep, 0, 1.0, tol,
                         TorsionValue(1.0, 0.0)))
    return points


def t3_presentation() -> Presentation:
    gens = ("x", "y", "z")
    rels = (commutator(generator(0), generator(1)),
            commutator(generator(0), generator(2)),
            commutator(generator(1), generator(2)))
    return Presentation(gens, rels, "custom", 0)


def _enumerate_t3(samples: int, tol: float):
    """Commuting triples: all images share an axis.  Chart
    (t1, t2, t3) in [0, pi] x [0, 2pi)^2 modulo the axis flip; interior
    t1 nodes carry trapezoid weights, the 8 all-central corners are
    stratum-0 points."""
    pres = t3_presentation()
    M = max(2, samples)
    d1 = math.pi / M
    d2 = 2.0 * math.pi / M
    points = []
    for c1 in (0.0, math.pi):
        for c2 in (0.0, math.pi):
            for c3 in (0.0, math.pi):
                rep = Representation(
                    pres, [_torus_element(c1), _torus_element(c2),
                           _torus_element(c3)])
                pid = (f"t3:central({int(c1 > 0)},{int(c2 > 0)},"
                       f"{int(c3 > 0)})")
                points.append(_point(pid, rep, 0, 1.0, tol,
                                     TorsionValue(1.0, 0.0)))
    for i in range(1, M):
        for j in range(M):
            for k in range(M):
                t = (i * d1, j * d2, k * d2)
                rep = Representation(pres, [_torus_element(x) for x in t])
                pid = f"t3:grid({i},{j},{k})/{M}"
                points.append(_point(pid, rep, 3, d1 * d2 * d2, tol))
    return points


def enumerate_moduli(example: str, *, p: int = None, q: int = 1,
                     samples: int = 16, seed: int = 0,
                     tol: float = DEFAULT_TOL):
    """Moduli points of a built-in example, deduplicated by trace
    fingerprint with exact conjugator confirmation."""
    if example == "s3":
        points = _enumerate_s3(tol)
    elif example == "lens":
        if p is None:
            raise DomainError("lens needs p")
        points = _enumerate_lens(p, q, tol)
    elif example == "s1xs2":
        points = _enumerate_s1xs2(samples, tol)
    elif example == "t3":
        points = _enumerate_t3(samples, tol)
    else:
        raise DomainError(f"unknown example {example!r}")
    return deduplicate_points(points)


def custom_points(presentation: Presentation, image_sets, component_dims,
                  tol: float = DEFAULT_TOL):
    """Moduli points from explicit candidate images; candidates that
    violate the relators raise ResidualError."""
    points = []
    for idx, (images, dim) in enumerate(zip(image_sets, component_dims)):
        rep = Representation(presentation, images)
        points.append(_point(f"custom:{idx}", rep, int(dim), 1.0, tol))
    return deduplicate_points(points)


def apply_value_table(points, table, field: str):
    """Override per-point values (cs_value or torsion) from a list of
    {point_id|fingerprint, value} entries.  An entry updates every point
    it matches and later entries override earlier ones.  Unmatched or
    malformed entries are errors; unmatched points keep their defaults."""
    out = list(points)
    by_id: dict = {}
    by_fp: dict = {}
    for i, pt in enumerate(out):
        by_id.setdefault(pt.point_id, []).append(i)
        by_fp.setdefault(pt.fingerprint, []).append(i)
    for entry in table:
        if not isinstance(entry, dict):
            raise InputError("table entries must be objects")
        keys = set(entry)
        if field not in entry:
            raise InputError(f"table entry missing {field!r}")
        if not keys <= {"point_id", "fingerprint", field}:
            raise InputError(f"unknown table fields {sorted(keys)}")
        if "point_id" in entry:
            if not isinstance(entry["point_id"], str):
                raise InputError(f"point_id must be a string: {entry}")
            hits = by_id.get(entry["point_id"], [])
        elif "fingerprint" in entry:
            fp = entry["fingerprint"]
            if not isinstance(fp, (list, tuple)) or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    for v in fp):
                raise InputError(f"fingerprint must list numbers: {entry}")
            hits = by_fp.get(_round_fingerprint(fp), [])
        else:
            raise InputError("table entry needs point_id or fingerprint")
        if not hits:
            raise InputError(f"table entry matches no point: {entry}")
        try:
            v = float(entry[field])
        except (TypeError, ValueError):
            v = math.nan
        if not math.isfinite(v):
            raise InputError(f"{field} must be a finite number: {entry}")
        if field == "torsion" and v <= 0:
            raise InputError("torsion values must be positive")
        for i in hits:
            if field == "cs":
                out[i] = replace(out[i], cs_value=v % 1.0)
            else:
                out[i] = replace(out[i], torsion=TorsionValue(v, math.log(v)))
    return out


# -- invariant sums ----------------------------------------------------

def assemble_invariant(points, k: int) -> InvariantResult:
    """Stratified sum of weight * exp(2 pi i k cs) * torsion.

    Refuses points with failing clean-intersection verdicts or missing
    torsion.  The total is the exact sum of the per-stratum values in
    stratum order.
    """
    if int(k) != k:
        raise DomainError("level k must be an integer")
    per = {0: 0.0 + 0.0j, 1: 0.0 + 0.0j, 3: 0.0 + 0.0j}
    bound = 0.0
    for pt in points:
        if pt.clean is not None and not pt.clean.passes:
            raise CleanIntersectionError(
                f"point {pt.point_id}: declared dim {pt.clean.declared_dim} "
                f"!= cohomology dim {pt.clean.cohomology_dim}")
        if pt.torsion is None:
            raise DomainError(
                f"point {pt.point_id} has no torsion value; supply one")
        phase = cmath.exp(2j * math.pi * k * pt.cs_value)
        per[pt.stratum.i] += pt.weight * phase * pt.torsion.value
        bound += pt.weight * pt.torsion.value
    total = per[0] + per[1] + per[3]
    return InvariantResult(k=int(k), total=total, per_stratum=per,
                           magnitude_bound=bound, point_count=len(points))


def stationary_phase_sum(entries, k: int) -> complex:
    """Leading large-k evaluation from (torsion, spectral flow, cs)
    triples:

        (1/2) e^{3 pi i/4} sum_i sqrt(t_i) e^{-2 pi i I_i/4}
                                  e^{2 pi i cs_i (k+2)}.
    """
    if int(k) != k:
        raise DomainError("level k must be an integer")
    total = 0.0 + 0.0j
    for entry in entries:
        t, flow, cs = entry
        t, cs = float(t), float(cs)
        if not (math.isfinite(t) and math.isfinite(cs)):
            raise DomainError("torsion and cs entries must be finite")
        if t <= 0:
            raise DomainError("torsion entries must be positive")
        if not math.isfinite(flow) or int(flow) != flow:
            raise DomainError("spectral flow must be an integer")
        total += math.sqrt(t) * cmath.exp(-2j * math.pi * flow / 4.0) \
            * cmath.exp(2j * math.pi * cs * (k + 2))
    return 0.5 * cmath.exp(3j * math.pi / 4.0) * total
