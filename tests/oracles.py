"""Independent reference implementations used to freeze test values.

Everything here is definition-driven and avoids the code paths under
test: quaternion products go through 2x2 complex matrices, determinants
through permutation expansion, torsion through Gram-Schmidt bases and
hand determinants rather than SVDs.
"""

import decimal
import functools
import itertools
import math
from fractions import Fraction

import numpy as np


def su2_matrix(q):
    """2x2 complex matrix of w + xi + yj + zk; a group isomorphism."""
    w, x, y, z = q
    return np.array([[w + 1j * x, y + 1j * z],
                     [-y + 1j * z, w - 1j * x]])


def quat_from_matrix(m):
    return np.array([m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag])


def quat_mul(a, b):
    return quat_from_matrix(su2_matrix(a) @ su2_matrix(b))


def quat_exp(v):
    """Matrix exponential through the eigenstructure of the 2x2 form."""
    theta = np.linalg.norm(v)
    if theta == 0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    unit = np.array([0.0, *(v / theta)])
    return np.array([math.cos(theta), 0.0, 0.0, 0.0]) + \
        math.sin(theta) * unit


def adjoint_matrix(q):
    """Columns are q e_i q^-1 computed with the matrix product oracle."""
    qinv = np.array([q[0], -q[1], -q[2], -q[3]])
    cols = []
    for i in range(3):
        e = np.zeros(4)
        e[1 + i] = 1.0
        cols.append(quat_mul(quat_mul(q, e), qinv)[1:])
    return np.array(cols).T


def central_difference(f, h):
    return (f(h) - f(-h)) / (2.0 * h)


def leibniz_det(m):
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if n == 0:
        return 1.0
    total = 0.0
    for perm in itertools.permutations(range(n)):
        sign = 1.0
        seen = list(perm)
        # count inversions for the permutation sign
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if seen[i] > seen[j])
        sign = -1.0 if inv % 2 else 1.0
        prod = 1.0
        for i in range(n):
            prod *= m[i, perm[i]]
        total += sign * prod
    return total


def _project_out(v, basis):
    """v less its components along the orthonormal `basis`, projected
    out twice: one classical pass loses orthogonality in proportion to
    how nearly v lies in the span, and a second pass restores it."""
    for _ in range(2):
        for b in basis:
            v = v - (b @ v) * b
    return v


def gram_schmidt(columns, tol=1e-10):
    """Orthonormal basis of the span, as a list of vectors."""
    basis = []
    for c in columns:
        v = _project_out(np.array(c, dtype=float), basis)
        nrm = np.linalg.norm(v)
        if nrm > tol:
            basis.append(v / nrm)
    return basis


def complement_basis(basis, dim, tol=1e-10):
    """Extend an orthonormal set to all of R^dim; new vectors first."""
    out = []
    current = list(basis)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        v = _project_out(e, current)
        nrm = np.linalg.norm(v)
        if nrm > tol:
            v = v / nrm
            out.append(v)
            current.append(v)
    return out


def top_form_torsion(dims, maps, tol=1e-10):
    """Alternating product of restricted-map determinants.

    For each map f_j (1-indexed position j), the complement of the
    previous image maps isomorphically onto the image of f_j; the
    absolute determinant of that square matrix goes to the numerator at
    odd positions and the denominator at even ones.
    """
    log_t = 0.0
    prev_image = []
    for pos, f in enumerate(maps, start=1):
        f = np.asarray(f, dtype=float)
        dom = dims[pos - 1]
        comp = complement_basis(prev_image, dom, tol)
        image = gram_schmidt(list(f.T), tol)
        if len(image) != len(comp):
            raise ValueError("sequence is not exact at this position")
        if comp:
            C = np.array(comp).T
            B = np.array(image).T
            d = abs(leibniz_det(B.T @ f @ C))
        else:
            d = 1.0
        log_t += math.log(d) if pos % 2 == 1 else -math.log(d)
        prev_image = image
    return math.exp(log_t), log_t


def random_orthogonal(rng, n):
    if n == 0:
        return np.zeros((0, 0))
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_exact_sequence(rng, n_spaces=4, max_rank=2, max_dim=5):
    """Exact sequence with known torsion: dims d_j = r_{j-1} + r_j and
    maps carrying prescribed singular values between rotated frames."""
    while True:
        ranks = [0] + [int(rng.integers(0, max_rank + 1))
                       for _ in range(n_spaces - 1)] + [0]
        dims = [ranks[j] + ranks[j + 1] for j in range(n_spaces)]
        if all(d <= max_dim for d in dims) and sum(dims) > 0:
            break
    frames = [random_orthogonal(rng, d) for d in dims]
    maps = []
    log_t = 0.0
    for j in range(n_spaces - 1):
        r = ranks[j + 1]
        s = np.exp(rng.uniform(math.log(0.3), math.log(3.0), size=r))
        f = frames[j + 1][:, :r] @ np.diag(s) @ frames[j][:, ranks[j]:].T
        maps.append(f)
        contrib = float(np.sum(np.log(s)))
        log_t += contrib if (j + 1) % 2 == 1 else -contrib
    return dims, maps, math.exp(log_t), log_t


def fox_jacobian(relators, quats):
    """(3m x 3n) Fox Jacobian of the relators, acting on su(2) through
    Ad of the unit quaternions `quats`.

    Relators are sequences of signed 1-based generator indices.  A
    cocycle obeys u(xy) = u(x) + Ad(x) u(y), so the Fox derivative of a
    relator in x_j sums Ad(prefix) at each letter x_j and
    -Ad(prefix) Ad(x_j)^-1 at each letter x_j^-1, with the prefix kept as
    a running 3x3 product of adjoint_matrix factors.
    """
    A = [adjoint_matrix(np.asarray(q, dtype=float)) for q in quats]
    d1 = np.zeros((3 * len(relators), 3 * len(A)))
    for ri, rel in enumerate(relators):
        cur = np.eye(3)
        for s in rel:
            j = abs(s) - 1
            if s > 0:
                block = cur
                cur = cur @ A[j]
            else:
                cur = cur @ A[j].T
                block = -cur
            d1[3 * ri:3 * ri + 3, 3 * j:3 * j + 3] += block
    return d1


def fox_cohomology_dims(relators, quats, tol=1e-9):
    """(h0, z1, h1) of the group with the given relators, acting on
    su(2) through Ad of the unit quaternions `quats`.

    d1 is fox_jacobian, d0 stacks the blocks Ad(x_j) - I.  Ranks count
    the Gram-Schmidt survivors of the columns above tol.
    """
    d0 = np.vstack([adjoint_matrix(np.asarray(q, dtype=float)) - np.eye(3)
                    for q in quats])
    d1 = fox_jacobian(relators, quats)
    rank0 = len(gram_schmidt(list(d0.T), tol))
    rank1 = len(gram_schmidt(list(d1.T), tol))
    z1 = 3 * len(quats) - rank1
    return 3 - rank0, z1, z1 - rank0


def harmonic_basis(relators, quats, tol=1e-9):
    """(3n x h1) orthonormal basis of the harmonic 1-cochains by the
    projector route: ker d1 as the Gram-Schmidt complement of d1's rows,
    each of its vectors orthogonalised against im d0 and the vectors
    already kept, twice ("twice is enough": one pass loses orthogonality
    to im d0 when vectors are nearly dependent), and kept if it is still
    longer than tol.  d0 stacks the blocks Ad(x_j) - I and d1 is
    fox_jacobian; im d0 lies in ker d1, so what is left is its
    orthogonal complement there.
    """
    d0 = np.vstack([adjoint_matrix(np.asarray(q, dtype=float)) - np.eye(3)
                    for q in quats])
    d1 = fox_jacobian(relators, quats)
    im0 = gram_schmidt(list(d0.T), tol)
    ker1 = complement_basis(gram_schmidt(list(d1), tol), d1.shape[1], tol)
    basis = []
    for v in ker1:
        for _ in range(2):
            for b in im0 + basis:
                v = v - (b @ v) * b
        nrm = np.linalg.norm(v)
        if nrm > tol:
            basis.append(v / nrm)
    return np.array(basis).reshape(-1, d1.shape[1]).T


def goldman_pairing(relator, quats, u, v):
    """Cup product (u ~ v)(a, b) = <u(a), Ad(a) v(b)> summed over the
    relator's bar 2-chain: +[p | x_j] at a letter x_j with prefix p,
    and -[p x_j^-1 | x_j] at a letter x_j^-1.

    u(p) follows the cocycle law u(p x) = u(p) + Ad(p) u(x) with
    u(x^-1) = -Ad(x)^-1 u(x), and Ad(p) is a running product of
    adjoint_matrix factors.  u and v are (n, 3) or flat.
    """
    A = [adjoint_matrix(np.asarray(q, dtype=float)) for q in quats]
    u = np.asarray(u, dtype=float).reshape(len(A), 3)
    v = np.asarray(v, dtype=float).reshape(len(A), 3)
    cur = np.eye(3)       # Ad(p)
    val = np.zeros(3)     # u(p)
    total = 0.0
    for s in relator:
        j = abs(s) - 1
        if s > 0:
            total += val @ cur @ v[j]
            val = val + cur @ u[j]
            cur = cur @ A[j]
        else:
            cur = cur @ A[j].T
            val = val - cur @ u[j]
            total -= val @ cur @ v[j]
    return float(total)


def axis_stabilizer_dim(quats, tol):
    """Stabilizer dimension of a tuple by the common-axis test, one
    quaternion at a time in plain floats: 3 if every vector part is
    shorter than tol, 1 if every other unit axis crosses the first with
    norm at most tol, else 0."""
    axes = []
    for q in quats:
        v = [float(c) for c in q[1:]]
        s = math.sqrt(sum(c * c for c in v))
        if s >= tol:
            axes.append([c / s for c in v])
    if not axes:
        return 3
    (a0, a1, a2) = axes[0]
    for b0, b1, b2 in axes[1:]:
        cross = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        if math.sqrt(sum(c * c for c in cross)) > tol:
            return 0
    return 1


def stratum_volume(quats, stratum):
    """Volume of the free-group stratum through a tuple, by the closed
    forms of d0^T d0 = sum_j (2I - Ad_j - Ad_j^T), with Ad from the
    matrix product oracle: sqrt(det) of that sum at stratum 3, and
    4 sum_j sin^2 theta_j = sum_j (3 - tr Ad_j) at stratum 1, where
    images exp(theta_j n) on a common axis rotate the complement plane
    by 2 theta_j; the constant 1 at stratum 0."""
    ads = [adjoint_matrix(q) for q in quats]
    if stratum == 3:
        return math.sqrt(leibniz_det(
            sum(2.0 * np.eye(3) - a - a.T for a in ads)))
    if stratum == 1:
        return float(sum(3.0 - np.trace(a) for a in ads))
    return 1.0


def exact_log_volume(quats, stratum) -> decimal.Decimal:
    """log of the stratum volume of float images, in exact arithmetic:
    d0^T d0 = 4(tr M I - M) with M = V^T V over the images' vector parts
    V, formed in `fractions`, then half the log of its determinant at
    stratum 3, or of the sum of its principal 2x2 minors (the product
    of its two nonzero eigenvalues) at stratum 1, in `decimal` at 60
    digits.  For images off the unit sphere by d_j the exact d0^T d0
    gains sum_j d_j^2 on its diagonal, about 1e-32, which is dropped."""
    V = [[Fraction(float(x)) for x in q[1:]] for q in quats]
    M = [[sum(v[a] * v[b] for v in V) for b in range(3)] for a in range(3)]
    trace = M[0][0] + M[1][1] + M[2][2]
    A = [[4 * ((trace if a == b else 0) - M[a][b]) for b in range(3)]
         for a in range(3)]
    if stratum == 3:
        x = sum(math.prod(A[i][p[i]] for i in range(3)) * _sign(p)
                for p in itertools.permutations(range(3)))
    elif stratum == 1:
        x = sum(A[a][a] * A[b][b] - A[a][b] * A[b][a]
                for a, b in itertools.combinations(range(3), 2))
    else:
        return decimal.Decimal(0)
    ctx = decimal.Context(prec=60)
    return ctx.divide(ctx.subtract(ctx.ln(decimal.Decimal(x.numerator)),
                                   ctx.ln(decimal.Decimal(x.denominator))), 2)


def _sign(p) -> int:
    """The sign of a permutation of range(len(p)), by its inversions."""
    return (-1) ** sum(a > b for a, b in itertools.combinations(p, 2))


def fingerprints_match(a, b):
    """The matching rule of dedup and value tables, one pair at a time:
    equal lengths, and every component within one rounding step (1e-7),
    each value first clamped to [-4, 4] (NaN to -4) and then rounded to
    a whole number of steps, ties to even."""
    def steps(v):
        v = -4.0 if v != v else min(4.0, max(-4.0, v))
        return round(v * 1e7)
    return len(a) == len(b) and all(abs(steps(x) - steps(y)) <= 1
                                    for x, y in zip(a, b))


def deduplicate(points, conjugate):
    """Points in order, less each one that matches the fingerprint of
    an earlier kept point (`fingerprints_match`) conjugate to it by
    `conjugate(point, kept)`."""
    kept = []
    for pt in points:
        if not any(fingerprints_match(pt.fingerprint, k.fingerprint)
                   and conjugate(pt, k) for k in kept):
            kept.append(pt)
    return kept


def conjugate_pairs(tuples, tol=1e-9):
    """The index pairs (i, j), i < j, of image tuples whose traces agree
    within tol, pair by pair: of every image, of every product of two
    images in order, and of the full product, each formed through 2x2
    complex matrices.  For tuples of commuting images on one axis these
    traces decide conjugacy in SU(2): the image traces fix each angle up
    to sign, the pair traces fix the relative signs, and a common sign
    flip is conjugation by an element off the axis."""
    def traces(images):
        ms = [su2_matrix(q) for q in images]
        pairs = [a @ b for a, b in itertools.combinations(ms, 2)]
        full = functools.reduce(np.matmul, ms)
        return [np.trace(m).real for m in (*ms, *pairs, full)]

    ts = [traces(t) for t in tuples]
    return [(i, j) for i, j in itertools.combinations(range(len(ts)), 2)
            if all(abs(a - b) <= tol for a, b in zip(ts[i], ts[j]))]


def _number(v):
    """v as a finite float if it is a JSON number (an int or a float,
    not a bool) within the float range, else None."""
    if type(v) not in (int, float):
        return None
    try:
        v = float(v)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


def apply_table(ids, prints, values, table, field):
    """The column of per-point values that a value table gives, entry by
    entry and in order: each entry is checked alone, then sets every
    point whose id it names, or whose fingerprint it matches
    (`fingerprints_match`), to v mod 1 for cs and to v for torsion; a
    later entry overrides an earlier one.  The first entry that fails
    raises ValueError carrying the library's message."""
    values = list(values)
    for entry in table:
        if not isinstance(entry, dict):
            raise ValueError("table entry must be a JSON object")
        unknown = set(entry) - {"point_id", "fingerprint", field}
        if unknown:
            raise ValueError(f"unknown table entry fields {sorted(unknown)}")
        if field not in entry:
            raise ValueError(f"table entry needs fields {[field]}")
        if "point_id" in entry and "fingerprint" in entry:
            raise ValueError(
                f"table entry names both point_id and fingerprint: {entry}")
        if "point_id" in entry:
            if type(entry["point_id"]) is not str:
                raise ValueError(f"point_id must be a string: {entry}")
            hits = [i for i, pid in enumerate(ids)
                    if pid == entry["point_id"]]
        elif "fingerprint" not in entry:
            raise ValueError("table entry needs point_id or fingerprint")
        else:
            fp = entry["fingerprint"]
            if type(fp) not in (list, tuple) or any(
                    type(v) not in (int, float) for v in fp):
                raise ValueError(f"fingerprint must list numbers: {entry}")
            hits = [i for i, p in enumerate(prints)
                    if fingerprints_match(p, fp)]
        if not hits:
            raise ValueError(f"table entry matches no point: {entry}")
        v = _number(entry[field])
        if v is None:
            raise ValueError(f"{field} must be a finite number: {entry}")
        if field == "torsion" and v <= 0:
            raise ValueError("torsion values must be positive")
        for i in hits:
            values[i] = v % 1.0 if field == "cs" else v
    return values
