"""Unit-quaternion model of SU(2) and its Lie algebra.

Group elements are length-4 float arrays [w, x, y, z] of unit norm with
identity [1, 0, 0, 0].  Algebra vectors are length-3 arrays in the
(i, j, k) basis, which is declared orthonormal; every metric-dependent
quantity downstream (volumes, torsion scalars, symplectic values) uses
this normalization.  exp(X) = (cos|X|, sin|X| X/|X|), so the adjoint
action of exp(theta*e1) on the algebra is the rotation by 2*theta about
axis 1, and trace(q) = 2*w.

`multiply`, `ad`, `exp` and `inverse` also act row by row on stacks of
shape (..., 4), or (..., 3) for `exp`, and `running_product` on stacks
of sequences (..., R, 4).  One vector, or one sequence, is unpacked into
Python floats, which beat any array call at that size.  A stack is
computed in a few whole-array calls: its products are gathered at once
(an outer product, or a gather by index), laid out signed, and each
entry is summed in the order the lone formula sums it, so each row of a
stacked result equals its lone result bit for bit.  `multiply` and `ad`
lay a stack out components first, so each of those calls runs along
the whole stack, not over many rows of four.  einsum and matmul forms
are not used: they sum in their own order and move last bits.

Sign conventions matter here: elements with w < 0 are honest group
elements (-identity is central and distinct from identity), so nothing
in this module flips hemispheres the way rotation-only quaternion code
does.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AntipodeError

_SMALL = 1e-9
_ANTIPODE_TOL = 1e-12  # |v| below which log refuses w < 0

# A stacked product gathers term t of component k into slot 4t + k from
# the flat outer product, a_i b_j in slot 4i + j, signed as in the lone
# formula (a - b is a + -b in IEEE arithmetic, signed zeros included).
_MUL_TERMS = np.array([0, 1, 2, 3, 5, 4, 8, 12, 10, 11, 13, 6, 15, 14, 7, 9])
_MUL_SIGNS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0,
                       -1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])[:, None]
# A stacked Ad gathers the products ww xx yy zz xy wz xz wy yz wx and
# (2x)x (2y)y (2z)z into P (2 (x x) differs where x x is subnormal).
# Flat entries 1..7 are 2 (P[a] + S P[b]); the diagonal 0, 4, 8 is
# c + (2x)x ..., written last, over the dummy pair at entry 4.
_AD_LEFT = np.array([0, 1, 2, 3, 1, 0, 1, 0, 2, 0, 1, 2, 3])
_AD_RIGHT = np.array([0, 1, 2, 3, 2, 3, 3, 2, 3, 1, 1, 2, 3])
_AD_SCALE = np.array([1.0] * 10 + [2.0] * 3)[:, None]
_AD_PAIRS = np.array([4, 6, 4, 0, 8, 6, 8, 5, 7, 5, 0, 9, 7, 9])
_AD_SIGNS = np.array([1.0] * 7
                     + [-1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0])[:, None]


def identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, renormalized to stay on the unit sphere.

    Every product is renormalized, so a running product over a word
    never drifts off the sphere however long the word is; the division
    costs one square root per letter.  One product is taken in Python
    floats, which beat any array call at that size.
    """
    if a.ndim == 1 == b.ndim:
        return np.array(_product(a.tolist(), b.tolist()))
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape = a.shape
    return _hamilton(a.reshape(-1, 4).T, b.reshape(-1, 4).T).T.reshape(shape)


def _hamilton(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`multiply` of the columns of two (4, M) arrays, components first,
    so each entry is one long row of the stack."""
    ab = a[:, None] * b[None, :]
    terms = ab.reshape(16, -1).take(_MUL_TERMS, axis=0) * _MUL_SIGNS
    q = terms[0:4] + terms[4:8]
    q += terms[8:12]
    q += terms[12:16]
    sq = q * q
    return q / np.sqrt(sq[0] + sq[1] + sq[2] + sq[3])


def _product(a, b) -> tuple:
    """`multiply` of two quaternions given as 4 Python floats each."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    w = aw * bw - ax * bx - ay * by - az * bz
    x = aw * bx + bw * ax + ay * bz - az * by
    y = aw * by + bw * ay + az * bx - ax * bz
    z = aw * bz + bw * az + ax * by - ay * bx
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return w / n, x / n, y / n, z / n


def running_product(q: np.ndarray) -> np.ndarray:
    """The prefix products q[0], q[0] q[1], q[0] q[1] q[2], ... of an
    (R, 4) sequence, R >= 1, or of each row of an (..., R, 4) stack:
    the first is q[0] itself, each next is `multiply` of the one before
    and the next element, so every prefix is the product a left fold
    of `multiply` gives it, bit for bit."""
    if q.ndim == 2:
        rows = q.tolist()
        p = rows[0]
        out = list(p)
        for b in rows[1:]:
            p = _product(p, b)
            out += p
        return np.array(out).reshape(-1, 4)
    shape = q.shape
    out = q.reshape((-1,) + shape[-2:]).transpose(1, 2, 0).copy()
    for r in range(1, shape[-2]):
        out[r] = _hamilton(out[r - 1], out[r])
    return out.transpose(2, 0, 1).reshape(shape)


def inverse(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out[..., 1:] = -out[..., 1:]
    return out


def conjugate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b a b^-1."""
    return multiply(b, multiply(a, inverse(b)))


def exp(x: np.ndarray) -> np.ndarray:
    """Norms are square roots of `np.vecdot`, the dot `np.linalg.norm`
    takes of one vector, so a stack's rows get their lone norms."""
    x = np.asarray(x, dtype=float)
    theta = np.sqrt(np.vecdot(x, x))
    # sin(t)/t to second order keeps exp smooth through 0
    small = theta < _SMALL
    if x.ndim == 1:
        scale = (1.0 - theta * theta / 6.0 if small
                 else np.sin(theta) / theta)
        out = np.array([np.cos(theta), *(scale * c for c in x.tolist())])
        return out / np.sqrt(np.vecdot(out, out))
    scale = np.where(small, 1.0 - theta * theta / 6.0,
                     np.sin(theta) / np.maximum(theta, _SMALL))
    out = np.concatenate((np.cos(theta)[..., None], scale[..., None] * x),
                         axis=-1)
    return out / np.sqrt(np.vecdot(out, out))[..., None]


def log(q: np.ndarray) -> np.ndarray:
    """Principal branch; |log| in [0, pi).

    Raises AntipodeError at (-1,0,0,0), where every direction is a
    branch point.
    """
    q = np.asarray(q, dtype=float)
    w, v = q[0], q[1:]
    s = np.sqrt(v.dot(v))     # np.linalg.norm(v), without its wrapper
    if w < 0.0 and s < _ANTIPODE_TOL:
        raise AntipodeError("log has no principal branch at -identity")
    theta = np.arctan2(s, w)
    if s < _SMALL and w > 0.0:
        # theta/s -> 1/w as s -> 0 on the w > 0 hemisphere only; near
        # -identity theta/s stays well conditioned (theta -> pi)
        return v / w
    return v * (theta / s)


def ad(q: np.ndarray) -> np.ndarray:
    """Adjoint action on the algebra: the SO(3) matrix of x -> q x q^-1,
    (w^2 - |v|^2) I + 2 v v^T + 2 w [v]_x in scalar components."""
    if q.ndim == 1:
        w, x, y, z = q.tolist()
        c = w * w - x * x - y * y - z * z
        return np.array([
            c + 2.0 * x * x, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
            2.0 * (x * y + w * z), c + 2.0 * y * y, 2.0 * (y * z - w * x),
            2.0 * (x * z - w * y), 2.0 * (y * z + w * x), c + 2.0 * z * z,
        ]).reshape(3, 3)
    # components first, so each entry is one long row of the stack
    shape, q = q.shape[:-1], q.reshape(-1, 4).T
    p = q.take(_AD_LEFT, axis=0) * _AD_SCALE * q.take(_AD_RIGHT, axis=0)
    c = p[0] - p[1] - p[2] - p[3]
    pairs = p.take(_AD_PAIRS, axis=0) * _AD_SIGNS
    out = np.empty((9, q.shape[1]))
    np.multiply(2.0, pairs[:7] + pairs[7:], out=out[1:8])
    np.add(c, p[10:], out=out[::4])
    return out.T.reshape(shape + (3, 3))


def trace(q: np.ndarray) -> float:
    return 2.0 * float(q[0])


def trace_pairing(x: np.ndarray, q: np.ndarray) -> float:
    """d/dt at 0 of trace(exp(t x) q): the real trace of x against q."""
    return -2.0 * float(np.dot(x, q[1:]))


def random_element(rng: np.random.Generator, shape: tuple = ()) -> np.ndarray:
    """Haar-distributed group elements (normalized 4-dim Gaussians), an
    array of the given shape of them, (*shape, 4).  The draws fill the
    array in C order, and a norm is the square root of `np.vecdot`, as
    in `exp`, so a stack equals that many lone draws bit for bit."""
    q = rng.normal(size=(*shape, 4))
    return q / np.sqrt(np.vecdot(q, q))[..., None]
