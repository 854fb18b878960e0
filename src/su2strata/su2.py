"""Unit-quaternion model of SU(2) and its Lie algebra.

Group elements are length-4 float arrays [w, x, y, z] of unit norm with
identity [1, 0, 0, 0].  Algebra vectors are length-3 arrays in the
(i, j, k) basis, which is declared orthonormal; every metric-dependent
quantity downstream (volumes, torsion scalars, symplectic values) uses
this normalization.  exp(X) = (cos|X|, sin|X| X/|X|), so the adjoint
action of exp(theta*e1) on the algebra is the rotation by 2*theta about
axis 1, and trace(q) = 2*w.

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


def identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    return q / n


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, renormalized to stay on the unit sphere.

    Every product is renormalized, so a running product over a word
    never drifts off the sphere however long the word is; the division
    costs one square root per letter.  Scalar components, because a
    4-vector is too small for array operations to pay for themselves.
    """
    aw, ax, ay, az = a.tolist()
    bw, bx, by, bz = b.tolist()
    w = aw * bw - ax * bx - ay * by - az * bz
    x = aw * bx + bw * ax + ay * bz - az * by
    y = aw * by + bw * ay + az * bx - ax * bz
    z = aw * bz + bw * az + ax * by - ay * bx
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return np.array([w / n, x / n, y / n, z / n])


def inverse(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out[1:] = -out[1:]
    return out


def conjugate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b a b^-1."""
    return multiply(b, multiply(a, inverse(b)))


def exp(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    theta = np.linalg.norm(x)
    out = np.empty(4)
    out[0] = np.cos(theta)
    if theta < _SMALL:
        # sin(t)/t to second order keeps exp smooth through 0
        out[1:] = x * (1.0 - theta * theta / 6.0)
    else:
        out[1:] = x * (np.sin(theta) / theta)
    return out / np.linalg.norm(out)


def log(q: np.ndarray, antipode_tol: float = 1e-12) -> np.ndarray:
    """Principal branch; |log| in [0, pi).

    Raises AntipodeError at (-1,0,0,0), where every direction is a
    branch point.
    """
    q = np.asarray(q, dtype=float)
    w, v = q[0], q[1:]
    s = np.linalg.norm(v)
    if w < 0.0 and s < antipode_tol:
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
    w, x, y, z = q.tolist()
    c = w * w - x * x - y * y - z * z
    return np.array([
        [c + 2.0 * x * x, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), c + 2.0 * y * y, 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), c + 2.0 * z * z],
    ])


def inner(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.dot(x, y))


def trace(q: np.ndarray) -> float:
    return 2.0 * float(q[0])


def trace_pairing(x: np.ndarray, q: np.ndarray) -> float:
    """d/dt at 0 of trace(exp(t x) q): the real trace of x against q."""
    return -2.0 * float(np.dot(x, q[1:]))


def is_central(q: np.ndarray, tol: float) -> bool:
    return bool(np.linalg.norm(q[1:]) < tol)


def axis_of(q: np.ndarray, tol: float) -> np.ndarray:
    """Unit rotation axis of a noncentral element."""
    v = np.asarray(q, dtype=float)[1:]
    s = np.linalg.norm(v)
    if s < tol:
        raise ValueError("central element has no axis")
    return v / s


def random_element(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed group element (normalized 4-dim Gaussian)."""
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_algebra(rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    return rng.normal(size=3) * scale
