"""Unit-quaternion model of SU(2) and its Lie algebra.

Group elements are length-4 float arrays [w, x, y, z] of unit norm with
identity [1, 0, 0, 0].  Algebra vectors are length-3 arrays in the
(i, j, k) basis, which is declared orthonormal; every metric-dependent
quantity downstream (volumes, torsion scalars, symplectic values) uses
this normalization.  exp(X) = (cos|X|, sin|X| X/|X|), so the adjoint
action of exp(theta*e1) on the algebra is the rotation by 2*theta about
axis 1, and trace(q) = 2*w.

`multiply`, `ad`, `exp` and `inverse` also act row by row on stacks of
shape (..., 4), or (..., 3) for `exp`: one vector is unpacked into
Python floats and a stack into component arrays, and both run the same
arithmetic, so each row of a stacked result equals its lone result bit
for bit.

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


def identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def _columns(q: np.ndarray) -> list:
    """The components of a stack along its last axis, as arrays over the
    leading axes: what `tolist` gives for one vector."""
    return list(np.moveaxis(q, -1, 0))


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product, renormalized to stay on the unit sphere.

    Every product is renormalized, so a running product over a word
    never drifts off the sphere however long the word is; the division
    costs one square root per letter.  One product is taken in Python
    floats, which beat any array call at that size.
    """
    lone = a.ndim == 1 == b.ndim
    aw, ax, ay, az = a.tolist() if lone else _columns(a)
    bw, bx, by, bz = b.tolist() if lone else _columns(b)
    w = aw * bw - ax * bx - ay * by - az * bz
    x = aw * bx + bw * ax + ay * bz - az * by
    y = aw * by + bw * ay + az * bx - ax * bz
    z = aw * bz + bw * az + ax * by - ay * bx
    s = w * w + x * x + y * y + z * z
    if lone:
        n = math.sqrt(s)
        return np.array([w / n, x / n, y / n, z / n])
    n = np.sqrt(s)
    return np.stack([w / n, x / n, y / n, z / n], axis=-1)


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
    out = np.stack([np.cos(theta), *(scale * c for c in _columns(x))],
                   axis=-1)
    return out / np.sqrt(np.vecdot(out, out))[..., None]


def log(q: np.ndarray) -> np.ndarray:
    """Principal branch; |log| in [0, pi).

    Raises AntipodeError at (-1,0,0,0), where every direction is a
    branch point.
    """
    q = np.asarray(q, dtype=float)
    w, v = q[0], q[1:]
    s = np.linalg.norm(v)
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
    lone = q.ndim == 1
    w, x, y, z = q.tolist() if lone else _columns(q)
    c = w * w - x * x - y * y - z * z
    entries = [
        c + 2.0 * x * x, 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
        2.0 * (x * y + w * z), c + 2.0 * y * y, 2.0 * (y * z - w * x),
        2.0 * (x * z - w * y), 2.0 * (y * z + w * x), c + 2.0 * z * z,
    ]
    if lone:
        return np.array(entries).reshape(3, 3)
    return np.stack(entries, axis=-1).reshape(q.shape[:-1] + (3, 3))


def trace(q: np.ndarray) -> float:
    return 2.0 * float(q[0])


def trace_pairing(x: np.ndarray, q: np.ndarray) -> float:
    """d/dt at 0 of trace(exp(t x) q): the real trace of x against q."""
    return -2.0 * float(np.dot(x, q[1:]))


def random_element(rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed group element (normalized 4-dim Gaussian)."""
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)
