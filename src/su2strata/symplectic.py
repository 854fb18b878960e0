"""Goldman pairing on twisted cocycles of a surface group.

The pairing of two cocycles u, v is the cup product

    (u ~ v)(a, b) = <u(a), Ad(x(a)) v(b)>

evaluated on the bar-complex 2-chain carried by the surface relator:
for relator s_1 ... s_L with prefixes p_i = s_1 ... s_{i-1}, a positive
letter contributes +[p_i | s_i] and an inverse letter -[p_i s_i | s_i],
which is exactly the chain whose boundary matches the Fox derivative
1-chain.  On relator-satisfying representations the chain is a cycle,
so the value is antisymmetric, kills coboundaries, and depends only on
cohomology classes; none of that is assumed anywhere, the test suite
measures it.  The overall scale is fixed by the orthonormal (i, j, k)
metric.

The pairing is bilinear, so it is held as one (3n x 3n) matrix W,
built from a single walk over the relator's Fox blocks.  Cocycles are
(n, 3) arrays, one algebra vector per generator, or their flat form.
"""

from __future__ import annotations

import numpy as np

from . import su2
from .cohomology import (DEFAULT_TOL, cocycle_value, cohomology, full_system)
from .errors import DomainError
from .presentations import Representation, Word, fox_blocks


def pairing_matrix(rep: Representation) -> np.ndarray:
    """The (3n x 3n) matrix W with pairing(u, v) = ravel(u) @ W @ ravel(v).

    One pass over the Fox blocks F of the surface relator.  P is the
    running map u -> u(prefix); the letter's term <u(a), F v_j> adds
    P^T F to column block j, with a = p_i for a positive letter and
    a = p_i s_i for an inverse one, so F joins P after the term in the
    first case and before it in the second.
    """
    pres = rep.presentation
    if pres.kind != "surface":
        raise DomainError("the pairing needs a surface presentation")
    n = pres.num_generators
    relator = pres.relators[0]
    P = np.zeros((3, 3 * n))
    W = np.zeros((3 * n, 3 * n))
    for s, (j, F) in zip(relator, fox_blocks(rep.images, relator)):
        cols = slice(3 * j, 3 * j + 3)
        if s < 0:
            P[:, cols] += F
        W[:, cols] += P.T @ F
        if s > 0:
            P[:, cols] += F
    return W


def goldman_form(rep: Representation, u: np.ndarray, v: np.ndarray) -> float:
    """Value of the pairing on two cocycles at a surface representation."""
    return float(np.ravel(u) @ pairing_matrix(rep) @ np.ravel(v))


def gram_matrix(rep: Representation, cocycles) -> np.ndarray:
    """Pairing values between all pairs from a list of cocycles."""
    W = pairing_matrix(rep)
    rows = np.reshape(cocycles, (len(cocycles), W.shape[0]))
    return rows @ W @ rows.T


def trace_derivative(rep: Representation, word: Word, u: np.ndarray) -> float:
    """Derivative of trace(holonomy(word)) along the cocycle flow
    images -> exp(t u) images: the real trace of u(word) against the
    holonomy."""
    sys = full_system(rep)
    val = cocycle_value(sys, u, word)
    hol = rep.evaluate(word)
    return su2.trace_pairing(val, hol)


def fibre_tangent_basis(rep: Representation, curves,
                        tol: float = DEFAULT_TOL):
    """Orthonormal cocycle basis of the polarization fibre directions.

    Returns harmonic-gauge h1 classes whose trace derivatives vanish
    along every supplied curve word.
    """
    summary = cohomology(rep, tol)
    B = summary.basis_h1
    n = rep.presentation.num_generators
    if B.shape[1] == 0:
        return []
    rows = []
    for w in curves:
        rows.append([trace_derivative(rep, w, B[:, c].reshape(n, 3))
                     for c in range(B.shape[1])])
    T = np.array(rows, dtype=float)
    if T.size == 0:
        null = np.eye(B.shape[1])
    else:
        _, sv, vt = np.linalg.svd(T)
        rank = int(np.sum(sv > tol * max(1.0, float(sv[0]) if sv.size else 1.0)))
        null = vt[rank:].T
    out = B @ null
    return [out[:, c].reshape(n, 3) for c in range(out.shape[1])]
