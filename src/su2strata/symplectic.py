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

The pairing is bilinear, so it is held as one (3n x 3n) matrix W: the
cup-product part of the surface relator's Fox fold
(`presentations.fox_fold`), folded when the pairing is first asked
for and kept on the representation.  Cocycles are (n, 3) arrays, one
algebra vector per generator, or their flat form.
"""

from __future__ import annotations

import numpy as np

from . import su2
from .errors import DomainError
from .presentations import (Representation, Word, _fold_words, _read_only,
                            fox_fold, kept)


def pairing_matrix(rep: Representation) -> np.ndarray:
    """The read-only (3n x 3n) matrix W with
    pairing(u, v) = ravel(u) @ W @ ravel(v): the cup-product matrix of
    the surface relator's fold, formed on first use and kept."""
    if rep.presentation.kind != "surface":
        raise DomainError("the pairing needs a surface presentation")
    return kept(rep, "pairing", lambda: _read_only(
        fox_fold(rep.images, rep.presentation.relators[0])[2]))


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
    images -> exp(t u) images: the real trace of u(word) = J u against
    the holonomy q, both from one `_fold_words`."""
    q, J = _fold_words(rep.images, (word,))
    return su2.trace_pairing(J @ np.ravel(u), q[0])

