"""Stratification of SU(2) representation tuples by stabilizer.

A tuple lies in stratum i when its conjugation stabilizer has dimension
3 - i: irreducible tuples (stabilizer = center) give i = 3, tuples on a
common rotation axis with at least one noncentral image give i = 1
(stabilizer a maximal torus), and all-central tuples give i = 0
(stabilizer everything).  Central nontrivial tuples are kept in stratum
0 with central_flag set so callers can see them.

Classification has two verdicts, the numeric rank of d0 and the
common-axis test on the images, and they must agree.  A representation
whose smallest nonzero d0 singular value falls within a factor of ten
of the threshold refuses classification instead of guessing.  `_labels`
classifies a stack of images from their full-coefficient summaries
with one axis test, and its first row that fails raises; a moduli
chart or a strata scan passes it its columns, and `classify_stratum` is
its batch of one, kept per tol beside the full summary it reads, errors
raised again on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su2
from .cohomology import DEFAULT_TOL, cohomology
from .errors import (BoundaryAmbiguousError, DomainError, SamplingError,
                     StratumConflictError)
from .presentations import (Representation, free_group, kept, polish,
                            surface_group)


@dataclass(frozen=True)
class StratumLabel:
    """Stratum index i with the stabilizer dimension that defines it.

    The strata carry stabilizers G, T, Z(G) for i = 0, 1, 3, so
    stabilizer_dim is h0 = 3, 1, 0 respectively; 3 - i matches it only
    on the outer strata, and the h0 value is the defining one.
    """

    i: int                  # stratum index in {0, 1, 3}
    stabilizer_dim: int     # h0: 3, 1, 0 for i = 0, 1, 3
    central_flag: bool      # all images central, not all +identity


_H0_TO_STRATUM = {3: 0, 1: 1, 0: 3}


def _axis_stabilizer_dims(images: np.ndarray, tol: float) -> list:
    """The axis verdict of each row of an (N, n, 4) image stack: 3 if
    every image is within tol of +-identity, 1 if the noncentral images
    share the first one's rotation axis, else 0."""
    v = images[..., 1:]
    s = np.sqrt((v * v).sum(axis=-1))
    noncentral = s >= tol
    if not noncentral.any():
        return [3] * len(images)
    # unit axes written out twice, so that the cross products with the
    # first axis, formed as np.cross forms them, read shifted slices
    axes = np.concatenate([v, v], axis=-1) / np.where(noncentral, s, 1.0)[
        ..., None]
    a = axes[np.arange(len(axes)), noncentral.argmax(axis=-1)][:, None]
    cross = a[..., 1:4] * axes[..., 2:5] - a[..., 2:5] * axes[..., 1:4]
    apart = (np.sqrt((cross * cross).sum(axis=-1)) > tol) & noncentral
    return np.where(noncentral.any(axis=-1),
                    np.where(apart.any(axis=-1), 0, 1), 3).tolist()


def classify_stratum(rep: Representation,
                     tol: float = DEFAULT_TOL) -> StratumLabel:
    """The representation's stratum, kept per tol: `_labels`' batch of
    one."""
    return kept(rep, ("label", tol), lambda: _labels(
        rep.images[None], [cohomology(rep, tol)], tol)[0])


def _labels(images: np.ndarray, summaries, tol: float) -> list:
    """The label of each row of an (N, n, 4) image stack, from its
    full-coefficient summary and one axis test over the stack; the
    first row that fails raises the error its lone classification
    raises."""
    dims = _axis_stabilizer_dims(images, tol)
    return [_label(*args, tol) for args in zip(images, summaries, dims)]


def _label(images: np.ndarray, summary, axis_dim: int, tol: float):
    """The label of (n, 4) images from their summary and axis verdict;
    the smallest kept d0 value is read from its group's stacked S0."""
    of, g, h0 = summary._of, summary._row, summary.h0
    if h0 < 3 and of.S0[g, 2 - h0] < 10 * tol:
        raise BoundaryAmbiguousError(
            f"smallest nonzero d0 singular value {of.S0[g, 2 - h0]:.3e} is "
            f"within 10x of threshold {tol:.1e}")
    if h0 != axis_dim:
        raise StratumConflictError(
            f"rank verdict h0={h0} vs axis verdict {axis_dim}; "
            f"tolerance {tol:.1e} failed")
    central = bool(h0 == 3 and (images[:, 0] < 0).any())
    return StratumLabel(_H0_TO_STRATUM[h0], h0, central)


def stratum_tangent_dim(rep: Representation,
                        tol: float = DEFAULT_TOL) -> int:
    """Tangent dimension of the stratum through a free-group tuple, read
    from its label.

    Stratum 0 is a point.  Stratum 1 is the torus-tuple family, whose
    tangent space is h1 with coefficients along the stabilizer line; a
    free group has no relators and the line's action is trivial, so that
    h1 is g.  Stratum 3 has tangent dimension h1 = 3g - 3, from h0 = 0
    by rank-nullity.
    """
    pres = rep.presentation
    if pres.kind != "free":
        raise DomainError("stratum tangent dims are defined over free groups")
    return _tangent_dim(classify_stratum(rep, tol).i, pres.num_generators)


def _tangent_dim(stratum: int, g: int) -> int:
    """`stratum_tangent_dim` of a genus-g free-group tuple in `stratum`."""
    return {0: 0, 1: g, 3: 3 * g - 3}[stratum]


def handlebody_representation(free_rep: Representation) -> Representation:
    """Embed a free(g) tuple into the genus-g surface variety by sending
    every b-generator to the identity.  Lands in the boundary fibre."""
    pres = free_rep.presentation
    if pres.kind != "free":
        raise DomainError("expected a free-group representation")
    g = pres.num_generators
    images = np.vstack([free_rep.images,
                        np.tile(su2.identity(), (g, 1))])
    return Representation(surface_group(g), images)


_SAMPLE_TRIES = 100


def sample_stratum(g: int, i: int, seed: int) -> Representation:
    """Deterministic sample from stratum i of the free(g) tuple space.

    i = 0 returns the trivial tuple, i = 1 a common-axis tuple with
    random angles, i = 3 a Haar tuple; i = 1 and i = 3 draws are
    rejection-sampled, at most _SAMPLE_TRIES times, until the
    classifier confirms the stratum at DEFAULT_TOL.
    """
    if g < 1:
        raise DomainError("need g >= 1")
    if i not in (0, 1, 3):
        raise DomainError(f"no stratum {i}")
    pres = free_group(g)
    if i == 0:
        return Representation.trivial(pres)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, g, i]))
    for _ in range(_SAMPLE_TRIES):
        if i == 1:
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angles = rng.uniform(0.2, np.pi - 0.2, size=g)
            images = su2.exp(angles[:, None] * axis)
        else:
            images = su2.random_element(rng, (g,))
        rep = Representation(pres, images)
        try:
            if classify_stratum(rep).i == i:
                return rep
        except (BoundaryAmbiguousError, StratumConflictError):
            continue
    raise SamplingError(f"no stratum-{i} sample in {_SAMPLE_TRIES} tries")


def sample_surface_representation(g: int, seed: int,
                                  tol: float = DEFAULT_TOL) -> Representation:
    """Random irreducible relator-satisfying genus-g surface tuple,
    produced by polishing a Haar draw onto the relator set."""
    pres = surface_group(g)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=[seed, g, 99]))
    for _ in range(40):
        images = su2.random_element(rng, (2 * g,))
        try:
            rep = polish(pres, images)
            if classify_stratum(rep, tol).i == 3:
                return rep
        except DomainError:
            continue
    raise SamplingError("no irreducible surface sample in 40 tries")
