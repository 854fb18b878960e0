"""Twisted group cohomology of a presentation 2-complex.

For a representation x of <g_1..g_n | r_1..r_m> the cochain complex is

    g --d0--> g^n --d1--> g^m,   d0(xi)_j = Ad(x_j) xi - xi,
                                 d1 = Fox Jacobian of the relators,

with coefficients in the algebra or an Ad-invariant subspace of it.
Fox rows come from `presentations.fox_fold`: d1 stacks the relators',
and a cocycle's value on a word is that word's row applied to it.
d0 reads the representation's kept Ad stack.
H^0 and H^1 are presentation-independent; nothing above degree one is
exposed because the 2-complex ceases to model the group there.  Ranks
come from singular values against an absolute threshold, with warnings
when a value sits within a factor of ten of the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DomainError, RankAmbiguityError, ResidualError
from .presentations import Representation, Word, fox_jacobian_at, kept

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class CoefficientSystem:
    """Generator actions on R^k pulled back from Ad through an
    orthonormal basis of an invariant subspace (k = 3 means all of g)."""

    rep: Representation
    basis: np.ndarray  # (3, k), orthonormal columns

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    @property
    def n(self) -> int:
        return self.rep.presentation.num_generators


def full_system(rep: Representation) -> CoefficientSystem:
    return CoefficientSystem(rep, np.eye(3))


def restricted_system(rep: Representation, part: str,
                      tol: float = DEFAULT_TOL) -> CoefficientSystem:
    """Coefficients along the stabilizer axis or its orthocomplement.

    Defined only at reducible nontrivial representations (h0 = 1),
    where the common rotation axis gives the canonical splitting.  Each
    (part, tol) basis is made and checked once and kept, read-only, on
    the representation (the basis, not the system, so nothing kept
    refers back to its representation); errors are raised again on
    every call.
    """
    basis = kept(rep._strata, (part, tol), _restricted_basis, rep, part, tol)
    return CoefficientSystem(rep, basis)


def _restricted_basis(rep: Representation, part: str,
                      tol: float) -> np.ndarray:
    axis = stabilizer_axis(rep, tol)
    if part == "stabilizer":
        basis = axis.reshape(3, 1)
    elif part == "complement":
        # null space of the axis row; SVD keeps this deterministic
        _, _, vt = np.linalg.svd(axis.reshape(1, 3))
        basis = vt[1:].T
        basis.flags.writeable = False
    else:
        raise DomainError(f"unknown coefficient part {part!r}")
    P = basis @ basis.T
    leaks = np.linalg.norm((np.eye(3) - P) @ rep.adjoints @ basis,
                           axis=(1, 2))
    bad = np.flatnonzero(leaks > 10 * tol)
    if bad.size:
        j = bad[0]
        raise DomainError(
            f"coefficient subspace not Ad-invariant at generator {j}: "
            f"leak {leaks[j]:.3e}")
    return basis


def stabilizer_axis(rep: Representation, tol: float = DEFAULT_TOL) -> np.ndarray:
    summary = cohomology(rep, tol)
    if summary.h0 != 1:
        raise DomainError(
            f"h0 = {summary.h0}: no canonical axis splitting")
    return summary.basis_h0[:, 0]


def build_d0(rep: Representation) -> np.ndarray:
    """(3n x 3) stacked blocks Ad(x_j) - I, full algebra coefficients."""
    return system_d0(full_system(rep))


def build_d1(rep: Representation) -> np.ndarray:
    """(3m x 3n) Fox Jacobian, full algebra coefficients."""
    return system_d1(full_system(rep))


def system_d0(sys: CoefficientSystem) -> np.ndarray:
    """(nk x k) stacked blocks basis^T Ad(x_j) basis - I, read from the
    representation's kept Ad stack."""
    b, k = sys.basis, sys.k
    return (b.T @ sys.rep.adjoints @ b - np.eye(k)).reshape(-1, k)


def system_d1(sys: CoefficientSystem) -> np.ndarray:
    """(mk x nk) relator differential: the full Fox Jacobian in the
    system's basis.  On an Ad-invariant subspace that is the Fox
    Jacobian of the restricted action."""
    return _in_basis(sys, fox_jacobian_at(sys.rep))


def _in_basis(sys: CoefficientSystem, J: np.ndarray) -> np.ndarray:
    """A (3m x 3n) matrix of Fox rows with each 3x3 block compressed to
    basis^T block basis, as (mk x nk)."""
    m, n, k = J.shape[0] // 3, sys.n, sys.k
    rows = sys.basis.T @ J.reshape(m, 3, 3 * n)
    return (rows.reshape(m * k, n, 3) @ sys.basis).reshape(m * k, n * k)


def cocycle_value(sys: CoefficientSystem, u: np.ndarray, word: Word) -> np.ndarray:
    """Value of the cocycle on a word, u(word) = J(word) u, with J the
    word's Fox row."""
    return pullback_matrix(sys, (word,)) @ np.ravel(u)


def pullback_matrix(source_sys: CoefficientSystem, word_map) -> np.ndarray:
    """Matrix of u -> (u(w) for w in word_map): the words' Fox rows in
    the source system's basis, stacked.  The folds are the source
    representation's kept ones, shared with `Representation.evaluate`."""
    rep = source_sys.rep
    J = np.array([rep.fold(w)[1] for w in word_map])
    return _in_basis(source_sys, J.reshape(-1, 3 * source_sys.n))


def pullback_cocycle(target_sys: CoefficientSystem,
                     source_sys: CoefficientSystem,
                     word_map, u: np.ndarray) -> np.ndarray:
    """Pull a cocycle back along the homomorphism sending the target's
    generator j to word_map[j] in the source group.  The target rep
    must factor through the map (same images on corresponding words)."""
    pb = pullback_matrix(source_sys, word_map) @ np.ravel(u)
    return pb.reshape(target_sys.n, target_sys.k)


@dataclass(frozen=True)
class CohomologySummary:
    h0: int
    h1: int
    z1: int                    # dim ker d1, the cocycle space
    coefficient_dim: int
    basis_h0: np.ndarray       # (k, h0), read-only
    basis_h1: np.ndarray       # (n*k, h1), harmonic gauge, read-only
    singular_values: MappingProxyType  # "d0"/"d1" -> tuple of floats
    warnings: tuple


def _canonical_signs(B: np.ndarray) -> np.ndarray:
    """B with each column negated where its largest-magnitude entry
    (the first, on ties) is negative."""
    top = B[np.argmax(np.abs(B), axis=0), np.arange(B.shape[1])]
    return np.where(top < 0, -B, B)


def _threshold_warnings(name: str, sv: np.ndarray, tol: float) -> list:
    out = []
    for s in sv:
        if tol / 10 < s < tol * 10:
            out.append(f"{name} singular value {s:.3e} within 10x of "
                       f"threshold {tol:.1e}")
    return out


def system_cohomology(sys: CoefficientSystem,
                      tol: float = DEFAULT_TOL) -> CohomologySummary:
    """H0/H1 summary of one coefficient system, computed once per
    representation, coefficient basis and tol and kept on the
    representation.  The summary is read-only because every later call
    shares it.  Errors are not kept: they are raised again each call."""
    basis = sys.basis
    key = (basis.dtype.str, basis.shape, basis.tobytes(), tol)
    return kept(sys.rep._cohomology, key, _system_cohomology, sys, tol)


def _system_cohomology(sys: CoefficientSystem,
                       tol: float) -> CohomologySummary:
    rep = sys.rep
    if rep.relator_residual > 10 * tol:
        raise ResidualError(
            f"relator residual {rep.relator_residual:.3e} too large for "
            f"cohomology at tolerance {tol:.1e}")
    k, n = sys.k, sys.n
    d0 = system_d0(sys)
    d1 = system_d1(sys)
    warnings: list = []

    if d1.shape[0]:
        comp = float(np.linalg.norm(d1 @ d0))
        if comp > 100 * tol:
            raise ResidualError(
                f"d1 d0 composite norm {comp:.3e}; complex is broken")

    u0, sv0, vt0 = np.linalg.svd(d0)
    rank0 = int(np.sum(sv0 > tol))
    warnings += _threshold_warnings("d0", sv0, tol)
    h0 = k - rank0
    basis_h0 = _canonical_signs(vt0[rank0:].T)

    if d1.shape[0]:
        _, sv1, vt1 = np.linalg.svd(d1)
        rank1 = int(np.sum(sv1 > tol))
        warnings += _threshold_warnings("d1", sv1, tol)
        ker1 = vt1[rank1:].T
    else:
        sv1 = np.zeros(0)
        ker1 = np.eye(n * k)
    z1 = ker1.shape[1]
    h1 = z1 - rank0
    if h1 < 0:
        raise RankAmbiguityError(
            f"negative h1 = {z1} - {rank0}; rank thresholds failed")

    if h1 == 0:
        basis_h1 = np.zeros((n * k, 0))
    else:
        im0 = u0[:, :rank0]
        M = ker1 - im0 @ (im0.T @ ker1)
        um, sm, _ = np.linalg.svd(M, full_matrices=False)
        keep = sm > 0.5
        if int(np.sum(keep)) != h1:
            raise RankAmbiguityError(
                f"harmonic projection produced {int(np.sum(keep))} vectors, "
                f"expected {h1}")
        basis_h1 = _canonical_signs(um[:, keep])

    if k == 3 and h0 not in (0, 1, 3):
        raise RankAmbiguityError(
            f"h0 = {h0} is impossible for full coefficients; "
            f"tolerance {tol:.1e} is misplaced")

    basis_h0.flags.writeable = basis_h1.flags.writeable = False
    return CohomologySummary(
        h0=h0, h1=h1, z1=z1, coefficient_dim=k,
        basis_h0=basis_h0, basis_h1=basis_h1,
        singular_values=MappingProxyType(
            {"d0": tuple(float(s) for s in sv0),
             "d1": tuple(float(s) for s in sv1)}),
        warnings=tuple(warnings))


def cohomology(rep: Representation, tol: float = DEFAULT_TOL) -> CohomologySummary:
    """Full-coefficient twisted cohomology summary."""
    return system_cohomology(full_system(rep), tol)


def restrict_coefficients(rep: Representation, part: str,
                          tol: float = DEFAULT_TOL) -> CohomologySummary:
    """Cohomology with coefficients in the stabilizer line or its
    orthocomplement (reducible nontrivial representations only)."""
    return system_cohomology(restricted_system(rep, part, tol), tol)


def is_cocycle(rep: Representation, u: np.ndarray,
               tol: float = DEFAULT_TOL) -> bool:
    """Whether d1 annihilates u (u given as (n,3) or flat)."""
    d1 = build_d1(rep)
    if not d1.shape[0]:
        return True
    return float(np.linalg.norm(d1 @ np.ravel(u))) < tol
