"""Twisted group cohomology of a presentation 2-complex.

For a representation x of <g_1..g_n | r_1..r_m> the cochain complex is

    g --d0--> g^n --d1--> g^m,   d0(xi)_j = Ad(x_j) xi - xi,
                                 d1 = Fox Jacobian of the relators,

with coefficients in the algebra or an Ad-invariant subspace of it.
H^0 and H^1 are presentation-independent; nothing above degree one is
exposed because the 2-complex ceases to model the group there.  Ranks
come from singular values against an absolute threshold, with warnings
when a value sits within a factor of ten of the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import su2
from .errors import DomainError, RankAmbiguityError, ResidualError
from .presentations import Representation, Word, fox_jacobian_at

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

    def gen_action(self, j: int) -> np.ndarray:
        A = su2.ad(self.rep.images[j])
        return self.basis.T @ A @ self.basis

    def actions(self) -> list:
        return [self.gen_action(j) for j in range(self.n)]


def full_system(rep: Representation) -> CoefficientSystem:
    return CoefficientSystem(rep, np.eye(3))


def restricted_system(rep: Representation, part: str,
                      tol: float = DEFAULT_TOL) -> CoefficientSystem:
    """Coefficients along the stabilizer axis or its orthocomplement.

    Defined only at reducible nontrivial representations (h0 = 1),
    where the common rotation axis gives the canonical splitting.
    """
    axis = stabilizer_axis(rep, tol)
    if part == "stabilizer":
        basis = axis.reshape(3, 1)
    elif part == "complement":
        # null space of the axis row; SVD keeps this deterministic
        _, _, vt = np.linalg.svd(axis.reshape(1, 3))
        basis = vt[1:].T
    else:
        raise DomainError(f"unknown coefficient part {part!r}")
    sys = CoefficientSystem(rep, basis)
    P = basis @ basis.T
    for j in range(sys.n):
        A = su2.ad(rep.images[j])
        leak = np.linalg.norm((np.eye(3) - P) @ A @ basis)
        if leak > 10 * tol:
            raise DomainError(
                f"coefficient subspace not Ad-invariant at generator {j}: "
                f"leak {leak:.3e}")
    return sys


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
    k = sys.k
    out = np.zeros((sys.n * k, k))
    for j, A in enumerate(sys.actions()):
        out[j * k:(j + 1) * k] = A - np.eye(k)
    return out


def system_d1(sys: CoefficientSystem) -> np.ndarray:
    """(mk x nk) relator differential: each 3x3 block of the full Fox
    Jacobian compressed to basis^T block basis.  On an Ad-invariant
    subspace that is the Fox Jacobian of the restricted action."""
    J = fox_jacobian_at(sys.rep)
    m, n, k = J.shape[0] // 3, sys.n, sys.k
    rows = sys.basis.T @ J.reshape(m, 3, 3 * n)
    return (rows.reshape(m * k, n, 3) @ sys.basis).reshape(m * k, n * k)


def cocycle_value(sys: CoefficientSystem, u: np.ndarray, word: Word) -> np.ndarray:
    """Value of the cocycle on a word: u(ab) = u(a) + a.u(b)."""
    u = np.asarray(u, dtype=float).reshape(sys.n, sys.k)
    acts = sys.actions()
    val = np.zeros(sys.k)
    cur = np.eye(sys.k)
    for s in word:
        j = abs(s) - 1
        act = acts[j]
        if s > 0:
            val = val + cur @ u[j]
            cur = cur @ act
        else:
            cur = cur @ act.T
            val = val - cur @ u[j]
    return val


def pullback_cocycle(target_sys: CoefficientSystem,
                     source_sys: CoefficientSystem,
                     word_map, u: np.ndarray) -> np.ndarray:
    """Pull a cocycle back along the homomorphism sending the target's
    generator j to word_map[j] in the source group.  The target rep
    must factor through the map (same images on corresponding words)."""
    out = np.zeros((target_sys.n, target_sys.k))
    for j, w in enumerate(word_map):
        out[j] = cocycle_value(source_sys, u, w)
    return out


@dataclass(frozen=True)
class CohomologySummary:
    h0: int
    h1: int
    z1: int                    # dim ker d1, the cocycle space
    coefficient_dim: int
    basis_h0: np.ndarray       # (k, h0)
    basis_h1: np.ndarray       # (n*k, h1), harmonic gauge
    singular_values: dict
    warnings: tuple


def _canonical_signs(B: np.ndarray) -> np.ndarray:
    B = B.copy()
    for c in range(B.shape[1]):
        i = int(np.argmax(np.abs(B[:, c])))
        if B[i, c] < 0:
            B[:, c] = -B[:, c]
    return B


def _threshold_warnings(name: str, sv: np.ndarray, tol: float) -> list:
    out = []
    for s in sv:
        if tol / 10 < s < tol * 10:
            out.append(f"{name} singular value {s:.3e} within 10x of "
                       f"threshold {tol:.1e}")
    return out


def system_cohomology(sys: CoefficientSystem,
                      tol: float = DEFAULT_TOL) -> CohomologySummary:
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

    return CohomologySummary(
        h0=h0, h1=h1, z1=z1, coefficient_dim=k,
        basis_h0=basis_h0, basis_h1=basis_h1,
        singular_values={"d0": [float(s) for s in sv0],
                         "d1": [float(s) for s in sv1]},
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
