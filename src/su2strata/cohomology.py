"""Twisted group cohomology of a presentation 2-complex.

For a representation x of <g_1..g_n | r_1..r_m> the cochain complex is

    g --d0--> g^n --d1--> g^m,   d0(xi)_j = Ad(x_j) xi - xi,
                                 d1 = Fox Jacobian of the relators,

with coefficients in the algebra or an Ad-invariant subspace of it.
d0 reads the representation's kept Ad stack and d1 its relators' Fox
rows (`presentations.fox_fold`).  H^0 and H^1 are presentation-
independent; nothing above degree one is exposed because the 2-complex
ceases to model the group there.  Ranks come from singular values
against an absolute threshold, with warnings when a value sits within a
factor of ten of it.  The H^1 basis is harmonic: ker d1 ∩ ker d0ᵀ, the
null space of d1 stacked on d0ᵀ.

There is one analysis, `_system_cohomologies`: systems are grouped by
shape, and each group is built, checked and decomposed as one stack:
d0 with vectors, d1 and the harmonic stack with singular values only.
The first system to fail a check raises its error; there are no
partial results.  Each summary is a read-only view of its group's record: a
basis is a slice of a VT stack, sign-fixed whole on the first basis
read (the harmonic one is decomposed then, once per group, so a
`LinAlgError` there propagates from `basis_h1`), and the other fields
are formed when read.  A moduli chart calls it on its columns of
systems and keeps nothing; `system_cohomology`, `system_d0` and
`system_d1` are batches of one.  `cohomology` keeps a representation's
full-coefficient summary in its memo per tol; a restricted system is
made and analysed on each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DomainError, RankAmbiguityError, ResidualError
from .presentations import (Representation, Word, _fold_words, _read_only,
                            fox_jacobian_at, kept)

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


_FULL_BASIS = np.eye(3)
_FULL_BASIS.flags.writeable = False


def full_system(rep: Representation) -> CoefficientSystem:
    return CoefficientSystem(rep, _FULL_BASIS)


def restricted_system(rep: Representation, part: str,
                      tol: float = DEFAULT_TOL) -> CoefficientSystem:
    """Coefficients along the stabilizer axis or its orthocomplement.

    Defined only at reducible nontrivial representations (h0 = 1),
    where the common rotation axis gives the canonical splitting.  The
    basis is made and checked for Ad-invariance on every call.
    """
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
    return CoefficientSystem(rep, basis)


def stabilizer_axis(rep: Representation, tol: float = DEFAULT_TOL) -> np.ndarray:
    summary = cohomology(rep, tol)
    if summary.h0 != 1:
        raise DomainError(
            f"h0 = {summary.h0}: no canonical axis splitting")
    return summary.basis_h0[:, 0]


def build_d0(rep: Representation) -> np.ndarray:
    """(3n x 3) stacked blocks Ad(x_j) - I, full algebra coefficients."""
    return system_d0(full_system(rep))


def system_d0(sys: CoefficientSystem) -> np.ndarray:
    """(nk x k) stacked blocks basis^T Ad(x_j) basis - I, read from the
    representation's kept Ad stack: `_differentials`' batch of one."""
    return _differentials([sys])[0][0]


def system_d1(sys: CoefficientSystem) -> np.ndarray:
    """(mk x nk) relator differential: the full Fox Jacobian in the
    system's basis, `_differentials`' batch of one.  On an Ad-invariant
    subspace that is the Fox Jacobian of the restricted action."""
    return _differentials([sys])[1][0]


def _differentials(systems) -> tuple:
    """The stacked d0 (N, nk, k) and d1 (N, mk, nk) of systems of one
    shape (k, n, m), over contiguous stacks: a strided operand would
    take another matmul route, whose last bits differ.  The empty-d1
    forks here and in `_system_cohomologies` and `_shape_cohomologies`
    stay: without them a free-census op took 20–40 µs more, of 170."""
    B = np.array([sys.basis for sys in systems])
    A = np.array([sys.rep.adjoints for sys in systems])
    J = np.array([fox_jacobian_at(sys.rep) for sys in systems])
    k = B.shape[2]
    D0 = (B.mT[:, None] @ A @ B[:, None] - _FULL_BASIS[:k, :k]).reshape(
        len(B), -1, k)
    return D0, (_in_basis(B, J) if J.size  # J is empty without relators
                else np.zeros((len(B), 0, D0.shape[1])))


def _in_basis(B: np.ndarray, J: np.ndarray) -> np.ndarray:
    """(N, mk, nk): each (3m x 3n) matrix of Fox rows in J with every
    3x3 block compressed to basis^T block basis, bases B (N, 3, k)."""
    N, k, m, n = len(B), B.shape[2], J.shape[1] // 3, J.shape[2] // 3
    R = B.mT[:, None] @ J.reshape(N, m, 3, 3 * n)
    return (R.reshape(N, m * k, n, 3) @ B[:, None]).reshape(N, m * k, n * k)


def cocycle_value(sys: CoefficientSystem, u: np.ndarray, word: Word) -> np.ndarray:
    """Value of the cocycle on a word, u(word) = J(word) u, with J the
    word's Fox row."""
    return pullback_matrix(sys, (word,)) @ np.ravel(u)


def pullback_matrix(source_sys: CoefficientSystem, word_map) -> np.ndarray:
    """Matrix of u -> (u(w) for w in word_map): the words' Fox rows in
    the source system's basis, stacked, from one `_fold_words`."""
    J = _fold_words(source_sys.rep.images, word_map)[1]
    return _in_basis(np.array([source_sys.basis]), J[None])[0]


def pullback_cocycle(target_sys: CoefficientSystem,
                     source_sys: CoefficientSystem,
                     word_map, u: np.ndarray) -> np.ndarray:
    """Pull a cocycle back along the homomorphism sending the target's
    generator j to word_map[j] in the source group.  The target rep
    must factor through the map (same images on corresponding words)."""
    pb = pullback_matrix(source_sys, word_map) @ np.ravel(u)
    return pb.reshape(target_sys.n, target_sys.k)


class CohomologySummary:
    """H0/H1 of one coefficient system: its row of one shape group's
    `_Analysis`, each field formed when read.  Fields are properties
    without setters, so assigning one raises AttributeError."""

    __slots__ = ("_of", "_row")

    def __init__(self, of, row: int):
        self._of, self._row = of, row

    h0 = property(lambda s: s._of.k - s._of.ranks0[s._row])
    h1 = property(lambda s: s.z1 - s._of.ranks0[s._row])
    z1 = property(lambda s: s._of.nk - s._of.ranks1[s._row])  # dim ker d1
    coefficient_dim = property(lambda s: s._of.k)
    # (k, h0) and, in the harmonic gauge, (n*k, h1); read-only
    basis_h0 = property(lambda s: s._of.basis(0, s._row))
    basis_h1 = property(lambda s: s._of.basis(1, s._row))
    # "d0"/"d1" -> tuple of floats, and the near-threshold warnings
    singular_values = property(lambda s: s._of.formed(0, s._row))
    warnings = property(lambda s: s._of.formed(1, s._row))


class _Analysis:
    """One shape group's stacked analysis, which its rows' summaries
    read: k, nk, tol, S0 and S1 with their rank lists, d0's VT stack
    and the read-only harmonic stack H.  A degree's first basis read
    signs its VT stack whole by `_signed`; H's is made then, by one
    SVD for the group.  Row values formed on first read are kept."""

    def __init__(self, k, nk, tol, S0, S1, VT0, H):
        self.k, self.nk, self.tol, self.S0, self.S1 = k, nk, tol, S0, S1
        self.ranks0 = (S0 > tol).sum(axis=1).tolist()
        self.ranks1 = (S1 > tol).sum(axis=1).tolist()
        self.VT, self.signed, self.rows = [VT0, H], [False, False], {}

    def basis(self, i: int, g: int) -> np.ndarray:
        """Row g's H0 (i = 0) or harmonic H1 (i = 1) basis: the right
        singular vectors past the rank, as columns."""
        if not self.signed[i]:
            VT = np.linalg.svd(self.VT[1])[2] if i else self.VT[0]
            self.VT[i], self.signed[i] = _signed(VT), True
        rank = self.ranks0[g] + (self.ranks1[g] if i else 0)
        return self.VT[i][g, rank:].T

    def formed(self, i: int, g: int):
        """Row g's singular values (i = 0) or warnings (i = 1)."""
        if (i, g) in self.rows:
            return self.rows[i, g]
        if i == 0:
            value = MappingProxyType({"d0": tuple(self.S0[g].tolist()),
                                      "d1": tuple(self.S1[g].tolist())})
        else:
            value = tuple(f"{name} singular value {s:.3e} within 10x of "
                          f"threshold {self.tol:.1e}"
                          for name, sv in self.formed(0, g).items()
                          for s in sv if self.tol / 10 < s < self.tol * 10)
        self.rows[i, g] = value
        return value


def system_cohomology(sys: CoefficientSystem,
                      tol: float = DEFAULT_TOL) -> CohomologySummary:
    """H0/H1 summary of one coefficient system: `_system_cohomologies`'
    batch of one."""
    return _system_cohomologies([sys], tol)[0]


def _system_cohomologies(systems, tol: float) -> list:
    """The summary of each system.  The checks run in order, each over
    its rows: the relator residual of every system, then, shape group
    by shape group, d1 d0 and the ranks; the first row to fail raises
    the error its lone analysis raises.  A stacked matmul or SVD gives
    each matrix what its own gives, so a summary does not depend on the
    batch it is analysed in."""
    out: list = [None] * len(systems)
    shapes: dict = {}
    for i, sys in enumerate(systems):
        rep = sys.rep
        if rep.relator_residual > 10 * tol:
            raise ResidualError(
                f"relator residual {rep.relator_residual:.3e} too large "
                f"for cohomology at tolerance {tol:.1e}")
        shapes.setdefault((sys.k, sys.n, len(rep.presentation.relators)),
                          []).append(i)
    for idx in shapes.values():
        D0, D1 = _differentials([systems[i] for i in idx])
        comps = np.sqrt(((D1 @ D0) ** 2).sum(axis=(1, 2))) if D1.size else ()
        for comp in comps:
            if comp > 100 * tol:
                raise ResidualError(
                    f"d1 d0 composite norm {comp:.3e}; complex is broken")
        _shape_cohomologies(out, idx, D0, D1, tol)
    return out


def _signed(VT: np.ndarray) -> np.ndarray:
    """A read-only stack of right singular vectors, each row negated
    where its largest-magnitude entry (the first, on ties) is negative."""
    R = VT.reshape(-1, VT.shape[-1])
    top = R[np.arange(len(R)), np.abs(R).argmax(axis=1)]
    return _read_only(np.where(top[:, None] < 0, -R, R)).reshape(VT.shape)


def _shape_cohomologies(out: list, idx: list, D0: np.ndarray,
                        D1: np.ndarray, tol: float) -> None:
    """Fill out[idx] from the stacked d0 (N, nk, k) and d1 (N, mk, nk)
    of one shape: d0's SVD with vectors, and d1's and the harmonic
    stack H's (d1 on d0ᵀ) values only.  d1 and d0ᵀ have orthogonal row
    spaces, so H has rank rank d0 + rank d1, and its trailing right
    singular vectors (decomposed on the first `basis_h1` read) span the
    harmonic space.  The first row whose ranks fail raises."""
    nk, k = D0.shape[1:]
    _, S0, VT0 = np.linalg.svd(D0, full_matrices=False)
    S1 = (np.linalg.svd(D1, compute_uv=False) if D1.size
          else np.zeros((len(D1), 0)))
    H = _read_only(np.concatenate([D1, D0.mT], axis=1))
    SH = np.linalg.svd(H, compute_uv=False)
    of = _Analysis(k, nk, tol, S0, S1, VT0, H)
    ranksh = (SH > tol).sum(axis=1).tolist()
    for g, i in enumerate(idx):
        rank0, rank1 = of.ranks0[g], of.ranks1[g]
        z1 = nk - rank1
        h0, h1 = k - rank0, z1 - rank0
        if h1 < 0:
            raise RankAmbiguityError(
                f"negative h1 = {z1} - {rank0}; rank thresholds failed")
        if ranksh[g] != rank0 + rank1:
            raise RankAmbiguityError(
                f"d1 stacked on d0^T has rank {ranksh[g]}, expected "
                f"rank d0 + rank d1 = {rank0 + rank1}")
        if k == 3 and h0 not in (0, 1, 3):
            raise RankAmbiguityError(
                f"h0 = {h0} is impossible for full coefficients; "
                f"tolerance {tol:.1e} is misplaced")
        out[i] = CohomologySummary(of, g)


def cohomology(rep: Representation, tol: float = DEFAULT_TOL) -> CohomologySummary:
    """Full-coefficient twisted cohomology summary, kept per tol and
    read-only, as the classification, the tangent dimension and the
    volume of one representation share it."""
    return kept(rep, ("cohomology", tol),
                lambda: system_cohomology(full_system(rep), tol))


def restrict_coefficients(rep: Representation, part: str,
                          tol: float = DEFAULT_TOL) -> CohomologySummary:
    """Cohomology with coefficients in the stabilizer line or its
    orthocomplement (reducible nontrivial representations only)."""
    return system_cohomology(restricted_system(rep, part, tol), tol)
