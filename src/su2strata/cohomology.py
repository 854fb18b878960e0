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

There is one analysis, `_stack_cohomologies`, of one shape group's
basis, Ad and Fox-row stacks: d0 with vectors, d1 and the harmonic
stack with singular values only.  The first row to fail a check raises
its error; there are no partial results.  `_system_cohomologies` is its
object wrapper: it checks every system's relator residual, then groups
and stacks the systems; a moduli chart passes the stacks it folded and
keeps nothing.  Each summary is a read-only view of its group's record:
a basis is a slice of a VT stack, sign-fixed whole on the first basis
read (the harmonic one is decomposed then, once per group, so a
`LinAlgError` there propagates from `basis_h1`), `_bases` reads many
rows' as one slice, and the other fields are formed when read.
`system_cohomology`, `system_d0` and `system_d1` are batches of one.
`cohomology` keeps a representation's full-coefficient summary in its
memo per tol; a restricted system is made and analysed on each call.
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
    return _differentials(*_stacks([sys]))[0][0]


def system_d1(sys: CoefficientSystem) -> np.ndarray:
    """(mk x nk) relator differential: the full Fox Jacobian in the
    system's basis, `_differentials`' batch of one.  On an Ad-invariant
    subspace that is the Fox Jacobian of the restricted action."""
    return _differentials(*_stacks([sys]))[1][0]


def _stacks(systems) -> tuple:
    """The basis, Ad and Fox-row stacks of systems of one shape."""
    return (np.array([sys.basis for sys in systems]),
            np.array([sys.rep.adjoints for sys in systems]),
            np.array([fox_jacobian_at(sys.rep) for sys in systems]))


def _differentials(B: np.ndarray, A: np.ndarray, J: np.ndarray) -> tuple:
    """The stacked d0 (N, nk, k) and d1 (N, mk, nk) of one shape's
    contiguous basis (N, 3, k), Ad (N, n, 3, 3) and Fox-row (N, 3m, 3n)
    stacks (a strided operand takes another matmul route, whose last
    bits differ).  The empty-d1 forks here and in the analysis stay:
    without them a free-census op took 20–40 µs more, of 170."""
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
    basis_h0 = property(lambda s: s._of.bases(0, s._row).T)
    basis_h1 = property(lambda s: s._of.bases(1, s._row).T)
    # "d0"/"d1" -> tuple of floats, and the near-threshold warnings
    singular_values = property(lambda s: s._of.formed(0, s._row))
    warnings = property(lambda s: s._of.formed(1, s._row))


def _smallest_kept_d0(summary: CohomologySummary) -> float:
    """The smallest d0 singular value a summary's rank keeps."""
    return summary._of.S0[summary._row, summary._of.ranks0[summary._row] - 1]


def _bases(summaries, i: int) -> np.ndarray:
    """The H0 (i = 0) or harmonic H1 (i = 1) bases, as rows, of
    summaries of one analysis and one rank: one `_Analysis.bases` slice."""
    return summaries[0]._of.bases(i, [s._row for s in summaries])


class _Analysis:
    """One shape group's stacked analysis, which its rows' summaries
    read: k, nk, tol, S0 and S1 with their rank lists, d0's VT stack
    and the read-only harmonic stack H.  A degree's first basis read
    signs its VT stack whole by `_signed`; H's is made then, by one SVD
    for the group.  Row values formed on first read are kept."""

    def __init__(self, k, nk, tol, S0, S1, VT0, H):
        self.k, self.nk, self.tol, self.S0, self.S1 = k, nk, tol, S0, S1
        self.ranks0 = (S0 > tol).sum(axis=1).tolist()
        self.ranks1 = (S1 > tol).sum(axis=1).tolist()
        self.VT, self.signed, self.rows = [VT0, H], [False, False], {}

    def bases(self, i: int, rows) -> np.ndarray:
        """The right singular vectors past the rank of row g (a view) or
        of a list of rows of one rank (one slice): H0's (i = 0) or the
        harmonic H1's (i = 1) basis as rows."""
        if not self.signed[i]:
            VT = np.linalg.svd(self.VT[1])[2] if i else self.VT[0]
            self.VT[i], self.signed[i] = _signed(VT), True
        g = rows[0] if isinstance(rows, list) else rows
        return self.VT[i][rows, self.ranks0[g] + (self.ranks1[g] if i else 0):]

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
    """The summary of each system: every relator residual is checked in
    order, then each shape group's stacks are analysed in order of
    first appearance; the first row to fail raises the error its lone
    analysis raises.  A stacked matmul or SVD gives each matrix what its
    own gives, so a summary does not depend on its batch."""
    _check_residuals([sys.rep.relator_residual for sys in systems], tol)
    out: list = [None] * len(systems)
    shapes: dict = {}
    for i, sys in enumerate(systems):
        shapes.setdefault((sys.k, sys.n, len(sys.rep.presentation.relators)),
                          []).append(i)
    for idx in shapes.values():
        for i, summary in zip(idx, _stack_cohomologies(
                *_stacks([systems[i] for i in idx]), tol)):
            out[i] = summary
    return out


def _check_residuals(residuals, tol: float) -> None:
    """Raise at the first relator residual too large for cohomology."""
    for r in residuals:
        if r > 10 * tol:
            raise ResidualError(f"relator residual {r:.3e} too large for "
                                f"cohomology at tolerance {tol:.1e}")


def _full_cohomologies(A, J, residuals, tol: float) -> list:
    """`_system_cohomologies` of the full systems of one presentation's
    reps, from the Ad and Fox-row stacks and residuals that
    `presentations._representations` returns with its gated images."""
    _check_residuals(residuals, tol)
    return _stack_cohomologies(np.tile(_FULL_BASIS, (len(A), 1, 1)), A, J,
                               tol)


def _stack_cohomologies(B: np.ndarray, A: np.ndarray, J: np.ndarray,
                        tol: float) -> list:
    """The summaries of one shape's stacks (`_differentials`): d1 d0 is
    checked over every row, then the ranks; the first failure raises."""
    D0, D1 = _differentials(B, A, J)
    comps = np.sqrt(((D1 @ D0) ** 2).sum(axis=(1, 2))) if D1.size else ()
    for comp in comps:
        if comp > 100 * tol:
            raise ResidualError(
                f"d1 d0 composite norm {comp:.3e}; complex is broken")
    return _shape_cohomologies(D0, D1, tol)


def _signed(VT: np.ndarray) -> np.ndarray:
    """A read-only stack of right singular vectors, each row negated
    where its largest-magnitude entry (the first, on ties) is negative."""
    R = VT.reshape(-1, VT.shape[-1])
    top = R[np.arange(len(R)), np.abs(R).argmax(axis=1)]
    return _read_only(np.where(top[:, None] < 0, -R, R)).reshape(VT.shape)


def _shape_cohomologies(D0: np.ndarray, D1: np.ndarray, tol: float) -> list:
    """The summaries of the stacked d0 (N, nk, k) and d1 (N, mk, nk) of
    one shape: d0's SVD with vectors, and d1's and the harmonic stack
    H's (d1 on d0ᵀ) values only.  d1 and d0ᵀ have orthogonal row
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
    for rank0, rank1, rankh in zip(of.ranks0, of.ranks1, ranksh):
        z1, h0 = nk - rank1, k - rank0
        if z1 < rank0:
            raise RankAmbiguityError(
                f"negative h1 = {z1} - {rank0}; rank thresholds failed")
        if rankh != rank0 + rank1:
            raise RankAmbiguityError(
                f"d1 stacked on d0^T has rank {rankh}, expected "
                f"rank d0 + rank d1 = {rank0 + rank1}")
        if k == 3 and h0 not in (0, 1, 3):
            raise RankAmbiguityError(
                f"h0 = {h0} is impossible for full coefficients; "
                f"tolerance {tol:.1e} is misplaced")
    return [CohomologySummary(of, g) for g in range(len(D0))]


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
