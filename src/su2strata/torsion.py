"""Determinant-line torsion of metrized exact sequences, and the volume
scalars built from it.

A MetricSequence is 0 -> V_1 -> ... -> V_n -> 0 with each V_i carrying
its standard inner product and maps given as matrices.  Its torsion is
the alternating product over maps of the products of nonzero singular
values (each map restricted to the orthocomplement of its kernel):
maps at odd positions (1-indexed, left to right) contribute to the
numerator, even positions to the denominator.  Scaling map j by c
therefore scales the torsion by c^(rank_j) for odd j and c^(-rank_j)
for even j.  Values accumulate in log space.  Only absolute values are
produced; no orientation of determinant lines is chosen.  Sequences
of one shape are stacked (`_sequence_torsions`, and the Mayer-Vietoris
assembly `_mayer_vietoris_torsions` above it), each map's SVD taken
once over the stack, and the first row that fails a check raises;
`sequence_torsion` and `mayer_vietoris_torsion` are their batches of
one.

A stratum's volume is the torsion of 0 -> g -> g^n -> H^1 -> 0 with d0
first and H^1 in its orthonormal harmonic basis, so it is the product
of d0's nonzero singular values: the d0 spectrum the representation's
cohomology summary already keeps.  Its half-density is exp(log / 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import DEFAULT_TOL, cohomology
from .errors import DomainError, ExactnessError
from .presentations import Representation
from .strata import classify_stratum


@dataclass(frozen=True)
class TorsionValue:
    value: float
    log_value: float


@dataclass(frozen=True)
class MetricSequence:
    """Dims and maps of 0 -> V_1 -> ... -> V_n -> 0; maps[j] sends
    V_{j+1} to V_{j+2} as a (dims[j+1], dims[j]) matrix."""

    dims: tuple
    maps: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        maps = tuple(np.asarray(f, dtype=float) for f in self.maps)
        if len(maps) != len(dims) - 1:
            raise DomainError(
                f"{len(dims)} spaces need {len(dims)-1} maps, got {len(maps)}")
        for j, f in enumerate(maps):
            if f.shape != (dims[j + 1], dims[j]):
                raise DomainError(
                    f"map {j+1} has shape {f.shape}, expected "
                    f"({dims[j+1]}, {dims[j]})")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "maps", maps)


def sequence_torsion(seq: MetricSequence,
                     tol: float = DEFAULT_TOL) -> TorsionValue:
    """Torsion of an exact metrized sequence: `_sequence_torsions`'
    batch of one.

    Raises ExactnessError when composites fail to vanish or when the
    ranks do not satisfy rank f_{j-1} + rank f_j = dim V_j.
    """
    return _sequence_torsions(seq.dims, [f[None] for f in seq.maps], tol)[0]


def _sequence_torsions(dims, maps, tol: float) -> list:
    """The torsion of each of N sequences of one shape, maps[j] their
    stacked (N, dims[j+1], dims[j]) j-th maps; the first inexact row
    raises the ExactnessError its lone call raises.  Each map's
    singular values come from one stacked SVD, which gives each matrix
    what its own gives, and its logs are summed in one pass."""
    n = len(maps[0]) if maps else 1     # a lone space has no maps
    res = np.zeros(n)
    for a, b in zip(maps, maps[1:]):
        res = np.fmax(res, np.sqrt(((b @ a) ** 2).sum(axis=(1, 2))))
    svs = [np.linalg.svd(f, compute_uv=False) for f in maps]
    ranks = np.array([(sv > tol).sum(axis=1) for sv in svs], dtype=int)
    for r, rank in zip(res.tolist(), ranks.reshape(-1, n).T.tolist()):
        if r > tol:
            raise ExactnessError(f"consecutive composite norm {r:.3e} "
                                 f"exceeds {tol:.1e}")
        b = [0, *rank, 0]
        for j, d in enumerate(dims):
            if b[j] + b[j + 1] != d:
                raise ExactnessError(f"rank defect at space {j+1}: {b[j]} "
                                     f"+ {b[j+1]} != dim {d}")
    log_t, rank = np.zeros(n), 0
    for j, sv in enumerate(svs):
        rank = dims[j] - rank       # what exactness leaves map j
        part = np.log(sv[:, :rank]).sum(axis=1)
        log_t = log_t + part if j % 2 == 0 else log_t - part
    return [TorsionValue(value=v, log_value=lv)
            for v, lv in zip(np.exp(log_t).tolist(), log_t.tolist())]


def stratum_volume(rep: Representation,
                   tol: float = DEFAULT_TOL) -> TorsionValue:
    """Torsion volume of the stratum through a free-group tuple: 1 at
    stratum 0, else the product of d0's nonzero singular values (at
    stratum 1 the complement factor; d0 vanishes on the stabilizer
    line, so that factor is 1): its first 3 - h0 values, the rank the
    analysis decided.  Conjugation-invariant.

    The log is checked against `_log_volume_law`, a law of the images
    alone.  It may differ by 1e-9 plus what d0's rounding explains
    (entries off by eps move log sigma by about eps / sigma, more than
    1e-9 near the boundary); a larger gap raises DomainError.
    """
    pres = rep.presentation
    if pres.kind != "free":
        raise DomainError("stratum volumes are defined over free groups")
    label = classify_stratum(rep, tol)
    if label.i == 0:
        return TorsionValue(1.0, 0.0)
    kept = np.array(cohomology(rep, tol).singular_values["d0"][
        :3 - label.stabilizer_dim])
    log_t = float(np.sum(np.log(kept)))
    law = _log_volume_law(rep.images, label.stabilizer_dim)
    slack = 32 * pres.num_generators * np.finfo(float).eps * np.sum(1 / kept)
    if abs(log_t - law) > 1e-9 + slack:
        raise DomainError(f"volume law failed: log {log_t} vs {law}")
    return TorsionValue(float(np.exp(log_t)), log_t)


def _log_volume_law(images: np.ndarray, h0: int) -> float:
    """log of d0's volume from the images' vector parts V (n x 3).

    2I - Ad(q) - Ad(q)^T = 4(|v|^2 I - v v^T), so d0^T d0 = 4(tr M I - M)
    with M = V^T V, and d0's singular values are 2 sqrt(s_a^2 + s_b^2)
    over pairs of V's singular values s1 >= s2 >= s3 (zero-padded); the
    volume is the product of the largest 3 - h0 of them.
    """
    s = np.zeros(3)
    sv = np.linalg.svd(images[:, 1:], compute_uv=False)
    s[:len(sv)] = sv
    # pairs {1,2}, {1,3}, {2,3}, in descending order
    pairs = 2 * np.hypot(s[[0, 0, 1]], s[[1, 2, 2]])
    return float(np.sum(np.log(pairs[:3 - h0])))


def mayer_vietoris_torsion(r1: np.ndarray, r2: np.ndarray,
                           rho1: np.ndarray, rho2: np.ndarray,
                           omega_gram: np.ndarray,
                           tol: float = DEFAULT_TOL) -> TorsionValue:
    """Torsion of the Heegaard Mayer-Vietoris sequence

        0 -> H1(N) -> H1(H1) + H1(H2) -> H1(Sigma) -> H1(N)* -> 0

    with restriction maps r_i: H1(N) -> H1(H_i) and
    rho_i: H1(H_i) -> H1(Sigma) given in orthonormal bases, and the
    final arrow realized by the symplectic pairing x -> omega(x, j(.))
    against the composite j = rho1 r1.  Exactness of the assembled
    sequence is the stratified clean-intersection condition; failures
    raise ExactnessError with the residual.

    The unit metric volumes of the four spaces are the half-density
    normalization, so the returned scalar is already measured against
    them.  A lone call is `_mayer_vietoris_torsions`' batch of one.
    """
    maps = [np.atleast_2d(np.asarray(m, dtype=float))
            for m in (r1, r2, rho1, rho2, omega_gram)]
    r1, r2, rho1, rho2, omega_gram = maps
    nN, a, b, s = r1.shape[1], r1.shape[0], r2.shape[0], rho1.shape[0]
    if r2.shape[1] != nN or rho1.shape[1] != a or rho2.shape[1] != b \
            or omega_gram.shape != (s, s) or rho2.shape[0] != s:
        raise DomainError("restriction map shapes are inconsistent")
    return _mayer_vietoris_torsions(*(m[None] for m in maps), tol)[0]


def _mayer_vietoris_torsions(r1, r2, rho1, rho2, omega, tol: float) -> list:
    """`mayer_vietoris_torsion` of each row of (N, ...) stacks of one
    shape: one stacked product per map and one `_sequence_torsions`.
    The routes of every row are compared first, and the first row that
    fails raises the error its lone call raises."""
    j1, j2 = rho1 @ r1, rho2 @ r2
    for gap in np.sqrt(((j1 - j2) ** 2).sum(axis=(1, 2))).tolist():
        if gap > 100 * tol:
            raise ExactnessError("the two handlebody routes give different "
                                 f"composite restrictions (gap {gap:.3e})")
    nN, s = r1.shape[2], rho1.shape[1]
    return _sequence_torsions(
        (nN, r1.shape[1] + r2.shape[1], s, nN),
        (np.concatenate([r1, r2], axis=1),
         np.concatenate([rho1, -rho2], axis=2), (omega @ j1).mT), tol)
