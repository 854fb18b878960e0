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
produced; no orientation of determinant lines is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cohomology import (DEFAULT_TOL, build_d0, cohomology,
                         restrict_coefficients, restricted_system, system_d0)
from .errors import DomainError, ExactnessError
from .presentations import Representation
from .strata import classify_stratum

_CONVENTION = "odd-position maps to numerator"


@dataclass(frozen=True)
class TorsionValue:
    value: float
    log_value: float
    convention_note: str = _CONVENTION


@dataclass(frozen=True)
class HalfDensityValue:
    value: float


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


def _singular_values(f: np.ndarray) -> np.ndarray:
    if f.size == 0:
        return np.zeros(0)
    return np.linalg.svd(f, compute_uv=False)


def exactness_residual(seq: MetricSequence) -> float:
    """Largest norm among consecutive composites."""
    res = 0.0
    for a, b in zip(seq.maps, seq.maps[1:]):
        if a.size and b.size:
            res = max(res, float(np.linalg.norm(b @ a)))
    return res


def sequence_torsion(seq: MetricSequence,
                     tol: float = DEFAULT_TOL) -> TorsionValue:
    """Torsion of an exact metrized sequence.

    Raises ExactnessError when composites fail to vanish or when the
    ranks do not satisfy rank f_{j-1} + rank f_j = dim V_j.
    """
    res = exactness_residual(seq)
    if res > tol:
        raise ExactnessError(
            f"consecutive composite norm {res:.3e} exceeds {tol:.1e}")
    ranks = []
    svs = []
    for f in seq.maps:
        sv = _singular_values(f)
        sv = sv[sv > tol]
        svs.append(sv)
        ranks.append(len(sv))
    bounded = [0] + ranks + [0]
    for i, d in enumerate(seq.dims):
        if bounded[i] + bounded[i + 1] != d:
            raise ExactnessError(
                f"rank defect at space {i+1}: {bounded[i]} + {bounded[i+1]} "
                f"!= dim {d}")
    log_t = 0.0
    for j, sv in enumerate(svs, start=1):
        sign = 1.0 if j % 2 == 1 else -1.0
        log_t += sign * float(np.sum(np.log(sv)))
    return TorsionValue(value=float(np.exp(log_t)), log_value=log_t)


def stratum_volume(rep: Representation, tol: float = DEFAULT_TOL):
    """Torsion volume scalar of the stratum through a free-group tuple,
    with its half-density.

    Stratum 3 uses 0 -> g -> g^n -> H^1 -> 0 with d0 first, stratum 1
    splits into independent stabilizer-line and orthocomplement factors
    whose product is cross-checked against the unsplit value, stratum 0
    is the constant 1.  Conjugation-invariant.
    """
    pres = rep.presentation
    if pres.kind != "free":
        raise DomainError("stratum volumes are defined over free groups")
    label = classify_stratum(rep, tol)
    n = pres.num_generators

    if label.i == 0:
        return TorsionValue(1.0, 0.0), HalfDensityValue(1.0)

    summary = cohomology(rep, tol)
    sv = np.array(summary.singular_values["d0"])
    direct = float(np.sum(np.log(sv[sv > tol])))

    if label.i == 3:
        seq = MetricSequence((3, 3 * n, summary.h1),
                             (build_d0(rep), summary.basis_h1.T))
        t = sequence_torsion(seq, tol)
        if abs(direct - t.log_value) > 1e-9:
            raise DomainError(
                f"volume cross-check failed: {direct} vs {t.log_value}")
        return t, HalfDensityValue(float(np.exp(0.5 * t.log_value)))

    # stratum 1: stabilizer-line factor is a chain of partial isometries
    # (d0 vanishes along the line), so its torsion is 1; the complement
    # factor carries all nonunit singular values.
    line_sum = restrict_coefficients(rep, "stabilizer", tol)
    line_seq = MetricSequence((n * 1, line_sum.h1),
                              (line_sum.basis_h1.T,))
    line_t = sequence_torsion(line_seq, tol)

    comp_sum = restrict_coefficients(rep, "complement", tol)
    if comp_sum.h0 != 0:
        raise DomainError("complement coefficients should have h0 = 0")
    d0c = system_d0(restricted_system(rep, "complement", tol))
    comp_seq = MetricSequence((2, 2 * n, comp_sum.h1),
                              (d0c, comp_sum.basis_h1.T))
    comp_t = sequence_torsion(comp_seq, tol)

    log_total = line_t.log_value + comp_t.log_value
    if abs(direct - log_total) > 1e-9:
        raise DomainError(
            f"split volume cross-check failed: {direct} vs {log_total}")
    return (TorsionValue(float(np.exp(log_total)), log_total),
            HalfDensityValue(float(np.exp(0.5 * log_total))))


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
    them.
    """
    r1 = np.atleast_2d(np.asarray(r1, dtype=float))
    r2 = np.atleast_2d(np.asarray(r2, dtype=float))
    rho1 = np.atleast_2d(np.asarray(rho1, dtype=float))
    rho2 = np.atleast_2d(np.asarray(rho2, dtype=float))
    omega_gram = np.atleast_2d(np.asarray(omega_gram, dtype=float))
    nN = r1.shape[1]
    a, b = r1.shape[0], r2.shape[0]
    s = rho1.shape[0]
    if r2.shape[1] != nN or rho1.shape[1] != a or rho2.shape[1] != b \
            or omega_gram.shape != (s, s) or rho2.shape[0] != s:
        raise DomainError("restriction map shapes are inconsistent")
    j1 = rho1 @ r1
    j2 = rho2 @ r2
    if j1.size and float(np.linalg.norm(j1 - j2)) > 100 * tol:
        raise ExactnessError(
            "the two handlebody routes give different composite "
            f"restrictions (gap {np.linalg.norm(j1 - j2):.3e})")
    alpha = np.vstack([r1, r2])
    beta = np.hstack([rho1, -rho2])
    gamma = (omega_gram @ j1).T
    seq = MetricSequence((nN, a + b, s, nN), (alpha, beta, gamma))
    return sequence_torsion(seq, tol)
