"""The harmonic H^1 basis against the projector route of tests/oracles.py.

`cohomology` takes harmonic 1-cochains as ker d1 ∩ ker d0ᵀ, the null
space of d1 stacked on d0ᵀ.  `oracles.harmonic_basis` builds the same
space the long way, as the Gram-Schmidt complement of im d0 inside
ker d1.  Each case checks that the kept basis is orthonormal, that it
spans the oracle's subspace (projector gap), and that h0, z1 and h1
match `oracles.fox_cohomology_dims`.

The harmonic stack's rank check takes its singular values only, and its
vectors are decomposed once per shape group, on the first basis read.
A spy on `np.linalg.svd` pins that an unread analysis takes no vectors
and a read takes them once; a seeded set pins that the values-only
rank is the full-SVD rank and rank d0 + rank d1, far from the threshold.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import su2strata.cohomology as coh
from su2strata.errors import RankAmbiguityError
from su2strata.invariants import enumerate_moduli
from su2strata.strata import (classify_stratum, sample_stratum,
                              sample_surface_representation)
from su2strata.torsion import stratum_volume
from test_acceptance import _coaxial_circle_surface_rep

TOL = coh.DEFAULT_TOL


def assert_harmonic_matches_oracle(rep):
    summary = coh.cohomology(rep, TOL)
    relators = [r.letters for r in rep.presentation.relators]
    B = summary.basis_h1
    assert np.linalg.norm(B.T @ B - np.eye(summary.h1)) < 1e-12
    P = oracles.harmonic_basis(relators, rep.images, TOL)
    assert np.linalg.norm(B @ B.T - P @ P.T) < 1e-12
    assert (summary.h0, summary.z1, summary.h1) == \
        oracles.fox_cohomology_dims(relators, rep.images, TOL)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([0, 1, 3]))
@example(seed=142, g=7, i=3)    # nearly dependent ker d1 vectors
def test_free_tuples_in_every_stratum(seed, g, i):
    assume(g > 1 or i != 3)     # one image has an axis: no stratum 3 at g = 1
    assert_harmonic_matches_oracle(sample_stratum(g, i, seed))


@pytest.mark.parametrize("g", [2, 3, 4])
def test_polished_surface_reps(g):
    assert_harmonic_matches_oracle(sample_surface_representation(g, seed=g))


@pytest.mark.parametrize("example, kwargs", [
    ("lens", {"p": 7, "q": 2}),
    ("lens", {"p": 12, "q": 5}),
    ("t3", {"samples": 3}),
])
def test_chart_points(example, kwargs):
    for pt in enumerate_moduli(example, **kwargs):
        assert_harmonic_matches_oracle(pt.rep)


@pytest.mark.parametrize("g", [2, 3])
def test_circle_times_surface_reps(g):
    assert_harmonic_matches_oracle(_coaxial_circle_surface_rep(g))


def test_a_d1_that_does_not_vanish_on_im_d0_is_refused():
    # d1 = d0ᵀ: each has rank 3, but stacked they still have rank 3, not 6
    rng = np.random.default_rng(0)
    d0 = np.linalg.qr(rng.normal(size=(6, 3)))[0]
    with pytest.raises(RankAmbiguityError) as refused:
        coh._shape_cohomologies(d0[None], d0.T[None], TOL)
    assert "rank 3" in str(refused.value) and "= 6" in str(refused.value)


@pytest.fixture
def harmonic(monkeypatch):
    """Each shape group's (d0, d1, harmonic stack), in order, the stack
    built as `test_cohomology_rows.eager` builds it, and each SVD with
    vectors taken of an array equal to a stack, bit for bit."""
    stacks, vector_svds = [], []
    shape_cohomologies, svd = coh._shape_cohomologies, np.linalg.svd

    def recording(D0, D1, tol):
        stacks.append((D0.copy(), D1.copy(),
                       np.concatenate([D1, D0.mT], axis=1)))
        return shape_cohomologies(D0, D1, tol)

    def spy(a, *args, **kwargs):
        if kwargs.get("compute_uv", True) and any(
                a.shape == H.shape and a.tobytes() == H.tobytes()
                for *_, H in stacks):
            vector_svds.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(coh, "_shape_cohomologies", recording)
    monkeypatch.setattr(np.linalg, "svd", spy)
    return stacks, vector_svds


def test_an_unread_analysis_takes_no_harmonic_vectors(harmonic):
    stacks, vector_svds = harmonic
    assert len(enumerate_moduli("t3", samples=4)) == 8 + 3 * 16
    for i in (0, 1, 3):
        rep = sample_stratum(4, i, seed=i)
        assert classify_stratum(rep).i == i
        stratum_volume(rep)
    assert stacks and vector_svds == []


def test_a_basis_read_decomposes_its_shape_group_once(harmonic):
    stacks, vector_svds = harmonic
    systems = [coh.full_system(sample_surface_representation(2, seed))
               for seed in (0, 1)]
    stacks.clear()
    summaries = coh._system_cohomologies(systems, TOL)
    ((*_, H),) = stacks
    assert vector_svds == []
    first = [s.basis_h1 for s in summaries]
    assert len(vector_svds) == 1
    again = [s.basis_h1 for s in summaries]
    assert len(vector_svds) == 1
    VT = coh._signed(np.linalg.svd(H)[2])
    for g, (s, *reads) in enumerate(zip(summaries, first, again)):
        rank = (s.coefficient_dim - s.h0) + (H.shape[2] - s.z1)
        want = VT[g, rank:].T
        for B in reads:
            assert B.shape == want.shape and B.tobytes() == want.tobytes()


@pytest.mark.parametrize("analyse", [
    pytest.param(lambda: [sample_stratum(g, i, s) for g in range(2, 9)
                          for i in (0, 1, 3) for s in range(3)], id="strata"),
    pytest.param(lambda: [sample_surface_representation(g, g)
                          for g in range(2, 6)], id="surfaces"),
    pytest.param(lambda: enumerate_moduli("lens", p=31, q=7), id="lens-31-7"),
    pytest.param(lambda: enumerate_moduli("lens", p=52, q=3), id="lens-52-3"),
    pytest.param(lambda: enumerate_moduli("t3", samples=4), id="t3-4")])
def test_the_values_only_harmonic_rank_is_the_full_and_the_summed_rank(
        harmonic, analyse):
    # over every stack the case analyses: the route change moves no
    # verdict, and no harmonic singular value, by either route, sits in
    # the warning band around TOL
    stacks, _ = harmonic
    analyse()
    assert stacks
    for D0, D1, H in stacks:
        values, full = (np.linalg.svd(H, compute_uv=False),
                        np.linalg.svd(H)[1])
        summed = (np.linalg.svd(D0, compute_uv=False) > TOL).sum(axis=1)
        if D1.size:
            summed += (np.linalg.svd(D1, compute_uv=False) > TOL).sum(axis=1)
        assert ((values > TOL).sum(axis=1) == summed).all()
        assert ((full > TOL).sum(axis=1) == summed).all()
        for sv in (values, full):
            assert not ((TOL / 10 < sv) & (sv < 10 * TOL)).any()
