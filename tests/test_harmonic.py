"""The harmonic H^1 basis against the projector route of tests/oracles.py.

`cohomology` takes harmonic 1-cochains as ker d1 ∩ ker d0ᵀ, the null
space of d1 stacked on d0ᵀ.  `oracles.harmonic_basis` builds the same
space the long way, as the Gram-Schmidt complement of im d0 inside
ker d1.  Each case checks that the kept basis is orthonormal, that it
spans the oracle's subspace (projector gap), and that h0, z1 and h1
match `oracles.fox_cohomology_dims`.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import su2strata.cohomology as coh
from su2strata.errors import RankAmbiguityError
from su2strata.invariants import enumerate_moduli
from su2strata.strata import sample_stratum, sample_surface_representation
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
    out = [None]
    coh._shape_cohomologies(out, [0], d0[None], d0.T[None], TOL)
    assert isinstance(out[0], RankAmbiguityError)
    assert "rank 3" in str(out[0]) and "= 6" in str(out[0])
