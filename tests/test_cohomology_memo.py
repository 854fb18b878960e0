"""One full-coefficient cohomology summary per representation and tol.

`cohomology` keeps its summary on its representation, so the stratum,
tangent dimension, volume and stabilizer axis of one point share one
analysis; a restricted system is analysed on each call.  These tests
pin how many analyses a point costs, that the summaries cannot be
written to, that errors are never kept, and that a kept summary is
exactly what a fresh computation gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su2strata.cohomology as coh
from su2strata import su2
from su2strata.errors import ResidualError
from su2strata.presentations import Representation, cyclic_group, free_group
from su2strata.strata import classify_stratum, stratum_tangent_dim
from su2strata.torsion import stratum_volume


def common_axis_images(rng, g):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return np.array([su2.exp(t * axis)
                     for t in rng.uniform(0.2, np.pi - 0.2, size=g)])


def haar_images(rng, g):
    return np.array([su2.random_element(rng) for _ in range(g)])


@pytest.fixture
def computed(monkeypatch):
    """Coefficient dims of every system actually analysed, in order."""
    dims = []
    compute = coh._system_cohomologies

    def counting(systems, tol):
        dims.extend(sys.k for sys in systems)
        return compute(systems, tol)

    monkeypatch.setattr(coh, "_system_cohomologies", counting)
    return dims


@pytest.mark.parametrize("images, stratum, expected", [
    (common_axis_images, 1, [3]),           # tangent dim read from the label
    (haar_images, 3, [3]),
])
def test_one_analysis_per_coefficient_system(computed, images, stratum,
                                             expected):
    rng = np.random.default_rng(11)
    rep = Representation(free_group(3), images(rng, 3))
    assert classify_stratum(rep).i == stratum
    stratum_tangent_dim(rep)
    stratum_volume(rep)
    assert computed == expected


def test_summaries_are_read_only():
    rng = np.random.default_rng(5)
    rep = Representation(free_group(3), common_axis_images(rng, 3))
    for s in (coh.cohomology(rep),
              coh.restrict_coefficients(rep, "stabilizer"),
              coh.restrict_coefficients(rep, "complement")):
        for basis in (s.basis_h0, s.basis_h1):
            with pytest.raises(ValueError):
                basis[...] = 0.0
        assert all(isinstance(v, tuple) for v in s.singular_values.values())
        with pytest.raises(TypeError):
            s.singular_values["d0"] = ()
    with pytest.raises(ValueError):
        coh.stabilizer_axis(rep)[0] = 1.0


def test_errors_are_raised_again_not_kept(computed):
    # a 5th root of unity pushed off the relator: residual about 0.3
    bad = su2.exp(2 * np.pi / 5 * np.array([1.0, 0.0, 0.0]) + 0.05)
    rep = Representation(cyclic_group(5), [bad], tol=np.inf)
    for _ in range(2):
        with pytest.raises(ResidualError):
            coh.cohomology(rep)
    assert computed == [3, 3]
    assert not any(isinstance(v, coh.CohomologySummary)
                   for v in rep._kept.values())


def test_each_tolerance_is_its_own_summary(computed):
    rep = Representation(free_group(2), haar_images(
        np.random.default_rng(2), 2))
    fine, coarse = coh.cohomology(rep, 1e-8), coh.cohomology(rep, 1e-6)
    assert fine is not coarse and computed == [3, 3]
    assert coh.cohomology(rep, 1e-8) is fine
    assert coh.cohomology(rep, 1e-6) is coarse
    assert computed == [3, 3]


def assert_same_summary(a, b):
    assert (a.h0, a.h1, a.z1, a.coefficient_dim) == \
        (b.h0, b.h1, b.z1, b.coefficient_dim)
    assert a.warnings == b.warnings
    assert dict(a.singular_values) == dict(b.singular_values)
    assert np.array_equal(a.basis_h0, b.basis_h0)
    assert np.array_equal(a.basis_h1, b.basis_h1)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.booleans())
def test_kept_summary_equals_a_fresh_computation(seed, g, common_axis):
    rng = np.random.default_rng(seed)
    images = (common_axis_images if common_axis else haar_images)(rng, g)
    pres = free_group(g)
    kept = Representation(pres, images)
    stratum = classify_stratum(kept).i
    stratum_tangent_dim(kept)
    stratum_volume(kept)
    parts = ("stabilizer",) if stratum == 1 else ()
    fresh = Representation(pres, images)
    assert_same_summary(coh.cohomology(kept), coh.cohomology(fresh))
    for part in parts:
        assert_same_summary(coh.restrict_coefficients(kept, part),
                            coh.restrict_coefficients(fresh, part))
    # only the full summary is kept; a restricted one is analysed again
    assert sum(isinstance(v, coh.CohomologySummary)
               for v in kept._kept.values()) == 1
