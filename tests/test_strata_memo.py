"""One stratum analysis per representation and tolerance.

`classify_stratum` keeps its label on the representation, beside the
full-coefficient summary; `restricted_system` checks its basis on every
call, and `system_d0` reads one kept Ad stack for every coefficient
basis.  These tests pin how often each piece is computed, that what is
kept or shared cannot be written to, that errors are never kept, that a
kept label is what a fresh classification gives, and that the array
axis test agrees with a per-image oracle.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su2strata.cohomology as coh
from su2strata import strata, su2
from su2strata.errors import BoundaryAmbiguousError, StratumConflictError
from su2strata.presentations import Representation, free_group
from su2strata.strata import classify_stratum, stratum_tangent_dim
from su2strata.torsion import stratum_volume

import oracles


def common_axis_images(rng, g):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return np.array([su2.exp(t * axis)
                     for t in rng.uniform(0.2, np.pi - 0.2, size=g)])


def haar_images(rng, g):
    return np.array([su2.random_element(rng) for _ in range(g)])


def central_images(rng, g):
    images = np.zeros((g, 4))
    images[:, 0] = rng.choice([1.0, -1.0], size=g)
    return images


def near_tol_images(rng, g, tol):
    """Images whose vector parts, or whose axes' cross products with
    the first axis, sit a few percent either side of tol."""
    base = np.array([0.0, 0.0, 1.0])
    images = []
    for _ in range(g):
        off = tol * rng.choice([0.9, 1.1, 0.5, 2.0])
        if rng.random() < 0.5:          # nearly central
            images.append([np.sqrt(1.0 - off * off), 0.0, off, 0.0])
        else:                           # nearly on the first axis
            axis = np.array([np.sin(off), 0.0, np.cos(off)])
            images.append(su2.exp(rng.uniform(0.3, 1.2) * axis))
    images[0] = su2.exp(0.7 * base)
    return np.array(images)


@pytest.fixture
def computed(monkeypatch):
    """What was actually computed, in order: "label" per stratum label
    (a row of a stacked axis test), the part per restricted system."""
    log = []
    axis, restricted = strata._axis_stabilizer_dims, coh.restricted_system

    def counting_label(images, tol):
        log.extend(["label"] * len(images))
        return axis(images, tol)

    def counting_restricted(rep, part, tol=coh.DEFAULT_TOL):
        log.append(part)
        return restricted(rep, part, tol)

    monkeypatch.setattr(strata, "_axis_stabilizer_dims", counting_label)
    monkeypatch.setattr(coh, "restricted_system", counting_restricted)
    return log


@pytest.mark.parametrize("images, stratum, expected", [
    (common_axis_images, 1, ["label"]),    # tangent dim read from the label
    (haar_images, 3, ["label"]),
    (central_images, 0, ["label"]),
])
def test_one_label_and_one_system_per_part(computed, monkeypatch, images,
                                           stratum, expected):
    ads = []
    ad = su2.ad
    monkeypatch.setattr(su2, "ad", lambda q: ads.append(None) or ad(q))
    rng = np.random.default_rng(11)
    rep = Representation(free_group(4), images(rng, 4))
    assert classify_stratum(rep).i == stratum
    stratum_tangent_dim(rep)
    stratum_volume(rep)
    classify_stratum(rep)
    assert computed == expected
    assert len(ads) == 4            # one Ad stack, one su2.ad per image


@pytest.mark.parametrize("images, error", [
    # rotations by 4e-8: d0 singular values within 10x of tol
    (np.array([su2.exp(2e-8 * np.array([0.0, 0.0, 1.0])),
               su2.exp(2e-8 * np.array([0.0, 1.0, 0.0]))]),
     BoundaryAmbiguousError),
    # axes 3e-8 apart: d0 sees one common axis, the cross product none
    (np.array([su2.exp(0.1 * np.array([np.sin(3e-8), 0.0, np.cos(3e-8)])),
               su2.exp(0.1 * np.array([0.0, 0.0, 1.0]))]),
     StratumConflictError),
])
def test_errors_are_raised_and_computed_every_call(computed, images, error):
    rep = Representation(free_group(2), images)
    for _ in range(3):
        with pytest.raises(error):
            classify_stratum(rep, 1e-8)
    assert computed == ["label"] * 3
    assert not any(isinstance(v, strata.StratumLabel)
                   for v in rep._kept.values())


def test_each_tolerance_is_its_own_label(computed):
    rep = Representation(free_group(3), common_axis_images(
        np.random.default_rng(3), 3))
    fine, coarse = classify_stratum(rep, 1e-8), classify_stratum(rep, 1e-6)
    assert fine is not coarse and computed == ["label", "label"]
    assert classify_stratum(rep, 1e-8) is fine
    assert classify_stratum(rep, 1e-6) is coarse
    # a restricted basis is made again on each call, from the kept
    # summary's h0 basis
    for tol in (1e-8, 1e-6):
        a, b = (coh.restricted_system(rep, "complement", tol).basis
                for _ in range(2))
        assert a is not b and np.array_equal(a, b)
    assert computed == ["label", "label"] + ["complement"] * 4


def test_ad_stack_and_kept_bases_are_read_only():
    # a restricted basis is shared with its summary's h0 basis or made
    # by an SVD, and read-only either way
    rng = np.random.default_rng(5)
    rep = Representation(free_group(3), common_axis_images(rng, 3))
    ads = rep.adjoints
    assert ads is rep.adjoints and ads.shape == (3, 3, 3)
    assert ads.tobytes() == np.array(
        [su2.ad(x) for x in rep.images]).tobytes()
    with pytest.raises(ValueError):
        ads[0, 0, 0] = 1.0
    for part in ("stabilizer", "complement"):
        sys = coh.restricted_system(rep, part)
        with pytest.raises(ValueError):
            sys.basis[0, 0] = 1.0


def test_d0_reads_the_ad_stack_for_every_basis():
    rep = Representation(free_group(3), common_axis_images(
        np.random.default_rng(8), 3))
    for sys in (coh.full_system(rep),
                coh.restricted_system(rep, "stabilizer"),
                coh.restricted_system(rep, "complement")):
        b = sys.basis
        want = np.vstack([b.T @ su2.ad(x) @ b - np.eye(sys.k)
                          for x in rep.images])
        assert np.allclose(coh.system_d0(sys), want, atol=1e-15)


TUPLES = {"haar": haar_images, "common-axis": common_axis_images,
          "central": central_images}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6),
       st.sampled_from([*TUPLES]))
def test_kept_label_equals_a_fresh_one(seed, g, kind):
    images = TUPLES[kind](np.random.default_rng(seed), g)
    pres = free_group(g)
    kept = Representation(pres, images)
    label = classify_stratum(kept)
    stratum_tangent_dim(kept)
    stratum_volume(kept)
    assert classify_stratum(kept) is label
    assert label == classify_stratum(Representation(pres, images))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6),
       st.sampled_from([*TUPLES, "near-tol"]), st.sampled_from([1e-8, 1e-6]))
def test_array_axis_test_matches_per_image_oracle(seed, g, kind, tol):
    rng = np.random.default_rng(seed)
    if kind == "near-tol":
        images = near_tol_images(rng, g, tol)
    else:
        images = TUPLES[kind](rng, g)
    assert strata._axis_stabilizer_dims(images[None], tol) == \
        [oracles.axis_stabilizer_dim(images, tol)]


def test_near_tol_tuples_fall_on_both_sides():
    rng = np.random.default_rng(0)
    assert {oracles.axis_stabilizer_dim(near_tol_images(rng, 3, 1e-8), 1e-8)
            for _ in range(60)} == {0, 1}


def test_nothing_kept_refers_back_to_its_representation():
    # a kept object holding its representation would make a reference
    # cycle, which only the cyclic collector frees
    gc.collect()
    gc.disable()
    try:
        rep = Representation(free_group(3), common_axis_images(
            np.random.default_rng(4), 3))
        stratum_tangent_dim(rep)
        stratum_volume(rep)
        coh.restrict_coefficients(rep, "stabilizer")
        # the Ad stack, the full summary and the label
        assert len(rep._kept) == 3
        del rep
        assert gc.collect() == 0
    finally:
        gc.enable()
