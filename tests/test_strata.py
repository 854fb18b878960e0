import numpy as np
import pytest

from su2strata import presentations, strata, su2
from su2strata.errors import (BoundaryAmbiguousError, DomainError,
                              SamplingError)
from su2strata.presentations import (Representation, Word, evaluate_images,
                                     free_group, parse_word)
from su2strata.strata import (classify_stratum, handlebody_representation,
                              sample_stratum, sample_surface_representation,
                              stratum_tangent_dim)

AXIS = np.array([0.0, 0.0, 1.0])


def test_classify_trivial():
    label = classify_stratum(Representation.trivial(free_group(2)))
    assert (label.i, label.stabilizer_dim, label.central_flag) == (0, 3, False)


def test_classify_central_nontrivial():
    images = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]])
    label = classify_stratum(Representation(free_group(2), images))
    assert (label.i, label.central_flag) == (0, True)


def test_classify_ij_irreducible():
    images = np.array([[0.0, 1.0, 0, 0], [0.0, 0, 1.0, 0]])
    label = classify_stratum(Representation(free_group(2), images))
    assert (label.i, label.stabilizer_dim) == (3, 0)


def test_classify_common_axis():
    images = np.array([su2.exp(0.4 * AXIS), su2.exp(1.9 * AXIS)])
    label = classify_stratum(Representation(free_group(2), images))
    assert (label.i, label.stabilizer_dim) == (1, 1)


def test_boundary_ambiguous_raises():
    images = np.array([su2.exp(2e-8 * AXIS),
                       su2.exp(2e-8 * np.array([0.0, 1.0, 0.0]))])
    with pytest.raises(BoundaryAmbiguousError):
        classify_stratum(Representation(free_group(2), images), tol=1e-8)


def test_haar_census_is_all_irreducible():
    rng = np.random.default_rng(12)
    pres = free_group(2)
    for _ in range(300):
        images = np.array([su2.random_element(rng) for _ in range(2)])
        assert classify_stratum(Representation(pres, images)).i == 3


def test_tangent_dims_per_stratum():
    for g in (2, 3):
        assert stratum_tangent_dim(sample_stratum(g, 0, seed=1)) == 0
        assert stratum_tangent_dim(sample_stratum(g, 1, seed=1)) == g
        assert stratum_tangent_dim(sample_stratum(g, 3, seed=1)) == 3 * g - 3


def test_tangent_dim_needs_free_presentation():
    rep = sample_surface_representation(2, seed=0)
    with pytest.raises(DomainError):
        stratum_tangent_dim(rep)


def test_samplers_are_deterministic():
    for i in (0, 1, 3):
        a = sample_stratum(2, i, seed=5)
        b = sample_stratum(2, i, seed=5)
        assert np.array_equal(a.images, b.images)
    a = sample_surface_representation(2, seed=5)
    b = sample_surface_representation(2, seed=5)
    assert np.array_equal(a.images, b.images)
    c = sample_stratum(2, 3, seed=6)
    assert not np.array_equal(a.images, c.images)


def test_sampler_rejects_bad_labels(monkeypatch):
    with pytest.raises(DomainError):
        sample_stratum(2, 2, seed=0)

    def ambiguous(*args):
        raise BoundaryAmbiguousError("every draw is near the boundary")

    monkeypatch.setattr(strata, "classify_stratum", ambiguous)
    with pytest.raises(SamplingError, match="no stratum-3 sample in 100"):
        sample_stratum(2, 3, seed=0)


def test_polarization_values():
    pres = free_group(2)
    curves = [parse_word(t, pres.generators) for t in ("x1", "x2", "x1 x2")]
    rep = Representation.trivial(pres)
    traces = [su2.trace(evaluate_images(rep.images, w)) for w in curves]
    assert traces == [2.0, 2.0, 2.0]
    rep = Representation(pres, np.array([[-1.0, 0, 0, 0], [1.0, 0, 0, 0]]))
    traces = [su2.trace(evaluate_images(rep.images, w)) for w in curves]
    assert traces == [-2.0, 2.0, -2.0]


def test_polarization_is_conjugation_invariant():
    rep = sample_stratum(2, 3, seed=9)
    q = su2.random_element(np.random.default_rng(2))
    curves = [Word((1, 2)), Word((1, -2, 1))]
    twin = su2.conjugate(rep.images, q)
    for w in curves:
        assert abs(su2.trace(evaluate_images(rep.images, w))
                   - su2.trace(evaluate_images(twin, w))) < 1e-10


def test_handlebody_embedding():
    free_rep = sample_stratum(2, 3, seed=3)
    srep = handlebody_representation(free_rep)
    assert srep.presentation.kind == "surface"
    assert srep.relator_residual < 1e-12
    # every b-word has trivial holonomy: polarization value 2
    pres = srep.presentation
    curves = [parse_word("b1", pres.generators),
              parse_word("b2 b1", pres.generators),
              parse_word("a1 b1 A1", pres.generators)]
    for w in curves:
        assert abs(su2.trace(evaluate_images(srep.images, w)) - 2.0) < 1e-12


def test_surface_sampler_lands_on_relator_set():
    for seed in range(3):
        rep = sample_surface_representation(2, seed=seed)
        assert rep.relator_residual <= 1e-12
        assert classify_stratum(rep).i == 3


def test_surface_sampler_folds_the_polished_relator_once(monkeypatch):
    # the sampler keeps the representation polish ends on, so no fold
    # follows the last one polish makes
    folded, at_return = [], []
    fold, polish = presentations._fold, strata.polish

    def counting(images, word, cup):
        folded.append(word)
        return fold(images, word, cup)

    def recording(*args, **kwargs):
        rep = polish(*args, **kwargs)
        at_return.append(len(folded))
        return rep

    monkeypatch.setattr(presentations, "_fold", counting)
    monkeypatch.setattr(strata, "polish", recording)
    rep = sample_surface_representation(3, seed=4)
    assert at_return and len(folded) == at_return[-1]
    assert rep.relator_residual <= 1e-12
