import numpy as np
import pytest

from su2strata import su2
from su2strata.cohomology import build_d0, cohomology
from su2strata.errors import DomainError
from su2strata.presentations import (Representation, Word, evaluate_images,
                                     free_group)
from su2strata.strata import (handlebody_representation,
                              sample_surface_representation)
from su2strata.symplectic import goldman_form, gram_matrix, trace_derivative

import oracles


def h1_basis(rep):
    s = cohomology(rep)
    n = rep.presentation.num_generators
    return [s.basis_h1[:, c].reshape(n, 3) for c in range(s.h1)]


def random_cocycle(rep, rng):
    """Cocycle = harmonic class + coboundary, in random combination."""
    basis = h1_basis(rep)
    n = rep.presentation.num_generators
    u = sum(rng.normal() * b for b in basis)
    u = u + (build_d0(rep) @ rng.normal(size=3)).reshape(n, 3)
    return u


def test_antisymmetry_and_bilinearity():
    rep = sample_surface_representation(2, seed=0)
    rng = np.random.default_rng(1)
    u, v, w = (random_cocycle(rep, rng) for _ in range(3))
    a = goldman_form(rep, u, v)
    assert abs(a + goldman_form(rep, v, u)) < 1e-9
    assert abs(goldman_form(rep, u, 2.5 * v + w)
               - 2.5 * a - goldman_form(rep, u, w)) < 1e-9


def test_coboundaries_pair_to_zero():
    rep = sample_surface_representation(2, seed=2)
    rng = np.random.default_rng(3)
    n = rep.presentation.num_generators
    for _ in range(10):
        cob = (build_d0(rep) @ rng.normal(size=3)).reshape(n, 3)
        u = random_cocycle(rep, rng)
        assert abs(goldman_form(rep, cob, u)) < 1e-8
        assert abs(goldman_form(rep, u, cob)) < 1e-8


def test_gauge_invariance():
    rep = sample_surface_representation(2, seed=4)
    rng = np.random.default_rng(5)
    n = rep.presentation.num_generators
    u, v = random_cocycle(rep, rng), random_cocycle(rep, rng)
    shift = (build_d0(rep) @ rng.normal(size=3)).reshape(n, 3)
    assert abs(goldman_form(rep, u + shift, v)
               - goldman_form(rep, u, v)) < 1e-8


def test_rank_is_6g_minus_6():
    for g, seed in ((2, 0), (3, 1)):
        rep = sample_surface_representation(g, seed=seed)
        G = gram_matrix(rep, h1_basis(rep))
        sv = np.linalg.svd(G, compute_uv=False)
        assert G.shape == (6 * g - 6, 6 * g - 6)
        assert int(np.sum(sv > 1e-8 * sv[0])) == 6 * g - 6


def test_goldman_form_needs_surface_kind():
    rep = Representation.trivial(free_group(2))
    u = np.zeros((2, 3))
    with pytest.raises(DomainError):
        goldman_form(rep, u, u)


def test_handlebody_tangents_are_isotropic():
    rng = np.random.default_rng(6)
    g = 2
    free_rep = Representation(
        free_group(g), np.array([su2.random_element(rng) for _ in range(g)]))
    hrep = handlebody_representation(free_rep)
    pulled = []
    for j in range(g):
        for c in range(3):
            u = np.zeros((2 * g, 3))
            u[j, c] = 1.0
            pulled.append(u)
    GH = gram_matrix(hrep, pulled)
    assert np.abs(GH).max() < 1e-7


def test_trace_derivative_matches_finite_differences():
    rep = sample_surface_representation(2, seed=7)
    rng = np.random.default_rng(8)
    words = [Word((1, 2)), Word((3, -1, 4)), Word((2, 2, -3, 1))]
    for w in words:
        u = random_cocycle(rep, rng)

        def flowed_trace(t):
            imgs = np.array([su2.multiply(su2.exp(t * u[j]), rep.images[j])
                             for j in range(len(u))])
            return su2.trace(evaluate_images(imgs, w))

        fd = oracles.central_difference(flowed_trace, 1e-5)
        exact = trace_derivative(rep, w, u)
        assert abs(exact - fd) < 1e-6 * max(1.0, abs(exact))


def test_gram_matrix_shape_and_skewness():
    rep = sample_surface_representation(2, seed=10)
    basis = h1_basis(rep)
    G = gram_matrix(rep, basis)
    assert G.shape == (6, 6)
    assert np.abs(G + G.T).max() < 1e-9
