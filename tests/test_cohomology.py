import numpy as np
import pytest

from su2strata import su2
from su2strata.cohomology import (DEFAULT_TOL, CoefficientSystem, build_d0,
                                  cocycle_value, cohomology, full_system,
                                  pullback_cocycle,
                                  restrict_coefficients, restricted_system,
                                  stabilizer_axis, system_cohomology,
                                  system_d0)
from su2strata.errors import DomainError
from su2strata.presentations import (Representation, Word,
                                     circle_times_surface_group, cyclic_group,
                                     evaluate_images, fox_jacobian_at,
                                     free_group, generator, surface_group)
from su2strata.strata import sample_surface_representation

AXIS = np.array([1.0, 0.0, 0.0])


def axis_rep(pres, angles, axis=AXIS):
    return Representation(
        pres, np.array([su2.exp(t * axis) for t in angles]))


def test_ij_pair_is_irreducible():
    pres = free_group(2)
    i = np.array([0.0, 1.0, 0.0, 0.0])
    j = np.array([0.0, 0.0, 1.0, 0.0])
    s = cohomology(Representation(pres, np.array([i, j])))
    assert (s.h0, s.h1) == (0, 3)


def test_trivial_rep_dimensions():
    for g in (1, 2, 3):
        s = cohomology(Representation.trivial(free_group(g)))
        assert (s.h0, s.h1) == (3, 3 * g)


def test_free_group_dimension_law():
    rng = np.random.default_rng(0)
    for g in (2, 3, 4):
        pres = free_group(g)
        for _ in range(25):
            images = np.array([su2.random_element(rng) for _ in range(g)])
            s = cohomology(Representation(pres, images))
            assert s.h1 - s.h0 == 3 * g - 3
            assert 3 - s.h0 + s.h1 == 3 * g  # Euler count


def test_reducible_free_tuple():
    s = cohomology(axis_rep(free_group(2), [0.5, 1.1]))
    assert (s.h0, s.h1, s.z1) == (1, 4, 6)


def test_cyclic_torus_point():
    s = cohomology(axis_rep(cyclic_group(5), [2 * np.pi / 5]))
    assert (s.h0, s.h1) == (1, 0)
    t = restrict_coefficients(axis_rep(cyclic_group(5), [2 * np.pi / 5]),
                              "stabilizer")
    assert (t.h0, t.h1) == (1, 0)


def test_surface_irreducible_h1():
    rep = sample_surface_representation(2, seed=0)
    s = cohomology(rep)
    assert (s.h0, s.h1) == (0, 6)


def test_d1_composed_with_d0_vanishes():
    rep = sample_surface_representation(2, seed=1)
    assert np.abs(fox_jacobian_at(rep) @ build_d0(rep)).max() < 1e-9


def test_dimensions_are_conjugation_invariant():
    rep = sample_surface_representation(2, seed=2)
    q = su2.random_element(np.random.default_rng(4))
    twin = Representation(rep.presentation, su2.conjugate(rep.images, q),
                          tol=np.inf)
    s1, s2 = cohomology(rep), cohomology(twin)
    assert (s1.h0, s1.h1, s1.z1) == (s2.h0, s2.h1, s2.z1)


def test_circle_times_surface_dimensions():
    """Central circle holonomy with a co-axial nontrivial surface part:
    the cocycle space has dimension 6g-1 while h1 is 6g-3; the
    stabilizer line gives 2g+1 at every nontrivial reducible point."""
    for g in (2, 3):
        pres = circle_times_surface_group(g)
        angles = [0.3 + 0.2 * j for j in range(2 * g)]
        imgs = [su2.exp(t * AXIS) for t in angles]
        imgs.append(np.array([-1.0, 0.0, 0.0, 0.0]))
        rep = Representation(pres, np.array(imgs))
        s = cohomology(rep)
        assert s.z1 == 6 * g - 1
        assert s.h1 == 6 * g - 3
        assert restrict_coefficients(rep, "stabilizer").h1 == 2 * g + 1
        # generic circle holonomy collapses the full h1 to 2g+1
        imgs[-1] = su2.exp(0.77 * AXIS)
        rep = Representation(pres, np.array(imgs))
        assert cohomology(rep).h1 == 2 * g + 1
        assert restrict_coefficients(rep, "stabilizer").h1 == 2 * g + 1


def test_harmonic_basis_members_are_cocycles():
    rep = sample_surface_representation(2, seed=3)
    s = cohomology(rep)
    n = rep.presentation.num_generators
    for c in range(s.h1):
        u = s.basis_h1[:, c].reshape(n, 3)
        assert np.linalg.norm(fox_jacobian_at(rep) @ np.ravel(u)) \
            < DEFAULT_TOL
        # harmonic gauge: orthogonal to every coboundary
        assert np.abs(build_d0(rep).T @ s.basis_h1[:, c]).max() < 1e-9


def test_cocycle_rule_on_words():
    rep = sample_surface_representation(2, seed=4)
    sys = full_system(rep)
    s = cohomology(rep)
    u = s.basis_h1[:, 0].reshape(-1, 3)
    w1 = Word((1, -3, 2))
    w2 = Word((4, 2, -1))
    lhs = cocycle_value(sys, u, w1 * w2)
    rhs = cocycle_value(sys, u, w1) + \
        su2.ad(evaluate_images(rep.images, w1)) @ cocycle_value(sys, u, w2)
    assert np.allclose(lhs, rhs, atol=1e-10)
    # u(w^-1) = -Ad(w^-1) u(w)
    winv = w1.inverse()
    assert np.allclose(
        cocycle_value(sys, u, winv),
        -su2.ad(evaluate_images(rep.images, winv))
        @ cocycle_value(sys, u, w1), atol=1e-10)


def test_restricted_system_requires_single_axis():
    rep = sample_surface_representation(2, seed=5)  # irreducible, h0 = 0
    with pytest.raises(DomainError):
        restrict_coefficients(rep, "stabilizer")


def test_stabilizer_axis_matches_construction():
    rep = axis_rep(free_group(2), [0.5, 1.3])
    ax = stabilizer_axis(rep)
    assert np.allclose(np.abs(ax), AXIS, atol=1e-10)


def test_restricted_parts_split_the_full_complex():
    rep = axis_rep(free_group(3), [0.4, 0.9, 2.0])
    line = restrict_coefficients(rep, "stabilizer")
    comp = restrict_coefficients(rep, "complement")
    full = cohomology(rep)
    assert line.coefficient_dim == 1 and comp.coefficient_dim == 2
    assert line.h0 == 1 and comp.h0 == 0
    assert line.h1 + comp.h1 == full.h1
    with pytest.raises(DomainError):
        restricted_system(rep, "sideways")


def test_pullback_along_word_map():
    """Pulling back along a1 -> x1, b1 -> 1, etc. lands in cocycles of
    the surface group and matches direct word evaluation."""
    g = 2
    free_pres = free_group(g)
    rng = np.random.default_rng(8)
    free_rep = Representation(
        free_pres, np.array([su2.random_element(rng) for _ in range(g)]))
    surf = surface_group(g)
    images = np.vstack([free_rep.images,
                        np.tile(su2.identity(), (g, 1))])
    surf_rep = Representation(surf, images)
    word_map = [generator(j) for j in range(g)] + [Word()] * g

    src = full_system(free_rep)
    dst = full_system(surf_rep)
    s = cohomology(free_rep)
    u = s.basis_h1[:, 0].reshape(g, 3)
    pb = pullback_cocycle(dst, src, word_map, u)
    assert np.linalg.norm(fox_jacobian_at(surf_rep) @ np.ravel(pb)) \
        < DEFAULT_TOL
    assert np.allclose(pb[:g], u, atol=1e-12)
    assert np.allclose(pb[g:], 0.0, atol=1e-12)


def test_threshold_warnings_near_rank_gap():
    # an almost-trivial generator puts singular values near the cutoff
    rep = axis_rep(free_group(1), [2e-8])
    s = system_cohomology(full_system(rep), tol=1e-8)
    assert s.warnings  # flagged, not silently resolved


def test_coefficient_system_shapes():
    rep = axis_rep(free_group(2), [0.5, 1.1])
    sys = CoefficientSystem(rep, AXIS.reshape(3, 1))
    assert sys.k == 1 and sys.n == 2
    d0 = system_d0(sys)   # Ad fixes the stabilizer line
    assert d0.shape == (2, 1) and np.abs(d0).max() < 1e-12


def test_presentation_complex_of_three_torus():
    from su2strata.invariants import t3_presentation
    pres = t3_presentation()
    rep = axis_rep(pres, [0.7, 1.9, 0.3])
    line = restrict_coefficients(rep, "stabilizer")
    assert line.h1 == 3  # rank of Z^3 against the fixed line
