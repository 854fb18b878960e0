import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2strata import su2
from su2strata.errors import PresentationError, ResidualError
from su2strata.presentations import (EMPTY, Presentation, Representation,
                                     Word, commutator, custom_group,
                                     cyclic_group, evaluate_images,
                                     format_word, fox_derivative,
                                     fox_jacobian_at, free_group, generator,
                                     parse_word, polish_images,
                                     presentation_from_json,
                                     presentation_to_json, relator_residual,
                                     representation_from_json,
                                     representation_to_json, surface_group)

import oracles

letters = st.integers(min_value=-4, max_value=4).filter(lambda s: s != 0)


@given(st.lists(letters, max_size=12))
def test_words_are_freely_reduced(ls):
    w = Word(tuple(ls))
    red = w.letters
    assert all(red[i] != -red[i + 1] for i in range(len(red) - 1))
    assert Word(red).letters == red  # reduction is idempotent


@given(st.lists(letters, max_size=8), st.lists(letters, max_size=8))
def test_word_multiplication_cancels_at_the_seam(a, b):
    w = Word(tuple(a)) * Word(tuple(b))
    assert w.letters == Word(tuple(a) + tuple(b)).letters


@given(st.lists(letters, max_size=8))
def test_inverse_law(ls):
    w = Word(tuple(ls))
    assert (w * w.inverse()) == EMPTY
    assert (w.inverse() * w) == EMPTY


def test_powers():
    a = generator(0)
    assert (a ** 3).letters == (1, 1, 1)
    assert (a ** -2).letters == (-1, -1)
    assert (a ** 0) == EMPTY
    aba = Word((1, 2, -1))          # cancels across copies
    assert (aba ** 3).letters == (1, 2, 2, 2, -1)
    assert (aba ** -2).letters == (1, -2, -2, -1)


@given(st.lists(letters, max_size=5), st.lists(letters, max_size=5),
       st.integers(-6, 6))
def test_power_is_the_iterated_product(u, v, n):
    # u v u^-1 cancels across copies whenever u is not empty
    w = Word(tuple(u)) * Word(tuple(v)) * Word(tuple(u)).inverse()
    base = w if n >= 0 else w.inverse()
    want = EMPTY
    for _ in range(abs(n)):
        want = want * base
    assert w ** n == want


def test_commutator_letters():
    assert commutator(generator(0), generator(1)).letters == (1, 2, -1, -2)


def test_parse_format_roundtrip():
    pres = surface_group(2)
    for text in ("a1 b1 A1 B1", "a2", "B2 a1 a1"):
        w = parse_word(text, pres.generators)
        assert format_word(w, pres.generators) == text
    assert parse_word("", pres.generators) == EMPTY
    with pytest.raises(PresentationError):
        parse_word("q7", pres.generators)


def test_generator_name_rules():
    with pytest.raises(PresentationError):
        custom_group(("a", "A"), ())   # case-insensitively distinct
    with pytest.raises(PresentationError):
        custom_group(("X",), ())       # needs a lowercase letter


def test_builtin_presentations():
    f = free_group(3)
    assert f.generators == ("x1", "x2", "x3") and f.relators == ()
    s = surface_group(2)
    assert s.relators[0].letters == (1, 3, -1, -3, 2, 4, -2, -4)
    c = cyclic_group(5)
    assert c.relators[0].letters == (1,) * 5
    from su2strata.presentations import circle_times_surface_group
    cs = circle_times_surface_group(2)
    assert cs.generators[-1] == "c"
    assert len(cs.relators) == 1 + 4


@given(st.lists(letters, max_size=10), st.integers(0, 3),
       st.integers(0, 10))
def test_evaluation_invariant_under_insertion(ls, gen, pos):
    """Inserting a cancelling pair does not change the evaluation."""
    rng = np.random.default_rng(42)
    images = np.array([su2.random_element(rng) for _ in range(4)])
    w1 = Word(tuple(ls))
    pos = min(pos, len(ls))
    padded = tuple(ls[:pos]) + (gen + 1, -(gen + 1)) + tuple(ls[pos:])
    w2 = Word(padded)
    assert np.allclose(evaluate_images(images, w1),
                       evaluate_images(images, w2), atol=1e-12)


def test_evaluation_of_inverse():
    rng = np.random.default_rng(1)
    images = np.array([su2.random_element(rng) for _ in range(2)])
    w = Word((1, -2, 1))
    v = evaluate_images(images, w)
    vi = evaluate_images(images, w.inverse())
    assert np.allclose(su2.multiply(v, vi), su2.identity(), atol=1e-12)


# -- Fox calculus ------------------------------------------------------

def test_fox_derivative_hand_cases():
    a, b = generator(0), generator(1)
    # d/da (a) = +1 with empty prefix
    d = fox_derivative(a, 0)
    assert d.terms == ((1, EMPTY),)
    # d/da (a^-1) = -(a^-1)
    d = fox_derivative(a.inverse(), 0)
    assert d.terms == ((-1, a.inverse()),)
    # d/da (aba^-1b^-1) = 1 - aba^-1
    d = fox_derivative(commutator(a, b), 0)
    assert d.terms == ((1, EMPTY), (-1, Word((1, 2, -1))))
    # d/db (aba^-1b^-1) = a - aba^-1b^-1
    d = fox_derivative(commutator(a, b), 1)
    assert d.terms == ((1, a), (-1, Word((1, 2, -1, -2))))


def test_fox_derivative_of_power():
    a = generator(0)
    d = fox_derivative(a ** 3, 0)
    assert d.terms == ((1, EMPTY), (1, a), (1, a * a))


def test_fox_product_rule():
    # d(uv) = du + u dv on a random pair of words
    u = Word((1, -2, 3))
    v = Word((2, 2, -1))
    for g in range(3):
        du = fox_derivative(u, g).terms
        dv = fox_derivative(v, g).terms
        expected = du + tuple((s, u * p) for s, p in dv)
        assert fox_derivative(u * v, g).terms == expected


def fd_relator_jacobian(pres, images, t):
    """Finite-difference Jacobian of the stacked relator logs."""
    n = pres.num_generators
    m = len(pres.relators)
    J = np.zeros((3 * m, 3 * n))
    for j in range(n):
        for c in range(3):
            for sign in (1, -1):
                bumped = images.copy()
                step = np.zeros(3)
                step[c] = sign * t
                bumped[j] = su2.multiply(su2.exp(step), images[j])
                rep = Representation(pres, bumped, tol=np.inf)
                F = np.concatenate([su2.log(rep.evaluate(r))
                                    for r in pres.relators])
                J[:, 3 * j + c] += sign * F / (2 * t)
    return J


def test_fox_jacobian_matches_finite_differences():
    pres = surface_group(2)
    rng = np.random.default_rng(11)
    images = polish_images(
        pres, np.array([su2.random_element(rng) for _ in range(4)]))
    rep = Representation(pres, images)
    J = fox_jacobian_at(rep)
    errs = []
    for t in (1e-3, 1e-4):
        errs.append(np.abs(J - fd_relator_jacobian(pres, images, t)).max())
    assert errs[0] < 5e-6
    # quadratic decay of the central-difference error
    assert errs[1] < errs[0] / 20


def test_fox_jacobian_annihilates_d0_at_solutions():
    # the relator is conjugation-invariant, so coboundaries are flat
    from su2strata.cohomology import build_d0
    rep = _surface_rep(seed=2)
    J = fox_jacobian_at(rep)
    assert np.abs(J @ build_d0(rep)).max() < 1e-9


def _surface_rep(seed):
    pres = surface_group(2)
    rng = np.random.default_rng(seed)
    images = polish_images(
        pres, np.array([su2.random_element(rng) for _ in range(4)]))
    return Representation(pres, images)


# -- representations ---------------------------------------------------

def test_representation_validates_norms_and_relators():
    pres = cyclic_group(3)
    with pytest.raises(PresentationError):
        Representation(pres, np.array([[2.0, 0, 0, 0]]))
    bad = su2.exp(0.5 * np.array([1.0, 0, 0]))  # 0.5 not a cube root angle
    with pytest.raises(ResidualError):
        Representation(pres, np.array([bad]))
    good = su2.exp((2 * np.pi / 3) * np.array([1.0, 0, 0]))
    rep = Representation(pres, np.array([good]))
    assert rep.relator_residual < 1e-12


def test_trivial_representation():
    rep = Representation.trivial(surface_group(3))
    assert rep.relator_residual == 0.0
    assert np.allclose(rep.images, np.tile([1, 0, 0, 0], (6, 1)))


def test_conjugated_representation():
    rep = _surface_rep(seed=3)
    q = su2.random_element(np.random.default_rng(9))
    conj = rep.conjugated(q)
    w = Word((1, 3, -2))
    assert np.allclose(conj.evaluate(w),
                       su2.conjugate(rep.evaluate(w), q), atol=1e-10)


def test_representation_owns_read_only_images():
    pres = cyclic_group(5)
    imgs = np.array([su2.exp(2.0 * np.pi / 5 * np.array([1.0, 0.0, 0.0]))])
    rep = Representation(pres, imgs)
    kept = rep.images.copy()
    imgs[0] = [0.0, 1.0, 0.0, 0.0]      # a^5 != 1 for this image
    assert np.array_equal(rep.images, kept)
    assert rep.relator_residual == relator_residual(pres, rep.images) < 1e-12
    with pytest.raises(ValueError):
        rep.images[0] = [0.0, 1.0, 0.0, 0.0]
    J = fox_jacobian_at(rep)
    with pytest.raises(ValueError):
        J[0, 0] = 1.0
    assert fox_jacobian_at(rep) is J


def test_long_word_stays_unit_and_matches_matrix_product():
    rng = np.random.default_rng(7)
    images = np.array([su2.random_element(rng) for _ in range(3)])
    letters = [1]
    while len(letters) < 10_000:    # no letter next to its inverse
        s = int(rng.choice([1, 2, 3, -1, -2, -3]))
        if s != -letters[-1]:
            letters.append(s)
    word = Word(letters)
    assert len(word) == 10_000
    got = evaluate_images(images, word)
    m = np.eye(2)
    for s in word:
        f = oracles.su2_matrix(images[abs(s) - 1])
        m = m @ (f if s > 0 else f.conj().T)
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12
    assert np.abs(got - oracles.quat_from_matrix(m)).max() < 1e-9


def test_polish_recovers_residual():
    pres = surface_group(2)
    rep = _surface_rep(seed=4)
    rng = np.random.default_rng(5)
    noisy = np.array([su2.multiply(su2.exp(1e-4 * su2.random_algebra(rng)),
                                   img) for img in rep.images])
    assert relator_residual(pres, noisy) > 1e-6
    fixed = polish_images(pres, noisy)
    assert relator_residual(pres, fixed) <= 1e-12


def test_polish_stalls_on_impossible_data():
    # cyclic(2) wants a^2 = 1; an angle far from any solution still
    # converges (the set is reachable), so use max_iter starvation
    pres = cyclic_group(2)
    bad = su2.exp(0.7 * np.array([1.0, 0, 0]))
    with pytest.raises(ResidualError):
        polish_images(pres, np.array([bad]), max_iter=0)


# -- JSON --------------------------------------------------------------

def test_presentation_json_roundtrip():
    for pres in (free_group(2), surface_group(2), cyclic_group(5),
                 custom_group(("u", "v"), ("u v U V",))):
        data = presentation_to_json(pres)
        back = presentation_from_json(data)
        assert back == pres


def test_presentation_json_fail_closed():
    data = presentation_to_json(free_group(2))
    data["extra"] = 1
    with pytest.raises(PresentationError):
        presentation_from_json(data)
    with pytest.raises(PresentationError):
        presentation_from_json({"generators": ["a"], "kind": "nope",
                                "relators": []})
    # named kinds must carry their canonical relators
    with pytest.raises(PresentationError):
        presentation_from_json({"generators": ["a"], "kind": "cyclic",
                                "p": 3, "relators": ["a a"]})


def test_representation_json_roundtrip():
    rep = _surface_rep(seed=6)
    data = representation_to_json(rep)
    back = representation_from_json(data, rep.presentation)
    assert np.allclose(back.images, rep.images)
    data["zz"] = [1, 0, 0, 0]
    with pytest.raises(PresentationError):
        representation_from_json(data, rep.presentation)


def test_representation_json_missing_image():
    rep = _surface_rep(seed=7)
    data = representation_to_json(rep)
    del data["a1"]
    with pytest.raises(PresentationError):
        representation_from_json(data, rep.presentation)
