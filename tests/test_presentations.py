import math
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from su2strata import presentations, su2
from su2strata.errors import (AntipodeError, PresentationError,
                              ResidualError)
from su2strata.invariants import lens_heegaard
from su2strata.presentations import (Presentation, Representation,
                                     Word, circle_times_surface_group,
                                     commutator, cyclic_group,
                                     evaluate_images, fox_fold,
                                     fox_jacobian_at, free_group,
                                     generator, kept,
                                     parse_word,
                                     polish_images,
                                     presentation_from_json,
                                     relator_residual,
                                     representation_from_json,
                                     surface_group)

import oracles

letters = st.integers(min_value=-4, max_value=4).filter(lambda s: s != 0)


@given(st.lists(letters, max_size=12))
def test_words_are_freely_reduced(ls):
    w = Word(tuple(ls))
    red = w.letters
    assert all(red[i] != -red[i + 1] for i in range(len(red) - 1))
    assert Word(red).letters == red  # reduction is idempotent


@given(st.lists(st.tuples(letters, st.integers(1, 4)), max_size=8))
def test_runs_are_the_grouped_letters(pairs):
    w = Word([s for s, k in pairs for _ in range(k)])
    assert w.runs == tuple((s, len(list(g))) for s, g in groupby(w.letters))
    assert all(abs(s) != abs(t) for (s, _), (t, _) in zip(w.runs, w.runs[1:]))


@pytest.mark.parametrize("p", [1, 2, 1009])
def test_a_power_is_one_run_by_every_route(p):
    a = generator(0)
    routes = [a ** p, Word((1,) * p), parse_word(" ".join(["a"] * p), ("a",)),
              (a ** -p).inverse(), cyclic_group(p).relators[0],
              Word((1, 2)) * Word((-2,) + (1,) * (p - 1))]
    for w in routes:
        assert w.runs == ((1, p),) and len(w) == p
        assert w == routes[0] and hash(w) == hash(routes[0])


@given(st.lists(letters, max_size=8), st.lists(letters, max_size=8))
def test_word_multiplication_cancels_at_the_seam(a, b):
    w = Word(tuple(a)) * Word(tuple(b))
    assert w.letters == Word(tuple(a) + tuple(b)).letters


@given(st.lists(letters, max_size=8))
def test_inverse_law(ls):
    w = Word(tuple(ls))
    assert (w * w.inverse()) == Word()
    assert (w.inverse() * w) == Word()


def test_powers():
    a = generator(0)
    assert (a ** 3).letters == (1, 1, 1)
    assert (a ** -2).letters == (-1, -1)
    assert (a ** 0) == Word()
    aba = Word((1, 2, -1))          # cancels across copies
    assert (aba ** 3).letters == (1, 2, 2, 2, -1)
    assert (aba ** -2).letters == (1, -2, -2, -1)


@given(st.lists(letters, max_size=5), st.lists(letters, max_size=5),
       st.integers(-6, 6))
def test_power_is_the_iterated_product(u, v, n):
    # u v u^-1 cancels across copies whenever u is not empty
    w = Word(tuple(u)) * Word(tuple(v)) * Word(tuple(u)).inverse()
    base = w if n >= 0 else w.inverse()
    want = Word()
    for _ in range(abs(n)):
        want = want * base
    assert w ** n == want


def test_commutator_letters():
    assert commutator(generator(0), generator(1)).letters == (1, 2, -1, -2)


def test_parse_word_reads_letters():
    pres = surface_group(2)
    for text, letters in (("a1 b1 A1 B1", (1, 3, -1, -3)), ("a2", (2,)),
                          ("B2 a1 a1", (-4, 1, 1))):
        assert parse_word(text, pres.generators).letters == letters
    assert parse_word("", pres.generators) == Word()
    with pytest.raises(PresentationError):
        parse_word("q7", pres.generators)
    # a mixed-case name's inverse is its name.upper(), and only that
    names = ("aB", "c")
    mixed = Presentation(names, (parse_word("aB c AB", names),))
    assert mixed.relators[0].letters == (1, 2, -1)
    assert presentation_from_json(
        {"generators": ["aB", "c"], "relators": ["aB c AB"]}) == mixed
    with pytest.raises(PresentationError):
        parse_word("aB", ("ab",))


def test_generator_name_rules():
    with pytest.raises(PresentationError):
        Presentation(("a", "A"), ())   # case-insensitively distinct
    with pytest.raises(PresentationError):
        Presentation(("X",), ())       # needs a lowercase letter
    with pytest.raises(PresentationError, match="needs a generator"):
        Presentation((), ())


def test_builtin_presentations():
    f = free_group(3)
    assert f.generators == ("x1", "x2", "x3") and f.relators == ()
    s = surface_group(2)
    assert s.relators[0].letters == (1, 3, -1, -3, 2, 4, -2, -4)
    c = cyclic_group(5)
    assert c.relators[0].letters == (1,) * 5
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

def _ad(*quats):
    """Ad of a product of quaternions, through the matrix oracle."""
    q = np.array([1.0, 0.0, 0.0, 0.0])
    for f in quats:
        q = oracles.quat_mul(q, f)
    return oracles.adjoint_matrix(q)


def test_fold_hand_cases():
    # Fox derivatives evaluated through Ad: d/da a = 1, d/da a^-1 = -a^-1,
    # d/da [a,b] = 1 - a b a^-1 and d/db [a,b] = a - a b a^-1 b^-1
    rng = np.random.default_rng(3)
    images = np.array([su2.random_element(rng) for _ in range(2)])
    x, y = images
    xi, yi = su2.inverse(x), su2.inverse(y)
    a, b = generator(0), generator(1)

    def row(word, g):
        return fox_fold(images, word)[1][:, 3 * g:3 * g + 3]

    assert np.abs(row(a, 0) - np.eye(3)).max() < 1e-12
    assert np.abs(row(a, 1)).max() == 0.0
    assert np.abs(row(a.inverse(), 0) + _ad(xi)).max() < 1e-12
    ab = commutator(a, b)
    assert np.abs(row(ab, 0) - (np.eye(3) - _ad(x, y, xi))).max() < 1e-12
    assert np.abs(row(ab, 1) - (_ad(x) - _ad(x, y, xi, yi))).max() < 1e-12


def test_fold_of_power():
    # d/da a^p = 1 + a + ... + a^(p-1), the run folded by squaring
    for p in (3, 37):
        x = su2.random_element(np.random.default_rng(p))
        want = sum(np.linalg.matrix_power(oracles.adjoint_matrix(x), i)
                   for i in range(p))
        q, J, _ = fox_fold(np.array([x]), generator(0) ** p)
        assert np.abs(J - want).max() < 1e-12 * p
        assert np.abs(q - oracles.quat_from_matrix(
            np.linalg.matrix_power(oracles.su2_matrix(x), p))).max() < 1e-12


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
                F = np.concatenate([su2.log(evaluate_images(bumped, r))
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("tol", [1e-9, np.inf])
def test_non_finite_images_are_refused(bad, tol):
    # a NaN norm compares False both ways, so the gates are written to
    # fail it, not to pass it; no NaN residual reaches the relator gate
    for pres in (free_group(2), cyclic_group(3)):
        images = np.tile(su2.identity(), (pres.num_generators, 1))
        images[0, 0] = bad
        with pytest.raises(PresentationError):
            Representation(pres, images, tol=tol)


def test_relator_gate_fails_a_nan_residual():
    with pytest.raises(ResidualError):
        presentations._gate_residuals([0.0, float("nan")], np.inf)


def test_trivial_representation():
    rep = Representation.trivial(surface_group(3))
    assert rep.relator_residual == 0.0
    assert np.allclose(rep.images, np.tile([1, 0, 0, 0], (6, 1)))


def test_conjugated_representation():
    rep = _surface_rep(seed=3)
    q = su2.random_element(np.random.default_rng(9))
    conj = Representation(rep.presentation, su2.conjugate(rep.images, q),
                          tol=np.inf)
    w = Word((1, 3, -2))
    assert np.allclose(evaluate_images(conj.images, w),
                       su2.conjugate(evaluate_images(rep.images, w), q),
                       atol=1e-10)


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
    for s in word.letters:
        f = oracles.su2_matrix(images[abs(s) - 1])
        m = m @ (f if s > 0 else f.conj().T)
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12
    assert np.abs(got - oracles.quat_from_matrix(m)).max() < 1e-9


@st.composite
def unit_images_and_words(draw):
    """Unit images of n = 1..4 generators, lone (n, 4) or stacked
    (N, n, 4), and up to three words on them of up to 6 runs, each of
    either sign and exponent up to 10^4."""
    n = draw(st.integers(1, 4))
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    x = draw(arrays(np.float64, (*lead, n, 4), elements=st.floats(
        -4.0, 4.0, allow_nan=False, allow_subnormal=False)))
    x = x + np.copysign(0.5, x)         # no norm near zero
    x /= np.sqrt(np.square(x).sum(axis=-1, keepdims=True))
    runs = st.lists(st.tuples(st.integers(-n, n).filter(bool),
                              st.integers(1, 10**4)), max_size=6)
    return x, tuple(draw(st.lists(runs.map(presentations._word),
                                  min_size=1, max_size=3)))


LENS = lens_heegaard(12007, 7)


@settings(max_examples=60, deadline=None)
@given(unit_images_and_words())
@example((su2.exp(np.array([[0.3, 0.4, 0.5]])), (generator(0) ** 12007,)))
@example((su2.exp(2 * np.pi / 12007 * np.array([1.0, 3001.0, 6003.0])[
    :, None, None] * np.array([1.0, 0.0, 0.0])), (
        *LENS.handle1_to_manifold, *LENS.handle2_to_manifold,
        *LENS.surface_to_handle1, *LENS.surface_to_handle2)))
def test_every_fold_of_unit_images_is_unit(case):
    # every product a fold takes is renormalised, so a holonomy of unit
    # images passes the unit gate: a chart's Heegaard stage, which folds
    # gated images and then their handle holonomies, needs no gate
    images, words = case
    assert presentations._unit(images).all()
    assert presentations._unit(
        presentations._fold_words(images, words)[0]).all()
    for word in words:
        q = fox_fold(images, word)[0]
        assert presentations._unit(q[..., None, :]).all()


def test_polish_recovers_residual():
    pres = surface_group(2)
    rep = _surface_rep(seed=4)
    rng = np.random.default_rng(5)
    noisy = np.array([su2.multiply(su2.exp(1e-4 * rng.normal(size=3)),
                                   img) for img in rep.images])
    assert relator_residual(pres, noisy) > 1e-6
    fixed = polish_images(pres, noisy)
    assert relator_residual(pres, fixed) <= 1e-12


def test_polish_stalls_on_impossible_data(monkeypatch):
    # cyclic(2) wants a^2 = 1; an angle far from any solution still
    # converges (the set is reachable), so starve polish of steps
    monkeypatch.setattr(presentations, "_POLISH_STEPS", 0)
    pres = cyclic_group(2)
    bad = su2.exp(0.7 * np.array([1.0, 0, 0]))
    with pytest.raises(ResidualError):
        polish_images(pres, np.array([bad]))


# -- JSON --------------------------------------------------------------

def test_presentation_json_roundtrip():
    # each kind's JSON, as an input file spells it, reads back to the
    # presentation its builder makes
    for data, pres in (
            ({"generators": ["x1", "x2"], "relators": [], "kind": "free",
              "genus": 2}, free_group(2)),
            ({"generators": ["a1", "a2", "b1", "b2"],
              "relators": ["a1 b1 A1 B1 a2 b2 A2 B2"], "kind": "surface",
              "genus": 2}, surface_group(2)),
            ({"generators": ["a"], "relators": ["a a a a a"],
              "kind": "cyclic", "p": 5}, cyclic_group(5)),
            ({"generators": ["a1", "b1", "c"],
              "relators": ["a1 b1 A1 B1", "c a1 C A1", "c b1 C B1"],
              "kind": "circle_times_surface", "genus": 1},
             circle_times_surface_group(1)),
            ({"generators": ["u", "v"], "relators": ["u v U V"]},
             Presentation(("u", "v"),
                          (commutator(generator(0), generator(1)),)))):
        assert presentation_from_json(data) == pres


def test_presentation_json_fail_closed():
    data = {"generators": ["x1", "x2"], "relators": [], "kind": "free",
            "genus": 2, "extra": 1}
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
    # commuting images satisfy the genus-1 relator
    data = {"a1": [0.6, 0.8, 0.0, 0.0], "b1": [0.0, 1.0, 0.0, 0.0]}
    back = representation_from_json(data, surface_group(1))
    assert back.images.tolist() == [data["a1"], data["b1"]]
    data["zz"] = [1, 0, 0, 0]
    with pytest.raises(PresentationError, match="unknown"):
        representation_from_json(data, surface_group(1))


def test_a_generator_named_schema_is_read_as_an_image():
    # a required field named "schema" is the generator's, not a version
    pres = Presentation(("schema", "x"), ())
    rep = representation_from_json(
        {"schema": [0.0, 1.0, 0.0, 0.0], "x": [1.0, 0.0, 0.0, 0.0]}, pres)
    assert rep.images.tolist() == [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]]


def test_representation_json_missing_image():
    with pytest.raises(PresentationError, match="needs fields"):
        representation_from_json({"b1": [1.0, 0.0, 0.0, 0.0]},
                                 surface_group(1))


def test_kept_computes_once_and_keeps_only_values():
    rep = Representation.trivial(free_group(1))
    calls = []

    def compute(value):
        def once():
            calls.append(value)
            if isinstance(value, Exception):
                raise value
            return value
        return once

    for _ in range(2):      # an error is raised again, not kept
        with pytest.raises(ValueError):
            kept(rep, "k", compute(ValueError("no")))
    assert kept(rep, "k", compute("v")) == "v"
    assert kept(rep, "k", compute("w")) == "v"
    assert len(calls) == 3 and list(rep._kept) == ["k"]


# -- norms ---------------------------------------------------------------

_NORM_PRESENTATIONS = (free_group(1), free_group(2), cyclic_group(3),
                       surface_group(1))
# entries at scales 1e-200 to 1e200, unit-ish ones, zeros and NaN
_ENTRIES = st.one_of(
    st.floats(-1.0, 1.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0),
              st.integers(-200, 200)),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, float("nan")]))


def _log_by_norm(q):
    """su2.log with the norm taken by np.linalg.norm."""
    w, v = q[0], q[1:]
    s = np.linalg.norm(v)
    if w < 0.0 and s < su2._ANTIPODE_TOL:
        return None
    if s < su2._SMALL and w > 0.0:
        return v / w
    return v * (np.arctan2(s, w) / s)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_NORM_PRESENTATIONS),
       st.sampled_from([None, 0, 1, 2, 3]), st.data())
def test_the_unwrapped_norms_are_np_linalg_norms_bit_for_bit(pres, rows, data):
    # the unit gate, the relator residual and su2.log take their norms as
    # np.linalg.norm does, for lone arrays (rows None) and stacks, empty
    # ones, non-unit images, NaN and relator-free presentations included
    n = pres.num_generators
    shape = (n, 4) if rows is None else (rows, n, 4)
    images = np.array(data.draw(st.lists(
        _ENTRIES, min_size=math.prod(shape), max_size=math.prod(shape)
    ))).reshape(shape)
    with np.errstate(all="ignore"):
        if data.draw(st.booleans()):
            # unit images, or images on the unit gate's edge, where the
            # last bit of a norm decides
            images = images / np.linalg.norm(images, axis=-1, keepdims=True) \
                * data.draw(st.sampled_from([1.0, 1.0 + 1e-9, 1.0 - 1e-9]))
        unit = np.all(np.abs(np.linalg.norm(images, axis=-1) - 1.0) <= 1e-9,
                      axis=-1)
        assert np.array_equal(presentations._unit(images), unit)
        # a lone array is folded once it passes the unit gate, each row
        # of a stack whatever it holds
        if rows is not None or unit:
            values = presentations._fold_words(images, pres.relators)[0]
            residual = presentations._residuals(values)
            want = np.linalg.norm(values - su2.identity(), axis=-1).max(
                axis=-1, initial=0.0)
            assert np.asarray(residual).tobytes() == want.tobytes()
        for q in images.reshape(-1, 4):
            want = _log_by_norm(q)
            if want is None:
                with pytest.raises(AntipodeError):
                    su2.log(q)
            else:
                assert su2.log(q).tobytes() == want.tobytes()
