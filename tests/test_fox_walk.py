"""The Fox fold against the definitional oracles.

presentations.fox_fold maps a word to its holonomy q, Fox row J and
cup-product matrix W.  d1 (fox_jacobian_at, system_d1 on full,
stabilizer-line and complement bases) and the surface pairing
(pairing_matrix, goldman_form, gram_matrix) all read it; here each is
compared with tests/oracles.py, which builds the same objects letter by
letter from 2x2 complex matrix products and imports nothing from the
package.  The fold itself is checked as a monoid homomorphism, on words
with long runs folded by squaring; its one-scan form is held to the
left fold of `_compose` over the run folds byte for byte, to at most
two `su2.ad` calls a word and to memory of a few W; and a lens
enumeration is held to one fold of its relator and of each handle word,
and O(log p) quaternion products per point.  W is formed only where a
pairing reads it: once per surface representation, by `pairing_matrix`.
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su2strata import presentations, su2
from su2strata.cohomology import (cohomology, full_system, restricted_system,
                                  system_d1)
from su2strata.errors import DomainError
from su2strata.invariants import (enumerate_moduli, lens_heegaard,
                                  t3_presentation)
from su2strata.presentations import (Representation, Word,
                                     circle_times_surface_group, cyclic_group,
                                     fox_fold, fox_jacobian_at, free_group,
                                     surface_group)
from su2strata.strata import sample_surface_representation
from su2strata.symplectic import goldman_form, gram_matrix, pairing_matrix

import oracles

AXIS = np.array([0.3, -0.5, 0.8]) / math.sqrt(0.98)


def _coaxial(pres, angles, extra=()):
    images = [su2.exp(t * AXIS) for t in angles] + list(extra)
    return Representation(pres, np.array(images))


CASES = {
    "surface2": lambda: sample_surface_representation(2, seed=1),
    "surface3": lambda: sample_surface_representation(3, seed=2),
    "surface2-coaxial": lambda: _coaxial(surface_group(2),
                                         [0.4, 0.7, 1.0, 1.3]),
    "t3": lambda: _coaxial(t3_presentation(), [0.5, 1.2, 2.1]),
    "lens7": lambda: _coaxial(cyclic_group(7), [2.0 * math.pi * 2 / 7]),
    "circle-surface2": lambda: _coaxial(
        circle_times_surface_group(2), [0.4, 0.7, 1.0, 1.3],
        extra=[np.array([-1.0, 0.0, 0.0, 0.0])]),
}
REDUCIBLE = ("surface2-coaxial", "t3", "lens7", "circle-surface2")


def _oracle_d1(rep):
    rels = [r.letters for r in rep.presentation.relators]
    return oracles.fox_jacobian(rels, rep.images)


@pytest.mark.parametrize("name", CASES)
def test_fox_jacobian_and_full_d1_match_oracle(name):
    rep = CASES[name]()
    want = _oracle_d1(rep)
    assert np.abs(fox_jacobian_at(rep) - want).max() < 1e-12
    assert np.abs(system_d1(full_system(rep)) - want).max() < 1e-12


@pytest.mark.parametrize("part", ["stabilizer", "complement"])
@pytest.mark.parametrize("name", REDUCIBLE)
def test_restricted_d1_matches_projected_oracle(name, part):
    rep = CASES[name]()
    assert cohomology(rep).h0 == 1
    system = restricted_system(rep, part)
    m = len(rep.presentation.relators)
    n = rep.presentation.num_generators
    want = np.kron(np.eye(m), system.basis).T @ _oracle_d1(rep) \
        @ np.kron(np.eye(n), system.basis)
    assert np.abs(system_d1(system) - want).max() < 1e-12


@pytest.mark.parametrize("name", ["surface2", "surface3",
                                  "surface2-coaxial"])
def test_pairing_matrix_entries_match_oracle(name):
    rep = CASES[name]()
    relator = rep.presentation.relators[0].letters
    W = pairing_matrix(rep)
    e = np.eye(W.shape[0])
    want = np.array([[oracles.goldman_pairing(relator, rep.images, a, b)
                      for b in e] for a in e])
    assert np.abs(W - want).max() < 1e-12


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_goldman_form_and_gram_match_oracle_off_cocycles(g):
    # arbitrary (u, v), not cocycles: the walk is checked as a bilinear
    # form, not only where the pairing's laws would hide an error
    rep = sample_surface_representation(g, seed=g)
    relator = rep.presentation.relators[0].letters
    rng = np.random.default_rng(100 + g)
    vecs = list(rng.normal(size=(3, 2 * g, 3)))
    want = np.array([[oracles.goldman_pairing(relator, rep.images, u, v)
                      for v in vecs] for u in vecs])
    got = np.array([[goldman_form(rep, u, v) for v in vecs] for u in vecs])
    assert np.abs(got - want).max() < 1e-12
    assert np.abs(gram_matrix(rep, vecs) - want).max() < 1e-12


def _walked(images):
    """The image arrays one fold walks: its (n, 4) images, or each row
    of an (N, n, 4) stack, which a stacked fold walks once each."""
    return images.reshape(-1, *images.shape[-2:])


def test_lens_walks_its_relator_once_per_point(monkeypatch):
    relator = cyclic_group(31).relators[0]
    walked = []
    fold = presentations._fold       # behind fox_fold and relator folds

    def counting(images, word, cup):
        if word == relator:
            walked.extend(point.tobytes() for point in _walked(images))
        return fold(images, word, cup)

    monkeypatch.setattr(presentations, "_fold", counting)
    points = enumerate_moduli("lens", p=31, q=7)
    assert len(points) == 16
    assert sorted(walked) == sorted(pt.rep.images.tobytes() for pt in points)


def test_lens_folds_each_handle_word_once_per_point(monkeypatch):
    # each handle word's holonomy (the handlebody reps) and Fox row
    # (the restriction maps) come from the one fold its representation
    # keeps
    p, q = 101, 7
    heegaard = lens_heegaard(p, q)
    handle_words = {*heegaard.handle2_to_manifold, *heegaard.surface_to_handle2}
    assert len(handle_words) == 3      # a^(q^-1 mod p), x^q, x^-p
    folded = []
    fold = presentations._fold

    def counting(images, word, cup):
        if word in handle_words:
            folded.extend([word] * len(_walked(images)))
        return fold(images, word, cup)

    monkeypatch.setattr(presentations, "_fold", counting)
    points = enumerate_moduli("lens", p=p, q=q)
    noncentral = sum(pt.stratum.i != 0 for pt in points)
    assert noncentral == p // 2
    assert Counter(folded) == {w: noncentral for w in handle_words}


def test_lens_products_per_point_are_logarithmic_in_p(monkeypatch):
    # every word of a lens point is a run of one letter, at most p long;
    # walking the relator a^p alone would take p products
    p = 1009
    calls = []
    multiply = su2.multiply

    def counting(a, b):
        # a stacked product is one product per row of its stack
        calls.append(math.prod(np.broadcast_shapes(a.shape, b.shape)[:-1]))
        return multiply(a, b)

    monkeypatch.setattr(su2, "multiply", counting)
    points = enumerate_moduli("lens", p=p, q=7)
    assert len(points) == p // 2 + 1
    assert sum(calls) / len(points) <= 16 * math.log2(p)


def test_lens_words_are_held_in_runs_whatever_p():
    # stored letter by letter, a^p would be p entries
    def stored(p):
        h = lens_heegaard(p, 7)
        words = [*cyclic_group(p).relators, *h.presentation_n.relators,
                 *h.surface_to_handle1, *h.surface_to_handle2,
                 *h.handle1_to_manifold, *h.handle2_to_manifold]
        return sum(len(w.runs) for w in words)

    assert stored(1009) == stored(999983)


# -- the fold as a monoid homomorphism -----------------------------------

IMAGES = np.array([su2.exp(v) for v in
                   np.random.default_rng(11).normal(size=(3, 3))])
runs = st.lists(st.tuples(st.sampled_from([1, 2, 3, -1, -2, -3]),
                          st.integers(1, 500)), max_size=4)


def _word(pairs) -> Word:
    return Word([s for s, k in pairs for _ in range(k)])


def _compose(a, b):
    """The fold of a concatenation, from the oracles' Ad and product."""
    (q1, J1, W1), (q2, J2, W2) = a, b
    AJ2 = oracles.adjoint_matrix(q1) @ J2
    return oracles.quat_mul(q1, q2), J1 + AJ2, W1 + W2 + J1.T @ AJ2


def _close(got, want, length):
    """Equal (q, J, W) up to rounding: entries of J and W on words of
    this many letters grow like length and length**2."""
    return all(np.abs(g - w).max() <= 1e-13 * (1 + length) ** e
               for g, w, e in zip(got, want, (0, 1, 2)))


@settings(max_examples=60, deadline=None)
@given(runs, runs, st.integers(0, 1500))
def test_fold_of_product_is_composed_fold(u_runs, tail_runs, cancel):
    # v starts with the inverse of u's last `cancel` letters, so u * v
    # is freely reduced across the seam
    u = _word(u_runs)
    cancel = min(cancel, len(u))
    v = Word(u.letters[len(u) - cancel:]).inverse() * _word(tail_runs)
    assert _close(fox_fold(IMAGES, u * v),
                  _compose(fox_fold(IMAGES, u), fox_fold(IMAGES, v)),
                  len(u) + len(v))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1, 2, 3, -1, -2, -3]),
                          st.integers(1, 40)), max_size=5))
def test_fold_matches_letter_by_letter_oracles(pairs):
    word = _word(pairs)
    q, J, W = fox_fold(IMAGES, word)
    m = np.eye(2)
    for s in word.letters:
        f = oracles.su2_matrix(IMAGES[abs(s) - 1])
        m = m @ (f if s > 0 else f.conj().T)
    want_J = oracles.fox_jacobian([word.letters], IMAGES)
    assert _close((q, J), (oracles.quat_from_matrix(m), want_J), len(word))
    rng = np.random.default_rng(len(word))
    for u, v in rng.normal(size=(2, 2, 9)):
        want = oracles.goldman_pairing(word.letters, IMAGES, u, v)
        assert abs(u @ W @ v - want) <= 1e-12 * (1 + len(word)) ** 2


# -- the scan against the left fold ---------------------------------------

# rows with exact zeros and -identity, where a sum's order shows in the
# sign of a zero
EXACT_ROWS = [np.array(v) for v in ([0.0, 1.0, 0.0, 0.0],
                                    [0.6, -0.0, 0.8, -0.0],
                                    [-1.0, 0.0, 0.0, 0.0])]
long_runs = st.lists(st.tuples(st.sampled_from([1, 2, 3, -1, -2, -3]),
                               st.integers(1, 500)), max_size=6)


def _left_fold(images, word):
    """(q, J, W) of a word as the left fold of `presentations._compose`
    over its runs' own folds, each placed in its generator's block of a
    dense J and W."""
    n3 = 3 * len(images)
    out = su2.identity(), np.zeros((3, n3)), np.zeros((n3, n3))
    for r, (s, k) in enumerate(word.runs):
        j = 3 * abs(s) - 3
        q, B, Wr = presentations._power(
            presentations._letter_fold(images, s, True), k)
        J, W = np.zeros((3, n3)), np.zeros((n3, n3))
        J[:, j:j + 3], W[j:j + 3, j:j + 3] = B, Wr
        out = (q, J, W) if r == 0 else presentations._compose(out, (q, J, W))
    return out


@settings(max_examples=40, deadline=None)
@given(long_runs, st.integers(0, 2**32 - 1),
       st.sampled_from([None, *range(len(EXACT_ROWS))]))
@example([], 0, None)
@example([(1, 500)], 1, 2)
@example([(1, 1), (2, 1), (-1, 1), (-2, 1)], 2, 0)
@example([(2, 3), (-1, 500), (3, 1), (1, 1), (-2, 2), (-3, 1)], 3, 1)
@example([(-1, 1), (2, 1), (-1, 1), (3, 7), (-1, 1)], 4, 0)
@example([(-1, 1), (2, 1)], 5, 0)
def test_scan_is_the_left_fold_of_the_run_folds(pairs, seed, exact):
    # byte for byte, for one image array and for each row of a stack
    word = _word(pairs)
    stack = np.array([su2.random_element(np.random.default_rng([seed, i]))
                      for i in range(9)]).reshape(3, 3, 4)
    if exact is not None:
        stack[:, 0] = EXACT_ROWS[exact]
    for cup in (False, True):
        stacked = presentations._fold(stack, word, cup)
        for i, images in enumerate(stack):
            want = [a.tobytes() for a in _left_fold(images, word)[:2 + cup]]
            lone = presentations._fold(images, word, cup)
            assert [a.tobytes() for a in lone] == want
            assert [a[i].tobytes() for a in stacked] == want


def test_a_fold_takes_its_ads_in_at_most_two_calls_whatever_its_length(
        monkeypatch):
    # the prefixes' and inverse letters' Ad come from one stacked call,
    # for one image array and for a chart-like stack alike; walking the
    # letters one by one would take one call each
    calls = []
    ad = su2.ad

    def counting(q):
        calls.append(q.shape)
        return ad(q)

    monkeypatch.setattr(su2, "ad", counting)
    rng = np.random.default_rng(7)
    words = [surface_group(g).relators[0] for g in (1, 2, 8, 32)]
    for length in (2, 9, 64, 400):
        letters, gen = [], 0
        for _ in range(length):   # neighbours on other generators: runs of 1
            gen = (gen + int(rng.integers(1, 3))) % 3
            letters.append(int(rng.choice([-1, 1])) * (gen + 1))
        words.append(Word(letters))
    assert len(words[-1]) == 400
    for word in words:
        n = max(abs(s) for s, _ in word.runs)
        for images in (IMAGES[:n] if n <= 3 else
                       np.tile(su2.identity(), (n, 1)),
                       np.tile(su2.exp(np.array([0.1, 0.2, 0.3])),
                               (4, n, 1))):
            for cup in (False, True):
                calls.clear()
                presentations._fold(images, word, cup)
                assert 1 <= len(calls) <= 2


def test_cup_fold_memory_grows_as_genus_squared():
    # a letter's W is one 3x3 block, so a fold of 4g letters holds a few
    # arrays of W's (6g x 6g) size, not a dense W per letter
    g = 32
    images = np.array([su2.random_element(np.random.default_rng([g, i]))
                       for i in range(2 * g)])
    relator = surface_group(g).relators[0]
    presentations._scan_plan.cache_clear()   # its first build counts too
    tracemalloc.start()
    try:
        _, _, W = fox_fold(images, relator)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert W.nbytes == (6 * g) ** 2 * 8
    assert peak < 4 * W.nbytes


def test_pairing_matrix_needs_surface_kind():
    rep = Representation.trivial(free_group(2))
    with pytest.raises(DomainError):
        pairing_matrix(rep)


# -- W on demand ----------------------------------------------------------

@pytest.fixture
def cup_folds(monkeypatch):
    """Images at which a fold formed a W."""
    seen = []
    fold = presentations._fold

    def counting(images, word, cup):
        if cup:
            seen.append(images.tobytes())
        return fold(images, word, cup)

    monkeypatch.setattr(presentations, "_fold", counting)
    return seen


def test_t3_charts_and_polish_candidates_form_no_w(cup_folds):
    # the sampler polishes Haar draws on the genus-3 surface relator
    assert len(enumerate_moduli("t3", samples=4)) == 8 + 3 * 16
    sample_surface_representation(3, seed=4)
    assert cup_folds == []


def test_lens_forms_w_only_for_its_surface_reps(cup_folds):
    # the lens point reps never form W; the noncentral points' genus-1
    # surface reps form it once, over their stacked images, for their
    # Mayer-Vietoris omegas, in one fold of a b A B
    p, q = 31, 7
    points = enumerate_moduli("lens", p=p, q=q)
    # a point's surface rep sends a to its image and b to 1
    sigma = np.array([[pt.rep.images[0], su2.identity()]
                      for pt in points if pt.stratum.i != 0])
    assert len(sigma) == p // 2
    assert Counter(cup_folds) == {sigma.tobytes(): 1}


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_pairing_matrix_is_the_relator_folds_w_once(g, monkeypatch):
    rep = sample_surface_representation(g, seed=g)
    want = fox_fold(rep.images, rep.presentation.relators[0])[2]
    cups = []
    fold = presentations._fold

    def counting(images, word, cup):
        cups.append(cup)
        return fold(images, word, cup)

    monkeypatch.setattr(presentations, "_fold", counting)
    W = pairing_matrix(rep)
    assert W.tobytes() == want.tobytes() and W.shape == want.shape
    assert pairing_matrix(rep) is W and cups == [True]
    with pytest.raises(ValueError):
        W[0, 0] = 1.0
    gram_matrix(rep, [np.ones((2 * g, 3))])
    assert cups == [True]
    for pres in (free_group(g), cyclic_group(g + 1),
                 circle_times_surface_group(g)):
        with pytest.raises(DomainError):
            pairing_matrix(Representation.trivial(pres))
