"""The stacked Mayer-Vietoris torsions of the lens and s1xs2 charts.

Before it reads the points of a chart with a splitting,
`_chart_points` runs one Mayer-Vietoris builder over all of them: given
the columns of the points' stratum bases and summaries, it makes each
point's handlebody and surface representations, analyses their systems
in one stacked pass, and forms the torsion sequences as stacked
products per shape, keeping nothing on the points.  Here each system is
held to one analysis, also when that analysis fails, the number of
stacked passes, SVDs and cup folds to counts that do not grow with p,
each stacked Gram row to the oracle pairing, `heegaard_mv_torsion` on
a fresh representation (a batch of one) to the chart's value bit for
bit, inconsistent gluing data to the torsion a lone call gives where
it glues and, in a stack, to the error of its first point that does
not, with nothing kept for an error, a splitting
given as lists to its tuple twin, and lens(12007, 7) to torsion 1/p at
point 1 (at point p // 2 it still fails, an expected failure).
"""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import su2strata.cohomology as coh
from su2strata import invariants, presentations, strata, su2
from su2strata.cohomology import DEFAULT_TOL, stabilizer_axis
from su2strata.errors import DomainError, RankAmbiguityError
from su2strata.invariants import (enumerate_moduli, heegaard_mv_torsion,
                                  lens_heegaard, s1xs2_heegaard)
from su2strata.presentations import (Representation, cyclic_group,
                                     free_group, generator, surface_group)

import oracles


def torus_element(theta):
    return su2.exp(theta * invariants._AXIS)


def lens_rep(p, n):
    return Representation(cyclic_group(p),
                          [torus_element(2.0 * math.pi * n / p)])


def mv_torsions(splitting, reps):
    """`_glued_torsions` of reps off stratum 0, given the columns a
    chart gives it: the coefficients their labels pick and those
    systems' summaries."""
    fulls = coh._system_cohomologies([coh.full_system(rep) for rep in reps],
                                     DEFAULT_TOL)
    labels = strata._labels(np.array([rep.images for rep in reps]), fulls,
                            DEFAULT_TOL)
    return invariants._glued_torsions(
        splitting, reps,
        *invariants._stratum_systems(reps, labels, fulls, DEFAULT_TOL),
        DEFAULT_TOL)


def patch_analysis(monkeypatch, analysis):
    """Put analysis in place of `_system_cohomologies` in each module
    that calls it."""
    for module in (coh, invariants):
        monkeypatch.setattr(module, "_system_cohomologies", analysis)


@pytest.fixture
def analysed(monkeypatch):
    """One list of (rep, basis bytes) per stacked analysis."""
    calls = []
    compute = coh._system_cohomologies

    def counting(systems, tol):
        calls.append([(sys.rep, sys.basis.tobytes()) for sys in systems])
        return compute(systems, tol)

    patch_analysis(monkeypatch, counting)
    return calls


@pytest.mark.parametrize("example, heegaard, kwargs", [
    ("lens", lens_heegaard(31, 7), {"p": 31, "q": 7}),
    ("lens", lens_heegaard(52, 3), {"p": 52, "q": 3}),
    ("s1xs2", s1xs2_heegaard(), {"samples": 12}),
])
def test_each_heegaard_system_is_analysed_once(analysed, example, heegaard,
                                               kwargs):
    points = enumerate_moduli(example, **kwargs)
    counts = Counter((id(rep), basis) for call in analysed
                     for rep, basis in call)
    assert set(counts.values()) == {1}
    noncentral = [pt for pt in points if pt.stratum.i != 0]
    assert noncentral
    # each noncentral point's own system, coefficients by stratum ...
    for pt in noncentral:
        basis = (np.eye(3) if pt.stratum.i == 3
                 else stabilizer_axis(pt.rep).reshape(3, 1))
        assert counts[id(pt.rep), basis.tobytes()] == 1
    # ... and, in the splitting's one analysis, two free(g) handle
    # systems and one surface system for it
    (splitting,) = [call for call in analysed if any(
        rep.presentation.kind == "surface" for rep, _ in call)]
    g = heegaard.genus
    made = Counter(rep.presentation for rep, _ in splitting)
    assert made == {free_group(g): 2 * len(noncentral),
                    surface_group(g): len(noncentral)}


def test_a_failing_heegaard_system_is_analysed_once(monkeypatch):
    refused = []
    compute = coh._system_cohomologies

    def refusing(systems, tol):
        out = compute(systems, tol)
        surfaces = [sys.rep for sys in systems
                    if sys.rep.presentation.kind == "surface"]
        refused.extend(surfaces)
        if surfaces:
            raise RankAmbiguityError("surface system refused")
        return out

    patch_analysis(monkeypatch, refusing)
    with pytest.raises(RankAmbiguityError, match="surface system refused"):
        heegaard_mv_torsion(lens_heegaard(7, 3), lens_rep(7, 1))
    assert len(refused) == 1
    # a chart analyses every point's surface system in one stack, once,
    # and raises
    refused.clear()
    with pytest.raises(RankAmbiguityError, match="surface system refused"):
        enumerate_moduli("lens", p=7, q=3)
    assert len(refused) == 7 // 2


def test_lens_analyses_do_not_grow_with_p(analysed):
    sizes = {}
    for p in (21, 83):
        analysed.clear()
        enumerate_moduli("lens", p=p, q=5)
        sizes[p] = len(analysed)
    assert sizes[21] == sizes[83]


def test_lens_svds_and_cup_folds_do_not_grow_with_p(monkeypatch):
    # the Mayer-Vietoris tail is stacked per shape: its SVDs and the
    # surface relator's cup fold run once a chart, not once a point
    calls = Counter()
    svd, fold = np.linalg.svd, presentations._fold

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def counting_fold(images, word, cup):
        calls["cup"] += cup
        return fold(images, word, cup)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(presentations, "_fold", counting_fold)
    sizes = {}
    for p in (21, 83):
        calls.clear()
        enumerate_moduli("lens", p=p, q=5)
        sizes[p] = dict(calls)
    assert sizes[21] == sizes[83] and sizes[21]["cup"] == 1


@pytest.mark.parametrize("example, kwargs", [
    ("lens", {"p": 23, "q": 4}), ("lens", {"p": 30, "q": 7}),
    ("s1xs2", {"samples": 9})])
def test_each_stacked_gram_row_is_the_oracle_pairing(monkeypatch, example,
                                                     kwargs):
    # the omega rows the builder hands the sequence, against the cup
    # product summed letter by letter on each row's surface rep
    seen = []
    torsions = invariants._mayer_vietoris_torsions
    monkeypatch.setattr(
        invariants, "_mayer_vietoris_torsions",
        lambda *args: seen.append(args[4]) or torsions(*args))
    points = enumerate_moduli(example, **kwargs)
    (omegas,) = seen
    noncentral = [pt for pt in points if pt.stratum.i != 0]
    assert len(omegas) == len(noncentral)
    for pt, omega in zip(noncentral, omegas):
        # the row's surface rep: a -> the point's image, b -> 1
        sigma = Representation(surface_group(1),
                               [pt.rep.images[0], su2.identity()])
        basis = stabilizer_axis(pt.rep).reshape(3, 1)
        classes = coh.system_cohomology(
            coh.CoefficientSystem(sigma, basis)).basis_h1
        E = np.kron(np.eye(2), basis) @ classes
        letters = sigma.presentation.relators[0].letters
        want = [[oracles.goldman_pairing(letters, sigma.images, u, v)
                 for v in E.T] for u in E.T]
        assert np.abs(omega - want).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(3, 150), st.integers(1, 149), st.data())
def test_a_fresh_lens_point_gives_the_filled_torsion(p, q, data):
    q = q % p or 1
    if math.gcd(p, q) != 1:
        q = 1
    n = data.draw(st.integers(1, (p - 1) // 2))
    chart = enumerate_moduli("lens", p=p, q=q)
    (t,) = [t for pid, t in zip(chart.ids, chart.torsions)
            if pid == f"lens({p},{q}):n={n}"]
    fresh = heegaard_mv_torsion(lens_heegaard(p, q), lens_rep(p, n))
    assert (fresh.value, fresh.log_value) == (t.value, t.log_value)


def test_a_large_lens_at_its_first_point_has_torsion_one_over_p():
    p = 12007
    t = heegaard_mv_torsion(lens_heegaard(p, 7), lens_rep(p, 1))
    assert abs(t.value - 1 / p) < 1e-9


@pytest.mark.xfail(strict=True, raises=RankAmbiguityError,
                   reason="ROADMAP item 1: the absolute d1 rank threshold")
def test_a_large_lens_at_its_middle_point_has_torsion_one_over_p():
    # near p // 2, two singular values of d1 that should be zero are
    # about eps * p^2 and clear the absolute threshold: h1 reads 0 - 2
    p = 12007
    t = heegaard_mv_torsion(lens_heegaard(p, 7), lens_rep(p, p // 2))
    assert abs(t.value - 1 / p) < 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 40), st.data())
def test_a_fresh_s1xs2_point_gives_the_filled_torsion(M, data):
    j = data.draw(st.integers(1, M - 1))
    chart = enumerate_moduli("s1xs2", samples=M)
    (t,) = [t for pid, t in zip(chart.ids, chart.torsions)
            if pid == f"s1xs2:j={j}/{M}"]
    rep = Representation(free_group(1), [torus_element(j * (math.pi / M))])
    fresh = heegaard_mv_torsion(s1xs2_heegaard(), rep)
    assert (fresh.value, fresh.log_value) == (t.value, t.log_value)


def test_inconsistent_gluing_fails_at_its_own_point(monkeypatch):
    # handle 2's core sent to a^6 in lens(15, 1): the routes agree only
    # where 5n = 0 mod 15, so points n = 3, 6 glue and the rest do not
    p = 15
    bad = replace(lens_heegaard(p, 1),
                  handle2_to_manifold=(generator(0) ** 6,))
    lone = {}
    for n in range(p // 2 + 1):
        try:
            lone[n] = heegaard_mv_torsion(bad, lens_rep(p, n))
        except DomainError as e:
            lone[n] = e
    glued = {n for n, t in lone.items() if not isinstance(t, Exception)}
    assert glued == {3, 6}
    assert "stratum 0" in str(lone[0])
    # the stacked builder keeps nothing; the points that glue give what
    # a lone call gives there, and a stack with a point that does not
    # raises its first such point's error
    reps = [lens_rep(p, n) for n in range(p // 2 + 1)]
    for torsion, n in zip(mv_torsions(bad, [reps[n] for n in sorted(glued)]),
                          sorted(glued)):
        assert (torsion.value, torsion.log_value) == (lone[n].value,
                                                      lone[n].log_value)
    with pytest.raises(DomainError) as stacked:
        mv_torsions(bad, reps[1:])
    assert str(stacked.value) == str(lone[1])
    for n, rep in enumerate(reps[1:], 1):
        assert list(rep._kept) == ["adjoints"]
        if n in glued:
            assert heegaard_mv_torsion(bad, rep) == lone[n]
            continue
        with pytest.raises(DomainError) as filled:
            heegaard_mv_torsion(bad, rep)
        assert set(rep._kept) == {"adjoints", ("cohomology", DEFAULT_TOL),
                                  ("label", DEFAULT_TOL)}
        assert str(filled.value) == str(lone[n])
        assert "gluing data is inconsistent" in str(filled.value)
    # in the chart, the first failing point (n = 1) raises first
    monkeypatch.setattr(invariants, "lens_heegaard", lambda p, q: bad)
    with pytest.raises(DomainError) as chart:
        enumerate_moduli("lens", p=p, q=1)
    with pytest.raises(DomainError) as first:
        heegaard_mv_torsion(bad, lens_rep(p, 1))
    assert str(chart.value) == str(first.value)


def test_a_splitting_given_as_lists_gives_its_tuple_twins_torsion():
    # a splitting's sequences are only read, never hashed or kept
    lens = lens_heegaard(7, 3)
    listed = replace(lens, **{f: list(getattr(lens, f)) for f in (
        "surface_to_handle1", "surface_to_handle2", "handle1_to_manifold",
        "handle2_to_manifold")})
    rep = lens_rep(7, 1)
    assert heegaard_mv_torsion(listed, rep) == heegaard_mv_torsion(lens, rep)
    assert list(rep._kept) == ["adjoints", ("cohomology", DEFAULT_TOL),
                               ("label", DEFAULT_TOL)]
