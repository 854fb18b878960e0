"""The stacked Mayer-Vietoris torsions of the lens and s1xs2 charts.

Before it reads the points of a chart with a splitting,
`_chart_points` runs one Mayer-Vietoris builder over all of them: given
the image stack and the columns of the points' stratum bases and
summaries, it folds the handle and surface words and the surface
relator (one cup fold) over stacks, analyses the handle systems as one
stack and the surface systems as another, with no handlebody or
surface representation made, and forms the torsion sequences as
stacked products per shape, keeping nothing on the points.  Here each
system is held to one row of one stacked analysis, also when that
analysis fails, the number of stacked passes, SVDs and cup folds to
counts that do not grow with p, each stacked Gram row to the oracle
pairing, `heegaard_mv_torsion` on a fresh representation (a batch of
one) to the chart's value bit for bit, a stack that mixes coefficient
dims to each row's lone torsion, inconsistent gluing data to the
torsion a lone call gives where it glues and, in a stack, to the error
of its first point that does not, with nothing kept for an error, a
splitting given as lists to its tuple twin, a stabilized splitting to
the torsion of its chart within a few ulps, a Nielsen move on either
handle to every stratum-1 torsion within a few dozen ulps (at the
irreducible points of lens(5, 2) # lens(7, 3) it is not kept: a strict
expected failure), and lens(12007, 7) to
torsion 1/p at point 1 (at point p // 2 it still fails, an expected
failure).
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
from su2strata.invariants import (HeegaardData, enumerate_moduli,
                                  heegaard_mv_torsion, lens_heegaard,
                                  s1xs2_heegaard)
from su2strata.presentations import (Representation, Word, cyclic_group,
                                     fox_jacobian_at, free_group, generator,
                                     surface_group)

import oracles
from test_cohomology_batch import hook_core, system_rows


def torus_element(theta):
    return su2.exp(theta * invariants._AXIS)


def lens_rep(p, n):
    return Representation(cyclic_group(p),
                          [torus_element(2.0 * math.pi * n / p)])


def mv_torsions(splitting, reps):
    """`_glued_torsions` of reps off stratum 0, given the stacks and
    columns a chart gives it: the images, the coefficients their labels
    pick and those systems' summaries."""
    systems = [coh.full_system(rep) for rep in reps]
    fulls = coh._system_cohomologies(systems, DEFAULT_TOL)
    images = np.array([rep.images for rep in reps])
    labels = strata._labels(images, fulls, DEFAULT_TOL)
    return invariants._glued_torsions(
        splitting, images, *invariants._stratum_systems(
            *coh._stacks(systems)[1:], labels, fulls, DEFAULT_TOL),
        DEFAULT_TOL)


@pytest.fixture
def analysed(monkeypatch):
    """The (B, A, J) stacks of each stacked analysis, in order."""
    calls = []
    hook_core(monkeypatch, lambda *stacks: calls.append(stacks))
    return calls


@pytest.mark.parametrize("example, heegaard, kwargs", [
    ("lens", lens_heegaard(31, 7), {"p": 31, "q": 7}),
    ("lens", lens_heegaard(52, 3), {"p": 52, "q": 3}),
    ("s1xs2", s1xs2_heegaard(), {"samples": 12}),
])
def test_each_heegaard_system_is_analysed_once(analysed, example, heegaard,
                                               kwargs):
    points = enumerate_moduli(example, **kwargs)
    noncentral = [pt for pt in points if pt.stratum.i != 0]
    assert noncentral and {pt.stratum.i for pt in noncentral} == {1}
    # one stack a stage, a row a system: every point's full system, each
    # noncentral point's stabilizer line and, for it, two free(g) handle
    # systems and one surface system
    g, N = heegaard.genus, len(noncentral)
    full, lines, handles, surfaces = analysed
    assert [len(A) for _, A, _ in analysed] == [len(points), N, 2 * N, N]
    assert handles[1].shape[1:] == (g, 3, 3) and handles[2].shape[1] == 0
    assert surfaces[1].shape[1:] == (2 * g, 3, 3)
    assert surfaces[2].shape[1:] == (3, 6 * g)
    # each noncentral point's own system, coefficients by stratum, once
    # in the point stages (at s1xs2 its handle systems are its equals)
    counts = Counter(row for call in (full, lines)
                     for row in system_rows(*call))
    for pt in noncentral:
        basis = stabilizer_axis(pt.rep).reshape(3, 1)
        assert counts[basis.tobytes(), pt.rep.adjoints.tobytes(),
                      fox_jacobian_at(pt.rep).tobytes()] == 1


def test_a_failing_heegaard_system_is_analysed_once(monkeypatch):
    refused = []
    core = coh._stack_cohomologies

    def refusing(B, A, J, tol):
        out = core(B, A, J, tol)
        if A.shape[1] == 2:     # the genus-1 surface's two generators
            refused.append(len(A))
            raise RankAmbiguityError("surface system refused")
        return out

    monkeypatch.setattr(invariants, "_stack_cohomologies", refusing)
    with pytest.raises(RankAmbiguityError, match="surface system refused"):
        heegaard_mv_torsion(lens_heegaard(7, 3), lens_rep(7, 1))
    assert refused == [1]
    # a chart analyses every point's surface system in one stack, once,
    # and raises
    refused.clear()
    with pytest.raises(RankAmbiguityError, match="surface system refused"):
        enumerate_moduli("lens", p=7, q=3)
    assert refused == [7 // 2]


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


# how far, in ulps of the chart's torsion, a stabilized splitting's may
# read: these charts read at most 3 (lens(12, 5)) and 2 (s1xs2)
STABILIZED_ULPS = 8


@pytest.mark.parametrize("example, kwargs, splitting", [
    ("lens", {"p": 5, "q": 2}, lens_heegaard(5, 2)),
    ("lens", {"p": 7, "q": 3}, lens_heegaard(7, 3)),
    ("lens", {"p": 12, "q": 5}, lens_heegaard(12, 5)),
    ("s1xs2", {"samples": 8}, s1xs2_heegaard())])
def test_a_stabilized_splitting_keeps_every_glued_torsion(example, kwargs,
                                                          splitting):
    # a trivial handle, added once (genus 2) or twice (genus 3), leaves
    # the manifold and so its torsion at every glued point
    chart = enumerate_moduli(example, **kwargs)
    glued = [i for i, label in enumerate(chart.labels) if label.i != 0]
    reps = [Representation(chart.presentation, x)
            for x in chart.images[glued]]
    for genus in (2, 3):
        splitting = oracles.stabilized(splitting)
        assert splitting.genus == genus
        for i, t in zip(glued, mv_torsions(splitting, reps), strict=True):
            want = chart.torsions[i].value
            assert abs(t.value - want) <= STABILIZED_ULPS * np.spacing(want)


# Nielsen moves x_i -> x_i x_j^e on either handle, both orders of (i, j)
NIELSEN_MOVES = [(handle, i, j, e) for handle in (1, 2)
                 for i, j in ((0, 1), (1, 0)) for e in (1, -2, 3)]
# how far, in ulps, a moved splitting's torsion may read from the
# unmoved one's: these moves read at most 29 (the stratum-1 points of
# lens(5, 2) # lens(7, 3)) and 22 (stabilized lens(7, 3)); the error
# grows with the moved words' length
NIELSEN_ULPS = 64
LENS_SUM = oracles.lens_sum(5, 2, 7, 3)


def lens_sum_rep(m, n, phi):
    """The point a = exp(2 pi m/5 i), b = exp(2 pi n/7 (cos phi i +
    sin phi j)) of lens(5, 2) # lens(7, 3)."""
    return Representation(LENS_SUM.presentation_n, [
        torus_element(2 * math.pi * m / 5),
        su2.exp(2 * math.pi * n / 7 * np.array([math.cos(phi),
                                                math.sin(phi), 0.0]))])


def lens_sum_points():
    """(splitting, reps, the torsion each keeps) of the stratum-1 points
    of lens(5, 2) # lens(7, 3): one summand central, or both on one
    axis."""
    reps = [lens_sum_rep(m, 0, 0.0) for m in (1, 2)]
    reps += [lens_sum_rep(0, n, 0.0) for n in (1, 2, 3)]
    reps += [lens_sum_rep(m, n, phi) for m in (1, 2) for n in (1, 2, 3)
             for phi in (0.0, math.pi)]
    assert {strata.classify_stratum(rep).i for rep in reps} == {1}
    return LENS_SUM, reps, [1 / 35] * len(reps)


def stabilized_lens_points(p, q):
    """(splitting, reps, the torsion each keeps) of every glued point of
    the lens(p, q) chart, under its stabilized splitting."""
    chart = enumerate_moduli("lens", p=p, q=q)
    glued = [i for i, label in enumerate(chart.labels) if label.i != 0]
    return oracles.stabilized(lens_heegaard(p, q)), [
        Representation(chart.presentation, x) for x in chart.images[glued]
    ], [chart.torsions[i].value for i in glued]


@pytest.mark.parametrize("points", [
    lens_sum_points, lambda: stabilized_lens_points(5, 2),
    lambda: stabilized_lens_points(7, 3)],
    ids=["lens-sum", "lens(5,2)", "lens(7,3)"])
def test_a_nielsen_move_keeps_every_stratum_1_torsion(points):
    # another free basis of either handlebody glues the same manifold;
    # at stratum 1 the line coefficient's handle d0 is zero, so no
    # handle factor is missing from the torsion (ROADMAP item 15)
    splitting, reps, want = points()
    for t, w in zip(mv_torsions(splitting, reps), want, strict=True):
        assert abs(t.value - w) <= NIELSEN_ULPS * np.spacing(w)
    for move in NIELSEN_MOVES:
        moved = oracles.nielsen(splitting, *move)
        for t, w in zip(mv_torsions(moved, reps), want, strict=True):
            assert abs(t.value - w) <= NIELSEN_ULPS * np.spacing(w), move


def test_the_lens_sum_has_irreducible_points():
    # the points the pin below reads are on stratum 3 and glue
    for m, n in ((1, 1), (2, 3)):
        rep = lens_sum_rep(m, n, math.pi / 3)
        assert strata.classify_stratum(rep).i == 3
        assert heegaard_mv_torsion(LENS_SUM, rep).value > 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 15: the glued torsion lacks the "
                          "handle torsion factors")
def test_a_nielsen_move_keeps_every_irreducible_torsion():
    # x1 -> x1 x2 on handle 1 scales the torsion by that handle's d0
    # volume ratio: 0.0238134 -> 0.0233304 at (m, n) = (1, 1) and
    # 0.0494323 -> 0.0397221 at (2, 3), both at phi = pi/3
    moved = oracles.nielsen(LENS_SUM, 1, 0, 1, 1)
    for m, n in ((1, 1), (2, 3)):
        rep = lens_sum_rep(m, n, math.pi / 3)
        want = heegaard_mv_torsion(LENS_SUM, rep).value
        t = heegaard_mv_torsion(moved, rep).value
        assert abs(t - want) <= NIELSEN_ULPS * np.spacing(want), (m, n)


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


def test_a_stack_of_mixed_coefficient_dims_gives_each_lone_torsion():
    # the genus-2 splitting of S^1 x S^2 # S^1 x S^2, both handles
    # killing the b-curves: irreducible points take the full algebra
    # (k = 3) and common-axis points the stabilizer line (k = 1); the
    # builder analyses each dim's handle and surface stacks and gives
    # each row its lone torsion, bit for bit
    x1, x2 = generator(0), generator(1)
    splitting = HeegaardData(2, free_group(2), (x1, x2, Word(), Word()),
                             (x1, x2, Word(), Word()), (x1, x2), (x1, x2))
    rng = np.random.default_rng(0)
    images = []
    for i in range(6):
        axis = rng.normal(size=3)
        images.append(su2.exp(rng.uniform(0.3, 2.5, size=(2, 1)) * axis
                              / np.linalg.norm(axis)) if i % 3 == 1
                      else su2.random_element(rng, (2,)))
    lone = [heegaard_mv_torsion(splitting, Representation(free_group(2), x))
            for x in images]
    reps = [Representation(free_group(2), x) for x in images]
    assert [strata.classify_stratum(rep).i for rep in reps] == \
        [3, 1, 3, 3, 1, 3]
    for got, want in zip(mv_torsions(splitting, reps), lone):
        assert (got.value, got.log_value) == (want.value, want.log_value)


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
