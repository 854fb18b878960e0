import cmath
import functools
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from su2strata import invariants, su2
from su2strata.errors import (CleanIntersectionError, DomainError, InputError,
                              ResidualError)
from su2strata.invariants import (Chart, HeegaardData, ModuliPoint,
                                  apply_value_table, assemble_invariant,
                                  clean_intersection_check,
                                  deduplicate_points, enumerate_moduli,
                                  find_conjugator, heegaard_mv_torsion,
                                  lens_heegaard, s1xs2_heegaard,
                                  stationary_phase_sum, trace_fingerprint)
from su2strata.presentations import (Representation, Word, cyclic_group,
                                     fox_fold, free_group, generator)
from su2strata.strata import classify_stratum
from su2strata.torsion import TorsionValue

AXIS = np.array([1.0, 0.0, 0.0])


def lens_rep(p, n):
    return Representation(cyclic_group(p),
                          [su2.exp(2 * math.pi * n / p * AXIS)])


def _conjugated(rep, q):
    return Representation(rep.presentation, su2.conjugate(rep.images, q),
                          tol=np.inf)


# -- fingerprints and conjugators ---------------------------------------

def test_fingerprint_is_conjugation_invariant():
    rng = np.random.default_rng(0)
    rep = Representation(
        free_group(3), np.array([su2.random_element(rng) for _ in range(3)]))
    q = su2.random_element(rng)
    assert trace_fingerprint(rep) == trace_fingerprint(_conjugated(rep, q))


def test_fingerprint_separates_lens_points():
    fps = [trace_fingerprint(lens_rep(5, n)) for n in range(3)]
    assert len(set(fps)) == 3


def test_find_conjugator_on_random_pairs():
    rng = np.random.default_rng(1)
    for trial in range(10):
        rep = Representation(
            free_group(2),
            np.array([su2.random_element(rng) for _ in range(2)]))
        q = su2.random_element(rng)
        found = find_conjugator(rep, _conjugated(rep, q))
        assert found is not None
        assert np.abs(_conjugated(rep, found).images
                      - _conjugated(rep, q).images).max() < 1e-7


def test_find_conjugator_rejects_nonconjugate():
    a = Representation(free_group(1), [su2.exp(0.5 * AXIS)])
    b = Representation(free_group(1), [su2.exp(0.8 * AXIS)])
    assert find_conjugator(a, b) is None


def test_find_conjugator_central_mismatch():
    a = Representation(free_group(1), [np.array([-1.0, 0, 0, 0])])
    b = Representation(free_group(1), [np.array([1.0, 0, 0, 0])])
    assert find_conjugator(a, b) is None
    assert find_conjugator(a, a) is not None


def _point(pid, rep):
    return ModuliPoint(point_id=pid, rep=rep, stratum=classify_stratum(rep),
                       component_dim=0, fingerprint=trace_fingerprint(rep))


def _conjugate(pt, kept):
    return find_conjugator(pt.rep, kept.rep) is not None


def test_deduplicate_merges_conjugates_only():
    rng = np.random.default_rng(2)
    rep = Representation(
        free_group(2), np.array([su2.random_element(rng) for _ in range(2)]))
    twin = _conjugated(rep, su2.random_element(rng))
    other = Representation(
        free_group(2), np.array([su2.random_element(rng) for _ in range(2)]))
    points = [_point("a", rep), _point("b", twin), _point("c", other)]
    merged = deduplicate_points(points)
    assert [p.point_id for p in merged] == ["a", "c"]
    assert merged == oracles.deduplicate(points, _conjugate)
    assert deduplicate_points([]) == []


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_deduplicate_merges_every_conjugate(seed, half_point):
    rng = np.random.default_rng(seed)
    first = su2.random_element(rng)
    if half_point:
        # a trace on a rounding half-point: the conjugate's trace, equal
        # up to rounding error, may round to the neighbouring value
        w = (math.floor(su2.trace(first) * 1e7) + 0.5) * 1e-7 / 2.0
        axis = first[1:] / np.linalg.norm(first[1:])
        first = np.array([w, *(math.sqrt(1.0 - w * w) * axis)])
    rep = Representation(free_group(2),
                         np.array([first, su2.random_element(rng)]))
    twin = _conjugated(rep, su2.random_element(rng))
    points = [_point("a", rep), _point("b", twin)]
    merged = deduplicate_points(points)
    assert [p.point_id for p in merged] == ["a"]
    assert merged == oracles.deduplicate(points, _conjugate)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_deduplicate_is_the_point_by_point_rule_on_a_chart_with_twins(seed):
    # a t3 chart with conjugated twins of some of its points, shuffled:
    # twins round up to a step apart, so every window of the matcher runs
    rng = np.random.default_rng(seed)
    chart = enumerate_moduli("t3", samples=4)
    twins = [_point(f"twin{k}", _conjugated(chart[k].rep,
                                            su2.random_element(rng)))
             for k in rng.choice(len(chart), 12, replace=False)]
    points = [*chart, *twins]
    points = [points[k] for k in rng.permutation(len(points))]
    merged = deduplicate_points(points)
    assert merged == oracles.deduplicate(points, _conjugate)
    assert len(merged) == len(chart)


_KINDS = ("haar", "axis", "central", "mixed")


def _tuple(kind, n, rng):
    """n images: Haar, on one random axis, all central, or each central
    or on one axis at random."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    images = []
    for _ in range(n):
        if kind == "haar":
            images.append(su2.random_element(rng))
        elif kind == "central" or (kind == "mixed" and rng.random() < 0.5):
            images.append(np.array([rng.choice([-1.0, 1.0]), 0.0, 0.0, 0.0]))
        else:
            images.append(su2.exp(rng.uniform(0.0, 2 * math.pi) * axis))
    return Representation(free_group(n), np.array(images))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_KINDS),
       st.sampled_from(_KINDS), st.integers(1, 4), st.floats(-5.0, 0.0))
def test_find_conjugator_solves_conjugates_and_refuses_others(
        seed, kind, other_kind, n, log_eps):
    rng = np.random.default_rng(seed)
    rep = _tuple(kind, n, rng)
    twin = _conjugated(rep, su2.random_element(rng))
    p = find_conjugator(rep, twin)
    assert p is not None
    assert np.abs(_conjugated(rep, p).images - twin.images).max() < 1e-7
    # an independent tuple, and the twin with one image moved off it
    moved = twin.images.copy()
    step = rng.normal(size=3)
    step *= 10.0 ** log_eps / np.linalg.norm(step)
    moved[0] = su2.multiply(su2.exp(step), moved[0])
    fingerprint = trace_fingerprint(twin)
    for other in (_tuple(other_kind, n, rng),
                  Representation(free_group(n), moved)):
        gap = max(abs(a - b) for a, b in
                  zip(fingerprint, trace_fingerprint(other)))
        if gap > 1e-6:
            assert find_conjugator(rep, other) is None


# -- Heegaard pipeline ---------------------------------------------------

def test_heegaard_data_validation():
    x = generator(0)
    with pytest.raises(DomainError, match="surface maps"):
        HeegaardData(1, cyclic_group(2), (x,), (x, Word()), (x,), (x,))
    with pytest.raises(DomainError, match="manifold maps"):
        HeegaardData(1, cyclic_group(2), (x, Word()), (x, Word()), (x, x),
                     (x,))


def test_heegaard_parts_agree_on_surface(monkeypatch):
    # the surface reps the builder makes, one stack a call, and the W it
    # forms over their stacked images
    made, formed = [], []
    representations, fold = invariants._representations, invariants.fox_fold

    def making(pres, images):
        out = representations(pres, images)
        if pres.kind == "surface":
            made.append(out)
        return out

    def forming(images, word):
        out = fold(images, word)
        formed.append(out[2])
        return out

    monkeypatch.setattr(invariants, "_representations", making)
    monkeypatch.setattr(invariants, "fox_fold", forming)
    heegaard_mv_torsion(lens_heegaard(5, 2), lens_rep(5, 1))
    points = enumerate_moduli("lens", p=5, q=2)
    lone, chart = made
    assert len(lone) == 1 and len(chart) == 2 and len(formed) == 2
    for sigma, rep in zip([*lone, *chart], [lens_rep(5, 1)] + [
            pt.rep for pt in points if pt.stratum.i != 0]):
        assert sigma.presentation.kind == "surface"
        # route 1: a1 -> x -> a
        assert np.allclose(sigma.images[0], rep.images[0])
        assert np.allclose(sigma.images[1], su2.identity(), atol=1e-12)
    # each row of a stacked W is its surface rep's own W, bit for bit
    for sigmas, W in zip(made, formed):
        assert len(W) == len(sigmas)
        for sigma, row in zip(sigmas, W):
            want = fox_fold(sigma.images, sigma.presentation.relators[0])[2]
            assert row.tobytes() == want.tobytes()


def test_lens_mv_torsion_is_one_over_p():
    for p, q in ((3, 1), (5, 1), (5, 2), (8, 3)):
        heegaard = lens_heegaard(p, q)
        for n in range(1, (p - 1) // 2 + 1):
            t = heegaard_mv_torsion(heegaard, lens_rep(p, n))
            assert abs(t.value - 1.0 / p) < 1e-9, (p, q, n)


@pytest.mark.parametrize("q", [7, 500])
def test_lens_torsion_laws_at_p_1009(q):
    p = 1009
    chart = enumerate_moduli("lens", p=p, q=q)
    assert len(chart) == p // 2 + 1
    assert [pt.point_id for pt in chart if pt.stratum.i == 0] == \
        [f"lens({p},{q}):n=0"]
    for pid, label, t in zip(chart.ids, chart.labels, chart.torsions):
        want = 1.0 if label.i == 0 else 1.0 / p
        assert abs(t.value - want) < 1e-9 * want, pid


@pytest.mark.parametrize("samples", [16, 500])
def test_s1xs2_interior_torsion_is_one(samples):
    chart = enumerate_moduli("s1xs2", samples=samples)
    interior = [t for dim, t in zip(chart.dims, chart.torsions) if dim == 1]
    assert len(interior) == samples - 1
    assert all(abs(t.value - 1.0) < 1e-9 for t in interior)


def test_s1xs2_family_torsion_is_one():
    heegaard = s1xs2_heegaard()
    for theta in (0.4, 1.2, 2.8):
        rep = Representation(free_group(1), [su2.exp(theta * AXIS)])
        t = heegaard_mv_torsion(heegaard, rep)
        assert abs(t.value - 1.0) < 1e-9


def test_mv_rejects_trivial_stratum():
    heegaard = s1xs2_heegaard()
    with pytest.raises(DomainError):
        heegaard_mv_torsion(heegaard, Representation.trivial(free_group(1)))


def test_lens_heegaard_validates_parameters():
    with pytest.raises(DomainError):
        lens_heegaard(4, 2)
    with pytest.raises(DomainError):
        lens_heegaard(0, 1)


# -- clean intersection --------------------------------------------------

def test_clean_check_passes_on_drivers():
    pt = enumerate_moduli("s1xs2", samples=6)[2]
    assert pt.stratum.i == 1 and pt.component_dim == 1
    assert clean_intersection_check(pt) is None


def test_clean_check_fails_on_declared_mismatch():
    pt = enumerate_moduli("s1xs2", samples=6)[2]
    bad = replace(pt, component_dim=2)
    with pytest.raises(CleanIntersectionError) as err:
        clean_intersection_check(bad)
    assert str(err.value) == \
        "point s1xs2:j=2/6: declared dim 2 != cohomology dim 1"


def test_clean_check_vacuous_on_trivial_stratum():
    pt = enumerate_moduli("s3")[0]
    assert clean_intersection_check(replace(pt, component_dim=5)) is None


def s1xs2_rows(M, bad=()):
    """The rows of enumerate_moduli's s1xs2 chart at M, with declared
    dimension 2 in place of 1 at each j in `bad`."""
    delta = math.pi / M
    return [("s1xs2:trivial", [0.0], 0, 1.0),
            *((f"s1xs2:j={j}/{M}", [j * delta], 2 if j in bad else 1, delta)
              for j in range(1, M)),
            ("s1xs2:central", [math.pi], 0, 1.0)]


def test_a_chart_raises_its_first_unclean_point():
    chart = functools.partial(invariants._chart_points, free_group(1),
                              s1xs2_heegaard(), tol=1e-8)
    pts, want = chart(s1xs2_rows(6)), enumerate_moduli("s1xs2", samples=6)
    assert (pts.ids, pts.fingerprints.tolist(), pts.weights) == \
        (want.ids, want.fingerprints.tolist(), want.weights)
    with pytest.raises(CleanIntersectionError) as err:
        chart(s1xs2_rows(6, bad=(2, 4)))
    with pytest.raises(CleanIntersectionError) as lone:
        clean_intersection_check(replace(pts[2], component_dim=2))
    assert str(err.value) == str(lone.value) == \
        "point s1xs2:j=2/6: declared dim 2 != cohomology dim 1"


# -- enumeration ---------------------------------------------------------

def test_lens_2_1_points():
    pts = enumerate_moduli("lens", p=2, q=1)
    assert [p.point_id for p in pts] == ["lens(2,1):n=0", "lens(2,1):n=1"]
    assert [p.stratum.i for p in pts] == [0, 0]
    assert [p.stratum.central_flag for p in pts] == [False, True]
    assert all(t.value == 1.0 for t in pts.torsions)


def test_lens_5_1_points():
    pts = enumerate_moduli("lens", p=5, q=1)
    assert len(pts) == 3
    assert [p.stratum.i for p in pts] == [0, 1, 1]
    for p, t in zip(pts[1:], pts.torsions[1:]):
        assert abs(t.value - 0.2) < 1e-9
        assert clean_intersection_check(p) is None


def test_lens_counts_match_floor_formula():
    for p in (2, 3, 5, 8):
        pts = enumerate_moduli("lens", p=p, q=1)
        assert len(pts) == p // 2 + 1
        assert all(clean_intersection_check(pt) is None for pt in pts)


def test_lens_requires_coprime_parameters():
    with pytest.raises(DomainError):
        enumerate_moduli("lens", p=4, q=2)
    with pytest.raises(DomainError):
        enumerate_moduli("lens")


def test_s3_single_trivial_point():
    pts = enumerate_moduli("s3")
    assert len(pts) == 1
    assert pts[0].stratum.i == 0 and not pts[0].stratum.central_flag
    assert pts.torsions[0].value == 1.0


def test_s1xs2_family_structure():
    M = 8
    pts = enumerate_moduli("s1xs2", samples=M)
    assert len(pts) == M + 1  # trivial + (M-1) interior + central
    assert pts[0].stratum.i == 0 and pts[-1].stratum.i == 0
    assert pts[-1].stratum.central_flag
    interior = pts[1:-1]
    assert all(p.stratum.i == 1 for p in interior)
    assert all(abs(w - math.pi / M) < 1e-12 for w in pts.weights[1:-1])
    assert all(p.component_dim == 1 for p in interior)


def test_t3_grid_structure():
    M = 3
    pts = enumerate_moduli("t3", samples=M)
    centrals = [p for p in pts if p.stratum.i == 0]
    family = [p for p in pts if p.stratum.i == 1]
    assert len(centrals) == 8
    assert len(family) == (M - 1) * M * M
    assert all(t is None for label, t in zip(pts.labels, pts.torsions)
               if label.i == 1)
    assert all(p.component_dim == 3 for p in family)
    assert all(clean_intersection_check(p) is None for p in pts)


def test_t3_chart_bound_is_inclusive(monkeypatch):
    import su2strata.invariants as inv
    monkeypatch.setattr(inv, "MAX_CHART_POINTS", 56)   # 8 + 3 * 4^2
    assert len(enumerate_moduli("t3", samples=4)) == 56
    with pytest.raises(InputError, match="108 points, more than 56"):
        enumerate_moduli("t3", samples=5)


def test_lens_chart_bound_is_inclusive(monkeypatch):
    import su2strata.invariants as inv
    monkeypatch.setattr(inv, "MAX_CHART_POINTS", 16)   # 31 // 2 + 1
    assert len(enumerate_moduli("lens", p=31, q=7)) == 16
    with pytest.raises(InputError, match="17 points, more than 16"):
        enumerate_moduli("lens", p=33, q=7)


_DOMAINS = [
    *(("lens", {"p": p, "q": q}, p // 2 + 1)
      for p in (1, 2, 3, 5, 8, 12, 31, 52) for q in (1, 2, 3, 5, 7)
      if math.gcd(p, q) == 1),
    *(("s1xs2", {"samples": M}, M + 1) for M in (2, 3, 8, 16, 40)),
    *(("t3", {"samples": M}, 8 + (M - 1) * M * M) for M in range(2, 7)),
]


def test_each_chart_is_a_fundamental_domain():
    # no two points of a built-in chart are conjugate, by a pairwise
    # trace oracle, and each chart has its closed-form count of classes;
    # so a chart needs no dedup, and enumerate_moduli runs none
    for example, kwargs, count in _DOMAINS:
        chart = enumerate_moduli(example, **kwargs)
        assert len(chart) == count, (example, kwargs)
        images = [rep.images for rep in chart.reps]
        assert oracles.conjugate_pairs(images) == [], (example, kwargs)


def test_the_trace_oracle_finds_a_conjugate_pair():
    # the law above is not vacuous: a conjugated copy of a chart point
    # is found, and so is the axis flip of a t3 point
    chart = enumerate_moduli("t3", samples=3)
    rep = chart.reps[10]
    q = su2.random_element(np.random.default_rng(4))
    images = [r.images for r in chart.reps]
    assert oracles.conjugate_pairs(
        [*images, _conjugated(rep, q).images]) == [(10, len(chart))]
    flip = np.array([[w, -x, -y, -z] for w, x, y, z in rep.images])
    assert oracles.conjugate_pairs([*images, flip]) == [(10, len(chart))]


def test_unknown_example():
    with pytest.raises(DomainError):
        enumerate_moduli("k3")


def test_explicit_candidates_validate_relators():
    pres = cyclic_group(4)
    rep = Representation(pres, [su2.exp(math.pi / 2 * AXIS)])
    twin = _conjugated(rep, su2.random_element(np.random.default_rng(3)))
    pts = deduplicate_points([_point("a", rep), _point("b", twin)])
    assert len(pts) == 1 and pts[0].stratum.i == 1
    with pytest.raises(ResidualError):
        Representation(pres, [su2.exp(0.5 * AXIS)])


# -- tables --------------------------------------------------------------

def test_apply_cs_table_by_id_and_fingerprint():
    pts = enumerate_moduli("lens", p=5, q=1)
    table = [{"point_id": "lens(5,1):n=1", "cs": 0.2},
             {"fingerprint": list(pts[2].fingerprint), "cs": 0.8}]
    out = apply_value_table(pts, table, "cs")
    assert out.cs[1] == 0.2 and out.cs[2] == 0.8
    assert out.cs[0] == 0.0  # untouched default


def test_apply_table_rejects_unmatched_and_malformed():
    pts = enumerate_moduli("s3")
    with pytest.raises(InputError):
        apply_value_table(pts, [{"point_id": "nope", "cs": 0.1}], "cs")
    with pytest.raises(InputError):
        apply_value_table(pts, [{"cs": 0.1}], "cs")
    with pytest.raises(InputError):
        apply_value_table(pts, [{"point_id": "s3:trivial", "x": 1}], "cs")
    with pytest.raises(InputError):
        apply_value_table(
            pts, [{"point_id": "s3:trivial", "torsion": -1.0}], "torsion")


def _picked(chart, rows, ids):
    """A chart of the given rows of `chart`, under new ids."""
    def pick(column):
        return [column[i] for i in rows]

    return Chart(ids, pick(chart.reps), pick(chart.labels), pick(chart.dims),
                 pick(chart.weights), chart.fingerprints[rows],
                 pick(chart.cs), pick(chart.torsions))


def test_fingerprint_entry_updates_every_matching_point():
    pts = _picked(enumerate_moduli("lens", p=5, q=1), [0, 1, 1],
                  ["lens(5,1):n=0", "lens(5,1):n=1", "twin"])
    twin = pts[2]
    table = [{"fingerprint": list(twin.fingerprint), "cs": 0.3},
             {"point_id": "twin", "cs": 0.6}]
    out = apply_value_table(pts, table, "cs")
    # both carriers of the fingerprint take it; the later id entry wins
    assert out.cs == [0.0, 0.3, 0.6]


@pytest.mark.parametrize("field", ["cs", "torsion"])
def test_a_rebuilt_point_is_what_replace_gives(field):
    # the M = 4 t3 golden tables key points by id and by fingerprint
    path = os.path.join(os.path.dirname(__file__), "golden",
                        f"t3-M4-{field}.json")
    with open(path, encoding="utf-8") as f:
        table = json.load(f)["entries"]
    # the chart a table gives is the old one with the one column it
    # sets replaced: every other column is the old chart's own
    pts = enumerate_moduli("t3", samples=4)
    out = apply_value_table(pts, table, field)
    assert type(out) is Chart and out is not pts
    assert len(out) == len(pts) == len(table)
    name = "cs" if field == "cs" else "torsions"
    for slot in Chart.__slots__:
        assert (getattr(out, slot) is getattr(pts, slot)) == \
            (slot != name), slot
    assert list(out) == list(pts)
    assert _values(out, field) == oracles.apply_table(
        pts.ids, pts.fingerprints.tolist(), _values(pts, field), table, field)
    if field == "torsion":
        assert out.torsions == [TorsionValue(t.value, math.log(t.value))
                                for t in out.torsions]


def test_fingerprint_entry_matches_within_one_rounding_step():
    # conjugate points can round one step apart, as in dedup; an exact
    # match used to reject such an entry as matching no point
    pts = enumerate_moduli("t3", samples=4)
    pt = next(p for p in pts if p.point_id == "t3:grid(1,3,0)/4")
    for j in range(len(pt.fingerprint)):
        for step in (-1e-7, 1e-7):
            fp = list(pt.fingerprint)
            fp[j] += step
            out = apply_value_table(
                pts, [{"fingerprint": fp, "torsion": 2.0}], "torsion")
            hit = [pid for pid, t in zip(out.ids, out.torsions)
                   if t is not None and t.value == 2.0]
            assert hit == [pt.point_id]
    far = list(pt.fingerprint)
    far[0] += 0.01
    with pytest.raises(InputError, match="matches no point"):
        apply_value_table(pts, [{"fingerprint": far, "torsion": 2.0}],
                          "torsion")


@functools.cache
def _chart(name):
    return (enumerate_moduli("t3", samples=4) if name == "t3"
            else enumerate_moduli("lens", p=12, q=5))


# a component moved by whole and half steps (the halves are rounding
# ties, or next to one), or replaced by a value clamped to -4 or 4
_MOVES = st.one_of(st.sampled_from([-2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2]),
                   st.sampled_from([math.nan, math.inf, -math.inf, 10**400,
                                    -10**400, 4.0, -4.0, 4.0000001]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["t3", "lens"]), st.data())
def test_table_hits_are_the_brute_force_matches(chart, data):
    pts = _chart(chart)
    fp = data.draw(st.sampled_from(pts.fingerprints.tolist()))
    moves = data.draw(st.lists(_MOVES, min_size=len(fp), max_size=len(fp)))
    fp = [v + m * 1e-7 if abs(m) <= 2 else m for v, m in zip(fp, moves)]
    fp = fp[:data.draw(st.integers(1, len(fp)))] + data.draw(
        st.lists(st.floats(-2.0, 2.0), max_size=1))   # lengths that differ
    want = [pt.point_id for pt in pts
            if oracles.fingerprints_match(pt.fingerprint, fp)]
    if not want:
        with pytest.raises(InputError, match="matches no point"):
            apply_value_table(pts, [{"fingerprint": fp, "cs": 0.5}], "cs")
        return
    out = apply_value_table(pts, [{"fingerprint": fp, "cs": 0.5}], "cs")
    assert [pid for pid, cs in zip(out.ids, out.cs) if cs == 0.5] == want


@pytest.mark.parametrize("chart", ["t3", "lens"])
@pytest.mark.parametrize("move", [-1, 1])
def test_an_entry_a_step_off_in_every_component_still_matches(chart, move):
    # the farthest a match can lie: the matcher's key window edge
    pts = _chart(chart)
    for n, pt in enumerate(pts):
        fp = [v + move * 1e-7 for v in pt.fingerprint]
        out = apply_value_table(pts, [{"fingerprint": fp, "cs": 0.5}], "cs")
        assert [pid for pid, cs in zip(out.ids, out.cs) if cs == 0.5] == [
            p.point_id for p in pts
            if oracles.fingerprints_match(p.fingerprint, fp)]
        assert pts.cs[n] != 0.5 and out.cs[n] == 0.5


def test_a_half_step_tie_rounds_to_even():
    # the trace 0 is step 0; 0.5 and 1.5 steps round to 0 and 2, so the
    # first matches and the second does not (half away from zero would
    # round 0.5 to 1, and match just the same)
    pts = _chart("t3")
    pt = next(p for p in pts if p.point_id == "t3:grid(1,1,0)/4")
    assert pt.fingerprint[1] == 0.0
    for tie, hit in ((0.5e-7, True), (1.5e-7, False), (-1.5e-7, False)):
        fp = list(pt.fingerprint)
        fp[1] = tie
        assert oracles.fingerprints_match(pt.fingerprint, fp) == hit
        if hit:
            out = apply_value_table(pts, [{"fingerprint": fp, "cs": 0.5}],
                                    "cs")
            assert [pid for pid, cs in zip(out.ids, out.cs) if cs == 0.5] \
                == [pt.point_id]
        else:
            with pytest.raises(InputError, match="matches no point"):
                apply_value_table(pts, [{"fingerprint": fp, "cs": 0.5}],
                                  "cs")


_ENTRIES = [
    {"point_id": "lens(5,1):n=1", "torsion": 0.5},
    {"fingerprint": [0.618034, 0.618034], "torsion": 2.0},
    {"point_id": "ghost", "torsion": 0.5},
    {"fingerprint": [9, 9], "torsion": 0.5},
    {"fingerprint": [9, 9], "torsion": "x"},       # unmatched before bad
    {"point_id": "lens(5,1):n=2", "torsion": "0.5"},
    {"point_id": "lens(5,1):n=2", "torsion": -1.0},
    {"point_id": "lens(5,1):n=2", "torsion": True},
    {"point_id": "lens(5,1):n=2", "cs": 0.5},
    5,
    {"point_id": 3, "torsion": 0.5},
    {"fingerprint": "ab", "torsion": 0.5},
    {"fingerprint": [1.0, False], "torsion": 0.5},
    {"torsion": 0.5},
    {"point_id": "lens(5,1):n=1", "fingerprint": [9, 9], "torsion": 0.5},
    {"point_id": "lens(5,1):n=1", "torsion": 0.5, "x": 1},
]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_ENTRIES), max_size=5))
def test_a_table_raises_the_error_of_its_first_failing_entry(table):
    # entries are checked one at a time, in order, as a lone entry is
    pts = enumerate_moduli("lens", p=5, q=1)

    def lone_error(entry):
        try:
            apply_value_table(pts, [entry], "torsion")
        except InputError as e:
            return str(e)

    first = next(filter(None, map(lone_error, table)), None)
    if first is None:
        apply_value_table(pts, table, "torsion")
    else:
        with pytest.raises(InputError) as e:
            apply_value_table(pts, table, "torsion")
        assert str(e.value) == first


@pytest.mark.parametrize("entry", [
    {"fingerprint": ["a", 1], "cs": 0.1},
    {"fingerprint": 5, "cs": 0.1},
    {"point_id": ["s3:trivial"], "cs": 0.1},
    {"point_id": 7, "cs": 0.1},
    {"point_id": "s3:trivial", "cs": "abc"},
    {"point_id": "s3:trivial", "cs": None},
    {"point_id": "s3:trivial", "cs": "nan"},
    {"point_id": "s3:trivial", "cs": float("inf")},
    {"fingerprint": [float("nan"), 1.0], "cs": 0.1},
    {"fingerprint": [float("inf"), 10**400], "cs": 0.1},
])
def test_apply_table_rejects_malformed_entries(entry):
    pts = enumerate_moduli("s3")
    with pytest.raises(InputError):
        apply_value_table(pts, [entry], "cs")


def test_torsion_table_fills_t3_family():
    pts = enumerate_moduli("t3", samples=2)
    family = [pid for pid, t in zip(pts.ids, pts.torsions) if t is None]
    with pytest.raises(DomainError):
        assemble_invariant(pts, 1)
    table = [{"point_id": pid, "torsion": 1.0} for pid in family]
    filled = apply_value_table(pts, table, "torsion")
    inv = assemble_invariant(filled, 1)
    assert inv.point_count == len(pts)


def _values(chart, field):
    """A chart's cs column, or its torsion values (None where unset)."""
    return list(chart.cs) if field == "cs" else [
        t.value if t else None for t in chart.torsions]


@functools.cache
def _table_chart(name):
    return (enumerate_moduli("t3", samples=3) if name == "t3"
            else enumerate_moduli("lens", p=12, q=5))


def _moved(fp, how, j, bad):
    """A chart fingerprint as an entry gives it: exact, one step off in
    component j, a component short or long, or with `bad` at j."""
    fp = list(fp)
    j %= len(fp)
    if how == "step":
        fp[j] += 1e-7
    elif how == "short":
        fp.pop()
    elif how == "long":
        fp.append(1.0)
    elif how == "bad":
        fp[j] = bad
    return fp


_BAD_COMPONENTS = st.sampled_from(
    ["1.0", True, False, None, math.nan, math.inf, -math.inf, 10**400,
     -10**400])
_BAD_VALUES = st.sampled_from(
    ["0.5", True, None, math.nan, math.inf, 10**400, 0.0, -1.0])


def _mostly(good, bad):
    """Draws of `good`, and of `bad` about one time in six."""
    return st.sampled_from([good] * 5 + [bad]).flatmap(lambda s: s)


def _entries(name, field):
    """Value tables for the named chart: entries by id or by fingerprint
    (exact, a step off, the wrong width or with a bad component), with a
    value that is a number or not, now and then a malformed key, and at
    most one entry that is not an object or names the other field."""
    chart = _table_chart(name)
    fingerprints = st.builds(
        _moved, st.sampled_from(chart.fingerprints.tolist()),
        _mostly(st.sampled_from(["exact", "step"]),
                st.sampled_from(["short", "long", "bad"])),
        st.integers(0, 6), _BAD_COMPONENTS)
    keys = _mostly(
        st.one_of(st.sampled_from(chart.ids).map(lambda i: {"point_id": i}),
                  fingerprints.map(lambda fp: {"fingerprint": fp})),
        st.sampled_from([{"point_id": "ghost"}, {"point_id": 3}, {},
                         {"point_id": chart.ids[1], "fingerprint": [1.0]},
                         {"point_id": chart.ids[1], "x": 1}]))
    entries = st.builds(lambda key, v: {**key, field: v}, keys,
                        _mostly(st.floats(0.05, 3.0), _BAD_VALUES))
    odd = _mostly(st.none(), st.one_of(
        st.just(5), st.sampled_from(["cs", "torsion"]).map(
            lambda f: {"point_id": chart.ids[0], f: 0.5})))
    return st.builds(lambda table, entry, at: table if entry is None else
                     [*table[:at], entry, *table[at:]],
                     st.lists(entries, max_size=5), odd, st.integers(0, 5))


_CASES = st.tuples(st.sampled_from(["t3", "lens"]),
                   st.sampled_from(["cs", "torsion"])).flatmap(
    lambda nf: st.tuples(st.just(nf[0]), st.just(nf[1]), _entries(*nf)))
_LENS_1 = [1.7320508, 1.7320508]     # lens(12, 5) point 1's fingerprint


@settings(max_examples=300, deadline=None)
@given(_CASES)
@example(("lens", "cs", [{"point_id": "lens(12,5):n=1", "cs": 0.25},
                         {"fingerprint": _LENS_1, "cs": 1.75}]))
@example(("lens", "torsion", [
    {"point_id": "lens(12,5):n=2", "torsion": 2.0},
    {"fingerprint": [1.7320508, 1.7320509], "torsion": 0.5},
    {"point_id": "lens(12,5):n=2", "torsion": 3.0}]))
@example(("lens", "torsion", [{"point_id": "lens(12,5):n=2", "torsion": 2},
                              {"point_id": "ghost", "torsion": 1.0}]))
@example(("lens", "cs", [{"point_id": "lens(12,5):n=0", "cs": 0.5},
                         {"fingerprint": [1.0, "1.0"], "cs": 0.5},
                         {"point_id": "ghost", "cs": 0.1}]))
@example(("lens", "cs", [{"fingerprint": [True, 1.7320508], "cs": 0.5}]))
@example(("lens", "cs", [{"fingerprint": [1.7320508], "cs": 0.5}]))
@example(("lens", "torsion", [{"point_id": "lens(12,5):n=3",
                               "torsion": True}]))
@example(("lens", "torsion", [{"point_id": "lens(12,5):n=3",
                               "torsion": 0.0}]))
@example(("t3", "torsion", [{"fingerprint": [2.0] * 7, "torsion": 1.5},
                            {"fingerprint": [2.0, 2.0], "torsion": 1.0}]))
@example(("t3", "cs", [{"point_id": "t3:grid(1,0,0)/3", "cs": 0.5},
                       {"fingerprint": [math.nan, math.inf, 10**400,
                                        -10**400, 1.0, 1.0, 1.0],
                        "cs": 0.1}]))
@example(("t3", "cs", [{"point_id": "t3:grid(2,1,2)/3", "cs": math.nan}]))
@example(("t3", "cs", [{"point_id": "t3:grid(2,1,2)/3", "cs": 0.5,
                        "fingerprint": [2.0] * 7}, 5]))
@example(("t3", "torsion", [{"point_id": "t3:grid(2,1,2)/3", "cs": 0.5}]))
@example(("t3", "torsion", [5, {"point_id": "ghost", "torsion": 1.0}]))
def test_a_table_sets_what_the_brute_force_reference_sets(case):
    # the one-pass reader gives the column the entry-by-entry reference
    # gives, or raises the message of the same first failing entry
    name, field, table = case
    chart = _table_chart(name)
    try:
        want = oracles.apply_table(chart.ids, chart.fingerprints.tolist(),
                                   _values(chart, field), table, field)
    except ValueError as e:
        with pytest.raises(InputError) as got:
            apply_value_table(chart, table, field)
        assert str(got.value) == str(e)
        return
    assert _values(apply_value_table(chart, table, field), field) == want


# -- assembly ------------------------------------------------------------

def _isolated(*points):
    """A chart of trivial points of weight 1, one per (id, cs, torsion)."""
    rep = Representation.trivial(cyclic_group(1))
    n = len(points)
    ids, cs, torsions = zip(*points) if points else ((), (), ())
    return Chart(ids, [rep] * n, [classify_stratum(rep)] * n, [0] * n,
                 [1.0] * n, np.array([trace_fingerprint(rep)] * n,
                                     ndmin=2), list(cs),
                 [TorsionValue(t, math.log(t)) for t in torsions])


def test_assemble_trivial_point():
    inv = assemble_invariant(_isolated(("x", 0.0, 1.0)), k=5)
    assert inv.per_stratum[0] == 1.0 + 0.0j
    assert inv.total == 1.0 + 0.0j


def test_assemble_opposite_phases_cancel():
    pts = _isolated(("x", 0.0, 1.0), ("y", 0.5, 1.0))
    inv = assemble_invariant(pts, k=1)
    assert abs(inv.total) < 1e-12


def test_assemble_empty_is_zero():
    inv = assemble_invariant(_isolated(), k=3)
    assert inv.total == 0.0 + 0.0j


def test_assemble_total_is_exact_stratum_sum():
    pts = enumerate_moduli("lens", p=8, q=1)
    table = [{"point_id": p.point_id, "cs": 0.1 * i}
             for i, p in enumerate(pts)]
    inv = assemble_invariant(apply_value_table(pts, table, "cs"), k=3)
    assert inv.total == inv.per_stratum[0] + inv.per_stratum[1] \
        + inv.per_stratum[3]


def test_assemble_is_k_independent_at_zero_cs():
    pts = enumerate_moduli("lens", p=5, q=1)
    totals = {assemble_invariant(pts, k).total for k in (1, 3, 7)}
    assert len(totals) == 1


def test_assemble_refuses_failing_verdict():
    # a failing point never reaches the sum: its chart refuses it, as
    # the lone check does
    with pytest.raises(CleanIntersectionError) as chart:
        invariants._chart_points(free_group(1), s1xs2_heegaard(),
                                 s1xs2_rows(4, bad=(1,)), 1e-8)
    bad = replace(enumerate_moduli("s1xs2", samples=4)[1], component_dim=2)
    with pytest.raises(CleanIntersectionError) as lone:
        clean_intersection_check(bad)
    assert bad.point_id in str(chart.value)
    assert str(chart.value) == str(lone.value)


def test_conjugation_leaves_invariant_data_unchanged():
    pts = enumerate_moduli("lens", p=5, q=1)
    q = su2.random_element(np.random.default_rng(3))
    heegaard = lens_heegaard(5, 1)
    for pt, torsion in zip(pts, pts.torsions):
        conj = _conjugated(pt.rep, q)
        assert trace_fingerprint(conj) == pt.fingerprint
        if pt.stratum.i == 1:
            t = heegaard_mv_torsion(heegaard, conj)
            assert abs(t.value - torsion.value) < 1e-9


# -- stationary phase ----------------------------------------------------

def test_stationary_phase_single_unit():
    val = stationary_phase_sum([(1.0, 0, 0.0)], k=4)
    expected = 0.5 * cmath.exp(3j * math.pi / 4)
    assert abs(val - expected) < 1e-12
    assert abs(val - complex(-0.3535533906, 0.3535533906)) < 1e-9


def test_stationary_phase_opposite_flows_cancel():
    val = stationary_phase_sum([(1.0, 0, 0.0), (1.0, 2, 0.0)], k=9)
    assert abs(val) < 1e-12


def test_stationary_phase_sqrt_scaling():
    val = stationary_phase_sum([(4.0, 0, 0.0)], k=2)
    assert abs(val - cmath.exp(3j * math.pi / 4)) < 1e-12


def test_stationary_phase_level_enters_through_cs():
    cs = 0.31
    for k in (1, 5):
        val = stationary_phase_sum([(1.0, 0, cs)], k=k)
        expected = 0.5 * cmath.exp(3j * math.pi / 4) * \
            cmath.exp(2j * math.pi * cs * (k + 2))
        assert abs(val - expected) < 1e-12


def test_stationary_phase_magnitude_bound():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        entries = [(float(rng.uniform(0.1, 4.0)), int(rng.integers(-3, 4)),
                    float(rng.uniform(0, 1))) for _ in range(m)]
        val = stationary_phase_sum(entries, k=int(rng.integers(1, 9)))
        bound = 0.5 * sum(math.sqrt(t) for t, _, _ in entries)
        assert abs(val) <= bound + 1e-12


def test_stationary_phase_validates_entries():
    for entry in [(0.0, 0, 0.0), (1.0, 0.5, 0.0),
                  (math.nan, 0, 0.0), (math.inf, 0, 0.0), (1.0, 0, math.inf),
                  (1.0, math.nan, 0.0), (1.0, math.inf, 0.0)]:
        with pytest.raises(DomainError):
            stationary_phase_sum([entry], k=1)


@pytest.mark.parametrize("entry, k", [
    ((1.0, 0, 1e308), 2),               # 2 pi cs (k + 2) overflows
    ((1.0, 10**308, 0.25), 2),          # 2 pi flow / 4 overflows
    ((1.0, 0, 1e300), 10**10),          # a finite cs at a huge level
])
def test_stationary_phase_refuses_a_phase_that_overflows(entry, k):
    # the sum used to be nan+nanj; the error names the entry
    with pytest.raises(DomainError, match="entry 1 .*phase overflows"):
        stationary_phase_sum([(1.0, 0, 0.25), entry], k=k)


def test_stationary_phase_takes_a_large_finite_phase():
    # cmath.exp of a huge but finite phase is finite, and so is the sum
    val = stationary_phase_sum([(1.0, 10**300, 1e300)], k=2)
    assert cmath.isfinite(val) and abs(val) <= 0.5 + 1e-12


@pytest.mark.parametrize("entry", [("0.25", True, "0.5"), (1.0, True, 0.0)])
def test_stationary_phase_reads_entries_as_json_numbers(entry):
    # a str or a bool used to be read as the number it spells
    with pytest.raises(DomainError):
        stationary_phase_sum([entry], k=1)
