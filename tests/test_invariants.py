import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

from su2strata import su2
from su2strata.errors import (CleanIntersectionError, DomainError, InputError,
                              ResidualError)
from su2strata.invariants import (HeegaardData, ModuliPoint,
                                  apply_value_table, assemble_invariant,
                                  clean_intersection_check, custom_points,
                                  deduplicate_points, enumerate_moduli,
                                  find_conjugator, heegaard_mv_torsion,
                                  heegaard_representations, lens_heegaard,
                                  s1xs2_heegaard, stationary_phase_sum,
                                  t3_presentation, trace_fingerprint)
from su2strata.presentations import (Representation, Word, cyclic_group,
                                     free_group, generator)
from su2strata.torsion import TorsionValue

AXIS = np.array([1.0, 0.0, 0.0])


def lens_rep(p, n):
    return Representation(cyclic_group(p),
                          [su2.exp(2 * math.pi * n / p * AXIS)])


# -- fingerprints and conjugators ---------------------------------------

def test_fingerprint_is_conjugation_invariant():
    rng = np.random.default_rng(0)
    rep = Representation(
        free_group(3), np.array([su2.random_element(rng) for _ in range(3)]))
    q = su2.random_element(rng)
    assert trace_fingerprint(rep) == trace_fingerprint(rep.conjugated(q))


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
        found = find_conjugator(rep, rep.conjugated(q))
        assert found is not None
        assert np.abs(rep.conjugated(found).images
                      - rep.conjugated(q).images).max() < 1e-7


def test_find_conjugator_rejects_nonconjugate():
    a = Representation(free_group(1), [su2.exp(0.5 * AXIS)])
    b = Representation(free_group(1), [su2.exp(0.8 * AXIS)])
    assert find_conjugator(a, b) is None


def test_find_conjugator_central_mismatch():
    a = Representation(free_group(1), [np.array([-1.0, 0, 0, 0])])
    b = Representation(free_group(1), [np.array([1.0, 0, 0, 0])])
    assert find_conjugator(a, b) is None
    assert find_conjugator(a, a) is not None


def test_deduplicate_merges_conjugates_only():
    rng = np.random.default_rng(2)
    rep = Representation(
        free_group(2), np.array([su2.random_element(rng) for _ in range(2)]))
    twin = rep.conjugated(su2.random_element(rng))
    other = Representation(
        free_group(2), np.array([su2.random_element(rng) for _ in range(2)]))

    def point(pid, r):
        from su2strata.strata import classify_stratum
        return ModuliPoint(point_id=pid, rep=r,
                           stratum=classify_stratum(r), component_dim=0,
                           weight=1.0, fingerprint=trace_fingerprint(r))

    merged = deduplicate_points([point("a", rep), point("b", twin),
                                 point("c", other)])
    assert [p.point_id for p in merged] == ["a", "c"]


# -- Heegaard pipeline ---------------------------------------------------

def test_heegaard_data_validation():
    x = generator(0)
    with pytest.raises(DomainError):
        HeegaardData(1, cyclic_group(2), ("x", "y"), ("z",), (x, Word()),
                     (x, Word()), (x,), (x,))


def test_heegaard_representations_agree_on_surface():
    heegaard = lens_heegaard(5, 2)
    h1, h2, sigma = heegaard_representations(heegaard, lens_rep(5, 1))
    assert sigma.presentation.kind == "surface"
    # route 1: a1 -> x -> a
    assert np.allclose(sigma.images[0], lens_rep(5, 1).images[0])
    assert np.allclose(sigma.images[1], su2.identity(), atol=1e-12)


def test_lens_mv_torsion_is_one_over_p():
    for p, q in ((3, 1), (5, 1), (5, 2), (8, 3)):
        heegaard = lens_heegaard(p, q)
        for n in range(1, (p - 1) // 2 + 1):
            t = heegaard_mv_torsion(heegaard, lens_rep(p, n))
            assert abs(t.value - 1.0 / p) < 1e-9, (p, q, n)


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
    assert pt.stratum.i == 1
    verdict = clean_intersection_check(pt)
    assert verdict.passes and verdict.cohomology_dim == 1


def test_clean_check_fails_on_declared_mismatch():
    import dataclasses
    pt = enumerate_moduli("s1xs2", samples=6)[2]
    bad = dataclasses.replace(pt, component_dim=2)
    verdict = clean_intersection_check(bad)
    assert not verdict.passes
    assert (verdict.declared_dim, verdict.cohomology_dim) == (2, 1)


def test_clean_check_vacuous_on_trivial_stratum():
    pt = enumerate_moduli("s3")[0]
    assert clean_intersection_check(pt).passes


# -- enumeration ---------------------------------------------------------

def test_lens_2_1_points():
    pts = enumerate_moduli("lens", p=2, q=1)
    assert [p.point_id for p in pts] == ["lens(2,1):n=0", "lens(2,1):n=1"]
    assert [p.stratum.i for p in pts] == [0, 0]
    assert [p.stratum.central_flag for p in pts] == [False, True]
    assert all(p.torsion.value == 1.0 for p in pts)


def test_lens_5_1_points():
    pts = enumerate_moduli("lens", p=5, q=1)
    assert len(pts) == 3
    assert [p.stratum.i for p in pts] == [0, 1, 1]
    for p in pts[1:]:
        assert abs(p.torsion.value - 0.2) < 1e-9
        assert p.clean.passes


def test_lens_counts_match_floor_formula():
    for p in (2, 3, 5, 8):
        pts = enumerate_moduli("lens", p=p, q=1)
        assert len(pts) == p // 2 + 1
        assert all(pt.clean.passes for pt in pts)


def test_lens_requires_coprime_parameters():
    with pytest.raises(DomainError):
        enumerate_moduli("lens", p=4, q=2)
    with pytest.raises(DomainError):
        enumerate_moduli("lens")


def test_s3_single_trivial_point():
    pts = enumerate_moduli("s3")
    assert len(pts) == 1
    assert pts[0].stratum.i == 0 and not pts[0].stratum.central_flag
    assert pts[0].torsion.value == 1.0


def test_s1xs2_family_structure():
    M = 8
    pts = enumerate_moduli("s1xs2", samples=M)
    assert len(pts) == M + 1  # trivial + (M-1) interior + central
    assert pts[0].stratum.i == 0 and pts[-1].stratum.i == 0
    assert pts[-1].stratum.central_flag
    interior = pts[1:-1]
    assert all(p.stratum.i == 1 for p in interior)
    assert all(abs(p.weight - math.pi / M) < 1e-12 for p in interior)
    assert all(p.component_dim == 1 for p in interior)


def test_t3_grid_structure():
    M = 3
    pts = enumerate_moduli("t3", samples=M)
    centrals = [p for p in pts if p.stratum.i == 0]
    family = [p for p in pts if p.stratum.i == 1]
    assert len(centrals) == 8
    assert len(family) == (M - 1) * M * M
    assert all(p.torsion is None for p in family)
    assert all(p.component_dim == 3 for p in family)
    assert all(p.clean.passes for p in pts)


def test_unknown_example():
    with pytest.raises(DomainError):
        enumerate_moduli("k3")


def test_custom_points_validate_relators():
    pres = cyclic_group(4)
    good = [su2.exp(math.pi / 2 * AXIS)]
    bad = [su2.exp(0.5 * AXIS)]
    pts = custom_points(pres, [good], [0])
    assert len(pts) == 1 and pts[0].stratum.i == 1
    with pytest.raises(ResidualError):
        custom_points(pres, [bad], [0])


# -- tables --------------------------------------------------------------

def test_apply_cs_table_by_id_and_fingerprint():
    pts = enumerate_moduli("lens", p=5, q=1)
    table = [{"point_id": "lens(5,1):n=1", "cs": 0.2},
             {"fingerprint": list(pts[2].fingerprint), "cs": 0.8}]
    out = apply_value_table(pts, table, "cs")
    assert out[1].cs_value == 0.2 and out[2].cs_value == 0.8
    assert out[0].cs_value == 0.0  # untouched default


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


def test_fingerprint_entry_updates_every_matching_point():
    pts = enumerate_moduli("lens", p=5, q=1)
    twin = replace(pts[1], point_id="twin")
    pts = [pts[0], pts[1], twin]
    table = [{"fingerprint": list(twin.fingerprint), "cs": 0.3},
             {"point_id": "twin", "cs": 0.6}]
    out = apply_value_table(pts, table, "cs")
    # both carriers of the fingerprint take it; the later id entry wins
    assert [pt.cs_value for pt in out] == [0.0, 0.3, 0.6]


@pytest.mark.parametrize("entry", [
    {"fingerprint": ["a", 1], "cs": 0.1},
    {"fingerprint": 5, "cs": 0.1},
    {"point_id": ["s3:trivial"], "cs": 0.1},
    {"point_id": 7, "cs": 0.1},
    {"point_id": "s3:trivial", "cs": "abc"},
    {"point_id": "s3:trivial", "cs": None},
    {"point_id": "s3:trivial", "cs": "nan"},
    {"point_id": "s3:trivial", "cs": float("inf")},
])
def test_apply_table_rejects_malformed_entries(entry):
    pts = enumerate_moduli("s3")
    with pytest.raises(InputError):
        apply_value_table(pts, [entry], "cs")


def test_torsion_table_fills_t3_family():
    pts = enumerate_moduli("t3", samples=2)
    family = [p for p in pts if p.torsion is None]
    with pytest.raises(DomainError):
        assemble_invariant(pts, 1)
    table = [{"point_id": p.point_id, "torsion": 1.0} for p in family]
    filled = apply_value_table(pts, table, "torsion")
    inv = assemble_invariant(filled, 1)
    assert inv.point_count == len(pts)


# -- assembly ------------------------------------------------------------

def _isolated(pid, cs, torsion, i=0):
    rep = Representation.trivial(cyclic_group(1))
    from su2strata.strata import classify_stratum
    return ModuliPoint(point_id=pid, rep=rep, stratum=classify_stratum(rep),
                       component_dim=0, weight=1.0,
                       fingerprint=trace_fingerprint(rep), cs_value=cs,
                       torsion=TorsionValue(torsion, math.log(torsion)))


def test_assemble_trivial_point():
    inv = assemble_invariant([_isolated("x", 0.0, 1.0)], k=5)
    assert inv.per_stratum[0] == 1.0 + 0.0j
    assert inv.total == 1.0 + 0.0j


def test_assemble_opposite_phases_cancel():
    pts = [_isolated("x", 0.0, 1.0), _isolated("y", 0.5, 1.0)]
    inv = assemble_invariant(pts, k=1)
    assert abs(inv.total) < 1e-12


def test_assemble_empty_is_zero():
    inv = assemble_invariant([], k=3)
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
    import dataclasses
    pts = enumerate_moduli("s1xs2", samples=4)
    bad = dataclasses.replace(pts[1], component_dim=2)
    bad = dataclasses.replace(bad, clean=clean_intersection_check(bad))
    with pytest.raises(CleanIntersectionError) as err:
        assemble_invariant([pts[0], bad], 1)
    assert bad.point_id in str(err.value)


def test_conjugation_leaves_invariant_data_unchanged():
    pts = enumerate_moduli("lens", p=5, q=1)
    q = su2.random_element(np.random.default_rng(3))
    heegaard = lens_heegaard(5, 1)
    for pt in pts:
        conj = pt.rep.conjugated(q)
        assert trace_fingerprint(conj) == pt.fingerprint
        if pt.stratum.i == 1:
            t = heegaard_mv_torsion(heegaard, conj)
            assert abs(t.value - pt.torsion.value) < 1e-9


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
