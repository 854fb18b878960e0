"""One stacked cohomology analysis for many coefficient systems.

`_stack_cohomologies` analyses a shape group's basis, Ad and Fox-row
stacks from one SVD per stack of equal-shape matrices;
`_system_cohomologies` stacks systems for it, and a chart passes it the
stacks it folded and passes the summaries on as columns, keeping none.
These tests pin that a stack gives exactly what single calls give, that
the core on a chart's stacks gives every field of the object path bit
for bit, or its first error, that a stack with a failing system
raises the lone error of its first failing system in the first check
that fails, that a failed stack keeps nothing on any of its systems'
representations, that each
(representation, basis, tol) is analysed once by a chart and once by
lone calls, and that the SVD count of a t3 chart, its stacked d0/d1
builds and its label passes do not grow with the chart.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import su2strata.cohomology as coh
from su2strata import invariants, presentations, strata, su2
from su2strata.errors import RankAmbiguityError, ResidualError
from su2strata.invariants import (clean_intersection_check, enumerate_moduli,
                                  t3_presentation)
from su2strata.presentations import Representation, cyclic_group, free_group
from su2strata.strata import classify_stratum, stratum_tangent_dim


def summaries(rep) -> int:
    """How many cohomology summaries rep keeps."""
    return sum(isinstance(v, coh.CohomologySummary)
               for v in rep._kept.values())

PRESENTATIONS = {
    "free1": free_group(1),
    "free2": free_group(2),
    "free4": free_group(4),
    "t3": t3_presentation(),
    "cyclic5": cyclic_group(5),
}
KINDS = ("haar", "axis", "central", "near-axis", "near-central")
BASES = ("full", "line", "line-view", "plane")


def unit(v):
    return v / np.linalg.norm(v)


def chart_images(rng, name, kind, tol):
    """Images of one generated tuple; only free groups take Haar tuples,
    and the near kinds sit a few tol away from a smaller stratum (on
    cyclic5, whose relator holds only at a 5th root of unity, the
    near-central-axis kind is an exact root)."""
    pres = PRESENTATIONS[name]
    n = pres.num_generators
    axis = unit(rng.normal(size=3))
    if kind == "haar" and name.startswith("free"):
        return np.array([su2.random_element(rng) for _ in range(n)]), axis
    if kind == "near-central":
        return np.array([su2.exp(c * tol * unit(rng.normal(size=3)))
                         for c in rng.uniform(0.3, 30.0, size=n)]), axis
    if kind == "near-central-axis" and name != "cyclic5":
        # commuting images a few tol from the identity, on one axis: the
        # relators of t3 hold to rounding, and d0 and d1 sit near tol
        return np.array([su2.exp(c * tol * axis)
                         for c in rng.uniform(0.3, 30.0, size=n)]), axis
    if name == "cyclic5":
        angles = [2 * np.pi * rng.integers(5) / 5]
    elif kind == "central":
        angles = np.pi * rng.integers(2, size=n)
    else:
        angles = rng.uniform(0.2, np.pi - 0.2, size=n)
    images = [su2.exp(t * axis) for t in angles]
    if kind == "near-axis":
        tilt = unit(np.cross(axis, rng.normal(size=3)))
        images[0] = su2.exp(angles[0] * unit(
            axis + rng.uniform(0.3, 30.0) * tol * tilt))
    return np.array(images), axis


def basis_for(axis, kind):
    if kind == "full":
        return np.eye(3)
    if kind == "line":
        return axis.reshape(3, 1)
    if kind == "line-view":
        # the axis as the first column of a matrix: a strided view, as a
        # basis_h0 slice is
        view = np.column_stack([axis, axis, axis])[:, :1]
        assert not view.flags.c_contiguous
        return view
    return np.linalg.svd(axis.reshape(1, 3))[2][1:].T


def build(seed, specs, tol):
    """Two copies of the same systems on fresh representations; specs
    sharing a tuple index share one representation."""
    rng = np.random.default_rng(seed)
    tuples = {}
    copies = ([], [])
    for name, kind, basis_kind, t in specs:
        if t not in tuples:
            images, axis = chart_images(rng, name, kind, tol)
            reps = tuple(Representation(PRESENTATIONS[name], images,
                                        tol=np.inf) for _ in range(2))
            tuples[t] = (reps, axis)
        reps, axis = tuples[t]
        basis = basis_for(axis, basis_kind)
        for copy, rep in zip(copies, reps):
            copy.append(coh.CoefficientSystem(rep, basis))
    return copies


def outcome(f, *args):
    """f(*args), or the error it raises."""
    try:
        return f(*args)
    except Exception as e:      # noqa: BLE001 - the same error, any type
        return e


def check_order(i, systems, error) -> tuple:
    """Where the stacked analysis meets system i's lone error: the
    relator residuals of every system first, then, shape group by shape
    group in order of first appearance, d1 d0 before the ranks."""
    def shape(sys):
        return sys.k, sys.n, len(sys.rep.presentation.relators)
    if "too large for cohomology" in str(error):
        return 0, 0, 0, i
    group = min(j for j, sys in enumerate(systems)
                if shape(sys) == shape(systems[i]))
    return 1, group, "composite norm" not in str(error), i


def assert_same_summary(a, b):
    assert (a.h0, a.h1, a.z1, a.coefficient_dim) == \
        (b.h0, b.h1, b.z1, b.coefficient_dim)
    assert a.warnings == b.warnings
    assert dict(a.singular_values) == dict(b.singular_values)
    for x, y in ((a.basis_h0, b.basis_h0), (a.basis_h1, b.basis_h1)):
        assert x.shape == y.shape and x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(sorted(PRESENTATIONS)),
                          st.sampled_from(KINDS), st.sampled_from(BASES),
                          st.integers(0, 3)), min_size=1, max_size=10),
       st.sampled_from([1e-8, 1e-6]))
# a strided line basis, analysed beside a mate of its shape and alone
@example(seed=0, specs=[("t3", "axis", "line-view", 0),
                        ("t3", "axis", "line", 1)], tol=1e-8)
# row 0 fails its ranks and row 1 its relator residual; every residual
# is checked before any ranks, so the batch raises row 1's error
@example(seed=215657798, specs=[("t3", "near-central", "full", 1),
                                ("cyclic5", "near-central", "line-view", 0)],
         tol=1e-6)
def test_a_batch_gives_what_single_calls_give(seed, specs, tol):
    batch_systems, single_systems = build(seed, specs, tol)
    lone = [outcome(coh.system_cohomology, sys, tol)
            for sys in single_systems]
    failed = [i for i, s in enumerate(lone) if isinstance(s, Exception)]
    if not failed:
        for got, want in zip(coh._system_cohomologies(batch_systems, tol),
                             lone):
            assert_same_summary(got, want)
        return
    first = lone[min(failed, key=lambda i: check_order(
        i, single_systems, lone[i]))]
    with pytest.raises(type(first)) as got:
        coh._system_cohomologies(batch_systems, tol)
    assert str(got.value) == str(first)


def core_cohomologies(drawn, tol) -> list:
    """What `_system_cohomologies` does with objects, done as a chart
    does it: the stack core over each (coefficient dim, presentation)
    group of drawn (presentation name, images, basis) rows, in order of
    first appearance, each presentation's rows folded and Ad-mapped as
    one stack, after every row's relator residual is checked in order."""
    folded = {}
    for name in dict.fromkeys(name for name, _, _ in drawn):
        rows = [i for i, row in enumerate(drawn) if row[0] == name]
        images = np.array([drawn[i][1] for i in rows])
        values, J = presentations._fold_words(
            images, PRESENTATIONS[name].relators)
        folded[name] = (rows, np.ascontiguousarray(su2.ad(images)), J,
                        presentations._residuals(values).tolist())
    residuals = {i: r for rows, _, _, column in folded.values()
                 for i, r in zip(rows, column)}
    coh._check_residuals([residuals[i] for i in range(len(drawn))], tol)
    groups: dict = {}
    for i, (name, _, basis) in enumerate(drawn):
        groups.setdefault((basis.shape[1], name), []).append(i)
    out = [None] * len(drawn)
    for (_, name), idx in groups.items():
        rows, A, J, _ = folded[name]
        at = [rows.index(i) for i in idx]
        for i, summary in zip(idx, coh._stack_cohomologies(
                np.array([drawn[i][2] for i in idx]), A[at], J[at], tol)):
            out[i] = summary
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(["t3", "cyclic5"]),
                          st.sampled_from(KINDS + ("near-central-axis",)),
                          st.sampled_from(BASES)),
                min_size=1, max_size=10),
       st.sampled_from([1e-8, 1e-6]))
# dims 3 and 1 on both presentations, every row passing
@example(seed=0, specs=[("t3", "axis", "full"), ("cyclic5", "axis", "line"),
                        ("t3", "haar", "line"),
                        ("cyclic5", "central", "full")], tol=1e-6)
# row 0 fails its harmonic rank and row 1 its relator residual, which is
# checked over every row first
@example(seed=0, specs=[("t3", "near-central", "full"),
                        ("cyclic5", "near-central", "line")], tol=1e-6)
# row 0 fails with a negative h1, row 1 its residual, row 2 passes
@example(seed=3, specs=[("t3", "near-axis", "full"),
                        ("cyclic5", "near-central", "full"),
                        ("t3", "axis", "line")], tol=1e-6)
# rows 0 and 1 fail different rank checks in two groups (a negative h1,
# the harmonic rank): the first group's row raises
@example(seed=0, specs=[("cyclic5", "near-central", "full"),
                        ("t3", "near-central", "full"),
                        ("cyclic5", "axis", "full"),
                        ("cyclic5", "near-axis", "full")], tol=1e-8)
# the first group passes; in the second, row 1 fails the harmonic rank
# and row 2 with a negative h1
@example(seed=6, specs=[("cyclic5", "near-axis", "line"),
                        ("t3", "near-central", "full"),
                        ("t3", "near-central", "full")], tol=1e-8)
def test_the_stack_core_gives_what_the_object_path_gives(seed, specs, tol):
    # every field bit for bit, or the same first error, over systems
    # that mix coefficient dims 1, 2 and 3 and two presentations
    assert_core_is_object_path(seed, specs, tol)


# the two kinds that break the relator residual in most draws, and with
# it every batch they are drawn into, before any rank check runs
RESIDUAL_BREAKERS = {("cyclic5", "near-central"), ("t3", "near-axis")}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(["t3", "cyclic5"]),
                          st.sampled_from(KINDS + ("near-central-axis",)),
                          st.sampled_from(BASES)).filter(
                              lambda spec: spec[:2] not in RESIDUAL_BREAKERS),
                min_size=1, max_size=10),
       st.sampled_from([1e-8, 1e-6]))
def test_the_stack_core_gives_what_the_object_path_gives_at_rank_checks(
        seed, specs, tol):
    # the law above, drawn without the residual breakers: t3
    # near-central rows on the full basis, which fail a rank check, then
    # reach the rank stages, where the core must fail the same first row
    assert_core_is_object_path(seed, specs, tol)


def assert_core_is_object_path(seed, specs, tol):
    """The stack core on drawn (presentation name, kind, basis kind)
    rows gives every field of the object path bit for bit, or its first
    error."""
    rng = np.random.default_rng(seed)
    drawn = []
    for name, kind, basis_kind in specs:
        images, axis = chart_images(rng, name, kind, tol)
        drawn.append((name, images, basis_for(axis, basis_kind)))
    want = outcome(coh._system_cohomologies, [coh.CoefficientSystem(
        Representation(PRESENTATIONS[name], images, tol=np.inf), basis)
        for name, images, basis in drawn], tol)
    got = outcome(core_cohomologies, drawn, tol)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same_summary(a, b)


@pytest.fixture
def analysed(monkeypatch):
    """(rep, coefficient dim) of every system analysed through the
    object path; a chart analyses stacks (`hook_core`)."""
    seen = []
    compute = coh._system_cohomologies

    def counting(systems, tol):
        seen.extend((sys.rep, sys.k) for sys in systems)
        return compute(systems, tol)

    monkeypatch.setattr(coh, "_system_cohomologies", counting)
    return seen


def hook_core(monkeypatch, record):
    """Call record(B, A, J) before each stacked analysis, in each module
    that runs one."""
    core = coh._stack_cohomologies

    def hooked(B, A, J, tol):
        record(B, A, J)
        return core(B, A, J, tol)

    for module in (coh, invariants):
        monkeypatch.setattr(module, "_stack_cohomologies", hooked)


def system_rows(B, A, J) -> list:
    """One key per system of a stack: its basis, Ad and Fox-row bytes."""
    return [(b.tobytes(), a.tobytes(), j.tobytes())
            for b, a, j in zip(B, A, J)]


def common_axis_rep(rng, g=3):
    axis = unit(rng.normal(size=3))
    return Representation(free_group(g), [
        su2.exp(t * axis) for t in rng.uniform(0.2, np.pi - 0.2, size=g)])


def bad_cyclic_rep():
    # a 5th root of unity pushed off the relator: residual about 0.3
    bad = su2.exp(2 * np.pi / 5 * np.array([1.0, 0.0, 0.0]) + 0.05)
    return Representation(cyclic_group(5), [bad], tol=np.inf)


def test_a_failing_rep_keeps_nothing_and_spares_its_batch_mates(analysed):
    rng = np.random.default_rng(3)
    good = [common_axis_rep(rng), common_axis_rep(rng)]
    bad = bad_cyclic_rep()
    with pytest.raises(ResidualError) as stack:
        coh._system_cohomologies(
            [coh.full_system(rep) for rep in (good[0], bad, good[1])], 1e-8)
    assert [summaries(rep) for rep in (good[0], bad, good[1])] == [0, 0, 0]
    analysed.clear()
    for _ in range(2):
        with pytest.raises(ResidualError) as lone:
            coh.cohomology(bad)
        assert str(lone.value) == str(stack.value)
    assert analysed == [(bad, 3), (bad, 3)]
    analysed.clear()
    for rep in good:
        coh.cohomology(rep)
        assert stratum_tangent_dim(rep) == 3
        coh.restrict_coefficients(rep, "stabilizer")
    assert analysed == [(good[0], 3), (good[0], 1), (good[1], 3),
                        (good[1], 1)]


def test_a_failed_stack_spares_other_shapes(analysed, monkeypatch):
    rng = np.random.default_rng(4)
    broken, mate = common_axis_rep(rng), common_axis_rep(rng)
    build = coh._differentials

    def nan_d0(B, A, J):
        D0, D1 = build(B, A, J)
        for g, a in enumerate(A):
            if a.tobytes() == broken.adjoints.tobytes():
                D0[g] = np.nan
        return D0, D1

    monkeypatch.setattr(coh, "_differentials", nan_d0)
    with pytest.raises(np.linalg.LinAlgError):
        coh._system_cohomologies(
            [coh.full_system(rep) for rep in (broken, mate)], 1e-8)
    with pytest.raises(np.linalg.LinAlgError):
        coh.cohomology(broken)
    analysed.clear()
    assert classify_stratum(mate).i == 1
    assert analysed == [(mate, 3)]


def test_the_earlier_check_fails_first():
    # a tuple whose d0 has rank one (h0 = 2, refused after the SVDs)
    # ahead of a rep off its relator (refused before any stack is
    # built): alone, the first fails first; stacked, the second does
    rank_one = Representation(free_group(2), [
        su2.exp(4e-9 * axis) for axis in np.eye(3)[:2]])
    bad = bad_cyclic_rep()
    with pytest.raises(RankAmbiguityError, match="h0 = 2 is impossible"):
        coh.cohomology(rank_one)
    with pytest.raises(ResidualError) as lone:
        coh.cohomology(bad)
    with pytest.raises(ResidualError) as stack:
        coh._system_cohomologies(
            [coh.full_system(rep) for rep in (rank_one, bad)], 1e-8)
    assert str(stack.value) == str(lone.value)


def test_each_system_is_analysed_once(analysed, monkeypatch):
    rng = np.random.default_rng(5)
    axis_rep = common_axis_rep(rng)
    haar_rep = Representation(free_group(3), [
        su2.random_element(rng) for _ in range(3)])
    for _ in range(2):
        assert [classify_stratum(r).i for r in (axis_rep, haar_rep)] == [1, 3]
        for rep in (axis_rep, haar_rep):
            stratum_tangent_dim(rep)
            coh.cohomology(rep, 1e-8)
        coh.restrict_coefficients(axis_rep, "stabilizer")
    # a full summary is kept; a lone restricted system is a new system
    # on each call, analysed once
    assert analysed == [(axis_rep, 3), (haar_rep, 3), (axis_rep, 1),
                        (axis_rep, 1)]
    # a chart analyses each of its systems once, as rows of its stacks,
    # and so do lone clean checks of its points, each of which passes
    stacked = []
    hook_core(monkeypatch,
              lambda *stacks: stacked.extend(system_rows(*stacks)))
    pts = enumerate_moduli("t3", samples=2)
    assert len(stacked) > len(pts) and len(stacked) == len(set(stacked))
    stacked.clear()
    assert all(clean_intersection_check(pt) is None for pt in pts)
    assert len(stacked) > len(pts) and len(stacked) == len(set(stacked))


def test_t3_svd_count_does_not_grow_with_the_chart(monkeypatch):
    """Nor do the stacked d0/d1 builds or the stacked label passes."""
    calls = []
    for module, name in ((np.linalg, "svd"), (coh, "_differentials"),
                         (strata, "_axis_stabilizer_dims")):
        def counting(*args, _f=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    counts = []
    for M in (4, 6):
        calls.clear()
        pts = enumerate_moduli("t3", samples=M)
        assert len(pts) == 8 + (M - 1) * M * M
        counts.append(Counter(calls))
    assert counts[0] == counts[1]
    assert counts[0]["_differentials"] and counts[0]["_axis_stabilizer_dims"]
