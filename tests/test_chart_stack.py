"""Moduli charts built in one stacked pass.

The chart driver builds every representation of a t3, lens or s1xs2
chart from one pass over its images stacked as (N, n, 4): the exps,
the relator folds, the unit and relator gates, the Ad stack and the
trace fingerprints.  Each representation keeps read-only views of its
row; what the chart computes about it is passed as columns.  Here the
stacked leaf products are held to the scalar ones bit for bit, every
chart-built representation to the same images built alone, a lens
point's torsion and fingerprint to the ones its images give alone, a
chart point to nothing kept but its Ad rows, a chart to one analysis
per stacked stage, a stack with a bad row to the error the bad row's
lone construction raises, and the leaf-op calls of a t3 chart to a
count that does not grow with the chart.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import su2strata.cohomology as coh
from su2strata import invariants, su2
from su2strata.cohomology import (DEFAULT_TOL, cohomology,
                                  restrict_coefficients)
from su2strata.errors import PresentationError, ResidualError
from su2strata.invariants import (enumerate_moduli, heegaard_mv_torsion,
                                  lens_heegaard, t3_presentation,
                                  trace_fingerprint)
from su2strata.presentations import (Representation, _fold_words,
                                     _representations, cyclic_group,
                                     fox_jacobian_at, surface_group)

finite = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)


def _rows(n, width):
    return arrays(np.float64, (n, width), elements=finite)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(_rows(n, 4),
                                                      _rows(n, 4),
                                                      _rows(n, 3))))
def test_stacked_leaf_ops_are_the_scalar_ones_bit_for_bit(data):
    a, b, x = data
    # every component at least 0.5 from zero, so no norm is near zero
    a, b = a + np.copysign(0.5, a), b + np.copysign(0.5, b)
    x[0] = 0.0                          # exp's series branch, at 0 ...
    x[-1] *= 1e-12                      # ... and just above it
    assert _same(su2.multiply(a, b), [su2.multiply(p, q)
                                      for p, q in zip(a, b)])
    assert _same(su2.multiply(a[0], b), [su2.multiply(a[0], q) for q in b])
    assert _same(su2.ad(a), [su2.ad(p) for p in a])
    assert _same(su2.exp(x), [su2.exp(v) for v in x])


def _t3_chart(M):
    return [pt.rep for pt in enumerate_moduli("t3", samples=M)]


def _assert_built_alone(rep):
    """rep, built in a chart, against its images built alone."""
    alone = Representation(rep.presentation, rep.images)
    assert _same(rep.relator_values, alone.relator_values)
    assert rep.relator_residual == alone.relator_residual
    assert _same(fox_jacobian_at(rep), fox_jacobian_at(alone))
    assert _same(rep.adjoints, alone.adjoints)
    assert trace_fingerprint(rep) == trace_fingerprint(alone)
    for kept in (rep.images, rep.relator_values, fox_jacobian_at(rep),
                 rep.adjoints):
        assert not kept.flags.writeable
    pairs = [(cohomology(rep), cohomology(alone))]
    if pairs[0][0].h0 == 1:
        pairs.append((restrict_coefficients(rep, "stabilizer"),
                      restrict_coefficients(alone, "stabilizer")))
    for a, b in pairs:
        assert (a.h0, a.h1, a.z1, a.warnings) == (b.h0, b.h1, b.z1,
                                                  b.warnings)
        assert dict(a.singular_values) == dict(b.singular_values)
        assert _same(a.basis_h0, b.basis_h0)
        assert _same(a.basis_h1, b.basis_h1)
    return alone


@pytest.mark.parametrize("reps", [
    lambda: _t3_chart(4),
    lambda: [pt.rep for pt in enumerate_moduli("s1xs2", samples=9)],
])
def test_a_chart_rep_is_its_images_built_alone(reps):
    for rep in reps():
        _assert_built_alone(rep)


@pytest.mark.parametrize("p, q", [(31, 7), (52, 3)])
def test_a_lens_chart_keeps_what_its_points_fold_alone(p, q):
    heegaard = lens_heegaard(p, q)
    chart = enumerate_moduli("lens", p=p, q=q)
    for pt, torsion in zip(chart, chart.torsions):
        alone = _assert_built_alone(pt.rep)
        if pt.stratum.i == 0:
            continue
        words = heegaard.handle2_to_manifold
        assert all(_same(a, b) for a, b in zip(
            _fold_words(pt.rep.images, words),
            _fold_words(alone.images, words)))
        lone = heegaard_mv_torsion(heegaard, alone)
        assert (torsion.value, torsion.log_value) == (lone.value,
                                                      lone.log_value)
        assert pt.fingerprint == trace_fingerprint(alone)


@pytest.mark.parametrize("example, kwargs", [
    ("s3", {}), ("lens", {"p": 31, "q": 7}), ("s1xs2", {"samples": 6}),
    ("t3", {"samples": 3})])
def test_chart_points_keep_only_their_ad_rows(example, kwargs):
    # the chart passes its fingerprints, summaries, labels, torsions and
    # verdicts as columns: a point's memo holds only its Ad stack
    for pt in enumerate_moduli(example, **kwargs):
        assert list(pt.rep._kept) == ["adjoints"]


@pytest.mark.parametrize("example, sizes, stages", [
    ("lens", [{"p": 21, "q": 5}, {"p": 83, "q": 5}], 3),
    ("s1xs2", [{"samples": 6}, {"samples": 12}], 3),
    ("t3", [{"samples": 3}, {"samples": 5}], 2)])
def test_a_chart_runs_one_analysis_per_stacked_stage(monkeypatch, example,
                                                     sizes, stages):
    # the full systems, the stabilizer lines and, with a splitting, the
    # handle and surface systems: one stacked analysis each
    calls = []
    compute = coh._system_cohomologies

    def counting(systems, tol):
        calls.append(len(systems))
        return compute(systems, tol)

    for module in (coh, invariants):
        monkeypatch.setattr(module, "_system_cohomologies", counting)
    counts = []
    for kwargs in sizes:
        calls.clear()
        enumerate_moduli(example, **kwargs)
        counts.append(len(calls))
    assert counts[0] == counts[1] <= stages


def _bad_rows(pres, good):
    """(stack, index of the bad row) for each kind of bad row."""
    n = pres.num_generators
    nonunit = good[0] * 1.5
    nan = np.full_like(good[0], np.nan)
    # rotations about distinct axes: no relator holds, and a rotation by
    # 0.3 is no 5th root of unity
    off = su2.exp(np.diag([0.3, 0.5, 0.7])[:n])
    yield np.stack([good[0], nonunit, good[1]]), 1
    yield np.stack([good[0], nan, good[1]]), 1
    yield np.stack([good[0], good[1], off]), 2


@pytest.mark.parametrize("pres", [cyclic_group(5), t3_presentation(),
                                  surface_group(1)])
def test_a_bad_row_gives_the_error_built_alone(pres):
    n = pres.num_generators
    if pres.kind == "cyclic":
        good = su2.exp(2 * math.pi / 5 * np.array([[[1.0, 0.0, 0.0]],
                                                   [[2.0, 0.0, 0.0]]]))
    else:
        angles = np.array([[0.4] * n, [1.1] * n])
        good = su2.exp(angles[..., None] * np.array([0.0, 0.6, 0.8]))
    for rep in _representations(pres, good):
        _assert_built_alone(rep)
    for stack, k in _bad_rows(pres, good):
        with pytest.raises((PresentationError, ResidualError)) as lone:
            Representation(pres, stack[k])
        with pytest.raises(type(lone.value)) as built:
            _representations(pres, stack)
        assert str(built.value) == str(lone.value)


def test_a_chart_raises_its_first_bad_row():
    pres = cyclic_group(5)
    rows = [(str(n), [angle], 0, 1.0)
            for n, angle in enumerate([0.0, 0.3, 0.5, 2 * math.pi / 5])]
    with pytest.raises(ResidualError) as chart:
        invariants._chart_points(pres, None, rows, DEFAULT_TOL)
    with pytest.raises(ResidualError) as lone:
        Representation(pres, su2.exp(0.3 * invariants._AXIS))
    assert str(chart.value) == str(lone.value)


def test_t3_leaf_op_calls_do_not_grow_with_the_chart(monkeypatch):
    calls = []
    for name in ("multiply", "ad", "exp"):
        op = getattr(su2, name)
        monkeypatch.setattr(su2, name, lambda *a, op=op, name=name: (
            calls.append(name) or op(*a)))
    counts = {}
    for M in (4, 8):
        calls.clear()
        assert len(enumerate_moduli("t3", samples=M)) == 8 + (M - 1) * M * M
        counts[M] = sorted(calls)
    assert counts[4] == counts[8]
