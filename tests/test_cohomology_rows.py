"""A cohomology summary is a row of its shape group's stacked analysis.

`_shape_cohomologies` keeps one record per shape group, and each valid
row's summary reads it: the dimensions from its lists, the bases as
slices of its VT stacks, each stack signed by one `_signed` pass on the
first basis read, and the singular values and warnings formed on first
read and kept.  These tests pin that every field of every row, read in
any order, is bit for bit what the same system gives alone and what an
eager construction from a fresh stacked SVD gives, and that a stack
with a rep off its relator raises that rep's lone error before any
other row's; that the free-census
path signs nothing and a t3 chart signs each VT stack at most once; and
that no field of a summary can be assigned.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import su2strata.cohomology as coh
from su2strata import su2
from su2strata.errors import ResidualError
from su2strata.invariants import enumerate_moduli
from su2strata.presentations import Representation, free_group
from su2strata.strata import classify_stratum, stratum_tangent_dim
from su2strata.torsion import stratum_volume

from test_cohomology_batch import (BASES, KINDS, PRESENTATIONS,
                                   bad_cyclic_rep, build, check_order,
                                   outcome)

FIELDS = ("h0", "h1", "z1", "coefficient_dim", "basis_h0", "basis_h1",
          "singular_values", "warnings")


def eager(systems, tol) -> dict:
    """The fields of each system, by its index, as the eager summary
    formed them: a fresh stacked SVD of the systems (all of one shape),
    `_signed` over each whole VT stack, the sliced bases, the tuples and
    the warning text."""
    D0, D1 = coh._differentials(systems)
    nk, k = D0.shape[1:]
    _, S0, VT0 = np.linalg.svd(D0, full_matrices=False)
    S1 = (np.linalg.svd(D1, compute_uv=False) if D1.size
          else np.zeros((len(D1), 0)))
    _, _, VTH = np.linalg.svd(np.concatenate([D1, D0.mT], axis=1))
    VT0, VTH = coh._signed(VT0), coh._signed(VTH)
    out = []
    for g in range(len(systems)):
        rank0, rank1 = int((S0[g] > tol).sum()), int((S1[g] > tol).sum())
        sv = {"d0": tuple(S0[g].tolist()), "d1": tuple(S1[g].tolist())}
        out.append({
            "h0": k - rank0, "h1": nk - rank1 - rank0, "z1": nk - rank1,
            "coefficient_dim": k,
            "basis_h0": VT0[g, rank0:].T,
            "basis_h1": VTH[g, rank0 + rank1:].T,
            "singular_values": sv,
            "warnings": tuple(
                f"{name} singular value {s:.3e} within 10x of "
                f"threshold {tol:.1e}"
                for name, v in sv.items() for s in v
                if tol / 10 < s < tol * 10)})
    return out


def same(a, b) -> bool:
    """Bit for bit: arrays by shape, dtype and bytes, the rest by repr
    (exact for floats, and -0.0 is not 0.0)."""
    if isinstance(a, np.ndarray):
        return (a.shape == b.shape and a.dtype == b.dtype
                and a.tobytes() == b.tobytes())
    if not isinstance(a, (int, tuple)):
        a, b = dict(a), dict(b)
    return type(a) is type(b) and repr(a) == repr(b)


def rank_one_d0(broken: set):
    """`_differentials`, with the d0 of each system whose representation
    is in `broken` replaced by a rank-one matrix: at three full
    coefficients without relators that is an h0 = 2 the analysis
    refuses after its SVDs, so the row fails inside its group's record."""
    build_differentials = coh._differentials

    def differentials(systems):
        D0, D1 = build_differentials(systems)
        for g, sys in enumerate(systems):
            if id(sys.rep) in broken:
                D0[g] = np.outer(np.arange(1.0, D0.shape[1] + 1),
                                 np.eye(D0.shape[2])[0])
        return D0, D1
    return differentials


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.sampled_from(sorted(PRESENTATIONS)),
                          st.sampled_from(KINDS), st.sampled_from(BASES),
                          st.integers(0, 3), st.booleans()),
                min_size=1, max_size=10),
       st.sampled_from([1e-8, 1e-6]), st.randoms(use_true_random=False))
# a row with a warning beside a row that fails inside the same record
@example(seed=0, specs=[("free2", "near-central", "full", 0, False),
                        ("free2", "haar", "full", 1, True),
                        ("free2", "haar", "full", 2, False)],
         tol=1e-8, rnd=random.Random(0))
def test_every_field_read_in_any_order_is_the_lone_and_eager_value(
        seed, specs, tol, rnd):
    systems, lone_systems = build(seed, [s[:4] for s in specs], tol)
    broken = {id(sys.rep) for copy in (systems, lone_systems)
              for sys, spec in zip(copy, specs) if spec[4]}
    # a representation off its relator fails before any stack is built
    at = rnd.randrange(len(systems) + 1)
    for copy in (systems, lone_systems):
        copy.insert(at, coh.full_system(bad_cyclic_rep()))
    with mock.patch.object(coh, "_differentials", rank_one_d0(broken)):
        lone = [outcome(coh._system_cohomologies, [sys], tol)
                for sys in lone_systems]
        # the residual check runs over every row before any stack, so
        # a residual error is raised ahead of every broken row's
        rows = [i for i, s in enumerate(lone) if isinstance(s, list)]
        earliest = min(set(range(len(lone))) - set(rows), key=lambda i:
                       check_order(i, lone_systems, lone[i]))
        with pytest.raises(ResidualError) as failed:
            coh._system_cohomologies(systems, tol)
        assert str(failed.value) == str(lone[earliest])
        got = dict(zip(rows, coh._system_cohomologies(
            [systems[i] for i in rows], tol)))
        lone = {i: lone[i][0] for i in rows}
        shapes: dict = {}
        for i in rows:
            sys = systems[i]
            shapes.setdefault((sys.k, sys.n,
                               len(sys.rep.presentation.relators)),
                              []).append(i)
        want = {}
        for idx in shapes.values():
            want.update(zip(idx, eager([systems[i] for i in idx], tol)))
    reads = [(i, name) for i in rows for name in FIELDS]
    rnd.shuffle(reads)
    first = {}
    for i, name in reads:
        value = getattr(got[i], name)
        assert same(value, want[i][name])
        assert same(value, getattr(lone[i], name))
        first[i, name] = value
    for i in rows:                  # formed once, then the kept value
        for name in ("singular_values", "warnings"):
            assert getattr(got[i], name) is first[i, name]


@pytest.fixture
def signed(monkeypatch):
    """Every VT stack `_signed` is run on, in order."""
    stacks = []
    sign = coh._signed

    def counting(VT):
        stacks.append(VT)
        return sign(VT)

    monkeypatch.setattr(coh, "_signed", counting)
    return stacks


@pytest.mark.parametrize("stratum", [0, 1, 3])
def test_the_free_census_path_signs_nothing(signed, stratum):
    rng = np.random.default_rng(stratum)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    images = {0: np.tile(su2.identity(), (4, 1)),
              1: su2.exp(rng.uniform(0.2, np.pi - 0.2, size=(4, 1)) * axis),
              3: np.array([su2.random_element(rng) for _ in range(4)])}
    rep = Representation(free_group(4), images[stratum])
    assert classify_stratum(rep).i == stratum
    stratum_tangent_dim(rep)
    assert stratum_volume(rep).value > 0
    assert signed == []


def test_a_t3_chart_signs_each_vt_stack_at_most_once(signed, monkeypatch):
    groups = []
    shape_cohomologies = coh._shape_cohomologies

    def counting(out, idx, D0, D1, tol):
        groups.append(len(idx))
        return shape_cohomologies(out, idx, D0, D1, tol)

    monkeypatch.setattr(coh, "_shape_cohomologies", counting)
    assert len(enumerate_moduli("t3", samples=6)) == 8 + 5 * 36
    assert signed and len(signed) <= 2 * len(groups)
    # each a raw stack, none signed twice and none a signed one again
    assert len({id(VT) for VT in signed}) == len(signed)
    assert all(VT.flags.writeable for VT in signed)


def test_no_summary_field_can_be_assigned():
    rng = np.random.default_rng(9)
    rep = Representation(free_group(3), np.array(
        [su2.random_element(rng) for _ in range(3)]))
    s = coh.cohomology(rep)
    for name in (*FIELDS, "extra"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0)
    assert (s.h0, s.h1, s.coefficient_dim) == (0, 6, 3)
