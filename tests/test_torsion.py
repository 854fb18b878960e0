import json
from decimal import Decimal
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su2strata import su2, torsion
from su2strata.cli import dispatch
from su2strata.errors import (BoundaryAmbiguousError, DomainError,
                              ExactnessError, StratumConflictError)
from su2strata.presentations import Representation, free_group
from su2strata.strata import classify_stratum, sample_stratum
from su2strata.torsion import (MetricSequence, mayer_vietoris_torsion,
                               sequence_torsion, stratum_volume)

import oracles


def test_metric_sequence_validates_shapes():
    with pytest.raises(DomainError):
        MetricSequence((2, 2), (np.zeros((3, 2)),))
    with pytest.raises(DomainError):
        MetricSequence((2, 2), ())


def test_identity_sequence_torsion_is_one():
    seq = MetricSequence((3, 3), (np.eye(3),))
    t = sequence_torsion(seq)
    assert abs(t.value - 1.0) < 1e-14
    assert t.log_value == 0.0


def test_isometry_sequence_torsion_is_one():
    rng = np.random.default_rng(0)
    q = oracles.random_orthogonal(rng, 4)
    t = sequence_torsion(MetricSequence((4, 4), (q,)))
    assert abs(t.value - 1.0) < 1e-12


def test_three_term_example():
    """0 -> R -> R^2 -> R -> 0 with maps (1,1)^T and (1,-1).

    Both maps have singular-value product sqrt(2), so the alternating
    product is exactly 1; the value is frozen from the independent
    top-form oracle.
    """
    dims = (1, 2, 1)
    maps = (np.array([[1.0], [1.0]]), np.array([[1.0, -1.0]]))
    t = sequence_torsion(MetricSequence(dims, maps))
    oracle_value, _ = oracles.top_form_torsion(dims, maps)
    assert abs(oracle_value - 1.0) < 1e-14
    assert abs(t.value - oracle_value) < 1e-12


def test_against_top_form_oracle():
    for s in range(60):
        rng = np.random.default_rng(100 + s)
        dims, maps, value, log_value = oracles.random_exact_sequence(rng)
        t = sequence_torsion(MetricSequence(tuple(dims), tuple(maps)))
        assert abs(t.log_value - log_value) < 1e-9 * max(1.0, abs(log_value))
        o_value, o_log = oracles.top_form_torsion(dims, maps)
        assert abs(t.log_value - o_log) < 1e-9 * max(1.0, abs(o_log))


def test_scaling_law():
    """Scaling map j by c > 0 scales the torsion by c^(rank, signed)."""
    rng = np.random.default_rng(7)
    dims, maps, value, _ = oracles.random_exact_sequence(rng, n_spaces=4)
    base = sequence_torsion(MetricSequence(tuple(dims), tuple(maps)))
    c = 1.7
    for j, f in enumerate(maps):
        scaled = list(maps)
        scaled[j] = c * f
        t = sequence_torsion(MetricSequence(tuple(dims), tuple(scaled)))
        rank = np.linalg.matrix_rank(f) if f.size else 0
        sign = 1.0 if (j + 1) % 2 == 1 else -1.0
        assert abs(t.log_value - base.log_value
                   - sign * rank * np.log(c)) < 1e-9


def test_basis_independence():
    """Conjugating by isometries of each space leaves torsion fixed."""
    rng = np.random.default_rng(9)
    dims, maps, value, log_value = oracles.random_exact_sequence(rng)
    frames = [oracles.random_orthogonal(rng, d) for d in dims]
    rotated = [frames[j + 1] @ f @ frames[j].T for j, f in enumerate(maps)]
    t = sequence_torsion(MetricSequence(tuple(dims), tuple(rotated)))
    assert abs(t.log_value - log_value) < 1e-9 * max(1.0, abs(log_value))


def test_exactness_gates():
    # composite does not vanish, though the ranks bridge every space
    seq = MetricSequence((1, 2, 1),
                         (np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]])))
    with pytest.raises(ExactnessError, match="composite norm 1.000e"):
        sequence_torsion(seq)
    # composites vanish but ranks cannot bridge the middle dimension
    seq = MetricSequence((1, 3, 1),
                         (np.array([[1.0], [0.0], [0.0]]),
                          np.array([[0.0, 0.0, 1.0]])))
    with pytest.raises(ExactnessError):
        sequence_torsion(seq)


def test_torsion_value_carries_convention_note(tmp_path, capsys):
    # a torsion report names its orientation convention, and its value
    # follows it: the odd-position map's factor 2 is in the numerator
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"sequence": {
        "dims": [2, 2], "maps": [[[2.0, 0.0], [0.0, 2.0]]]}}))
    assert dispatch(["torsion", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["conventions"]["torsion_orientation"] == \
        "odd-position maps to numerator"
    assert abs(report["result"]["torsion"] - 4.0) < 1e-12


# -- stratum volumes ---------------------------------------------------

def test_trivial_volume_is_constant_one():
    t = stratum_volume(Representation.trivial(free_group(3)))
    assert (t.value, t.log_value) == (1.0, 0.0)


def test_volume_against_direct_product():
    """The volume equals the closed form of the product of d0's nonzero
    singular values (the conjugation directions' distortion)."""
    for i, seed in ((3, 0), (3, 1), (1, 0), (1, 1)):
        rep = sample_stratum(2, i, seed=seed)
        t = stratum_volume(rep)
        expected = oracles.stratum_volume(rep.images, i)
        assert abs(t.value - expected) < 1e-9 * expected
        assert abs(t.log_value - np.log(expected)) < 1e-9


def haar_images(rng, g):
    return np.array([su2.random_element(rng) for _ in range(g)])


def common_axis_images(rng, g):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return np.array([su2.exp(t * axis)
                     for t in rng.uniform(0.2, np.pi - 0.2, size=g)])


TUPLES = [(haar_images, g, 3) for g in range(2, 7)] + \
    [(common_axis_images, g, 1) for g in range(1, 7)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(TUPLES))
def test_volume_matches_closed_form_oracle(seed, tuples):
    images, g, stratum = tuples
    images = images(np.random.default_rng(seed), g)
    rep = Representation(free_group(g), images)
    assert classify_stratum(rep).i == stratum
    expected = oracles.stratum_volume(images, stratum)
    assert abs(stratum_volume(rep).value - expected) < 1e-9 * expected


def test_volume_law_catches_a_wrong_d0_spectrum(monkeypatch):
    rep = sample_stratum(3, 3, seed=2)
    summary = torsion.cohomology(rep)
    # a stand-in summary that exposes only the d0 spectrum, scaled
    bad = SimpleNamespace(singular_values={"d0": tuple(
        1.001 * s for s in summary.singular_values["d0"])})
    monkeypatch.setattr(torsion, "cohomology", lambda rep, tol: bad)
    with pytest.raises(DomainError, match="volume law"):
        stratum_volume(rep)


def near_axis_images(rng, g):
    """A stratum-3 tuple whose axes lie 1e-7..1e-6 apart."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    images = [su2.exp(rng.uniform(0.6, np.pi - 0.6) * axis)]
    for _ in range(g - 1):
        d = rng.normal(size=3)
        d -= d.dot(axis) * axis
        a = axis + 10 ** rng.uniform(-7, -6) * d / np.linalg.norm(d)
        images.append(su2.exp(rng.uniform(0.6, np.pi - 0.6)
                              * a / np.linalg.norm(a)))
    return np.array(images)


def test_volume_law_holds_near_the_boundary():
    """d0 is ill-conditioned here, so its small singular values carry
    rounding of about eps relative to the largest: the law must not fire
    on that, and conjugation (which rounds the images again) may move
    log volume by 1e-9 plus a small multiple of eps times the condition
    number."""
    eps = np.finfo(float).eps
    for seed in range(24):
        rng, g = np.random.default_rng(seed), 2 + seed % 4
        rep = Representation(free_group(g), near_axis_images(rng, g))
        assert classify_stratum(rep).i == 3
        sv = torsion.cohomology(rep).singular_values["d0"]
        cond = sv[0] / sv[-1]
        assert cond >= 1e6
        t1 = stratum_volume(rep)
        t2 = stratum_volume(_conjugated(rep, su2.random_element(rng)))
        assert abs(t1.log_value - t2.log_value) < 1e-9 + 16 * eps * cond


def gapped_images(rng, g, gap):
    """A genus-g tuple whose later axes lie about `gap` off the first,
    each in its own random direction; gap 0 puts all on one axis."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    axes = [axis]
    for _ in range(g - 1):
        d = rng.normal(size=3)
        d -= d.dot(axis) * axis
        a = axis + gap * d / np.linalg.norm(d)
        axes.append(a / np.linalg.norm(a))
    return np.array([su2.exp(rng.uniform(0.6, np.pi - 0.6) * a)
                     for a in axes])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5),
       st.one_of(st.just(0.0), st.floats(-6.85, -2.0).map(lambda e: 10**e)))
@example(seed=0, g=3, gap=0.0)
@example(seed=1, g=3, gap=1e-2)
@example(seed=2, g=3, gap=1e-4)
@example(seed=3, g=3, gap=1e-5)
@example(seed=4, g=3, gap=1e-6)
@example(seed=5, g=3, gap=3e-7)
@example(seed=6, g=3, gap=1.5e-7)
def test_an_accepted_volume_is_within_the_law_slack_of_the_exact_log(
        seed, g, gap):
    """The log volume of every tuple the classifier accepts lies within
    the runtime law's slack, 32 n eps sum(1 / sigma) over d0's kept
    singular values, of the exact log (`oracles.exact_log_volume`), with
    no 1e-9 floor."""
    rep = Representation(free_group(g), gapped_images(
        np.random.default_rng(seed), g, gap))
    try:
        stratum = classify_stratum(rep).i
    except (BoundaryAmbiguousError, StratumConflictError):
        return
    sv = np.array(torsion.cohomology(rep).singular_values["d0"])
    slack = 32 * g * np.finfo(float).eps * np.sum(1 / sv[sv > 1e-8])
    exact = oracles.exact_log_volume(rep.images, stratum)
    error = abs(float(exact - Decimal(stratum_volume(rep).log_value)))
    assert error <= slack


def _conjugated(rep, q):
    return Representation(rep.presentation, su2.conjugate(rep.images, q),
                          tol=np.inf)


def test_volume_is_conjugation_invariant():
    rep = sample_stratum(2, 3, seed=4)
    q = su2.random_element(np.random.default_rng(11))
    t1 = stratum_volume(rep)
    t2 = stratum_volume(_conjugated(rep, q))
    assert abs(t1.value - t2.value) < 1e-9 * t1.value


def test_volume_needs_free_groups():
    from su2strata.strata import sample_surface_representation
    with pytest.raises(DomainError):
        stratum_volume(sample_surface_representation(2, seed=0))


# -- Mayer-Vietoris ----------------------------------------------------

def test_mv_shape_validation():
    with pytest.raises(DomainError):
        mayer_vietoris_torsion(np.zeros((1, 2)), np.zeros((1, 1)),
                               np.zeros((2, 1)), np.zeros((2, 1)),
                               np.zeros((2, 2)))


def test_mv_route_disagreement_raises():
    r1 = np.array([[1.0]])
    r2 = np.array([[1.0]])
    rho1 = np.array([[1.0], [0.0]])
    rho2 = np.array([[0.0], [1.0]])  # j2 lands elsewhere
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ExactnessError):
        mayer_vietoris_torsion(r1, r2, rho1, rho2, omega)


def test_mv_hand_built_circle_example():
    """The free(1) splitting: both handles restrict isomorphically, the
    pairing closes the sequence, torsion 1."""
    r1 = np.array([[1.0]])
    r2 = np.array([[1.0]])
    rho1 = np.array([[1.0], [0.0]])
    rho2 = np.array([[1.0], [0.0]])
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t = mayer_vietoris_torsion(r1, r2, rho1, rho2, omega)
    assert abs(t.value - 1.0) < 1e-12


def test_mv_lens_style_empty_ends():
    """h1(N) = 0 leaves beta alone: torsion = 1/|det beta|."""
    p, q = 5.0, 2.0
    r1 = np.zeros((1, 0))
    r2 = np.zeros((1, 0))
    rho1 = np.array([[1.0], [0.0]])
    rho2 = np.array([[q], [-p]])
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    t = mayer_vietoris_torsion(r1, r2, rho1, rho2, omega)
    assert abs(t.value - 1.0 / p) < 1e-12


# -- stacked sequences ---------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_stacked_torsion_rows_are_lone_and_oracle_torsions(seed, n_spaces):
    # draws grouped by dims give same-shape stacks; each row is its
    # lone call bit for bit and the top-form oracle's value, and a
    # stack with a row made inexact raises that row's lone error
    rng = np.random.default_rng(seed)
    groups = {}
    for _ in range(24):
        dims, maps, _, _ = oracles.random_exact_sequence(rng, n_spaces)
        groups.setdefault(tuple(dims), []).append(maps)
    for dims, rows in groups.items():
        stacks = [np.array(col) for col in zip(*rows)]
        got = torsion._sequence_torsions(dims, stacks, 1e-8)
        for maps, t in zip(rows, got):
            lone = sequence_torsion(MetricSequence(dims, maps))
            assert (t.value, t.log_value) == (lone.value, lone.log_value)
            want, _ = oracles.top_form_torsion(dims, maps)
            assert abs(t.value - want) <= 1e-12 * want
        bad = int(rng.integers(len(rows)))
        zeroed = [s.copy() for s in stacks]
        for s in zeroed:
            s[bad] = 0.0      # every map zero: a rank defect
        with pytest.raises(ExactnessError) as broken:
            torsion._sequence_torsions(dims, zeroed, 1e-8)
        with pytest.raises(ExactnessError) as lone:
            sequence_torsion(MetricSequence(dims, [s[bad] for s in zeroed]))
        assert str(lone.value) == str(broken.value)


def test_stacked_mayer_vietoris_rows_fail_in_place():
    # the circle example, a row whose pairing leaves the sequence
    # inexact and a route-disagreeing twin, stacked as one shape: the
    # routes are compared before any sequence is checked, so the stack
    # raises the third row's lone error, not the second's
    r = np.array([[1.0]])
    rho1 = np.array([[1.0], [0.0]])
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rows = [(r, r, rho1, rho1, omega),
            (r, r, rho1, rho1, np.zeros((2, 2))),
            (r, r, rho1, np.array([[0.0], [1.0]]), omega)]

    def stacked(rows):
        return torsion._mayer_vietoris_torsions(
            *(np.array(col) for col in zip(*rows)), 1e-8)

    (t,) = stacked(rows[:1])
    assert t == mayer_vietoris_torsion(*rows[0])
    assert abs(t.value - 1.0) < 1e-12
    for k, message in ((1, "rank defect"), (2, "routes")):
        with pytest.raises(ExactnessError, match=message) as lone:
            mayer_vietoris_torsion(*rows[k])
        with pytest.raises(ExactnessError) as got:
            stacked(rows[:k + 1])
        assert str(got.value) == str(lone.value)
