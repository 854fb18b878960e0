"""Stratum labels over a stack.

`strata._labels` classifies a stack of images from their
full-coefficient summaries with one axis test over the stack, and a
lone `classify_stratum` is its batch of one.  These tests hold each row
of the stacked axis test to the per-image oracle, and each label of a
stack or a chart to a fresh lone classification of the same images; a
stack with a failing row raises the lone error of its first failing
row in the first stage that fails (the analysis, then the labels), by
type and message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su2strata import strata, su2
from su2strata.cohomology import (_system_cohomologies, cohomology,
                                  full_system)
from su2strata.invariants import enumerate_moduli
from su2strata.presentations import Representation, free_group
from su2strata.strata import classify_stratum

import oracles
from test_cohomology_batch import outcome

KINDS = ("haar", "axis", "central", "near-axis", "near-central")
TOLS = (1e-8, 1e-6)

# rows of one stack share n; each image of a row is drawn by its kind
ROWS = st.integers(1, 8).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from(KINDS), min_size=n, max_size=n),
    min_size=1, max_size=6))


def unit(v):
    return v / np.linalg.norm(v)


def row_images(rng, kinds, tol):
    """One tuple, an image per kind: Haar, on the row's axis, central,
    on the axis tilted by a few tol, or a few tol from +-identity."""
    axis = unit(rng.normal(size=3))
    images = []
    for kind in kinds:
        if kind == "haar":
            images.append(su2.random_element(rng))
        elif kind == "central":
            images.append([rng.choice([1.0, -1.0]), 0.0, 0.0, 0.0])
        elif kind == "near-central":
            images.append(su2.exp(rng.uniform(0.3, 3.0) * tol
                                  * unit(rng.normal(size=3))))
        else:
            tilt = unit(np.cross(axis, rng.normal(size=3)))
            off = rng.uniform(0.3, 3.0) * tol if kind == "near-axis" else 0.0
            images.append(su2.exp(rng.uniform(0.2, np.pi - 0.2)
                                  * unit(axis + off * tilt)))
    return np.array(images)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), ROWS, st.sampled_from(TOLS))
def test_each_row_of_the_stacked_axis_test_is_the_lone_oracle(seed, rows,
                                                              tol):
    rng = np.random.default_rng(seed)
    stack = np.array([row_images(rng, kinds, tol) for kinds in rows])
    assert strata._axis_stabilizer_dims(stack, tol) == \
        [oracles.axis_stabilizer_dim(images, tol) for images in stack]


def test_the_near_kinds_fall_on_both_sides():
    rng = np.random.default_rng(1)
    verdicts = {kinds: {oracles.axis_stabilizer_dim(
        row_images(rng, kinds, 1e-8), 1e-8) for _ in range(200)}
        for kinds in (("axis", "near-axis"), ("near-central",) * 2)}
    assert verdicts[("axis", "near-axis")] == {0, 1}
    assert verdicts[("near-central",) * 2] == {0, 1, 3}


def assert_lone(got, pres, images, tol):
    """got is what a lone classification of the images gives."""
    try:
        want = classify_stratum(Representation(pres, images), tol)
    except Exception as e:      # noqa: BLE001 - the same error, any type
        assert type(got) is type(e) and str(got) == str(e)
    else:
        assert got == want


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), ROWS, st.sampled_from(TOLS))
def test_a_stacked_label_is_a_lone_label(seed, rows, tol):
    rng = np.random.default_rng(seed)
    stack = [row_images(rng, kinds, tol) for kinds in rows]
    pres = free_group(len(rows[0]))
    stages = [[outcome(f, Representation(pres, images), tol)
               for images in stack] for f in (cohomology, classify_stratum)]
    errors = [e for stage in stages for e in stage
              if isinstance(e, Exception)]

    def labels():
        summaries = _system_cohomologies(
            [full_system(Representation(pres, im)) for im in stack], tol)
        return strata._labels(np.array(stack), summaries, tol)

    if not errors:
        assert labels() == stages[1]
        return
    with pytest.raises(type(errors[0])) as got:
        labels()
    assert str(got.value) == str(errors[0])


@pytest.mark.parametrize("example, kwargs", [
    ("t3", {"samples": 4}),
    ("lens", {"p": 52, "q": 3}),
    ("s1xs2", {"samples": 8}),
])
def test_chart_labels_are_lone_labels(example, kwargs):
    # a chart keeps no label: a lone call classifies the point afresh
    for pt in enumerate_moduli(example, **kwargs):
        assert classify_stratum(pt.rep) == pt.stratum
        assert_lone(pt.stratum, pt.rep.presentation, pt.rep.images, 1e-8)
