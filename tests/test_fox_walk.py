"""The single Fox walk against the definitional oracles.

d1 (fox_jacobian_at, system_d1 on full, stabilizer-line and complement
bases) and the surface pairing (pairing_matrix, goldman_form,
gram_matrix) all read presentations.fox_blocks; here each is compared
with tests/oracles.py, which builds the same objects from 2x2 complex
matrix products and imports nothing from the package.
"""

import math

import numpy as np
import pytest

from su2strata import su2
from su2strata.cohomology import (cohomology, full_system, restricted_system,
                                  system_d1)
from su2strata.errors import DomainError
from su2strata.invariants import t3_presentation
from su2strata.presentations import (Representation,
                                     circle_times_surface_group, cyclic_group,
                                     fox_jacobian_at, free_group,
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


def test_pairing_matrix_needs_surface_kind():
    rep = Representation.trivial(free_group(2))
    with pytest.raises(DomainError):
        pairing_matrix(rep)
