"""What a lone call keeps on its representation: four kinds, no more.

A `Representation`'s memo (see `test_private_slots`) serves the values
that lone calls read more than once: the Ad stack, the surface pairing
matrix, and per tolerance the full-coefficient cohomology summary and
the stratum label.  Here every lone path runs on its representations:
the classification, tangent dimension and volume of a free tuple, both
restricted coefficient systems, a lens point's Mayer-Vietoris torsion,
trace fingerprints, the calls of one `symplectic-check` sample and a
trace derivative.  Each memo then holds only those kinds, and the
classification, tangent dimension and volume of one representation
still share one full analysis.
"""

import math

import numpy as np

import su2strata.cohomology as coh
from su2strata import su2
from su2strata.invariants import (heegaard_mv_torsion, lens_heegaard,
                                  trace_fingerprint)
from su2strata.presentations import (Representation, Word, cyclic_group,
                                     free_group)
from su2strata.strata import (classify_stratum, handlebody_representation,
                              sample_surface_representation,
                              stratum_tangent_dim)
from su2strata.symplectic import gram_matrix, pairing_matrix, trace_derivative
from su2strata.torsion import stratum_volume

TOL = coh.DEFAULT_TOL
FULL = {"adjoints", ("cohomology", TOL), ("label", TOL)}


def common_axis_rep(g=3, seed=4):
    rng = np.random.default_rng(seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return Representation(free_group(g), [
        su2.exp(t * axis) for t in rng.uniform(0.2, np.pi - 0.2, size=g)])


def symplectic_sample(g=2, seed=3):
    """The representations of one `symplectic-check` sample, after the
    calls the command makes on them, and a trace derivative."""
    rng = np.random.default_rng(seed)
    rep = sample_surface_representation(g, seed, TOL)
    basis_h1 = coh.cohomology(rep, TOL).basis_h1
    W = pairing_matrix(rep)
    gram_matrix(rep, basis_h1.T)
    coh.build_d0(rep) @ rng.normal(size=3) @ W @ basis_h1
    hrep = handlebody_representation(Representation(
        free_group(g), su2.random_element(rng, (g,))))
    pairing_matrix(hrep)
    trace_derivative(rep, Word((1, 2 + g, -1)), basis_h1[:, 0])
    trace_fingerprint(rep)
    return rep, hrep


def test_lone_paths_keep_only_the_four_kinds(monkeypatch):
    dims = []
    compute = coh._system_cohomologies

    def counting(systems, tol):
        dims.extend(sys.k for sys in systems)
        return compute(systems, tol)

    monkeypatch.setattr(coh, "_system_cohomologies", counting)
    free = common_axis_rep()
    for _ in range(2):
        assert classify_stratum(free, TOL).i == 1
        assert stratum_tangent_dim(free, TOL) == 3
        stratum_volume(free, TOL)
    assert dims == [3]              # one full analysis serves all three
    for part in ("stabilizer", "complement", "stabilizer"):
        coh.restrict_coefficients(free, part, TOL)
    assert dims == [3, 1, 2, 1]     # a restricted system, on every call
    trace_fingerprint(free)
    lens = Representation(cyclic_group(7), [
        su2.exp(2.0 * math.pi / 7 * np.array([1.0, 0.0, 0.0]))])
    heegaard_mv_torsion(lens_heegaard(7, 3), lens, TOL)
    trace_fingerprint(lens)
    surface, handlebody = symplectic_sample()
    assert set(free._kept) == FULL
    assert set(lens._kept) == FULL
    assert set(surface._kept) == FULL | {"pairing"}
    assert set(handlebody._kept) == {"pairing"}
