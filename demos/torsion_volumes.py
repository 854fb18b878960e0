"""Determinant-line torsion three ways.

1. sequence_torsion on a small exact sequence, by hand.
2. stratum_volume at free-group representations.
3. Mayer-Vietoris torsion of glued handlebodies: lens spaces give
   tau = 1/p, the product of a circle and a sphere gives tau = 1.
"""
import math

import numpy as np

from su2strata import su2
from su2strata.invariants import (heegaard_mv_torsion, lens_heegaard,
                                  s1xs2_heegaard)
from su2strata.presentations import Representation, cyclic_group, free_group
from su2strata.strata import sample_stratum
from su2strata.torsion import MetricSequence, sequence_torsion, \
    stratum_volume

# 0 -> R -> R^2 -> R -> 0 with the diagonal and the difference
seq = MetricSequence((1, 2, 1),
                     (np.array([[1.0], [1.0]]), np.array([[1.0, -1.0]])))
t = sequence_torsion(seq)
print("three-term example: torsion =", t.value)

# the volume is the product of d0's nonzero singular values; from the
# images' vector parts V, d0's are 2 sqrt(s_a^2 + s_b^2) over pairs of
# V's singular values, so stratum 1 gives 4 sum sin^2(theta_j)
for i in (1, 3):
    rep = sample_stratum(2, i, seed=2)
    vol = stratum_volume(rep)
    print(f"stratum {i} volume element: {vol.value:.6f} "
          f"(half-density {math.exp(0.5 * vol.log_value):.6f})")

print()
for p in (3, 5, 7, 8):
    heegaard = lens_heegaard(p, 1)
    rep = Representation(cyclic_group(p),
                         [su2.exp(2 * math.pi / p * np.array([1.0, 0, 0]))])
    t = heegaard_mv_torsion(heegaard, rep)
    print(f"lens({p},1) nontrivial point: tau = {t.value:.6f}"
          f"   1/p = {1.0 / p:.6f}")

heegaard = s1xs2_heegaard()
for theta in (0.5, 1.5, 2.5):
    rep = Representation(free_group(1),
                         [su2.exp(theta * np.array([1.0, 0, 0]))])
    t = heegaard_mv_torsion(heegaard, rep)
    print(f"s1xs2 at angle {theta}: tau = {t.value:.6f}")
