"""Where do random representation tuples live?

Classifies Haar samples of free-group tuples by stabilizer dimension
and prints the tangent dimension of each stratum.  Generic tuples are
irreducible; the reducible and central strata have measure zero, so we
construct those by hand.
"""
import numpy as np

from su2strata import su2
from su2strata.cohomology import cohomology
from su2strata.presentations import Representation, free_group
from su2strata.strata import (classify_stratum, sample_stratum,
                              stratum_tangent_dim)


def describe(rep, name):
    label = classify_stratum(rep)
    s = cohomology(rep)
    print(f"{name:28s} stratum={label.i} stab_dim={label.stabilizer_dim} "
          f"central={label.central_flag} h0={s.h0} h1={s.h1} "
          f"tangent={stratum_tangent_dim(rep)}")


g = 3
pres = free_group(g)
rng = np.random.default_rng(0)

counts = {0: 0, 1: 0, 3: 0}
for _ in range(500):
    images = su2.random_element(rng, (g,))
    counts[classify_stratum(Representation(pres, images)).i] += 1
print("census of 500 Haar tuples at g=3:", counts)
print()

describe(Representation.trivial(pres), "trivial tuple")
axis = np.array([0.0, 1.0, 0.0])
coax = np.array([su2.exp(t * axis) for t in (0.3, 1.1, 2.0)])
describe(Representation(pres, coax), "common-axis tuple")
describe(sample_stratum(g, 3, seed=4), "Haar tuple")

# expected tangent dimensions per stratum: 0, g, 3g - 3
for i in (0, 1, 3):
    rep = sample_stratum(g, i, seed=11)
    print(f"stratum {i}: tangent dim {stratum_tangent_dim(rep)}")
