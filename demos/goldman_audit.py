"""Numerical audit of the pairing on surface-group cohomology.

At an irreducible genus-g surface representation the pairing on
harmonic representatives is antisymmetric, kills coboundaries, and has
full rank 6g - 6.  Tangents along the handlebody locus are isotropic.
"""
import numpy as np

from su2strata import su2
from su2strata.cohomology import build_d0, cohomology
from su2strata.presentations import Representation, free_group
from su2strata.strata import handlebody_representation, \
    sample_surface_representation
from su2strata.symplectic import goldman_form, gram_matrix

g = 2
rep = sample_surface_representation(g, seed=3)
summary = cohomology(rep)
n = rep.presentation.num_generators
print("surface rep residual:", rep.relator_residual)
print("h1 =", summary.h1)

basis = [summary.basis_h1[:, c].reshape(n, 3) for c in range(summary.h1)]
G = gram_matrix(rep, basis)
print("Gram matrix shape:", G.shape)
print("antisymmetry defect:", np.abs(G + G.T).max())
sv = np.linalg.svd(G, compute_uv=False)
print("singular values:", np.round(sv, 4))
print("rank:", int((sv > 1e-8 * sv[0]).sum()), "expected", 6 * g - 6)

# coboundaries pair to zero against everything
rng = np.random.default_rng(5)
cob = (build_d0(rep) @ rng.normal(size=3)).reshape(n, 3)
worst = max(abs(goldman_form(rep, cob, b)) for b in basis)
print("max pairing against a coboundary:", worst)

# the handlebody locus b_i -> identity is isotropic
free_imgs = su2.random_element(rng, (g,))
hrep = handlebody_representation(Representation(free_group(g), free_imgs))
pulled = []
for j in range(g):
    for c in range(3):
        u = np.zeros((2 * g, 3))
        u[j, c] = 1.0
        pulled.append(u)
print("handlebody isotropy defect:",
      np.abs(gram_matrix(hrep, pulled)).max())
