"""Fox derivatives turn relator words into coboundary matrices.

fox_fold maps a word to its holonomy q, its Fox row J (the Fox
derivatives d(uv) = du + u dv evaluated through the adjoint
representation) and its cup-product matrix W.  The relators' rows
stacked are d1; composing with d0 must give zero because relators
evaluate to the identity.
"""
import numpy as np

from su2strata import su2
from su2strata.cohomology import build_d0
from su2strata.presentations import (Representation, fox_fold,
                                     fox_jacobian_at, parse_word,
                                     polish_images, surface_group)

pres = surface_group(2)
print("generators:", pres.generators)
print("relator:", pres.relators[0].letters)

rng = np.random.default_rng(7)
imgs = su2.random_element(rng, (4,))
imgs = polish_images(pres, imgs)  # Gauss-Newton onto the relator variety
rep = Representation(pres, imgs)
print("relator residual after polish:", rep.relator_residual)

w = parse_word("a1 b1 A1 B1", pres.generators)
J = fox_fold(rep.images, w)[1]
for g, name in ((0, "a1"), (2, "b1")):  # 0-based generator index
    print(f"Ad(d/d{name}) of [a1,b1]:\n", J[:, 3 * g:3 * g + 3].round(4))

d0 = build_d0(rep)
d1 = fox_jacobian_at(rep)
print("d0 shape:", d0.shape, " d1 shape:", d1.shape)
print("|d1 @ d0| =", np.abs(d1 @ d0).max())
