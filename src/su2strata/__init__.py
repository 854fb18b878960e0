"""Stratified SU(2) representation varieties: quaternion group core,
Fox calculus, twisted cohomology, stabilizer strata, the surface
symplectic pairing, determinant-line torsion, and stratified invariant
sums, with a JSON-speaking command line on top.
"""

__version__ = "0.1.0"
