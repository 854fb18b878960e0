"""Shared numerical conventions.

RELATOR_TOL is the default residual gate for accepting a
representation's relators.  POLISH_TOL, the residual `polish` must
reach, lies below it, so a polished representation passes that gate.
MAX_P bounds the lens p and q read from input; no rank rung certifies
it yet (lens points near p/2 fail the d1 rank test from p of about
1.2e4).  MAX_CHART_POINTS bounds the lens, s1xs2 and t3 charts, whose
points are all held in memory at once.  MAX_GENUS bounds strata-scan
and symplectic-check.  A strata-scan chunk holds a fixed budget of
(3g x 3g) matrices, so its peak memory stays flat in genus (about 46 MB
RSS); one symplectic-check sample folds the surface relator's W in one
scan that holds a few (6g x 6g) matrices, so its memory grows as
genus^2 (about 40 MB RSS at 32, 43 MB at 48).  Reports emitted by the
CLI embed CONVENTION_TAGS and SCHEMA_VERSION so that numbers can be
compared across runs.
"""

RELATOR_TOL = 1e-9

POLISH_TOL = 1e-12

MAX_P = 10**6

MAX_CHART_POINTS = 20_000

MAX_GENUS = 48

CONVENTION_TAGS = {
    "metric": "ijk-orthonormal",
    "exp": "exp(X) = (cos|X|, sin|X| X/|X|); Ad(exp(X)) rotates by 2|X|",
    "torsion_orientation": "odd-position maps to numerator",
    "phase": "exp(2*pi*i*k*cs)",
    "cup_product": "(u~v)(a,b) = <u(a), Ad(a) v(b)> on the relator 2-chain",
}

SCHEMA_VERSION = 1
