"""Exception taxonomy.

DomainError covers violated mathematical preconditions (the CLI maps it
to exit code 1); InputError covers malformed files and options (exit 2),
as does PresentationError, which the CLI only meets in what it reads.
"""


class DomainError(Exception):
    """A mathematical invariant or precondition failed."""


class AntipodeError(DomainError):
    """Logarithm requested at the antipode (-1, 0, 0, 0), where no
    principal branch exists."""


class PresentationError(DomainError):
    """Malformed word, generator set, or relator structure."""


class ResidualError(DomainError):
    """Representation does not satisfy its relators within tolerance."""


class RankAmbiguityError(DomainError):
    """A rank decision sits too close to the singular value threshold."""


class StratumConflictError(DomainError):
    """Numeric-rank and algebraic-axis stabilizer verdicts disagree."""


class BoundaryAmbiguousError(DomainError):
    """Representation is too close to a smaller stratum to classify."""


class ExactnessError(DomainError):
    """A metric sequence fed to the torsion routines is not exact."""


class CleanIntersectionError(DomainError):
    """Declared component dimension disagrees with twisted cohomology."""


class SamplingError(DomainError):
    """Rejection sampling exhausted its retry budget."""


class InputError(Exception):
    """Malformed input file, schema violation, or bad CLI option."""
