"""Stratified SU(2) representation varieties: quaternion group core,
Fox calculus, twisted cohomology, stabilizer strata, the surface
symplectic pairing, determinant-line torsion, and stratified invariant
sums, with a JSON-speaking command line on top.
"""

from . import su2
from .conventions import CONVENTION_TAGS, SCHEMA_VERSION
from .cohomology import (CoefficientSystem, CohomologySummary, build_d0,
                         cocycle_value, cohomology, fill_cohomology,
                         fill_systems, full_system, pullback_cocycle,
                         pullback_matrix, restrict_coefficients,
                         restricted_system, stabilizer_axis,
                         system_cohomology)
from .errors import (AntipodeError, BoundaryAmbiguousError,
                     CleanIntersectionError, DomainError, ExactnessError,
                     InputError, PresentationError, RankAmbiguityError,
                     ResidualError, SamplingError, StratumConflictError)
from .invariants import (CleanVerdict, HeegaardData, InvariantResult,
                         ModuliPoint, apply_value_table, assemble_invariant,
                         clean_intersection_check, deduplicate_points,
                         enumerate_moduli, find_conjugator,
                         heegaard_mv_torsion, lens_heegaard, s1xs2_heegaard,
                         stationary_phase_sum, t3_presentation,
                         trace_fingerprint)
from .presentations import (Presentation, Representation, Word,
                            circle_times_surface_group, commutator,
                            cyclic_group, evaluate_images, format_word,
                            fox_fold, fox_jacobian_at, free_group,
                            gate_relators, generator, parse_word, polish,
                            polish_images, presentation_from_json,
                            presentation_to_json, relator_residual,
                            representation_from_json, representation_to_json,
                            surface_group)
from .strata import (StratumLabel, classify_stratum,
                     handlebody_representation, sample_stratum,
                     sample_surface_representation, stratum_tangent_dim)
from .symplectic import (fibre_tangent_basis, goldman_form, gram_matrix,
                         pairing_matrix, trace_derivative)
from .torsion import (MetricSequence, TorsionValue, mayer_vietoris_torsion,
                      sequence_torsion, stratum_volume)

__version__ = "0.1.0"

