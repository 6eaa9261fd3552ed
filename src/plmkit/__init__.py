"""Projective surface/conormal correspondence toolkit.

Smooth charts (asymptotic and conjugate), the hypersurface variant in
dimensions up to 4, the integrable lattice variant, the classical affine
reduction, and invariant-form computations, with residual reports for
every identity the constructions satisfy.
"""

__version__ = "0.1.0"

from .affine import (
    AffineForms,
    AffineSurfacePair,
    affine_forms,
    classical_lelieuvre_integrate,
    closure_residual,
    lift_affine,
)
from .discrete import (
    DiscreteCompat,
    DiscreteForms,
    DiscreteSurfacePair,
    MoutardCoeff,
    affine_sphere_check,
    discrete_affine_integrate,
    discrete_compat_coeffs,
    discrete_det_invariance,
    discrete_forms,
    discrete_residual,
    discrete_scale_propagate,
    lift_to_projective,
    moutard_evolve,
    moutard_residual,
)
from .errors import (
    BoundaryError,
    ChartMismatchError,
    ClosureError,
    DegeneratePointError,
    DomainError,
    EvolutionOverflowError,
    GaugeObstructionError,
    NotCompatibleError,
    ParseError,
    PivotMismatchError,
    PlmError,
)
from .fields import (
    FieldGrid,
    JetGrid,
    LatticeField,
    jet_grid,
    read_grid,
    read_lattice,
    write_grid,
    write_lattice,
)
from .hyper import (
    AMatrix,
    hyper_compat_residual,
    hyper_plm_residual,
    hyper_reconstruct,
    read_amatrix_field,
    read_hyper_grid,
    recover_A,
    write_amatrix_field,
    write_hyper_grid,
)
from .multilinear import (
    cross_n,
    det_n,
    hodge_star,
    pair,
    star_of_wedge,
    wedge2,
)
from .projective import normalized_last_distance, projective_distance
from .report import CONVENTIONS, IdentityRecord, InvariantReport
from .scenarios import Scenario, list_scenarios, scenario
from .smooth import (
    AsymptoticCompat,
    ChartKind,
    ConjugateCompat,
    FubiniForms,
    compat_coeffs,
    det_families,
    det_invariance_report,
    fubini_forms,
    orthogonality_report,
    plm_residual,
    reconstruct_field,
    reconstruct_point_alt,
)
