"""Finite-element laboratory for conformal dumbbell metrics.

Shrinking a metric conformally on a collar around a separating hypersurface
and compensating outside produces a dumbbell: the first nontrivial
eigenvalue collapses like eps^(d/2-1), the eigenfunction locks onto plateau
constants with a harmonic crossover, and its nodal set settles inside the
collar as a graph over the hypersurface.  This package builds the discrete
scenes, solves the weighted eigenproblems, and verifies each of those
predictions against independent low-dimensional references.
"""

__version__ = "0.1.0"

from .mesh import (
    CellOperators,
    Mesh,
    MeshFormatError,
    MeshValidationError,
    build_box_grid,
    load_mesh,
    save_mesh,
    simplex_gradient_data,
    validate_mesh,
)
from .metric import (
    CollarGeometry,
    ConformalField,
    LevelSetSigma,
    PlaneSigma,
    SeparationError,
    build_conformal_field,
    collar_geometry,
    kappa,
    kappa_zero,
    signed_distance,
    sphere_level,
    torus_level,
    verify_volume_preservation,
    volume_rescale_factor,
)
from .assembly import OperatorPair, assemble, subdomain_neumann
from .eigen import (
    EigenConvergenceError,
    EigenResult,
    apply_sign_rule,
    minmax_bound,
    rayleigh_quotient,
    solve_smallest,
)
from .harmonic import (
    HarmonicSolution,
    PlateauConstants,
    collar_fourier_solve,
    compute_plateaus,
    hbar,
    hbar_root,
    solve_harmonic,
    warped_harmonic_1d,
)
from .nodal import (
    NodalSet,
    NonBoxSceneError,
    extract_nodal_set,
    single_crossing_check,
)
from .morse import (
    CriticalReport,
    classify_critical_points,
    cosine_product_census,
    cosine_product_field,
)
from .oracle import (
    OracleEigenvalues,
    PowerFit,
    Profile1D,
    scaling_fit,
    step_profile,
    sturm_liouville_neumann,
)
from .experiments import Report, ScenarioConfig, run_scenario
