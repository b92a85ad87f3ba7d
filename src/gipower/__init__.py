"""Interferometric power of two-mode Gaussian states.

Covariance-matrix algebra, Gaussian-state fidelity, worst-case quantum
Fisher information over local Gaussian black boxes, the closed-form
interferometric power, extremal state families, and random-state
sampling for scaling and boundary analyses.

numpy is executed on first array use (see _lazy): importing the package
runs none of it.
"""

from .exceptions import (
    GipowerError,
    InvalidStateError,
    InvalidTransformError,
    NumericalError,
)
from .families import (
    FAMILY_KINDS,
    SampleRecord,
    build_family,
    en_threshold,
    entangled_st_nu,
    lower_bound,
    lower_bound_branch1,
    lower_bound_branch2,
    lower_branch1_state,
    lower_branch2_state,
    mixed_thermal,
    nu_zero,
    random_state,
    sample_figure2,
    sample_figure3,
    separable_extremal,
    squeezed_thermal,
    tmsv,
    upper_bound,
    upper_boundary_state,
)
from .fidelity import (
    WorstCaseResult,
    fidelity,
    qfi,
    worst_case_qfi,
)
from .power import (
    CrossValidation,
    IpResult,
    closed_form_xyz,
    cross_validate,
    gip_closed_form,
    gip_from_standard_form,
    gip_pure,
    gip_special,
)
from .symplectic import (
    BonaFideReport,
    CovarianceMatrix,
    LocalInvariants,
    StandardForm,
    apply_local_symplectic,
    from_standard_form,
    is_separable,
    local_invariants,
    log_negativity,
    mean_photon_A,
    pt_min_symplectic_eigenvalue,
    symplectic_eigenvalues,
    to_standard_form,
    validate_bona_fide,
)

__version__ = "0.1.0"
