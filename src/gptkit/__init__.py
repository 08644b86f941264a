"""Fiducial-frame toolkit for finite-dimensional probabilistic theories.

Builds canonical projector frames and their Gram (D) matrices, converts
between probability-vector, coefficient-vector and operator descriptions
of states and measurements, and numerically verifies the structural
properties that separate the classical (K = N) and quantum (K = N^2)
theories.
"""

from .bloch import (
    D2Params,
    PhaseRecovery,
    SurfaceClass,
    SurfaceKind,
    a_matrix,
    bloch_coordinates,
    build_general_d,
    c_bounds,
    classify_surface,
    d2_assemble,
    frame_from_phases,
    recover_phases,
)
from .composite import (
    composite_from_density,
    dof_count_check,
    joint_normalization,
    local_transform,
)
from .dynamics import (
    KrausSet,
    MeasurementUpdateReport,
    PathReport,
    check_measurement_update,
    choi_matrix,
    continuity_probe,
    is_completely_positive,
    is_reversible,
    is_trace_nonincreasing,
    is_trace_preserving,
    kraus_to_superoperator,
    z_from_kraus,
    z_from_unitary,
)
from .errors import (
    DegenerateFrameError,
    DimensionError,
    GptError,
    InvalidExperimentError,
    MonotonicityError,
    NoSignatureError,
    PhaseRecoveryError,
)
from .frames import (
    FiducialFrame,
    Signature,
    build_canonical_frame,
    canonical_labels,
    gram_matrix,
    signature_from_table,
)
from .axioms import (
    MultiplicativityCheck,
    check_basis_distinguishability,
    check_linearity,
    check_subspace_axiom,
    fit_power_law,
    is_completely_multiplicative,
)
from .harness import (
    CheckResult,
    Experiment,
    SuiteReport,
    derive_seed,
    run_axiom_suite,
    run_report,
    simulate,
)
from .states import (
    Theory,
    classical_theory,
    density_from_r,
    mix,
    p_from_density,
    quantum_theory,
    r_from_p,
    theory_by_name,
)

__version__ = "0.1.0"
