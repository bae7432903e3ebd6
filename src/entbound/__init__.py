"""Supporting-functional constructions and forward solvers for entanglement bounds.

Build families of states whose closest PPT state (or Rains-set minimizer) is
known, evaluate the resulting closed-form relative entropy of entanglement and
Rains bound, and verify everything against independent projected-gradient
solvers.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainViolationError,
    EntboundError,
    NonInvertibleKernelError,
    NotAStateError,
    NotHermitianError,
    NotPSDError,
    PreconditionError,
    SpectralError,
    SupportViolationError,
)
from .linalg import (
    HermitianMatrix,
    SpectralDecomposition,
    from_json_dict,
    hermitian,
    identity,
    is_psd,
    random_hermitian,
    random_state,
    support_projector,
    to_json_dict,
    trace_inner_product,
    trace_norm,
)
from .frechet import (
    FrechetKernel,
    ScalarFunction,
    build_kernel,
    converse_image,
    directional_derivative,
    frechet_apply,
    frechet_pinv_apply,
    identity_fn,
    induced_functional,
    log_fn,
    matrix_function,
    neg_log_fn,
    power_fn,
)
from .divergences import (
    log_negativity,
    quasi_f_relative_entropy,
    relative_entropy,
    renyi_relative_entropy,
    sandwiched_renyi,
    von_neumann_entropy,
)
from .ppt import (
    MinimalityCertificate,
    SupportingFunctional,
    functional_from_json_dict,
    functional_to_json_dict,
    is_boundary_of_P,
    is_in_T,
    is_ppt,
    ppt_functional,
    random_boundary_state,
    supporting_dual,
    verify_minimum,
)
from .ree import (
    AdditivityReport,
    StateFamily,
    additivity_check,
    build_family,
    family_from_json_dict,
    family_to_json_dict,
    ree_closed_form,
    verify_cps,
)
from .rains import (
    QubitEqualityReport,
    RainsLnReport,
    ball_functional,
    qubit_equality_audit,
    rains_closed_form,
    rains_converse,
    rains_functional,
    rains_vs_ln,
    verify_rains_min,
)
from .criteria import (
    ConverseOutcome,
    general_converse,
    quasi_functional,
    renyi_converse,
    renyi_functional,
    sandwiched_functional,
)
from .solver import (
    LinearSolveResult,
    SolveResult,
    SolverConfig,
    maximize_linear,
    minimize_ree,
    project_P,
    project_T,
)
