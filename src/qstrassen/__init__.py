"""qstrassen: existence of bipartite quantum couplings with prescribed marginals and support.

The decision problem: given density operators rho_1, rho_2 and a subspace X of
the tensor product space, does a bipartite density operator exist whose partial
traces are rho_1 and rho_2 and whose support lies inside X? The package answers
it with a structured semidefinite program (the subspace-overlap value mu equals
1 exactly when a coupling exists), extends the test to simulated
infinite-dimensional marginals through monotone truncation ladders, computes
trace-norm distances to coupling fibers, and cross-validates the diagonal case
against a classical max-flow oracle.
"""

from .linalg import (
    DEFAULT_TOL,
    EigendecompositionError,
    HermitianOperator,
    SingularSpectrum,
    ToleranceConfig,
    check_hs_product_bound,
    check_sv_product_bound,
    check_trace_inequality,
    hermitian_eig,
    hermitize,
    psd_project,
    schatten_norm,
    singular_values,
    trace_norm,
)
from .bipartite import (
    BipartiteOperator,
    DensityOperator,
    EmptySubspaceError,
    Subspace,
    adjoint_marginal,
    compress_subspace_h2_finite,
    marginal_pair,
    partial_trace_1,
    partial_trace_2,
    subspace_from_vectors,
    truncation_projector,
    weak_vs_trace_demo,
)
from .sdp import (
    OverlapSolution,
    SolverConfig,
    solve_f_min_full,
    solve_marginal_sdp,
    verify_duality_certificates,
)
from .strassen import (
    ClassicalInstance,
    LadderLevel,
    LadderReport,
    classical_quantum_consistency,
    classical_strassen,
    f_ladder,
    has_coupling,
    mu,
    sdp_ladder,
)
from .fibers import (
    FiberSpec,
    SemidistanceBound,
    dist_to_fiber,
    glue_coupling,
    semidistance_lower_bound,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "EigendecompositionError",
    "HermitianOperator",
    "SingularSpectrum",
    "ToleranceConfig",
    "check_hs_product_bound",
    "check_sv_product_bound",
    "check_trace_inequality",
    "hermitian_eig",
    "hermitize",
    "psd_project",
    "schatten_norm",
    "singular_values",
    "trace_norm",
    "BipartiteOperator",
    "DensityOperator",
    "EmptySubspaceError",
    "Subspace",
    "adjoint_marginal",
    "compress_subspace_h2_finite",
    "marginal_pair",
    "partial_trace_1",
    "partial_trace_2",
    "subspace_from_vectors",
    "truncation_projector",
    "weak_vs_trace_demo",
    "OverlapSolution",
    "SolverConfig",
    "solve_f_min_full",
    "solve_marginal_sdp",
    "verify_duality_certificates",
    "ClassicalInstance",
    "LadderLevel",
    "LadderReport",
    "classical_quantum_consistency",
    "classical_strassen",
    "f_ladder",
    "has_coupling",
    "mu",
    "sdp_ladder",
    "FiberSpec",
    "SemidistanceBound",
    "dist_to_fiber",
    "glue_coupling",
    "semidistance_lower_bound",
    "__version__",
]
