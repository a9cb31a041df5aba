"""Z2-index of subspace path pairs and parity of linear ODE families.

The package computes three flavors of one parity invariant and checks
that they agree: the Z2-index of a pair of subspace paths (endpoint
determinant signs on continuous frames), the geometric parity of a
heteroclinic orbit (index of its stable/unstable pair on the half
line), and the parity of the path of linearized boundary-value
operators (determinant sign of a Crank-Nicolson discretization).  A
nonlinear front-end turns an index of 1 into a bifurcation verdict.
"""

from .bifurcation import (
    BifurcationVerdict,
    Branch,
    NonlinearFamily,
    RestpointReport,
    check_restpoints,
    detect_bifurcation,
    linearize_along,
    validate_branch,
)
from .errors import (
    BoundaryDegenerate,
    BranchResidualTooLarge,
    CannotClose,
    ConfigError,
    Degeneracy,
    DegenerateEndpoint,
    DegenerateForm,
    DimensionMismatch,
    DomainError,
    GapTooLarge,
    HetindexError,
    HypothesisFailure,
    IntegrationFailure,
    InternalMismatch,
    InvalidInput,
    IrregularCrossing,
    NotClosed,
    NotGraphical,
    NotHyperbolic,
    NotStabilized,
    ParseError,
    RankDeficient,
    TailNotTransversal,
    UnboundVariable,
    UnstableTruncation,
)
from .expr import (
    compile_matrix,
    evaluate,
    free_variables,
    parse,
    parse_matrix,
    parse_vector,
    pretty,
)
from .flow import (
    AsymptoticLimits,
    HypothesisReport,
    LinearFamily,
    SubspacePath,
    asymptotic_limits,
    check_A1_A3,
    fundamental_solution,
    invariant_subspace_path,
    path_from_sampler,
    subspace_at,
    subspaces_over_lambda,
)
from .linalg import (
    Frame,
    SpectralSplit,
    align_frame,
    det_sign,
    gap_distance,
    orthogonal_complement,
    orthonormalize,
    pair_matrix,
    spectral_split,
)
from .maslov import (
    CrossingData,
    Mod2Report,
    crossing_census,
    crossing_form,
    graph_frame,
    graph_path,
    is_lagrangian,
    maslov_index,
    mod2_compare,
    symplectic_form_matrix,
)
from .parity import (
    DecompositionReport,
    DiscretizedOperator,
    KernelReport,
    ParityReport,
    TheoremReport,
    boundary_pair_over_lambda,
    decomposition_check,
    discretize,
    finite_parity,
    kernel_dimension,
    operator_parity,
    sparse_det_sign,
    verify_index_theorem,
)
from .suites import SuiteResult, poschl_teller_family, run_all
from .z2index import (
    ClosedLoop,
    IndexReport,
    SubspacePathPair,
    bundle_orientability,
    close_loop,
    geometric_parity,
    z2_index,
    z2_index_unbounded,
)

__version__ = "0.1.0"
