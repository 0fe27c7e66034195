"""Evans-function spectral tools for Schrödinger operators on star graphs.

Build a graph from edges and boundary conditions, evaluate the Evans
function whose zeros are the eigenvalues, split the graph at interior
points to factor it through one- and two-sided boundary maps, count
eigenvalues through the splitting identity, and apply the resolvent.
"""
from .graphs import (
    BoundaryConditions,
    BoundaryData,
    CutOnVertex,
    CutsOutOfOrder,
    DegenerateDiagonalPair,
    DimensionMismatch,
    EdgeSpec,
    GraphError,
    NotSelfAdjoint,
    PiecewiseConstant,
    RankDeficient,
    SAME_WIRE,
    SINGLE,
    Sampled,
    SplitSpec,
    StarGraph,
    TWO_WIRES,
    build_preset,
    free_edge,
    gamma_trace,
    neumann_trace,
    split_graph,
    validate_bc,
)
from .propagate import (
    EdgeSolution,
    OutOfDomain,
    StateVector,
    segment_transfer,
    transfer_matrix,
)
from .evans import (
    EvansValue,
    FrameBundle,
    FundamentalFrame,
    evans,
    frame_matrix,
    fundamental_frame,
    x_independence_check,
)
from .maps import (
    OneSidedMap,
    PoleAtLambda,
    TwoSidedMap2x2,
    map_M1,
    map_M2,
    minor_identity_check,
    split_evans_factors,
    two_sided_2x2_same_wire,
    two_sided_2x2_two_wires,
    two_sided_sum,
    two_sided_value,
    verify_double_split,
    verify_single_split,
)
from .counting import (
    CountReport,
    CountingIdentityReport,
    EndpointNudged,
    EndpointOnSpectrum,
    GridTooCoarse,
    count_eigenvalues,
    count_zeros,
    lambda_grid,
    verify_counting,
)
from .resolvent import (
    AdjustmentVectors,
    NoIndependentPartner,
    OnSpectrum,
    ProjectionSet,
    QuadratureFailure,
    ResolventApplication,
    SingularDeltaCombination,
    TauSelection,
    UGammaPaths,
    adjustment_vectors,
    build_projections,
    inner_product_check,
    particular_solution,
    projection_equations,
    resolvent_apply,
    segment_residual,
    select_tau,
    u_gamma,
)

__version__ = "0.1.0"
