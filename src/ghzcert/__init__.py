"""Exact GHZ distillation rates and degeneration certificates for
hypergraphs of multiparty GHZ states."""

from types import ModuleType as _ModuleType

from .errors import (
    BadFormatError,
    BadJsonError,
    BadGridLimitError,
    BadLevelError,
    DimensionInfeasibleError,
    DimMismatchError,
    DisconnectedError,
    EmptyEdgeError,
    GhzcertError,
    GhzStructureError,
    GridTooLargeError,
    LevelsUnsupportedError,
    NegativeExponentError,
    NonScalarCoefficientsError,
    NotGeneralPositionError,
    NotOrthRepError,
    RetriesExhaustedError,
    SameVertexError,
    TooFewVerticesError,
    TooLargeError,
    VertexOutOfRangeError,
)
from .gpor import OrthRep, OrthRepReport, find_gpor, verify_orthrep
from .hypergraph import (
    Cut,
    Edge,
    Graph,
    Hypergraph,
    complete_uniform,
    cycle_hypergraph,
    edge_connectivity,
    edge_disjoint_paths,
    graph,
    hypergraph,
    is_connected,
    line_graph,
    min_cut,
    min_cuts,
    path_hypergraph,
    single_full_edge,
)
from .protocol import (
    Certificate,
    CertificateReport,
    EprRate,
    QuadraticAssignment,
    RateBound,
    build_exponent_assignment,
    choose_g,
    enumerate_solutions,
    epr_rate,
    ghz_rate_bound,
    synthesize_certificate,
    verify_certificate,
)
from .ratlinalg import rank
from .tensor import (
    SparseTensor,
    apply_local_diagonal,
    check_ghz_structure,
    dump,
    ghz_state,
    leading_term,
)

__version__ = "0.1.0"

# the public names imported above, the API's one declaration
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
