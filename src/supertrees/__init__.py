"""Spectral radii of k-uniform supertrees.

Construction of the named supertree families, adjacency-tensor power
iteration, weighted-incidence certificates with a certified bracketing
radius solver, and exhaustive desk-scale verification of the radius
orderings.
"""

from .certificates import (
    NEITHER,
    NORMAL,
    STRICTLY_SUBNORMAL,
    STRICTLY_SUPERNORMAL,
    CertificateVerdict,
    WeightedIncidence,
    alpha_normal_bracket,
    alpha_normal_radius,
    classify,
    propagate_certificate,
    t11m3_certificate,
)
from .constructors import (
    broom,
    double_star,
    f_tree,
    hyperstar,
    move_edges,
    path,
    star,
    tree_power,
)
from .errors import (
    BracketError,
    CounterexampleFound,
    DanglingVertexWarning,
    DisconnectedInputError,
    EnumerationLimitError,
    IncidenceMismatchError,
    MultipleEdgeError,
    NonConvergenceError,
    PositivityError,
    SupertreeError,
)
from .hypergraph import (
    Hypergraph,
    VertexStats,
    canonical_key,
    from_interchange,
    is_connected,
    is_supertree,
    to_interchange,
    vertex_stats,
)
from .ordering import (
    ReportEntry,
    SpectraReport,
    VerificationRecord,
    enumerate_supertrees,
    random_supertree,
    rank_spectra,
    reduce_non_pendent,
    report_to_csv,
    report_to_dict,
    verify_moving_edges,
    verify_partition_lemma,
    verify_sandwich,
    verify_top_four,
)
from .spectral import (
    PrincipalPair,
    double_star_power_radius,
    eigen_residual,
    f_tree_power_radius,
    power_iteration,
    tensor_apply,
)

__version__ = "0.1.0"
