"""Algorithms and certificates for 2-edge-coloured multigraphs."""

from .core import (
    BLUE,
    RED,
    AlternatingCycle,
    AlternatingTrail,
    Colour,
    CycleFactor,
    Edge,
    EdgeColouredMultigraph,
    EulerianFactor,
    GraphError,
    UnsupportedClass,
    VerifyResult,
    Witness,
    build_graph,
    graph_to_dict,
    parse_graph,
    serialize_graph,
    verify_witness,
    witness_to_dict,
)
from .factor import (
    ColourDeficient,
    alternating_cycle_factor,
    alternating_euler_tour,
    eulerian_factor,
    tour_factor_from_balanced_edges,
)
from .connect import (
    ConnectivityReport,
    alternating_path,
    alternating_trail,
    complete_multipartite_classes,
    is_colour_connected,
    is_trail_colour_connected,
)
from .structure import (
    SimilarityPartition,
    blow_up,
    is_extension_of_m_closed,
    is_m_closed,
    m_closure,
    similar,
    similarity_partition,
)
from .analysis import (
    Analysis,
    Decision,
    alternating_hamiltonian_cycle,
    decide_complete_bipartite,
    supereulerian,
)
from .merge import (
    DominationCertificate,
    Dominates,
    Merged,
    MergeInternalError,
    MergeOutcome,
    NoEdgeBetween,
    merge_cycles,
)
from .reductions import (
    BipartiteDigraph,
    ReductionMap,
    bb_from_digraph,
    bb_to_digraph,
    fixture,
    fixture_names,
    generate,
    reduce_ham_to_supereulerian,
)
from .oracle import (
    BudgetExceeded,
    OracleBudget,
    oracle_alternating_path,
    oracle_alternating_trail,
    oracle_colour_connected,
    oracle_cycle_factor,
    oracle_eulerian_factor,
    oracle_ham_alternating,
    oracle_supereulerian,
    oracle_trail_colour_connected,
)
