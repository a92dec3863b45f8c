"""Graceful and alpha labelings of trees and lobsters.

Construction, composition and verification of graceful (beta) and alpha
vertex labelings through a binary-matrix diagonal calculus, plus an
exhaustive search oracle that independently validates every construction
at desk scale.
"""

from .errors import (
    ConstructionError,
    FormatError,
    GraphStructureError,
    LabelingInputError,
    LobsterLabError,
    MatrixError,
)
from .graphs import (
    CATERPILLAR,
    DEEPER,
    LOBSTER,
    PATH,
    SINGLE_VERTEX,
    Graph,
    base,
    base_with_map,
    build_graph,
    classify_tree,
    is_tree,
)
from .canonical import free_code, rooted_code, tree_isomorphic
from .lobsters import Branch, Lobster, lobster_decompose, reassemble
from .labelings import (
    ALPHA,
    BETA,
    Labeling,
    Verdict,
    alpha_labeling,
    augment_hat,
    beta_labeling,
    verify_alpha,
    verify_beta,
)
from .matrices import (
    ADJACENCY,
    BIADJACENCY,
    GridVerdict,
    LabeledMatrix,
    box_value,
    canonical_adjacency,
    canonical_biadjacency,
    inverse_alpha,
    is_completely_graceful,
    is_graceful_grid,
    matrix_to_graph,
    shift_ones,
    transform,
)
from .constructions import (
    Certificate,
    attach_at_vertices,
    chain_join_km,
    chain_join_mm,
    chain_with_copies,
    disjoint_union_alpha,
    double,
    glue,
    insert_pendant_column,
    insert_pendant_pair,
    insert_pendant_row,
    merge_join_chain,
    star_join,
    verify_certificate,
)
from .lobster_labeling import (
    BalancedLobsterSpec,
    CoverageReport,
    LobsterClassification,
    balanced_sum_identity,
    classify_lobster,
    label_balanced_lobster,
    label_by_search,
    label_caterpillar,
    label_glue_max,
    label_lobster_auto,
    label_pairwise_balanced,
    label_pairwise_linked,
    label_pairwise_similar,
    spinal_parity,
)
from .search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    SearchBudget,
    SearchResult,
    brute_force_alpha,
    brute_force_graceful,
    count_graceful_labelings,
    enumerate_trees,
)

__all__ = [name for name in dir() if not name.startswith("_")]
