"""Analysis toolkit for rainbow-triangle-free systems of graphs.

Detection of rainbow triangles, matching-based partitions of triangle-free
graphs, exact certification of the extremal edge bounds, nesting reduction,
and exhaustive/local search for bound-attaining systems.
"""

from .graph import Edge, Graph, Triangle, edge, edge_at, iter_bits, mask_of, max_edge_count
from .matching import (
    MatchingResult,
    bipartite_deficiency_check,
    greedy_maximal_matching,
    is_nearly_matchable,
    matching_number,
    maximum_matching,
)
from .partition import MantelPartition, mantel_edge_bound, mantel_partition, verify_partition
from .reports import CertReport, PreconditionError, RainbowFoundError
from .systems import (
    GraphSystem,
    RainbowWitness,
    auxiliary_incidence_graph,
    edge_multiplicities,
    find_rainbow_triangle,
    is_nested,
    is_rbt_free,
    nest_reduce,
    system_from_json,
    system_from_json_dict,
    triangle_incidence,
)
from .certify import (
    PartitionBoundParams,
    alpha_beta_inequality_holds,
    certify_nearly_matchable,
    certify_partition_bounds,
    certify_product_nested,
    certify_sum_t,
    certify_sum_t3,
    certify_triangle_incidence,
    certify_weighted_sum,
    check_unmatched_cross_degree,
    conjecture_margin,
    floor_quarter_sq,
    lpq_inequality_holds,
    lpq_inequality_sides,
    matches_balanced_bipartite_copies,
    matches_two_complete_one_empty,
    partition_bound_params,
    scan_alpha_beta_inequality,
    scan_lpq_inequality,
    theory_bound,
)
from .search import (
    SearchReport,
    balanced_bipartite_system,
    bipartite_triple,
    exhaustive_max_product,
    exhaustive_max_sum,
    local_search_product,
    two_complete_one_empty,
)

__version__ = "0.1.0"
