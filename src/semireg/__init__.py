"""Edge partitions of graphs into weakly semiregular, semiregular, regular,
and locally irregular subgraphs, with exact oracles, hardness-instance
constructions, and representation-number tools."""

from .coloring import (
    TwoFactorization,
    four_regularize,
    sr_general,
    two_factorize,
    vizing,
    wr2_deg4,
)
from .errors import BudgetError, GadgetError, ParseError
from .families import (
    EdgePartition,
    Family,
    is_family,
    parse_partition,
    part_subgraph,
    serialize_partition,
    verify_partition,
    wr_lower_bound,
)
from .graph import (
    Classification,
    Graph,
    RootedTree,
    bfs_root,
    classify,
    complement,
    complete,
    complete_bipartite,
    cycle,
    degree_set,
    disjoint_union,
    parse_graph,
    path,
    serialize_graph,
    star,
)
from .oracles import (
    OracleBudget,
    decode_tree,
    enumerate_trees,
    oracle_min_parts,
    oracle_mixed,
)
from .reductions import (
    Gadget,
    GadgetSet,
    NaeFormula,
    ReductionResult,
    build_reduction,
    extract_assignment,
    is_additive_coloring,
    load_gadget_set,
    nae_bruteforce,
    parse_gadget,
    parse_nae,
    partition_from_labels,
    widen_degree_set,
)
from .representation import (
    PrimePlan,
    Representation,
    next_prime,
    parse_representation,
    rep_construct,
    rep_search,
    serialize_representation,
    verify_representation,
)
from .trees import (
    candidate_pairs,
    log_tree_partition,
    partition_forests,
    partition_two_forests,
    sr_tree,
    vertex_feasible,
    wr2_tree,
    wrc_tree,
)

__version__ = "0.1.0"
