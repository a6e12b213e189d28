"""Extremal problems on vertex-ordered graphs.

Pattern containment testing over ordered, bipartite and cyclic vertex
orders, exact small-instance extremal values with witnesses, verified
lower-bound constructions, and a rule-based engine deriving asymptotic
upper and lower bounds with replayable traces.
"""

from .bounds import (AsymptoticBound, BoundResult, BoundTerm, Classification,
                     Derivation, DerivationStep, bipartite_to_ordered,
                     classify_pattern, derive_lower_bound, derive_upper_bound,
                     lift_bipartite_to_ordered, ordered_to_bipartite,
                     replay_derivation)
from .cache import RecordCache
from .catalog import (as_permutation, complete_ordered, generalized_matching,
                      keszegh_h, ordered_turan, permutation_matching, sailboat)
from .config import SolverCaps
from .constructions import (ConstructionReport, power_distance_graph,
                            random_ck_free, verify_construction)
from .containment import (EdgelessPatternError, Embedding, FlavorMismatchError,
                          contains, embedding_is_valid, embedding_uses_edge)
from .formats import GraphTextError, parse_graph, serialize_graph
from .graphs import (BIPARTITE, CYCLIC, ORDERED, GraphValueError, PatternGraph,
                     bipartite_graph, bipartite_variants, canonical_variant,
                     circular_chromatic_number, connected_components,
                     cyclic_graph, induced_subgraph, interval_chromatic_number,
                     ordered_graph, remove_isolated_vertices,
                     underlying_shortest_cycle)
from .solver import (ExtremalRecord, SizeCapError, count_avoiders,
                     count_avoiding_permutations, growth_table,
                     max_edges_avoiding)
from .transforms import (Hat, find_double_extended_hat, hat_triple_embedding,
                         layered_decomposition, split_regularize)

__version__ = "0.1.0"
