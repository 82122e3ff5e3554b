"""Exact computations on uniform central graphs (UCGs).

A graph is uniform central when every central vertex has the same set of
eccentric vertices; that common set is the centered periphery.  The
package computes centers and centered peripheries, decides the covering
conditions (A, B, A', B', A'', B'') and minimum covering sizes, builds
the layered witness graphs that realize a prescribed center/periphery
pair, and computes central-peripheral appendage numbers with verified
certificates plus an independent brute-force oracle.
"""

from .analysis import (InducedCoverResult, UcgAnalysis,
                       distance_preserving_spanning_check, eccentric_set,
                       induced_covering, periphery_covering, ucg_analysis)
from .appendage import (AppendageResult, appendage_center_only, appendage_number,
                        appendage_periphery_only, brute_force_appendage)
from .codecs import (decode_graph6, encode_graph6, format_edge_list,
                     load_graph_text, parse_edge_list, to_dot)
from .coverings import (CONDITIONS, INFEASIBLE, ConditionReport, CovSizeResult,
                        Covering, RefinedCovering, Unknown, check_condition,
                        construct_AB_bipartition, cov_A, cov_profile,
                        covering_from_json, covering_passes, decide_cover_k,
                        iter_covering_witnesses, singleton_covering,
                        two_ball_triple_check)
from .enumeration import atlas_graphs, labeled_graphs
from .errors import (BoundExceededError, DomainError, InternalCheckError,
                     InvalidDropError, MalformedInputError,
                     NotSpanningSubgraphError, NotUcgError,
                     PreconditionError, RadiusTooSmallError, UcgError)
from .families import (Fixture, all_fixtures, fixture_manifest, gen_P_alpha,
                       gen_P_alpha_beta, gen_prism, named_graph,
                       periphery_gap_example, prism7_refined_cover,
                       refined_cover_of)
from .graphs import INF, Graph, MetricProfile, induced_subgraph, metric_profile
from .scaffolds import (Scaffold, VerificationReport, build_cone,
                        build_refined_scaffold, build_scaffold,
                        verify_construction)

__version__ = "0.1.0"
