"""
Covering conditions and minimum covering sizes
==============================================

A covering of a graph is a family of vertex blocks whose union is the
whole vertex set.  Six distance conditions (A, B, A', B', A'', B'')
control when a covering can be turned into a uniform central graph with
the covered graph as centered periphery.  This script shows the
condition checker (``check_condition``, one condition name at a time),
the exact cov_A solver, the bounded decision procedure, and the
structural shortcuts on the two prisms.
"""

import ucgkit as U
from ucgkit import Covering, Graph, RefinedCovering

# Condition A asks each block for an outside vertex at distance >= 2.
c7 = Graph.cycle(7)
cov = Covering(c7, (frozenset({6, 0, 1}), frozenset({2, 3, 4, 5})))
print("7-cycle, blocks {6,0,1} and {2..5}:")
print("  A:", U.check_condition(cov, "A").passed,
      " B:", U.check_condition(cov, "B").passed)

# Failing checks name the exact clause that failed per subject.
bad = Covering(Graph.cycle(4), (frozenset({0, 1}), frozenset({2, 3})))
rep = U.check_condition(bad, "B")
print("4-cycle halves fail B:", rep.violations)

# cov_A is solved exactly by reduction to set cover over complements of
# closed neighborhoods (each condition-A block fits in one of those).
for token in ("c6", "c5", "c4", "palpha3", "k1_3"):
    res = U.cov_A(U.named_graph(token))
    print(f"cov_A({token}) = {res.value}")

# The compound conditions couple blocks, so they are decided by bounded
# exhaustive search; witnesses come back in deterministic (lexicographic
# first) order and are re-verified by covering_passes.
dec = U.decide_cover_k(c7, 2, ("A", "B"))
print("\n2-block A+B covering of the 7-cycle:",
      [sorted(b) for b in dec.witness.blocks])

# Structural shortcuts at two blocks: A'+B' needs a disconnected graph,
# A' alone needs diameter >= 5, and A+B at radius 2 is impossible.
print("A'+B' at 2 blocks on a connected graph:",
      U.decide_cover_k(c7, 2, ("A'", "B'")).found)
print("A' at 2 blocks on the 7-path (diameter 6):",
      U.decide_cover_k(Graph.path(7), 2, ("A'",)).found)

# The recursive bipartition builds a 2-block A+B covering whenever the
# diameter is >= 4 and the radius >= 3.
cov = U.construct_AB_bipartition(Graph.path(7))
print("bipartition of the 7-path:", [sorted(b) for b in cov.blocks])

# The two prisms separate the refined conditions: both have radius and
# diameter 4, but only the heptagonal prism admits a refined 2-covering
# meeting A, A'' and B''.  The necessary two-ball filter sees it first.
hexp = U.gen_prism(6).graph
hept = U.gen_prism(7).graph
print("\ntwo-ball triple on the hexagonal prism:",
      U.two_ball_triple_check(hexp)[0])
print("two-ball triple on the heptagonal prism:",
      U.two_ball_triple_check(hept)[0])

rc = U.refined_cover_of(U.prism7_refined_cover())
ra, rb = U.check_condition(rc, "A''"), U.check_condition(rc, "B''")
print("heptagonal prism refined covering: A''", ra.passed, " B''", rb.passed)

# The full profile combines shortcuts with the bounded deciders and is
# explicit about what stayed unknown.
profile = U.cov_profile(hexp)
print("\nhexagonal prism profile:")
for key, res in profile.items():
    print(f"  cov_{key:8s} -> {res.value!r:28} via {res.method}")
