"""
Centers, centered peripheries, and the uniform-central property
================================================================

The eccentricity of a vertex is its distance to the farthest vertex.
The center collects the minimum-eccentricity vertices; the *centered
periphery* collects everything some central vertex sees at maximum
distance.  That set can differ from the periphery (the globally most
eccentric vertices), and this script walks through a 13-vertex example
where it does.
"""

import ucgkit as U
from ucgkit import Graph

# A hard-coded example whose periphery and centered periphery differ.
fx = U.periphery_gap_example()
g = fx.graph
print("graph:", g, "labels:", ", ".join(g.labels))

profile = U.metric_profile(g)
print("radius:", profile.radius, " diameter:", profile.diameter)

analysis = U.ucg_analysis(g)
name = g.label_of
print("center:", sorted(name(v) for v in analysis.center))

# The centered periphery is the union of the central vertices' eccentric
# sets; the periphery is the set of maximum-eccentricity vertices.
periphery = [v for v in range(g.n) if g.ecc[v] == profile.diameter]
print("periphery:         ", sorted(name(v) for v in periphery))
print("centered periphery:", sorted(name(v) for v in analysis.centered_periphery))
print("uniform central?", analysis.is_ucg)

# Strata: vertices grouped by distance from the center.
for m, stratum in enumerate(analysis.strata):
    print(f"  distance {m} from center:", sorted(name(v) for v in stratum))

# Because the graph is uniform central with radius >= 2, its first
# stratum induces a covering of the centered periphery: each distance-1
# vertex x owns the far vertices reachable from it along radial paths,
# which is exactly {p : d(x, p) = radius - 1}.
res = U.induced_covering(g)
print("\ninduced covering on the centered periphery:")
for x, block in zip(res.d1, res.blocks):
    print(f"  via {name(x)}:", sorted(name(v) for v in block))
print("irredundant blocks kept:", res.kept,
      " private witnesses:", {i: name(v) for i, v in res.witnesses.items()})

# The induced covering always satisfies condition A: every block has an
# outside vertex at distance >= 2 inside the periphery subgraph.
sub, covering, _ = U.periphery_covering(g)
print("condition A on the induced covering:", U.check_condition(covering, "A").passed)

# Contrast with graphs that are not uniform central: on an even cycle
# every vertex is central and eccentric sets are singleton antipodes.
c6 = U.ucg_analysis(Graph.cycle(6))
print("\nC6 uniform central?", c6.is_ucg,
      "(eccentric sets:", dict(sorted(c6.ec_map.items())), ")")
