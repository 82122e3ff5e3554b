"""Centers, centered peripheries, the uniform-central test, and the
covering a uniform central graph induces on its centered periphery.

The centered periphery is the union of the eccentric sets of the central
vertices; it can differ from the periphery (the maximum-eccentricity
vertices).  A graph is uniform central (UCG) when every central vertex
has the same eccentric set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Mapping

from .coverings import Covering
from .errors import NotSpanningSubgraphError, NotUcgError, RadiusTooSmallError
from .graphs import (INF, Dist, Graph, bfs_layers, bits, check_vertices, induced_subgraph,
                     json_number, metric_profile)


def _vertices(g: Graph, vs) -> dict:
    out = {"ids": sorted(vs)}
    if g.labels:
        out["labels"] = [g.label_of(v) for v in sorted(vs)]
    return out


@dataclass(frozen=True)
class UcgAnalysis:
    """Everything the package needs to know about one graph's center.

    The analysis holds masks: ``center_mask``, ``cp_mask`` (the centered
    periphery) and ``ec_masks``, the eccentric sets of the central
    vertices in increasing vertex order.  The vertex-set views
    ``center``, ``centered_periphery``, ``intermediate``, ``ec_map`` and
    ``strata`` are built from them the first time they are read.

    ``strata`` lists the sets at distance 0, 1, .., r from the center;
    for a disconnected graph the analysis degenerates by convention: all
    eccentricities are infinite, so every vertex is central, the strata
    collapse to a single class and the graph is not a UCG.
    """

    graph: Graph
    center_mask: int
    cp_mask: int
    ec_masks: tuple[int, ...]
    is_ucg: bool
    radius: Dist
    diameter: Dist

    @cached_property
    def center(self) -> frozenset[int]:
        return frozenset(bits(self.center_mask))

    @cached_property
    def centered_periphery(self) -> frozenset[int]:
        return frozenset(bits(self.cp_mask))

    @cached_property
    def intermediate(self) -> frozenset[int]:
        return frozenset(bits(self.graph.full_mask & ~(self.center_mask | self.cp_mask)))

    @cached_property
    def ec_map(self) -> Mapping[int, frozenset[int]]:
        return {z: frozenset(bits(m)) for z, m in zip(bits(self.center_mask), self.ec_masks)}

    @cached_property
    def strata(self) -> tuple[frozenset[int], ...]:
        if self.radius is INF:
            return (frozenset(range(self.graph.n)),)
        # the strata run to the radius even when the last ones are empty
        layers = bfs_layers(self.graph.adj_masks, self.center_mask)[0]
        layers += [0] * (int(self.radius) + 1 - len(layers))
        return tuple(frozenset(bits(m)) for m in layers)

    def to_json(self) -> dict:
        g = self.graph
        return {
            "radius": json_number(self.radius),
            "diameter": json_number(self.diameter),
            "is_ucg": self.is_ucg,
            "center": _vertices(g, self.center),
            "centered_periphery": _vertices(g, self.centered_periphery),
            "intermediate": _vertices(g, self.intermediate),
            "strata": [sorted(s) for s in self.strata],
            "ec_map": {str(z): sorted(ec) for z, ec in self.ec_map.items()},
        }


def eccentric_set(g: Graph, v: int) -> frozenset[int]:
    """EC(v): the vertices realizing v's eccentricity."""
    check_vertices(g, (v,))
    return frozenset(bits(g.ecc_masks[v]))


def ucg_analysis(g: Graph) -> UcgAnalysis:
    prof = metric_profile(g)
    ecc, r, masks = prof.ecc, prof.radius, g.ecc_masks
    # the central vertices are found by the tuple's own scans, so the
    # loop runs once per central vertex, not once per vertex
    center_mask, ec_masks, v = 0, [], -1
    for _ in range(ecc.count(r)):
        v = ecc.index(r, v + 1)
        center_mask |= 1 << v
        ec_masks.append(masks[v])
    return UcgAnalysis(
        graph=g,
        center_mask=center_mask,
        cp_mask=reduce(or_, ec_masks),
        ec_masks=tuple(ec_masks),
        # a disconnected graph has every vertex central, each missing just
        # the components it is not in, so the eccentric sets differ
        is_ucg=len(set(ec_masks)) == 1,
        radius=prof.radius,
        diameter=prof.diameter,
    )


@dataclass(frozen=True)
class InducedCoverResult:
    """The covering a UCG induces on its centered periphery.

    ``d1`` lists the distance-1 stratum vertices whose block is nonempty,
    aligned with ``blocks``; vertex sets use the host graph's ids.
    ``kept`` indexes an irredundant subcovering, each kept block holding a
    private vertex (its witness) that no other kept block contains.
    """

    d1: tuple[int, ...]
    blocks: tuple[frozenset[int], ...]
    kept: tuple[int, ...]
    witnesses: Mapping[int, int]


def induced_covering(h: Graph, analysis: UcgAnalysis | None = None) -> InducedCoverResult:
    """Blocks P_i = {p in CP : d(x_i, p) = r - 1} for x_i in the first
    stratum, empty blocks dropped, then a greedy irredundant reduction.

    A distance-1 vertex has a central neighbor, so prepending that
    neighbor to a shortest x_i -> p path of length r - 1 produces a
    radial path; conversely a radial path through x_i must have it in
    position 1, since x_i's central neighbor would otherwise see the far
    endpoint at distance below the radius.
    """
    a = analysis or ucg_analysis(h)
    if not a.is_ucg:
        raise NotUcgError("induced covering requires a uniform central graph")
    if a.radius <= 1:
        raise RadiusTooSmallError(f"need radius >= 2, got {a.radius}")
    r = int(a.radius)
    d1 = []
    blocks = []
    for x in sorted(a.strata[1]):
        blk = frozenset(bits(h.layers[x][r - 1] & a.cp_mask))
        if blk:
            d1.append(x)
            blocks.append(blk)
    kept = list(range(len(blocks)))
    # repeatedly drop the lowest-indexed block swallowed by the others
    while True:
        for pos, i in enumerate(kept):
            rest = frozenset().union(*(blocks[j] for j in kept if j != i))
            if blocks[i] <= rest:
                del kept[pos]
                break
        else:
            break
    witnesses = {}
    for i in kept:
        others = frozenset().union(*(blocks[j] for j in kept if j != i))
        witnesses[i] = min(blocks[i] - others)
    return InducedCoverResult(tuple(d1), tuple(blocks), tuple(kept), witnesses)


def periphery_covering(h: Graph, kept_only: bool = False) -> tuple[Graph, Covering, tuple[int, ...]]:
    """The induced subgraph on the centered periphery plus the induced
    covering relabeled into it.  Returns (P, covering, original ids)."""
    a = ucg_analysis(h)
    res = induced_covering(h, a)
    sub, old = induced_subgraph(h, sorted(a.centered_periphery))
    index = {o: i for i, o in enumerate(old)}
    chosen = res.kept if kept_only else range(len(res.blocks))
    blocks = tuple(frozenset(index[v] for v in res.blocks[i]) for i in chosen)
    return sub, Covering(sub, blocks), old


def distance_preserving_spanning_check(h: Graph, g: Graph,
                                       center_set: frozenset[int] | set[int]) -> bool:
    """True when g preserves h's distances from every vertex of
    ``center_set``.  When h is a UCG with that center, a true result
    means g is a UCG with the same center and centered periphery."""
    if g.n != h.n:
        raise NotSpanningSubgraphError("vertex sets differ")
    if any(gm & ~hm for gm, hm in zip(g.adj_masks, h.adj_masks)):
        raise NotSpanningSubgraphError("edge set is not a subset of the host's")
    check_vertices(h, center_set)
    # the layers from c fix every distance from c, infinite ones included
    return all(g.layers[c] == h.layers[c] for c in center_set)
