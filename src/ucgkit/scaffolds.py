"""Witness graphs gluing a prescribed center C to a prescribed centered
periphery P through layers of spine vertices.

Three builders:

* ``build_scaffold``: C and P joined by k+1 spine chains of length rho,
  one chain per covering block plus one apex chain; chain i ends on
  block P_i, every chain starts on all of C.  Optionally drops apex
  chain vertices, which is how the tight witnesses arise.
* ``build_refined_scaffold``: the depth-2 variant with single spine
  vertices x_1..x_k and y_0..y_k, where block 1's attachment is split
  between y_0 and y_1 according to a refined covering.
* ``build_cone``: one apex adjacent to all of P.

Builders never refuse structurally valid input: whether the result is a
uniform central graph with the intended center and centered periphery is
decided separately by ``verify_construction``, because the equivalences
between covering conditions and verification are themselves things the
test-suite exercises in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .analysis import ucg_analysis
from .codecs import encode_graph6
from .coverings import Covering, RefinedCovering
from .errors import DomainError, InvalidDropError
from .graphs import Dist, Graph, bits, json_number, mask_of

CENTER = "center"
PERIPHERY = "periphery"


def spine_role(i: int, j: int) -> str:
    return f"spine:{i},{j}"


def apex_role(j: int) -> str:
    return f"apex-spine:{j}"


@dataclass(frozen=True)
class Scaffold:
    """A built graph plus the role each vertex plays.

    Vertex labeling is canonical: the C block first, then the P block,
    then spine vertices in (chain, depth) order, so serialized output is
    byte-stable.
    """

    graph: Graph
    roles: tuple[str, ...]

    @property
    def center_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.roles) if r == CENTER)

    @property
    def periphery_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.roles) if r == PERIPHERY)

    @property
    def spine_vertices(self) -> tuple[int, ...]:
        return tuple(v for v, r in enumerate(self.roles)
                     if r not in (CENTER, PERIPHERY))

    def to_json(self) -> dict:
        return {"graph6": encode_graph6(self.graph), "roles": list(self.roles)}


@dataclass(frozen=True)
class VerificationReport:
    """Fresh analysis of a scaffold against its intended center/periphery."""

    is_ucg: bool
    center_matches: bool
    periphery_matches: bool
    radius: Dist
    intermediate_count: int

    @property
    def ok(self) -> bool:
        return self.is_ucg and self.center_matches and self.periphery_matches

    def to_json(self) -> dict:
        return {"is_ucg": self.is_ucg, "center_matches": self.center_matches,
                "periphery_matches": self.periphery_matches,
                "radius": json_number(self.radius),
                "intermediate_count": self.intermediate_count, "ok": self.ok}


def _c_then_p(c: Graph, p: Graph, host: Graph) -> tuple[list[str], list[str], list]:
    """C's labels, roles and edges, then P's shifted past them; ``host``,
    the host of the covering to build on, must be P."""
    if host != p:
        raise ValueError("covering host differs from the periphery graph")
    nc = c.n
    labels = [c.label_of(v) for v in range(nc)] + [p.label_of(v) for v in range(p.n)]
    roles = [CENTER] * nc + [PERIPHERY] * p.n
    edges = list(c.edges) + [(u + nc, v + nc) for u, v in p.edges]
    return labels, roles, edges


def build_scaffold(c: Graph, p: Graph, cover: Covering, rho: int,
                   drop: Iterable[int] = ()) -> Scaffold:
    """Layered witness over covering blocks P_1..P_k.

    Spine vertex (i, j) for 0 <= i <= k, 1 <= j <= rho; chain 0 is the
    apex chain, attached to C but to no block.  ``drop`` lists apex
    depths j whose vertex x_{0,j} is omitted.

    Edges: C's own edges; P's own edges; C complete to every x_{i,1};
    block P_i complete to x_{i,rho}; chains x_{i,j} -- x_{i,j+1}.
    """
    if rho < 1:
        raise DomainError(f"rho must be >= 1, got {rho}")
    labels, roles, edges = _c_then_p(c, p, cover.host)
    drop = set(drop)
    if not drop <= set(range(1, rho + 1)):
        raise InvalidDropError(
            f"droppable apex depths are 1..{rho}, got {sorted(drop)}")
    k = cover.k
    nc = c.n
    index: dict[tuple[int, int], int] = {}
    nxt = len(labels)
    for i in range(k + 1):
        for j in range(1, rho + 1):
            if i == 0 and j in drop:
                continue
            index[(i, j)] = nxt
            labels.append(f"x{i},{j}")
            roles.append(apex_role(j) if i == 0 else spine_role(i, j))
            nxt += 1

    for i in range(k + 1):
        if (i, 1) in index:
            edges += [(cv, index[(i, 1)]) for cv in range(nc)]
    for i in range(1, k + 1):
        bottom = index[(i, rho)]
        edges += [(nc + pv, bottom) for pv in sorted(cover.blocks[i - 1])]
    for i in range(k + 1):
        for j in range(1, rho):
            if (i, j) in index and (i, j + 1) in index:
                edges.append((index[(i, j)], index[(i, j + 1)]))

    return Scaffold(Graph(nxt, edges, labels), tuple(roles))


def build_refined_scaffold(c: Graph, p: Graph, rc: RefinedCovering) -> Scaffold:
    """Depth-2 witness whose first block hangs on two split vertices.

    With blocks renumbered so the refined block comes first: spine
    vertices x_1..x_k (adjacent to all of C) and y_0..y_k, with
    y_i -- x_i, the extra edge y_0 -- x_1, block P_j complete to y_j for
    j >= 2, Q_0 complete to y_0 and Q_1 to y_1.  Intermediate count is
    2k + 1.
    """
    labels, roles, edges = _c_then_p(c, p, rc.base.host)
    base = rc.base
    order = [rc.iota] + [i for i in range(base.k) if i != rc.iota]
    blocks = [base.blocks[i] for i in order]
    k = base.k
    nc, np_ = c.n, p.n
    x = {}
    for i in range(1, k + 1):
        x[i] = nc + np_ + (i - 1)
        labels.append(f"x{i}")
        roles.append(spine_role(i, 1))
    y = {}
    for j in range(k + 1):
        y[j] = nc + np_ + k + j
        labels.append(f"y{j}")
        roles.append(spine_role(j, 2))

    for i in range(1, k + 1):
        edges += [(cv, x[i]) for cv in range(nc)]
    for j in range(2, k + 1):
        edges += [(nc + pv, y[j]) for pv in sorted(blocks[j - 1])]
    edges += [(nc + pv, y[0]) for pv in sorted(rc.q0)]
    edges += [(nc + pv, y[1]) for pv in sorted(rc.q1)]
    edges += [(x[i], y[i]) for i in range(1, k + 1)]
    edges.append((x[1], y[0]))

    return Scaffold(Graph(nc + np_ + 2 * k + 1, edges, labels), tuple(roles))


def build_cone(p: Graph) -> Scaffold:
    """A single apex adjacent to every vertex of p."""
    labels = ["apex"] + [p.label_of(v) for v in range(p.n)]
    edges = [(0, v + 1) for v in range(p.n)]
    edges += [(u + 1, v + 1) for u, v in p.edges]
    return Scaffold(Graph(p.n + 1, edges, labels),
                    (CENTER,) + (PERIPHERY,) * p.n)


def verify_construction(s: Scaffold, c: Graph, p: Graph) -> VerificationReport:
    """Analyze the built graph from scratch and compare against intent.

    ``center_matches`` demands the computed center equal the center-tagged
    vertices and the induced edges there equal c's; likewise for the
    periphery.  The intermediate count comes from the fresh analysis: the
    vertices in neither the center nor the centered periphery.  Only the
    analysis's masks are compared, so no vertex-set view is built.
    """
    g = s.graph
    a = ucg_analysis(g)
    ctr = s.center_vertices
    per = s.periphery_vertices
    center_matches = a.center_mask == mask_of(ctr) and _induced_equals(g, ctr, c)
    periphery_matches = a.cp_mask == mask_of(per) and _induced_equals(g, per, p)
    return VerificationReport(
        is_ucg=a.is_ucg,
        center_matches=center_matches,
        periphery_matches=periphery_matches,
        radius=a.radius,
        intermediate_count=g.n - (a.center_mask | a.cp_mask).bit_count(),
    )


def _induced_equals(g: Graph, vertices: tuple[int, ...], target: Graph) -> bool:
    pos = {v: i for i, v in enumerate(vertices)}
    return len(vertices) == target.n and all(
        sum(1 << pos[u] for u in bits(g.adj_masks[v]) if u in pos) == want
        for v, want in zip(vertices, target.adj_masks))
