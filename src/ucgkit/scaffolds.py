"""Witness graphs gluing a prescribed center C to a prescribed centered
periphery P through spine vertices, all laid out by one assembly: C,
then P, then the spine vertices of the builder's frame, with covering
block i joined to the frame's foot i.  A frame is what the shape fixes,
cached per shape as (n, spine labels, roles, spine rows, feet): the
spine rows are the n adjacency rows of the edges joining C to the spine
and the spine to itself, checked edge by edge once per frame.  Each
scaffold is born as adjacency rows: a copy of the spine rows with C's
rows, P's rows shifted by |C|, and each block's bits at its foot ORed
in.  The builders differ only in their frames and blocks:

* ``build_scaffold``: k+1 spine chains of length rho, one per covering
  block plus one apex chain; every chain starts on all of C, and chain
  i's foot x_{i,rho} carries block P_i.  Optionally drops apex chain
  vertices, which is how the tight witnesses arise.
* ``build_refined_scaffold``: the depth-2 variant, x_1..x_k on C and
  feet y_0..y_k carrying Q_0, Q_1 and then the other blocks in order,
  so the refined block is split between y_0 and y_1.
* ``build_cone``: C is one vertex, the apex, and the foot of its one
  block, all of P.

Builders never refuse structurally valid input: whether the result is a
uniform central graph with the intended center and centered periphery is
decided separately by ``verify_construction``, because the equivalences
between covering conditions and verification are themselves things the
test-suite exercises in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Iterable, NamedTuple, Sequence

from .analysis import ucg_analysis
from .codecs import encode_graph6
from .coverings import Covering, RefinedCovering
from .errors import DomainError, InvalidDropError
from .graphs import Dist, Graph, adjacency_rows, json_value, mask_of

CENTER = "center"
PERIPHERY = "periphery"


def spine_role(i: int, j: int) -> str:
    return f"spine:{i},{j}"


def apex_role(j: int) -> str:
    return f"apex-spine:{j}"


@dataclass(frozen=True)
class Scaffold:
    """A built graph plus the role each vertex plays.

    Vertex labeling is canonical (C, then P, then the frame's spine
    vertices), so serialized output is byte-stable.
    """

    graph: Graph
    roles: tuple[str, ...]

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
                "radius": json_value(self.radius),
                "intermediate_count": self.intermediate_count, "ok": self.ok}


#: Reports are immutable and take few values (three flags, a radius and
#: a count below n), so a sweep that keeps its reports holds one shared
#: instance per value, not one per scaffold.
_report = lru_cache(maxsize=1024)(VerificationReport)


class _Tagged(NamedTuple):
    """The vertices playing one role, in increasing order, their mask,
    and their runs of consecutive ids as (first id, mask as wide as the
    run, position of the run's first vertex among the tagged)."""

    vertices: tuple[int, ...]
    mask: int
    runs: tuple[tuple[int, int, int], ...]


def _tagged(roles: tuple[str, ...], role: str) -> _Tagged:
    vs = tuple(v for v, r in enumerate(roles) if r == role)
    runs = []
    for _, run in groupby(enumerate(vs), lambda iv: iv[1] - iv[0]):
        run = list(run)
        i, v = run[0]
        runs.append((v, (1 << len(run)) - 1, i))
    return _Tagged(vs, mask_of(vs), tuple(runs))


@lru_cache(maxsize=256)
def _role_sets(roles: tuple[str, ...]) -> tuple[_Tagged, _Tagged]:
    """The center and the periphery vertices; the builders share one
    roles tuple per shape."""
    return _tagged(roles, CENTER), _tagged(roles, PERIPHERY)


@lru_cache(maxsize=64)
def _numerals(n: int) -> tuple[str, ...]:
    """The labels of an unlabeled graph on n vertices: "0", "1", .."""
    return tuple(map(str, range(n)))


def _frame(n: int, spine: tuple[str, ...], roles: tuple[str, ...],
           spine_edges: Iterable[tuple[int, int]], feet: Sequence[int]) -> tuple:
    """A frame as the builders cache it: its spine edges become n
    adjacency rows, checked edge by edge once per frame.  No ``Graph`` is
    built, so every ``Graph`` a builder makes is a scaffold."""
    return n, spine, roles, tuple(adjacency_rows(n, spine_edges)), feet


def _assemble(c: Graph, p: Graph, host: Graph, frame: tuple,
              blocks: Iterable[Iterable[int]]) -> Scaffold:
    """The one witness layout, built as adjacency rows.  The ``frame``
    (what the shape fixes: n, the spine labels, every role, the spine
    rows, the feet) gives every row its spine bits; C's rows are ORed
    into rows 0..|C|-1 and P's rows, shifted by |C|, into the next |P|;
    then block i is joined to foot i: the block's mask, shifted by |C|,
    into the foot's row and the foot's bit into each block vertex's row.
    Labels are C's, then P's, then the spine's.  Every bit comes from a
    checked graph or a covering's checked blocks, so ``Graph`` takes the
    rows without a per-edge check.  ``host``, the covering's host, must
    be P."""
    if host is not p and host != p:
        raise ValueError("covering host differs from the periphery graph")
    n, spine, roles, spine_rows, feet = frame
    nc = c.n
    labels = (c.labels or _numerals(nc)) + (p.labels or _numerals(p.n)) + spine
    rows = list(spine_rows)
    for v, a in enumerate(c.adj_masks):
        rows[v] |= a
    for v, a in enumerate(p.adj_masks, nc):
        rows[v] |= a << nc
    for foot, blk in zip(feet, blocks):
        bit, m = 1 << foot, 0
        for v in blk:
            v += nc
            rows[v] |= bit
            m |= 1 << v
        rows[foot] |= m
    return Scaffold(Graph(n, labels=labels, _adj_masks=rows), roles)


@lru_cache(maxsize=256)
def _layered_frame(nc: int, np_: int, k: int, rho: int, drop: frozenset[int]) -> tuple:
    """The frame of a layered scaffold: its vertex count, the spine
    labels, every role, the rows of the edges joining C to the chains and
    of the chain edges, and the foot x_{i,rho} of each chain i = 1..k."""
    index: dict[tuple[int, int], int] = {}
    labels, roles = [], [CENTER] * nc + [PERIPHERY] * np_
    for i in range(k + 1):
        for j in range(1, rho + 1):
            if i == 0 and j in drop:
                continue
            index[(i, j)] = nc + np_ + len(labels)
            labels.append(f"x{i},{j}")
            roles.append(apex_role(j) if i == 0 else spine_role(i, j))
    edges = [(cv, index[(i, 1)]) for i in range(k + 1) if (i, 1) in index
             for cv in range(nc)]
    edges += [(index[(i, j)], index[(i, j + 1)]) for i in range(k + 1)
              for j in range(1, rho) if (i, j) in index and (i, j + 1) in index]
    feet = tuple(index[(i, rho)] for i in range(1, k + 1))
    return _frame(nc + np_ + len(labels), tuple(labels), tuple(roles), edges, feet)


def check_apex_drop(rho: int, drop: Iterable[int]) -> frozenset[int]:
    """``drop`` as a set, once a layered scaffold of depth ``rho`` can
    omit those apex depths: rho >= 1 and every depth in 1..rho."""
    if rho < 1:
        raise DomainError(f"rho must be >= 1, got {rho}")
    drop = frozenset(drop)
    if not drop <= set(range(1, rho + 1)):
        raise InvalidDropError(
            f"droppable apex depths are 1..{rho}, got {sorted(drop)}")
    return drop


def build_scaffold(c: Graph, p: Graph, cover: Covering, rho: int,
                   drop: Iterable[int] = ()) -> Scaffold:
    """Layered witness over covering blocks P_1..P_k.

    Spine vertex (i, j) for 0 <= i <= k, 1 <= j <= rho; chain 0 is the
    apex chain, attached to C but to no block.  ``drop`` lists apex
    depths j whose vertex x_{0,j} is omitted.

    Edges: C's own edges; P's own edges; C complete to every x_{i,1};
    block P_i complete to x_{i,rho}; chains x_{i,j} -- x_{i,j+1}.
    """
    drop = check_apex_drop(rho, drop)
    return _assemble(c, p, cover.host, _layered_frame(c.n, p.n, cover.k, rho, drop),
                     cover.blocks)


@lru_cache(maxsize=256)
def _refined_frame(nc: int, np_: int, k: int) -> tuple:
    """The frame of a refined scaffold: its vertex count, the spine
    labels, every role, the rows of the edges C -- x_i, x_i -- y_i and
    x_1 -- y_0, and the feet y_0..y_k."""
    x = range(nc + np_, nc + np_ + k)  # x_i is x[i - 1]
    y = range(nc + np_ + k, nc + np_ + 2 * k + 1)
    labels = tuple(f"x{i}" for i in range(1, k + 1)) + tuple(f"y{j}" for j in range(k + 1))
    roles = ((CENTER,) * nc + (PERIPHERY,) * np_
             + tuple(spine_role(i, 1) for i in range(1, k + 1))
             + tuple(spine_role(j, 2) for j in range(k + 1)))
    edges = [(cv, xi) for xi in x for cv in range(nc)]
    edges += [*zip(x, y[1:]), (x[0], y[0])]
    return _frame(y[-1] + 1, labels, roles, edges, y)


def build_refined_scaffold(c: Graph, p: Graph, rc: RefinedCovering) -> Scaffold:
    """Depth-2 witness whose first block hangs on two split vertices.

    With blocks renumbered so the refined block comes first: spine
    vertices x_1..x_k (adjacent to all of C) and y_0..y_k, with
    y_i -- x_i, the extra edge y_0 -- x_1, block P_j complete to y_j for
    j >= 2, Q_0 complete to y_0 and Q_1 to y_1.  Intermediate count is
    2k + 1.
    """
    blocks = (rc.q0, rc.q1, *(b for i, b in enumerate(rc.base.blocks) if i != rc.iota))
    return _assemble(c, p, rc.base.host, _refined_frame(c.n, p.n, rc.base.k), blocks)


#: The cone's center: one vertex, labelled "apex".
_APEX = Graph(1, (), ["apex"])


@lru_cache(maxsize=64)
def _cone_frame(np_: int) -> tuple:
    """The frame of a cone: no spine vertex or edge, and the apex as the
    one foot."""
    return _frame(np_ + 1, (), (CENTER,) + (PERIPHERY,) * np_, (), (0,))


def build_cone(p: Graph) -> Scaffold:
    """A single apex adjacent to every vertex of p, its one block."""
    return _assemble(_APEX, p, p, _cone_frame(p.n), (range(p.n),))


def verify_construction(s: Scaffold, c: Graph, p: Graph) -> VerificationReport:
    """Analyze the built graph from scratch and compare against intent.

    ``center_matches`` demands the computed center equal the center-tagged
    vertices and the induced edges there equal c's; likewise for the
    periphery.  The intermediate count comes from the fresh analysis: the
    vertices in neither the center nor the centered periphery.  Only the
    analysis's masks are compared, so no vertex-set view is built, and
    each tagged vertex's adjacency row is cut to the tagged set by one
    shift and mask per run of consecutive ids (one run in the builders'
    C-then-P layout) before it is compared with the intended row.
    """
    g = s.graph
    a = ucg_analysis(g)
    ctr, per = _role_sets(s.roles)
    center_matches = a.center_mask == ctr.mask and _induced_equals(g, ctr, c)
    periphery_matches = a.cp_mask == per.mask and _induced_equals(g, per, p)
    return _report(a.is_ucg, center_matches, periphery_matches, a.radius,
                   g.n - (a.center_mask | a.cp_mask).bit_count())


def _induced_equals(g: Graph, tagged: _Tagged, target: Graph) -> bool:
    """Whether the tagged vertices, renumbered in id order, induce
    ``target``: run by run, a row shifted right to the run's first id,
    masked to the run's width and shifted left to the run's position is
    the row's part in the run.  The first run sits at position 0, so a
    single run costs one shift and one mask per row."""
    if len(tagged.vertices) != target.n:
        return False
    adj, vs = g.adj_masks, tagged.vertices
    (first, width, _), *more = tagged.runs
    cut = [adj[v] >> first & width for v in vs]
    for first, width, at in more:
        cut = [c | (adj[v] >> first & width) << at for c, v in zip(cut, vs)]
    return tuple(cut) == target.adj_masks
