"""Immutable graph type and exact distance machinery.

Vertices are the integers ``0..n-1``.  Distances are nonnegative integers,
with ``math.inf`` standing for "unreachable".  Infinity compares greater
than every finite value and absorbs addition, which is exactly the
convention the rest of the package relies on: the distance from an empty
set is infinite, and every ``distance >= t`` threshold is met by infinity.

A graph stores its adjacency as one bitmask per vertex and nothing else.
Every metric quantity comes from one all-pairs search, run once per graph
the first time ``layers``, ``ecc`` or ``ecc_masks`` is read, which stores
all three on the instance.  Up to ``PACKED_BFS_MAX_N`` vertices it is one
breadth-first search from every source at once over n packed fields
(``all_sources_bfs``), whose packed levels are kept as the layers and cut
per vertex when read; above that it runs ``bfs_layers``, which grows the
distance layers of one source set, once per vertex.  The balls are read
off the layers.  Graphs are immutable, so the caches can never go stale.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

INF = math.inf

#: A distance: a nonnegative ``int``, or ``math.inf`` for unreachable pairs.
Dist = float


def json_number(x):
    """``x`` as a JSON value: the string "inf" for infinity, else ``x``."""
    return "inf" if x == INF else x


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in set(vertices))


#: Graphs with at most this many vertices run ``all_sources_bfs``; larger
#: ones run ``bfs_layers`` once per source.  The packed search costs n
#: multiplies of n^2-bit integers per BFS level, so it loses first on long
#: diameters: at 32 vertices a path about breaks even (0.9-1.0x) while
#: G(n, 3/n) runs 2x as fast, and past that the path loses more.
PACKED_BFS_MAX_N = 32


class _FromDist:
    """A per-graph result of the distance search, as a lock-free
    non-data descriptor: the first read runs ``dist``, which writes the
    result into the instance dict, where every later read finds it
    without reaching this descriptor."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, g, owner=None):
        if g is None:
            return self
        g.dist
        return g.__dict__[self.name]


class Graph:
    """Simple undirected graph on vertices ``0..n-1``, immutable after build.

    Invariants enforced at construction: no self-loops, symmetric adjacency,
    all endpoints in range.  Optional per-vertex string labels are carried
    along for reporting; they participate in equality.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 labels: Sequence[str] | None = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.adj_masks: tuple[int, ...] = tuple(masks)
        if labels is not None:
            labels = tuple(map(str, labels))
            if len(labels) != n:
                raise ValueError("labels length must equal vertex count")
        self.labels: tuple[str, ...] | None = labels

    # -- construction helpers -------------------------------------------------

    @classmethod
    def empty(cls, n: int, labels: Sequence[str] | None = None) -> "Graph":
        return cls(n, (), labels)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls(n, [(i, j) for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycle needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def star(cls, leaves: int) -> "Graph":
        """K_{1,leaves}: hub 0 adjacent to each leaf."""
        return cls(leaves + 1, [(0, i) for i in range(1, leaves + 1)])

    @classmethod
    def disjoint_union(cls, parts: Sequence["Graph"]) -> "Graph":
        n = sum(g.n for g in parts)
        edges: list[tuple[int, int]] = []
        off = 0
        labels: list[str] = []
        labelled = all(g.labels is not None for g in parts)
        for g in parts:
            edges.extend((u + off, v + off) for u, v in g.edges)
            if labelled:
                labels.extend(g.labels)  # type: ignore[arg-type]
            off += g.n
        return cls(n, edges, labels if labelled else None)

    # -- basic structure -------------------------------------------------------

    @cached_property
    def adj(self) -> tuple[frozenset[int], ...]:
        """Neighborhoods as frozensets, a view of ``adj_masks``."""
        return tuple(frozenset(bits(m)) for m in self.adj_masks)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u in range(self.n) for v in bits(self.adj_masks[u]) if u < v)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj_masks[v].bit_count()

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """Closed neighborhoods N[v] as bitmasks."""
        return tuple(self.adj_masks[v] | (1 << v) for v in range(self.n))

    @cached_property
    def is_complete(self) -> bool:
        return self.closed_masks == (self.full_mask,) * self.n

    @cached_property
    def is_connected(self) -> bool:
        return bfs_layers(self.adj_masks, 1)[1] == self.full_mask

    # -- distances -------------------------------------------------------------

    @cached_property
    def dist(self) -> None:
        """Run the all-pairs search, write ``layers``, ``ecc`` and
        ``ecc_masks`` into the instance dict, and return ``None``.

        It stays a cached property only because ``perfbench`` times the
        distance kernel by tracing it; ROADMAP item 1 deletes it once the
        tracer times ``layers``.  It returns ``None``, not the layers, so
        that a reader indexing it as a distance matrix fails loudly.

        Up to ``PACKED_BFS_MAX_N`` vertices, ``all_sources_bfs`` searches
        from every source at once, at n multiplies per BFS level plus 3n
        shifts, and ``layers`` is a ``PackedLayers`` view of its levels.
        Above the cutoff the packed integers grow as n^2 bits and one
        ``bfs_layers`` per source, which runs instead, is faster.
        """
        n, d = self.n, self.__dict__
        full = (1 << n) - 1
        if n <= PACKED_BFS_MAX_N:
            levels, seen, depth, last = all_sources_bfs(self.adj_masks)
            shifts = range(0, n * (n + 1), n + 1)
            reach = [seen >> s & full for s in shifts]
            depths = [depth >> s & full for s in shifts]
            lasts = [last >> s & full for s in shifts]
            layers = PackedLayers(levels, n)
        else:
            runs = [bfs_layers(self.adj_masks, 1 << v) for v in range(n)]
            layers = tuple([tuple(ls) for ls, _ in runs])
            reach = [seen for _, seen in runs]
            depths = [len(ls) - 1 for ls in layers]
            lasts = [ls[-1] for ls in layers]
        d["layers"] = layers
        d["ecc"] = tuple([e if r == full else INF for e, r in zip(depths, reach)])
        d["ecc_masks"] = tuple([m if r == full else full & ~r for m, r in zip(lasts, reach)])

    #: Eccentricities; a vertex that misses some vertex has infinite
    #: eccentricity.
    ecc = _FromDist()
    #: Per vertex, the mask of its eccentric set: its last layer, or the
    #: vertices it does not reach when its eccentricity is infinite.
    ecc_masks = _FromDist()
    #: Per vertex v, the masks of the vertices at distance 0, 1, .. from
    #: v, up to v's last nonempty layer: a ``PackedLayers`` view up to
    #: ``PACKED_BFS_MAX_N`` vertices, a tuple of tuples above it.
    layers = _FromDist()

    def ball_masks(self, t: int) -> tuple[int, ...]:
        """Masks of the closed t-neighborhoods N_t[v]: the union of the
        first t + 1 layers of v."""
        cache = self.__dict__.setdefault("_ball_cache", {})
        if t not in cache:
            cache[t] = tuple(sum(ls[:max(t + 1, 0)]) for ls in self.layers)
        return cache[t]

    def far_masks(self, t: int) -> tuple[int, ...]:
        """Masks of {u : d(v, u) >= t} per vertex v."""
        cache = self.__dict__.setdefault("_far_cache", {})
        if t not in cache:
            full = self.full_mask
            cache[t] = tuple(full & ~b for b in self.ball_masks(t - 1))
        return cache[t]

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Graph) and self.n == other.n
                and self.adj_masks == other.adj_masks and self.labels == other.labels)

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.n, self.adj_masks, self.labels))
        return h

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels else str(v)


class PackedLayers(Sequence):
    """The per-vertex layers held in the packed levels of
    ``all_sources_bfs``: item v is the tuple of v's nonempty layers, cut
    out of field v of each level when it is read."""

    __slots__ = ("_levels", "_shifts", "_full")

    def __init__(self, levels: Sequence[int], n: int):
        self._levels = levels
        self._shifts = range(0, n * (n + 1), n + 1)
        self._full = (1 << n) - 1

    def __len__(self) -> int:
        return len(self._shifts)

    def __getitem__(self, v: int) -> tuple[int, ...]:
        s, full = self._shifts[v], self._full
        out = []
        for level in self._levels:
            layer = level >> s & full
            if not layer:
                break
            out.append(layer)
        return tuple(out)


@lru_cache(maxsize=64)
def _fields(n: int) -> tuple[int, int, int]:
    """For n fields of n + 1 bits: the lowest bit of every field, the top
    (guard) bit of every field, and bit s of field s for every s."""
    w = n + 1
    ones = ((1 << w * n) - 1) // ((1 << w) - 1)
    return ones, ones << n, ((1 << (w + 1) * n) - 1) // ((1 << (w + 1)) - 1)


def all_sources_bfs(adj_masks: Sequence[int]) -> tuple[list[int], int, int, int]:
    """One level-synchronous breadth-first search from every vertex.

    Field s of an integer of n fields of n + 1 bits (bits s(n + 1) to
    s(n + 1) + n - 1, the top bit a guard kept clear) holds the search
    from source s.  A level ORs ``adj_masks[u]`` into every field whose
    frontier holds u with one multiply, ``(frontier >> u & ones) * adj[u]``,
    and drops what was seen.  The fields a level reaches are those whose
    guard survives ``(nxt | guards) - ones``, one subtraction that borrows
    through the guard of every empty field and no other.

    Returns ``(levels, seen, depth, last)``: ``levels[d]`` packs the
    layers at distance d (``levels[0]`` holds field s = {s}, and a field
    stays empty once it empties), ``seen`` the reached sets, ``depth``
    each source's count of nonempty layers after the first, and ``last``
    each source's last nonempty layer.
    """
    n = len(adj_masks)
    ones, guards, diag = _fields(n)
    every = guards - ones  # every field full: no level can follow
    levels = [diag]
    seen = frontier = last = diag
    depth = 0
    while seen != every:
        nxt = 0
        for u, a in enumerate(adj_masks):
            col = frontier >> u & ones
            if col:
                nxt |= col * a
        nxt &= ~seen
        if not nxt:
            break
        live = ((nxt | guards) - ones) & guards
        low = live >> n
        depth += low
        last = last & ~(live - low) | nxt
        seen |= nxt
        frontier = nxt
        levels.append(nxt)
    return levels, seen, depth, last


def bfs_layers(adj_masks: Sequence[int], sources_mask: int) -> tuple[list[int], int]:
    """Breadth-first distance layers from the vertex set ``sources_mask``.

    Returns ``(layers, reached)``: ``layers[d]`` masks the vertices at
    distance exactly d (``layers[0]`` is the sources) and ``reached`` is
    their union.  The search stops at the first empty layer.
    """
    layers = [sources_mask]
    seen = frontier = sources_mask
    while True:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj_masks[low.bit_length() - 1]
            m ^= low
        nxt &= ~seen
        if not nxt:
            break
        layers.append(nxt)
        seen |= nxt
        frontier = nxt
    return layers, seen


@dataclass(frozen=True)
class MetricProfile:
    """Per-vertex eccentricities plus the graph radius and diameter."""

    ecc: tuple[Dist, ...]
    radius: Dist
    diameter: Dist


def metric_profile(g: Graph) -> MetricProfile:
    """Eccentricities with radius (min) and diameter (max).

    Disconnected graphs come out all-infinite: every vertex misses some
    other component.
    """
    ecc = g.ecc
    return MetricProfile(ecc=ecc, radius=min(ecc), diameter=max(ecc))


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced by ``vertices``, relabeled to 0..k-1 in sorted order.

    Returns the new graph and the tuple of original ids, so position i of
    the tuple is the original name of new vertex i.
    """
    old = tuple(sorted(set(vertices)))
    if not old:
        raise ValueError("induced subgraph needs at least one vertex")
    index = {o: i for i, o in enumerate(old)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    labels = tuple(g.label_of(o) for o in old) if g.labels else None
    return Graph(len(old), edges, labels), old
