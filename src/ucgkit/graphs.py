"""Immutable graph type and exact distance machinery.

Vertices are the integers ``0..n-1``.  Distances are nonnegative integers,
with ``math.inf`` standing for "unreachable".  Infinity compares greater
than every finite value and absorbs addition, which is exactly the
convention the rest of the package relies on: the distance from an empty
set is infinite, and every ``distance >= t`` threshold is met by infinity.

A graph stores its adjacency as one bitmask per vertex and nothing else.
Every metric quantity comes from one all-pairs search, run once per graph
the first time ``layers``, ``ecc`` or ``ecc_masks`` is read, which stores
its results on the instance.  Up to ``PACKED_BFS_MAX_N`` vertices it is one
breadth-first search from every source at once over n packed fields of w
bits, w the smallest of 8, 16, 32 and 64 above n (``all_sources_bfs``).
Byte-aligned fields let one ``struct`` call convert every field at once:
the adjacency rows are packed into the first level with one ``pack``,
and the eccentricities and eccentric sets come out with one ``unpack``
each.  The packed levels are kept, and the first read of ``layers`` cuts
every vertex's layers out of them with one ``unpack`` per level.  Above
the cutoff it runs ``bfs_layers``, which grows the distance layers of one
source set, once per vertex.  The balls are read off the layers.  Graphs
are immutable, so the caches can never go stale.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

INF = math.inf

#: A distance: a nonnegative ``int``, or ``math.inf`` for unreachable pairs.
Dist = float


def json_value(x):
    """``x`` as a JSON value: what its ``to_json()`` returns if it has
    one, the string "inf" for infinity, else ``x`` itself."""
    if hasattr(x, "to_json"):
        return x.to_json()
    return "inf" if x == INF else x


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    return sum(1 << v for v in set(vertices))


def subset_table(values: Sequence[int]) -> list[int]:
    """Entry b is the union of ``values[i]`` over the set bits i of b."""
    tab = [0] * (1 << len(values))
    for b in range(1, len(tab)):
        low = b & -b
        tab[b] = tab[b ^ low] | values[low.bit_length() - 1]
    return tab


#: Graphs with at most this many vertices run ``all_sources_bfs``; larger
#: ones run ``bfs_layers`` once per source.  The packed search costs n
#: multiplies of n*w-bit integers per BFS level after the first, where
#: the field width w is the smallest of 8, 16, 32 and 64 above n, so it
#: loses first on long diameters.  At 32 vertices, the one size with
#: 64-bit fields, a path runs about 0.75x as fast as the per-source search
#: while G(n, 3/n) runs 2.5-3.5x as fast; past 32 the path loses more, and
#: above 63 no ``struct`` word is wide enough for a field.
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

    Invariants: no self-loops, symmetric adjacency, all endpoints in range.
    Built from ``edges``, the constructor enforces them edge by edge
    (``adjacency_rows``).  The package-internal keyword ``_adj_masks``
    takes the n adjacency rows instead, and then only their count is
    checked: the caller guarantees the rows are symmetric, loop-free and
    in range, as the scaffold builders do by ORing rows that were checked
    before, once per graph or per frame, and that the labels are strings,
    which the edges path converts with ``str``.  Either way ``n >= 1``
    and the labels' count are checked.  Optional per-vertex string labels
    are carried along for reporting; they participate in equality.
    """

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 labels: Sequence[str] | None = None, *,
                 _adj_masks: Sequence[int] | None = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if _adj_masks is not None:
            if edges:
                raise ValueError("give edges or adjacency rows, not both")
            masks = tuple(_adj_masks)
            if len(masks) != n:
                raise ValueError(f"{len(masks)} adjacency rows for n={n}")
            if labels is not None:
                labels = tuple(labels)
        else:
            masks = tuple(adjacency_rows(n, edges))
            if labels is not None:
                labels = tuple(map(str, labels))
        if labels is not None and len(labels) != n:
            raise ValueError("labels length must equal vertex count")
        self.n = n
        self.adj_masks: tuple[int, ...] = masks
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
        """The parts side by side, labelled only when every part is."""
        rows: list[int] = []
        for g in parts:
            off = len(rows)
            rows.extend(a << off for a in g.adj_masks)
        labelled = all(g.labels is not None for g in parts)
        labels = [x for g in parts for x in g.labels] if labelled else None  # type: ignore[union-attr]
        return cls(len(rows), labels=labels, _adj_masks=rows)

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

    @property
    def is_connected(self) -> bool:
        """Whether vertex 0 reaches every vertex, by the all-pairs search."""
        return self.ecc[0] != INF

    # -- distances -------------------------------------------------------------

    @cached_property
    def dist(self) -> None:
        """Run the all-pairs search, write ``ecc`` and ``ecc_masks`` (and,
        above the cutoff, ``layers``) into the instance dict, and return
        ``None``.

        It stays a cached property only because ``perfbench`` times the
        distance kernel by tracing it; ROADMAP item 1 deletes it once the
        tracer times the kernels themselves, ``all_sources_bfs`` and
        ``bfs_layers`` (a ``layers`` span would miss the search, since
        verification never reads ``layers``).  It returns ``None``, not the
        layers, so that a reader indexing it as a distance matrix fails
        loudly.

        Up to ``PACKED_BFS_MAX_N`` vertices, ``all_sources_bfs`` searches
        from every source at once, at n multiplies per BFS level after the
        first, and its levels are kept as ``_levels`` for ``layers`` to
        cut.  Its fields are w bits wide, a ``struct`` word each
        (``_fields``), so ``ecc`` and ``ecc_masks`` are each read with one
        ``unpack`` of the packed depths and last layers.  Above the cutoff
        the packed integers grow as n*w bits and one ``bfs_layers`` per
        source, which runs instead, is faster; it builds the layers anyway,
        so they are stored at once.

        A source's eccentricity and eccentric set are its depth and last
        layer as the search leaves them.  Only when some source misses a
        vertex (the packed search has not filled every field) are the
        reached sets read, and each such source gets the infinite
        eccentricity and the vertices it misses.
        """
        n, d = self.n, self.__dict__
        full = (1 << n) - 1
        if n <= PACKED_BFS_MAX_N:
            levels, seen, depth, last = all_sources_bfs(self.adj_masks)
            *_, every, word = _fields(n)
            size = word.size
            ecc = word.unpack(depth.to_bytes(size, "little"))
            ecc_masks = word.unpack(last.to_bytes(size, "little"))
            d["_levels"] = levels
            reach = () if seen == every else word.unpack(seen.to_bytes(size, "little"))
        else:
            runs = [bfs_layers(self.adj_masks, 1 << v) for v in range(n)]
            layers = d["layers"] = tuple([tuple(ls) for ls, _ in runs])
            ecc = [len(ls) - 1 for ls in layers]
            ecc_masks = [ls[-1] for ls in layers]
            reach = [seen for _, seen in runs]
        if reach:
            ecc = [e if r == full else INF for e, r in zip(ecc, reach)]
            ecc_masks = [m if r == full else full & ~r for m, r in zip(ecc_masks, reach)]
        d["ecc"] = tuple(ecc)
        d["ecc_masks"] = tuple(ecc_masks)

    #: Eccentricities; a vertex that misses some vertex has infinite
    #: eccentricity.
    ecc = _FromDist()
    #: Per vertex, the mask of its eccentric set: its last layer, or the
    #: vertices it does not reach when its eccentricity is infinite.
    ecc_masks = _FromDist()

    @cached_property
    def layers(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex v, the masks of the vertices at distance 0, 1, ..
        from v, up to v's last nonempty layer.  Up to ``PACKED_BFS_MAX_N``
        vertices the first read pops the levels ``dist`` kept and cuts
        every vertex's column out of them with one ``unpack`` per level,
        ending it at its first empty field (a field stays empty once it
        empties); above the cutoff ``dist`` has stored them.  Verification
        reads only ``ecc`` and ``ecc_masks``, so it never cuts."""
        self.dist
        levels = self.__dict__.pop("_levels", None)
        if levels is None:
            return self.__dict__["layers"]
        word = _fields(self.n)[-1]
        cols = zip(*[word.unpack(x.to_bytes(word.size, "little")) for x in levels])
        return tuple([c if c[-1] else c[:c.index(0)] for c in cols])

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
        return hash((self.n, self.adj_masks, self.labels))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def label_of(self, v: int) -> str:
        check_vertices(self, (v,))
        return self.labels[v] if self.labels else str(int(v))


def check_vertices(g: Graph, vertices: Iterable[int]) -> None:
    """Raise ``ValueError`` unless every id in ``vertices`` names a vertex
    of g, an integer in ``0..n-1`` (a bool counts as an integer)."""
    n = g.n
    bad = [v for v in vertices if not (isinstance(v, int) and 0 <= v < n)]
    if bad:
        raise ValueError(f"vertex ids {bad} out of range for n={n}"
                         if all(isinstance(v, int) for v in bad) else
                         f"vertex ids {bad} are not integers")


def adjacency_rows(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """The n adjacency rows of ``edges``, each edge checked: both ends in
    ``0..n-1`` and distinct."""
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


@lru_cache(maxsize=64)
def _fields(n: int) -> tuple[int, int, int, int, struct.Struct]:
    """For n fields of w bits, w the smallest of 8, 16, 32 and 64 above n
    (so n <= 63): the lowest bit of every field; bit n (the guard) of
    every field; bit s of field s for every s; the n low bits of every
    field (every field full); and the little-endian ``struct`` of n
    unsigned w-bit words, whose ``pack`` and ``unpack`` convert between
    the packed integer's bytes and the tuple of its fields."""
    w, code = next(wc for wc in ((8, "B"), (16, "H"), (32, "I"), (64, "Q")) if wc[0] > n)
    ones = ((1 << w * n) - 1) // ((1 << w) - 1)
    guards = ones << n
    diag = ((1 << (w + 1) * n) - 1) // ((1 << (w + 1)) - 1)
    return ones, guards, diag, guards - ones, struct.Struct(f"<{n}{code}")


def all_sources_bfs(adj_masks: Sequence[int]) -> tuple[list[int], int, int, int]:
    """One level-synchronous breadth-first search from every vertex.

    Field s of an integer of n fields of w bits (``_fields``: bits s*w
    to s*w + n - 1, bit s*w + n a guard kept clear, the bits above it
    zero) holds the search from source s.  Level 1 is the adjacency rows
    themselves, packed with one ``struct`` call.  Each later level ORs
    ``adj_masks[u]`` into every field whose frontier holds u with one
    multiply, ``(frontier >> u & ones) * adj[u]``, and drops what was
    seen.  The fields a level reaches are those whose guard survives
    ``(nxt | guards) - ones``, one subtraction that borrows through the
    guard of every empty field and no other.

    Returns ``(levels, seen, depth, last)``: ``levels[d]`` packs the
    layers at distance d (``levels[0]`` holds field s = {s}, and a field
    stays empty once it empties), ``seen`` the reached sets, ``depth``
    each source's count of nonempty layers after the first, and ``last``
    each source's last nonempty layer.
    """
    n = len(adj_masks)
    ones, guards, diag, every, word = _fields(n)
    levels = [diag]
    seen = last = diag
    depth = 0
    nxt = int.from_bytes(word.pack(*adj_masks), "little")
    while nxt:
        live = ((nxt | guards) - ones) & guards
        low = live >> n
        depth += low
        last = last & ~(live - low) | nxt
        seen |= nxt
        levels.append(nxt)
        if seen == every:
            break
        frontier, nxt = nxt, 0
        for u, a in enumerate(adj_masks):
            col = frontier >> u & ones
            if col:
                nxt |= col * a
        nxt &= ~seen
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
    check_vertices(g, old)
    old = tuple(map(int, old))  # a bool id comes back as its int
    index = {o: i for i, o in enumerate(old)}
    edges = [(index[u], index[v]) for u, v in g.edges if u in index and v in index]
    labels = tuple(g.label_of(o) for o in old) if g.labels else None
    return Graph(len(old), edges, labels), old
