"""Immutable graph type and exact distance machinery.

Vertices are the integers ``0..n-1``.  Distances are nonnegative integers,
with ``math.inf`` standing for "unreachable".  Infinity compares greater
than every finite value and absorbs addition, which is exactly the
convention the rest of the package relies on: the distance from an empty
set is infinite, and every ``distance >= t`` threshold is met by infinity.

A graph stores its adjacency as one bitmask per vertex and nothing else.
Every metric quantity comes from one kernel, ``bfs_layers``, which grows
the disjoint distance layers of a source set over those masks.  The
per-vertex layers are computed once and cached on the instance; the
distance matrix, eccentricities, eccentric sets and balls are read off
them.  Graphs are immutable, so the caches can never go stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

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
            labels = tuple(str(x) for x in labels)
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
    def layers(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex v, the masks of the vertices at distance 0, 1, ..
        from v, up to v's last nonempty layer; ``dist`` computes them."""
        self.dist
        return self.__dict__["layers"]

    @cached_property
    def dist(self) -> tuple[tuple[Dist, ...], ...]:
        """All-pairs distance matrix from one kernel call per vertex.

        The all-pairs search happens here, once per graph, so that timing
        ``dist`` times the distance kernel (``perfbench`` traces it); its
        layers are kept as ``layers``, which every other metric reads.
        """
        layers = tuple(tuple(bfs_layers(self.adj_masks, 1 << v)[0]) for v in range(self.n))
        self.__dict__["layers"] = layers
        rows = []
        for ls in layers:
            row: list[Dist] = [INF] * self.n
            for d, layer in enumerate(ls):
                for u in bits(layer):
                    row[u] = d
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def ecc(self) -> tuple[Dist, ...]:
        """Eccentricities; a vertex that misses some vertex has infinite
        eccentricity (the layers are disjoint, so their sum is their union)."""
        full = self.full_mask
        return tuple(len(ls) - 1 if sum(ls) == full else INF for ls in self.layers)

    @cached_property
    def ecc_masks(self) -> tuple[int, ...]:
        """Per vertex, the mask of its eccentric set: the last layer, or
        the unreachable vertices when the eccentricity is infinite."""
        full = self.full_mask
        return tuple(ls[-1] if sum(ls) == full else full & ~sum(ls) for ls in self.layers)

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
