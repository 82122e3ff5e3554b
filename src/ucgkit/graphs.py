"""Immutable graph type and exact distance machinery.

Vertices are the integers ``0..n-1``.  Distances are nonnegative integers,
with ``math.inf`` standing for "unreachable".  Infinity compares greater
than every finite value and absorbs addition, which is exactly the
convention the rest of the package relies on: the distance from an empty
set is infinite, and every ``distance >= t`` threshold is met by infinity.

All heavy per-graph data (adjacency bitmasks, the full distance matrix,
eccentricities) is computed lazily and cached on the instance; graphs are
immutable, so the caches can never go stale.
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
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
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

    def with_labels(self, labels: Sequence[str]) -> "Graph":
        return Graph(self.n, self.edges, labels)

    # -- basic structure -------------------------------------------------------

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def adj_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(self.adj[v]) for v in range(self.n))

    @cached_property
    def closed_masks(self) -> tuple[int, ...]:
        """Closed neighborhoods N[v] as bitmasks."""
        return tuple(self.adj_masks[v] | (1 << v) for v in range(self.n))

    @cached_property
    def is_complete(self) -> bool:
        return all(len(self.adj[v]) == self.n - 1 for v in range(self.n))

    @cached_property
    def is_connected(self) -> bool:
        return all(d is not INF for d in self.dist[0])

    # -- distances -------------------------------------------------------------

    @cached_property
    def dist(self) -> tuple[tuple[Dist, ...], ...]:
        """All-pairs distance matrix via one BFS per source."""
        masks = self.adj_masks
        return tuple(tuple(_bfs_row(masks, self.n, s)) for s in range(self.n))

    @cached_property
    def ecc(self) -> tuple[Dist, ...]:
        return tuple(max(row) for row in self.dist)

    def ball_masks(self, t: int) -> tuple[int, ...]:
        """Masks of the closed t-neighborhoods N_t[v]."""
        cache = self.__dict__.setdefault("_ball_cache", {})
        if t not in cache:
            cache[t] = tuple(
                mask_of(u for u in range(self.n) if self.dist[v][u] <= t)
                for v in range(self.n)
            )
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
                and self.adj == other.adj and self.labels == other.labels)

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.n, self.adj, self.labels))
        return h

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels else str(v)


def _bfs_row(adj_masks: Sequence[int], n: int, source: int) -> list[Dist]:
    dist: list[Dist] = [INF] * n
    dist[source] = 0
    seen = frontier = 1 << source
    d = 0
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj_masks[low.bit_length() - 1]
            m ^= low
        nxt &= ~seen
        if not nxt:
            break
        d += 1
        m = nxt
        while m:
            low = m & -m
            dist[low.bit_length() - 1] = d
            m ^= low
        seen |= nxt
        frontier = nxt
    return dist


@dataclass(frozen=True)
class MetricProfile:
    """Per-vertex eccentricities plus the graph radius and diameter."""

    ecc: tuple[Dist, ...]
    radius: Dist
    diameter: Dist


def distance_matrix(g: Graph) -> tuple[tuple[Dist, ...], ...]:
    """All-pairs distances; symmetric, zero diagonal, inf across components."""
    return g.dist


def metric_profile(g: Graph) -> MetricProfile:
    """Eccentricities with radius (min) and diameter (max).

    Disconnected graphs come out all-infinite: every vertex misses some
    other component.
    """
    ecc = g.ecc
    return MetricProfile(ecc=ecc, radius=min(ecc), diameter=max(ecc))


def set_distance(g: Graph, sources: Iterable[int], target: int) -> Dist:
    """d(S, v): minimum distance from any vertex of S to v; inf for S empty."""
    row = g.dist
    best: Dist = INF
    for s in sources:
        d = row[s][target]
        if d < best:
            best = d
    return best


def set_set_distance(g: Graph, a: Iterable[int], b: Iterable[int]) -> Dist:
    """d(A, B): minimum pairwise distance; inf when either side is empty."""
    bl = list(b)
    best: Dist = INF
    for u in a:
        row = g.dist[u]
        for v in bl:
            if row[v] < best:
                best = row[v]
    return best


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
