"""Independent reference implementations used only to check the library.

Everything here is written the slow, literal way - dict-based
Floyd-Warshall distances, set arithmetic straight off the condition
texts, explicit path enumeration - so a bug in the library's bitmask
machinery cannot hide behind itself.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import inf

from ucgkit import Covering, Graph, RefinedCovering


@lru_cache(maxsize=4096)
def floyd_distances(g: Graph) -> dict[tuple[int, int], float]:
    n = g.n
    d = {(u, v): (0 if u == v else inf) for u in range(n) for v in range(n)}
    for u, v in g.edges:
        d[u, v] = d[v, u] = 1
    for k in range(n):
        for i in range(n):
            dik = d[i, k]
            if dik is inf:
                continue
            for j in range(n):
                alt = dik + d[k, j]
                if alt < d[i, j]:
                    d[i, j] = alt
    return d


def eccentricities(g: Graph) -> list[float]:
    d = floyd_distances(g)
    return [max(d[v, u] for u in range(g.n)) for v in range(g.n)]


def dset(d, sources, target) -> float:
    return min((d[s, target] for s in sources), default=inf)


def dsets(d, a, b) -> float:
    return min((d[u, v] for u in a for v in b), default=inf)


# --- literal condition checkers -------------------------------------------

def cond_A(g: Graph, blocks) -> bool:
    d = floyd_distances(g)
    vs = set(range(g.n))
    return all(any(dset(d, blk, q) >= 2 for q in vs - set(blk)) for blk in blocks)


def cond_B(g: Graph, blocks) -> bool:
    d = floyd_distances(g)
    vs = set(range(g.n))
    for i, blk in enumerate(blocks):
        for p in blk:
            one = any(d[p, q] >= 3 for q in vs - set(blk))
            two = any(j != i and dset(d, blocks[j], p) >= 2
                      for j in range(len(blocks)))
            if not (one or two):
                return False
    return True


def cond_Aprime(g: Graph, blocks) -> bool:
    d = floyd_distances(g)
    vs = set(range(g.n))
    for i, blk in enumerate(blocks):
        one = any(dset(d, blk, q) >= 3 for q in vs - set(blk))
        two = any(j != i and dsets(d, blk, blocks[j]) >= 2
                  for j in range(len(blocks)))
        if not (one or two):
            return False
    return True


def cond_Bprime(g: Graph, blocks) -> bool:
    d = floyd_distances(g)
    for i, blk in enumerate(blocks):
        for p in blk:
            if not any(j != i and dset(d, blocks[j], p) >= 2
                       for j in range(len(blocks))):
                return False
    return True


def cond_Adp(g: Graph, blocks, iota, q0, q1) -> bool:
    d = floyd_distances(g)
    vs = set(range(g.n))
    k = len(blocks)
    for i in range(k):
        if i == iota:
            continue
        a = any(dset(d, blocks[i], p) >= 3 for p in vs - set(blocks[i]))
        b = any(j != iota and dsets(d, blocks[i], blocks[j]) >= 2 for j in range(k))
        c = any(dsets(d, blocks[i], ql) >= 2 for ql in (q0, q1))
        if not (a or b or c):
            return False
    for ql in (q0, q1):
        a = any(dset(d, ql, p) >= 3 for p in vs - set(blocks[iota]))
        b = any(j != iota and dsets(d, ql, blocks[j]) >= 2 for j in range(k))
        if not (a or b):
            return False
    return True


def cond_Bdp(g: Graph, blocks, iota, q0, q1) -> bool:
    d = floyd_distances(g)
    k = len(blocks)
    for i in range(k):
        if i == iota:
            continue
        for p in blocks[i]:
            a = any(j != iota and dset(d, blocks[j], p) >= 2 for j in range(k))
            b = dset(d, q0, p) >= 2 and dset(d, q1, p) >= 2
            c = any(dset(d, ql, p) >= 3 for ql in (q0, q1))
            dd = any(dset(d, ql, p) >= 2 and any(d[p, q] >= 4 for q in ql)
                     for ql in (q0, q1))
            if not (a or b or c or dd):
                return False
    for ql, qo in ((q0, q1), (q1, q0)):
        for p in ql:
            a = any(j != iota and dset(d, blocks[j], p) >= 2 for j in range(k))
            b = any(d[p, q] >= 4 and dset(d, qo, p) >= 2
                    for q in set(blocks[iota]) - set(ql))
            if not (a or b):
                return False
    return True


# --- covering enumeration ---------------------------------------------------

def all_coverings(g: Graph, k: int):
    """All ordered k-tuples of nonempty sets with union V (blocks may
    overlap), as tuples of frozensets."""
    n = g.n
    patterns = itertools.product(range(1, 1 << k), repeat=n)
    for pat in patterns:
        blocks = tuple(frozenset(v for v in range(n) if pat[v] >> i & 1)
                       for i in range(k))
        if all(blocks):
            yield blocks


def all_splits(block):
    """All (q0, q1) with q0 | q1 == block and q0 nonempty."""
    vs = sorted(block)
    for pat in itertools.product((1, 2, 3), repeat=len(vs)):
        q0 = frozenset(v for v, c in zip(vs, pat) if c & 1)
        q1 = frozenset(v for v, c in zip(vs, pat) if c & 2)
        if q0:
            yield q0, q1


def min_cover_A_naive(g: Graph, k_max: int) -> int | None:
    """Smallest k <= k_max admitting a condition-A covering, by direct
    enumeration."""
    for k in range(1, k_max + 1):
        for blocks in all_coverings(g, k):
            if cond_A(g, blocks):
                return k
    return None


# --- radial paths -----------------------------------------------------------

def radial_paths(g: Graph):
    """Every shortest path of the graph's radius length starting at a
    central vertex, as vertex tuples."""
    d = floyd_distances(g)
    ecc = [max(d[v, u] for u in range(g.n)) for v in range(g.n)]
    r = min(ecc)
    if r is inf:
        return
    center = [v for v in range(g.n) if ecc[v] == r]

    def extend(path, target):
        u = path[-1]
        if u == target:
            yield tuple(path)
            return
        for w in sorted(g.adj[u]):
            if d[path[0], w] == len(path) and d[w, target] == d[u, target] - 1:
                yield from extend(path + [w], target)

    for c in center:
        for t in range(g.n):
            if d[c, t] == r:
                yield from extend([c], t)


def radial_blocks(g: Graph, center, cp, d1) -> list[frozenset[int]]:
    """For each first-stratum vertex, the centered-periphery vertices
    lying on some radial path through it (the path-enumeration oracle for
    the induced covering)."""
    hits: dict[int, set[int]] = {x: set() for x in d1}
    for path in radial_paths(g):
        onpath = set(path)
        for x in d1:
            if x in onpath:
                hits[x].update(onpath & set(cp))
    return [frozenset(hits[x]) for x in sorted(d1)]


# --- the brute-force oracle's orbit filter ------------------------------------

def orbit_leader_masks(pairs, added):
    """The free-edge masks (bit i: ``pairs[i]``) that are least in their
    orbit under the permutations of the vertices ``added``, in increasing
    order.  Each permutation is applied to the edge set as a set of
    pairs, and two edge sets compare as their pair positions, largest
    first, which is how their masks compare as integers."""
    position = {frozenset(pq): i for i, pq in enumerate(pairs)}
    for mask in range(1 << len(pairs)):
        edges = [frozenset(pq) for i, pq in enumerate(pairs) if mask >> i & 1]
        key = sorted((position[e] for e in edges), reverse=True)
        for perm in itertools.permutations(added):
            sigma = dict(zip(added, perm))
            image = [frozenset(sigma.get(v, v) for v in e) for e in edges]
            if sorted((position[e] for e in image), reverse=True) < key:
                break
        else:
            yield mask


def ucg_host_accepts(g: Graph, nc: int, np_: int) -> bool:
    """Whether ``g`` is a uniform central host with center 0..nc-1 and
    centered periphery nc..nc+np_-1: the center vertices share one
    eccentricity r, the eccentric set of each is exactly that block, and
    every other vertex is more eccentric."""
    d = floyd_distances(g)
    ecc = eccentricities(g)
    r = ecc[0]
    block = set(range(nc, nc + np_))
    return (all(ecc[v] == r and {u for u in range(g.n) if d[v, u] == r} == block
                for v in range(nc))
            and all(ecc[v] > r for v in range(nc, g.n)))


def oracle_host_exists(c: Graph, p: Graph, t: int) -> bool:
    """Whether some graph on c, then p, then t added vertices, keeping the
    edges of c and p and taking any subset of every other pair, passes
    ``ucg_host_accepts``: a walk over every free-edge subset, with no
    symmetry or edge reduction.  Bit i of the walked mask is free pair
    i: the pairs of each added vertex with the vertices before it first,
    the center-periphery pairs last, which decides only how soon an
    accepting subset is met."""
    nc, np_ = c.n, p.n
    n = nc + np_ + t
    fixed = [*c.edges, *[(u + nc, v + nc) for u, v in p.edges]]
    free = [(u, x) for x in range(nc + np_, n) for u in range(x)]
    free += [(u, v) for u in range(nc) for v in range(nc, nc + np_)]
    return any(ucg_host_accepts(Graph(n, fixed + [pq for i, pq in enumerate(free)
                                                  if mask >> i & 1]), nc, np_)
               for mask in range(1 << len(free)))


# --- witness verification -------------------------------------------------------

def verification_report(g: Graph, roles, c: Graph, p: Graph) -> dict:
    """The five fields of a ``VerificationReport`` for the graph ``g``
    whose vertex v plays ``roles[v]``, computed from scratch on plain
    sets: the center is the set of least-eccentric vertices, the centered
    periphery is the union of their eccentric sets, the graph is uniform
    central when those eccentric sets all equal it, and a role-tagged
    block matches when it is that set and its induced edges, renumbered
    in vertex order, are the intended graph's."""
    d = floyd_distances(g)
    ecc = eccentricities(g)
    vs = set(range(g.n))
    r = min(ecc)
    center = {v for v in vs if ecc[v] == r}
    ec = {z: {u for u in vs if d[z, u] == r} for z in center}
    cp = set().union(*ec.values())
    edges = set(g.edges)

    def matches(found, role, target):
        tagged = [v for v in sorted(vs) if roles[v] == role]
        induced = {(i, j) for i, u in enumerate(tagged) for j, w in enumerate(tagged)
                   if i < j and (u, w) in edges}
        return (found == set(tagged) and len(tagged) == target.n
                and induced == set(target.edges))

    return {"is_ucg": all(ec[z] == cp for z in center),
            "center_matches": matches(center, "center", c),
            "periphery_matches": matches(cp, "periphery", p),
            "radius": r,
            "intermediate_count": len(vs - center - cp)}


# --- witness builders, edge by edge ---------------------------------------------

def _labels(g: Graph) -> list[str]:
    return [g.labels[v] if g.labels else str(v) for v in range(g.n)]


def layered_scaffold(c: Graph, p: Graph, blocks, rho: int, drop) -> tuple:
    """``(n, edges, labels, roles)`` of the layered scaffold, one vertex
    and one edge at a time: C, then P, then spine vertex (i, j) for
    chain i = 0..k (0 the apex chain, minus the depths in ``drop``) and
    depth j = 1..rho; C joined to every x_{i,1}, block P_i to x_{i,rho},
    and each chain x_{i,j} -- x_{i,j+1}."""
    nc, k = c.n, len(blocks)
    labels = _labels(c) + _labels(p)
    roles = ["center"] * nc + ["periphery"] * p.n
    edges = list(c.edges) + [(u + nc, v + nc) for u, v in p.edges]
    index = {}
    for i in range(k + 1):
        for j in range(1, rho + 1):
            if i == 0 and j in drop:
                continue
            index[i, j] = len(labels)
            labels.append(f"x{i},{j}")
            roles.append(f"apex-spine:{j}" if i == 0 else f"spine:{i},{j}")
    for (i, j), x in index.items():
        if j == 1:
            edges += [(cv, x) for cv in range(nc)]
        if i >= 1 and j == rho:
            edges += [(nc + pv, x) for pv in sorted(blocks[i - 1])]
        if (i, j + 1) in index:
            edges.append((x, index[i, j + 1]))
    return len(labels), edges, labels, roles


def refined_scaffold(c: Graph, p: Graph, blocks, iota: int, q0, q1) -> tuple:
    """``(n, edges, labels, roles)`` of the refined scaffold, one vertex
    and one edge at a time: C, then P, then x_1..x_k and y_0..y_k, with
    the blocks renumbered so block ``iota`` comes first; C joined to
    every x_i, x_i -- y_i, x_1 -- y_0, Q_0 to y_0, Q_1 to y_1 and block
    P_j to y_j for j >= 2."""
    nc, np_, k = c.n, p.n, len(blocks)
    order = [blocks[iota]] + [b for i, b in enumerate(blocks) if i != iota]
    labels = _labels(c) + _labels(p)
    roles = ["center"] * nc + ["periphery"] * np_
    edges = list(c.edges) + [(u + nc, v + nc) for u, v in p.edges]
    x = {i: nc + np_ + i - 1 for i in range(1, k + 1)}
    y = {j: nc + np_ + k + j for j in range(k + 1)}
    labels += [f"x{i}" for i in x] + [f"y{j}" for j in y]
    roles += [f"spine:{i},1" for i in x] + [f"spine:{j},2" for j in y]
    for i in x:
        edges += [(cv, x[i]) for cv in range(nc)]
        edges.append((x[i], y[i]))
    edges.append((x[1], y[0]))
    edges += [(nc + pv, y[0]) for pv in sorted(q0)]
    edges += [(nc + pv, y[1]) for pv in sorted(q1)]
    for j in range(2, k + 1):
        edges += [(nc + pv, y[j]) for pv in sorted(order[j - 1])]
    return len(labels), edges, labels, roles


def cone_scaffold(p: Graph) -> tuple:
    """``(n, edges, labels, roles)`` of the cone, one vertex and one edge
    at a time: the apex, labelled "apex", then P, and the apex joined to
    every vertex of P."""
    labels = ["apex"] + _labels(p)
    roles = ["center"] + ["periphery"] * p.n
    edges = [(u + 1, v + 1) for u, v in p.edges] + [(0, v + 1) for v in range(p.n)]
    return len(labels), edges, labels, roles
