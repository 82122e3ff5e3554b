"""Independent re-checks of ucgkit's answers, computed with networkx.

Nothing here calls ucgkit: graphs arrive as a vertex count plus an edge
list, and every center, eccentric set and induced subgraph is recomputed
from networkx's shortest-path lengths.
"""

from __future__ import annotations

import hashlib

import networkx as nx

CENTER, PERIPHERY = "center", "periphery"


def _nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _induces(g: nx.Graph, tagged: list[int], target: tuple[int, tuple]) -> bool:
    """The i-th tagged vertex plays target vertex i; the edges among the
    tagged vertices must be exactly the target's."""
    n, edges = target
    if len(tagged) != n:
        return False
    got = {tuple(sorted((i, j))) for i, u in enumerate(tagged)
           for j, v in enumerate(tagged) if i < j and g.has_edge(u, v)}
    return got == {tuple(sorted(e)) for e in edges}


def scaffold_verdict(n: int, edges, roles, c: tuple[int, tuple],
                     p: tuple[int, tuple]) -> dict:
    """What verify_construction should report for a built graph whose
    vertex roles are ``roles``, with center c and periphery p given as
    (n, edges).  A disconnected graph is never a UCG."""
    g = _nx_graph(n, edges)
    ctr = [v for v, r in enumerate(roles) if r == CENTER]
    per = [v for v, r in enumerate(roles) if r == PERIPHERY]
    if not nx.is_connected(g):
        return {"connected": False, "is_ucg": False, "center_matches": False,
                "periphery_matches": False, "ok": False}
    ecc = nx.eccentricity(g)
    radius = min(ecc.values())
    center = {v for v in g if ecc[v] == radius}
    ec_sets = set()
    for z in center:
        dist = nx.single_source_shortest_path_length(g, z)
        ec_sets.add(frozenset(u for u, d in dist.items() if d == radius))
    cp = frozenset().union(*ec_sets)
    is_ucg = len(ec_sets) == 1
    center_matches = center == set(ctr) and _induces(g, ctr, c)
    periphery_matches = cp == set(per) and _induces(g, per, p)
    return {"connected": True, "is_ucg": is_ucg, "center_matches": center_matches,
            "periphery_matches": periphery_matches,
            "ok": is_ucg and center_matches and periphery_matches,
            "radius": radius, "intermediate_count": n - len(center | cp)}


def witness_problem(n: int, edges, roles, c: tuple[int, tuple],
                    p: tuple[int, tuple], value: int) -> str | None:
    """Why a witness graph fails to certify appendage value ``value``,
    or None when it certifies it."""
    v = scaffold_verdict(n, edges, roles, c, p)
    if not v["ok"]:
        bad = [k for k in ("connected", "is_ucg", "center_matches",
                           "periphery_matches") if not v[k]]
        return f"witness is not a certificate: {', '.join(bad)} fails"
    if v["intermediate_count"] != value:
        return (f"witness has {v['intermediate_count']} intermediate vertices,"
                f" value is {value}")
    return None


def _graph6_edges(text: str) -> tuple[int, set]:
    """Decode a short-form graph6 string (n <= 62)."""
    data = [ord(ch) - 63 for ch in text.strip()]
    n, body = data[0], data[1:]
    bits = [(x >> (5 - k)) & 1 for x in body for k in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, {pq for pq, b in zip(pairs, bits) if b}


def oracle_report_problem(report: dict, argv: list[str]) -> str | None:
    """Check an oracle report against its input files: each input digest
    must describe the file's graph, ``provably_infinite`` must say
    whether the periphery's radius is at most 1, and a value must lie in
    0..t_max."""
    files = {"center": argv[argv.index("--center") + 1],
             "periphery": argv[argv.index("--periphery") + 1]}
    graphs = {}
    for role, path in files.items():
        with open(path) as fh:
            text = fh.read().strip()
        n, edges = _graph6_edges(text)
        graphs[role] = (n, edges)
        d = report["inputs"][role]
        want = {"n": n, "m": len(edges), "graph6": text,
                "sha256": hashlib.sha256(text.encode()).hexdigest()}
        if d != want:
            return f"{role} digest {d} does not describe {want}"
    n, edges = graphs["periphery"]
    g = _nx_graph(n, edges)
    small_radius = nx.is_connected(g) and min(nx.eccentricity(g).values()) <= 1
    res = report["result"]
    if res["provably_infinite"] != small_radius:
        return f"provably_infinite={res['provably_infinite']}, radius<=1 is {small_radius}"
    t_max = int(argv[argv.index("--tmax") + 1])
    if res["t_max"] != t_max:
        return f"report t_max {res['t_max']} differs from the request {t_max}"
    if res["value"] is not None and not 0 <= res["value"] <= t_max:
        return f"value {res['value']} outside 0..{t_max}"
    return None
