"""Deterministic generators for the named graph families and the two
hard-coded example fixtures, plus the token parser the command line uses.

Every generator is a pure function of its parameters, labels included,
so fixtures regenerate byte-identically run over run.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .codecs import MAX_INPUT_VERTICES, encode_graph6
from .coverings import RefinedCovering, covering_from_json
from .errors import DomainError
from .graphs import Graph


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: Graph
    provenance: str
    extras: dict = field(default_factory=dict)


def gen_P_alpha(alpha: int) -> Fixture:
    """Two cliques e_1..e_alpha and f_1..f_alpha, fully joined except for
    the pairs e_i f_i.  Radius and diameter are both 2 once alpha >= 2,
    and its smallest condition-A covering uses all 2*alpha singletons."""
    if alpha < 2:
        raise DomainError("alpha must be >= 2 (alpha < 2 has radius != 2)")
    labels = [f"e{i}" for i in range(1, alpha + 1)] + \
             [f"f{i}" for i in range(1, alpha + 1)]
    edges = []
    for i in range(alpha):
        for j in range(alpha):
            if i < j:
                edges.append((i, j))                    # e_i e_j
                edges.append((alpha + i, alpha + j))     # f_i f_j
            if i != j:
                edges.append((i, alpha + j))             # e_i f_j
    return Fixture(f"palpha{alpha}", Graph(2 * alpha, edges, labels),
                   f"generator: doubled clique with matching removed, alpha={alpha}")


def gen_P_alpha_beta(alpha: int, beta: int) -> Fixture:
    """The doubled clique plus beta extra vertices g_1..g_beta, each
    adjacent to every e_k and f_k with k >= 2 and nothing else."""
    if alpha < 2:
        raise DomainError("alpha must be >= 2")
    if beta < 1:
        raise DomainError("beta must be >= 1")
    base = gen_P_alpha(alpha)
    n = 2 * alpha + beta
    labels = list(base.graph.labels) + [f"g{j}" for j in range(1, beta + 1)]
    edges = list(base.graph.edges)
    for j in range(beta):
        g = 2 * alpha + j
        for k in range(1, alpha):                         # e_k, f_k with k >= 2
            edges.append((k, g))
            edges.append((alpha + k, g))
    return Fixture(f"palphabeta{alpha}_{beta}", Graph(n, edges, labels),
                   f"generator: padded doubled clique, alpha={alpha}, beta={beta}")


def gen_prism(m: int) -> Fixture:
    """Prism over an m-cycle: inner cycle v_0..v_{m-1}, outer u_0..u_{m-1},
    spokes v_i u_i."""
    if m < 3:
        raise DomainError("prism needs m >= 3")
    labels = [f"v{i}" for i in range(m)] + [f"u{i}" for i in range(m)]
    edges = [(i, (i + 1) % m) for i in range(m)]
    edges += [(m + i, m + (i + 1) % m) for i in range(m)]
    edges += [(i, m + i) for i in range(m)]
    return Fixture(f"prism{m}", Graph(2 * m, edges, labels),
                   f"generator: prism(m={m})")


def periphery_gap_example() -> Fixture:
    """A 13-vertex graph whose periphery differs from its centered
    periphery: center {c}, centered periphery {p1..p6}, but p0 and p7
    are maximally eccentric while p3 and p4 are not."""
    labels = ["c", "a1", "a2", "b1", "b2",
              "p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"]
    c, a1, a2, b1, b2, p0, p1, p2, p3, p4, p5, p6, p7 = range(13)
    edges = [
        (c, a1), (c, a2),
        (a1, b1), (a2, b2),
        (a1, p0), (a2, p7),
        (b1, p1), (b1, p2), (b1, p3),
        (b2, p4), (b2, p5), (b2, p6),
        (p1, p2), (p2, p3), (p3, p4), (p4, p5), (p5, p6),
    ]
    return Fixture("periphery_gap", Graph(13, edges, labels),
                   "hard-coded example: periphery differs from centered periphery")


def prism7_refined_cover() -> Fixture:
    """Heptagonal prism with a two-block covering and a split of the
    first block that together satisfy conditions A, A'' and B''.

    Q0 = {v0, v1, u0, u1}, Q1 = {v2, v3, u2, u3, u4}, second block
    {v4, v5, v6, u5, u6}; the refined block is Q0 | Q1.
    """
    base = gen_prism(7)
    q0 = [0, 1, 7, 8]
    q1 = [2, 3, 9, 10, 11]
    p2 = [4, 5, 6, 12, 13]
    return Fixture("prism7_cover", base.graph,
                   "hard-coded example: heptagonal prism refined 2-covering",
                   extras={"iota": 0, "q0": q0, "q1": q1,
                           "blocks": [sorted(q0 + q1), p2]})


def refined_cover_of(fx: Fixture) -> RefinedCovering:
    """Materialize the refined covering a fixture carries in its extras."""
    return covering_from_json(fx.graph, fx.extras)


# --------------------------------------------------------------------------
# named-graph tokens (command-line shorthand) and the fixture registry

def _copies(copies: int, size: int) -> Graph:
    """``copies`` disjoint copies of K_size, unlabelled for every size."""
    return Graph.disjoint_union([Graph.complete(size)] * copies)


#: Token forms: (pattern, vertex count, builder), over the integer groups.
_TOKEN_FORMS = (
    (r"k(\d+)", lambda a: a, Graph.complete),
    (r"p(\d+)", lambda a: a, Graph.path),
    (r"c(\d+)", lambda a: a, Graph.cycle),
    (r"(?:star|k1_)(\d+)", lambda a: a + 1, Graph.star),
    (r"(\d+)k(\d+)", lambda a, b: a * b, _copies),
    (r"prism(\d+)", lambda a: 2 * a, lambda a: gen_prism(a).graph),
    (r"palpha(\d+)", lambda a: 2 * a, lambda a: gen_P_alpha(a).graph),
    (r"palphabeta(\d+)_(\d+)", lambda a, b: 2 * a + b,
     lambda a, b: gen_P_alpha_beta(a, b).graph),
)


def named_graph(token: str) -> Graph:
    """Resolve a shorthand token: k5, p4, c6, star3, 2k2, prism7,
    palpha3, palphabeta3_2, periphery_gap, prism7_cover.  A token asking
    for more than ``MAX_INPUT_VERTICES`` vertices raises ``DomainError``
    before anything is built."""
    t = token.strip().lower()
    if t in _REGISTRY:
        return _REGISTRY[t]().graph
    for pattern, size, build in _TOKEN_FORMS:
        m = re.fullmatch(pattern, t)
        if m:
            args = [int(x) for x in m.groups()]
            if size(*args) > MAX_INPUT_VERTICES:
                raise DomainError(f"graph token {token!r} has {size(*args)} vertices,"
                                  f" more than {MAX_INPUT_VERTICES}")
            return build(*args)
    raise DomainError(f"unknown graph token: {token!r}")


def _two_k2() -> Fixture:
    g = Graph(4, [(0, 1), (2, 3)], ["a0", "a1", "b0", "b1"])
    return Fixture("2k2", g, "generator: two disjoint edges")


def _two_k1() -> Fixture:
    return Fixture("2k1", Graph.empty(2, labels=["u", "v"]),
                   "generator: two isolated vertices")


#: Fixture builders by fixture name, in manifest order.
_REGISTRY = {
    "2k1": _two_k1,
    "2k2": _two_k2,
    "k1_3": lambda: Fixture("k1_3", Graph.star(3), "generator: star with 3 leaves"),
    "p4": lambda: Fixture("p4", Graph.path(4), "generator: path(4)"),
    "p7": lambda: Fixture("p7", Graph.path(7), "generator: path(7)"),
    "c4": lambda: Fixture("c4", Graph.cycle(4), "generator: cycle(4)"),
    "c6": lambda: Fixture("c6", Graph.cycle(6), "generator: cycle(6)"),
    "c7": lambda: Fixture("c7", Graph.cycle(7), "generator: cycle(7)"),
    "prism3": lambda: gen_prism(3),
    "prism6": lambda: gen_prism(6),
    "prism7": lambda: gen_prism(7),
    "palpha2": lambda: gen_P_alpha(2),
    "palpha3": lambda: gen_P_alpha(3),
    "palpha4": lambda: gen_P_alpha(4),
    "palphabeta2_1": lambda: gen_P_alpha_beta(2, 1),
    "palphabeta3_2": lambda: gen_P_alpha_beta(3, 2),
    "periphery_gap": periphery_gap_example,
    "prism7_cover": prism7_refined_cover,
}


def all_fixtures() -> tuple[Fixture, ...]:
    return tuple(build() for build in _REGISTRY.values())


def fixture_manifest() -> dict:
    """Manifest mapping fixture name to graph6 string and provenance."""
    out = {}
    for fx in all_fixtures():
        entry = {"graph6": encode_graph6(fx.graph), "provenance": fx.provenance}
        if fx.extras:
            entry["extras"] = fx.extras
        out[fx.name] = entry
    return out
