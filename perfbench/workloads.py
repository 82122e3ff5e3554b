"""The benchmark's workloads: seeded inputs, the operations run on them,
and the relabeling-invariant answer each operation must give.

Every workload is a fixed batch of operations on ucgkit's public API.
``setup`` builds the batch for a seed; ``Workload.prepare`` hands out
fresh input graphs for one timed pass, so no pass profits from distance
matrices cached on a graph by an earlier pass.  The seed relabels
vertices with a seeded permutation; seed 0 keeps the shipped labelings.
Every reference answer is invariant under relabeling, so one reference
table (``reference.json``, taken at seed 0) serves every seed.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("prism_search", "atlas_sweep", "verify_sweep", "oracle")

Edges = tuple[tuple[int, int], ...]


@dataclass
class Raised:
    """An operation that raised instead of returning."""

    exc: BaseException


@dataclass
class Workload:
    """One workload's batch.

    ``prepare`` returns the operations of one pass as thunks over fresh
    inputs.  ``canon(i, out)`` maps op i's output to its relabeling-
    invariant answer, and ``check(i, out)`` re-checks it independently
    of ucgkit (``None`` when it holds).  Only the ops listed in
    ``checked`` get the independent re-check.
    """

    name: str
    ids: list[str]
    prepare: Callable[[], list[Callable[[], object]]]
    canon: Callable[[int, object], object]
    check: Callable[[int, object], str | None]
    checked: frozenset[int]
    notes: dict = field(default_factory=dict)
    close: Callable[[], None] = lambda: None


def setup(name: str, seed: int, root: Path) -> Workload:
    """Import ucgkit and networkx, load the atlas where needed and build
    the workload's inputs for ``seed``."""
    import networkx  # noqa: F401  (part of set-up: the checks use it)
    import ucgkit  # noqa: F401

    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    return _BUILDERS[name](rng, seed, root)


# --------------------------------------------------------------------------
# relabeling and answer canonicalisation

def seeded_perm(n: int, rng: random.Random, seed: int) -> list[int]:
    perm = list(range(n))
    if seed:
        rng.shuffle(perm)
    return perm


def relabel(edges: Edges, perm: list[int]) -> Edges:
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def graph_of(n: int, edges: Edges, perm: list[int] | None = None):
    """A fresh ucgkit graph, relabeled by ``perm`` when given."""
    from ucgkit import Graph

    return Graph(n, relabel(edges, perm) if perm else edges)


def canon_value(v) -> object:
    """An answer as JSON: an int, "inf", "infeasible" or an interval."""
    if isinstance(v, int):
        return v
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    if hasattr(v, "lo") and hasattr(v, "hi"):
        return ["interval", v.lo, v.hi]
    if repr(v) == "INFEASIBLE":
        return "infeasible"
    return ["unrecognised", repr(v)]


def canon_raised(out: Raised) -> object:
    kind = type(out.exc).__name__
    return "bound-exceeded" if kind == "BoundExceededError" else ["raised", kind]


def is_unresolved(answer: object) -> bool:
    return answer == "bound-exceeded" or (
        isinstance(answer, list) and answer[:1] == ["interval"])


def count_unresolved(answer: object) -> tuple[int, int]:
    """(unresolved answers, answers) in one op's answer; a cov_profile
    op answers once per condition set."""
    parts = list(answer.values()) if isinstance(answer, dict) else [answer]
    return sum(map(is_unresolved, parts)), len(parts)


def answer_matches(got: object, want: object) -> bool:
    """Equal answers match; an interval in the reference also accepts
    an exact value or a narrower interval inside it, so a later change
    that settles an unknown is not counted as a failure."""
    if got == want:
        return True
    if isinstance(want, list) and want[:1] == ["interval"]:
        lo, hi = want[1], want[2]
        hi = math.inf if hi is None else hi
        if isinstance(got, int) and not isinstance(got, bool):
            return lo <= got <= hi
        if isinstance(got, list) and got[:1] == ["interval"]:
            ghi = math.inf if got[2] is None else got[2]
            return lo <= got[1] and ghi <= hi
    return False


def _value_canon(i: int, out) -> object:
    """The answer of an op returning an AppendageResult or CovSizeResult."""
    return canon_raised(out) if isinstance(out, Raised) else canon_value(out.value)


def _appendage_check(out, c: tuple[int, Edges], p: tuple[int, Edges]) -> str | None:
    """A finite appendage answer must carry a witness that networkx
    confirms: C-tagged vertices are the center and induce C, P-tagged
    vertices are the centered periphery and induce P, and the rest
    number exactly the value."""
    if isinstance(out, Raised) or not isinstance(out.value, int):
        return None
    if out.witness is None:
        return "finite value without a witness graph"
    g = out.witness.graph
    return checks.witness_problem(g.n, g.edges, out.witness.roles, c, p, out.value)


# --------------------------------------------------------------------------
# prism_search: the two hard decision searches

def _prism_search(rng, seed, root) -> Workload:
    """appendage_number(p3, prism7) (a refined A+A''+B'' first-witness
    search) and decide_cover_k(prism5, 3, {A', B'}) (exhausted, no
    witness).

    The prisms keep their shipped labeling at every seed.  Relabeling by
    one of their automorphisms would leave the labeled graph as it is,
    and any other relabeling moves the refined search's cost between
    0.35 s and 16 s (measured over seeds 0-7), which would swamp any
    change under test.
    """
    import ucgkit as U

    p3 = tuple(U.Graph.path(3).edges)
    e7, e5 = U.gen_prism(7).graph.edges, U.gen_prism(5).graph.edges

    def prepare():
        c, g7, g5 = graph_of(3, p3), graph_of(14, e7), graph_of(10, e5)
        return [lambda: U.appendage_number(c, g7),
                lambda: U.decide_cover_k(g5, 3, ("A'", "B'"))]

    def check(i, out):
        return _appendage_check(out, (3, p3), (14, e7)) if i == 0 else None

    return Workload("prism_search", ["appendage(p3,prism7)", "decide(prism5,k=3,A'B')"],
                    prepare, _value_canon, check, frozenset({0}))


# --------------------------------------------------------------------------
# atlas_sweep: thousands of small appendage and profile calls

def atlas_r2(U):
    """The atlas graphs with radius >= 2 (infinite for disconnected ones)."""
    return [g for g in U.atlas_graphs(max_n=7) if min(g.ecc) >= 2]


def _atlas_sweep(rng, seed, root) -> Workload:
    """appendage_number(C, g) for C in {k2, p3} over the atlas graphs
    with radius >= 2, then cov_profile(g) over those with n <= 6.

    n = 7 profiles are left out: they take ~100 s.  The graphs keep the
    atlas labeling at every seed.  A few first-witness searches cost
    seconds under some labelings and milliseconds under others, and over
    seeds 11-17 per-graph relabeling moved the pass between 15.7 s and
    20.1 s at reference speed.  The self-tests check that the answers are
    invariant under relabeling.
    """
    import ucgkit as U

    graphs = [(g.n, g.edges) for g in atlas_r2(U)]
    centers = {"k2": (2, ((0, 1),)), "p3": (3, ((0, 1), (1, 2)))}
    ops = [("append", cname, gi) for cname in ("k2", "p3") for gi in range(len(graphs))]
    ops += [("profile", None, gi) for gi, (n, _) in enumerate(graphs) if n <= 6]
    ids = [f"{kind}:{cname or '-'}:atlas{gi}" for kind, cname, gi in ops]

    def prepare():
        fresh = [graph_of(n, e) for n, e in graphs]
        ctr = {k: graph_of(n, e) for k, (n, e) in centers.items()}
        thunks = []
        for kind, cname, gi in ops:
            if kind == "append":
                thunks.append(lambda c=ctr[cname], g=fresh[gi]: U.appendage_number(c, g))
            else:
                thunks.append(lambda g=fresh[gi]: U.cov_profile(g))
        return thunks

    def canon(i, out):
        if ops[i][0] == "append" or isinstance(out, Raised):
            return _value_canon(i, out)
        return {key: canon_value(res.value) for key, res in out.items()}

    def check(i, out):
        kind, cname, gi = ops[i]
        if kind != "append":
            return None
        return _appendage_check(out, centers[cname], graphs[gi])

    return Workload("atlas_sweep", ids, prepare, canon, check,
                    frozenset(i for i, op in enumerate(ops) if op[0] == "append"),
                    {"graphs": len(graphs)})


# --------------------------------------------------------------------------
# verify_sweep: build and verify scaffolds, no decision search

#: Independently re-checked verify_sweep ops per pass (seeded sample).
VERIFY_SAMPLE = 3000


def _ordered_two_coverings(n: int):
    """All ordered (P1, P2), both nonempty with union V, in the order of
    their per-vertex membership patterns (1: P1 only, 2: P2 only, 3: both)."""
    for pat in product((1, 2, 3), repeat=n):
        b1 = frozenset(v for v in range(n) if pat[v] & 1)
        b2 = frozenset(v for v in range(n) if pat[v] & 2)
        if b1 and b2:
            yield b1, b2


def _splits(block: frozenset[int]):
    """All (Q0, Q1) with Q0 | Q1 = block and Q0 nonempty."""
    vs = sorted(block)
    for pat in product((1, 2, 3), repeat=len(vs)):
        q0 = frozenset(v for v, c in zip(vs, pat) if c & 1)
        if q0:
            yield q0, frozenset(v for v, c in zip(vs, pat) if c & 2)


def _verify_sweep(rng, seed, root) -> Workload:
    """Every ordered 2-covering of every atlas graph on 4 vertices, built
    and verified the way the construction laws pair them: depth-1 minus
    apex with center k2; depth-2 minus apex chain with k2 and p3; and the
    refined scaffold for every split of the first block, with k2 and p3.

    Coverings are enumerated on the shipped labeling and carried through
    each graph's seeded relabeling, so op i asks the same question at
    every seed.  Build and verify read nothing cached on the periphery
    graph but its edge list, so the inputs are shared across passes.
    """
    import ucgkit as U

    cperm = seeded_perm(3, rng, seed)
    centers = {"k2": (2, ((0, 1),)), "p3": (3, relabel(((0, 1), (1, 2)), cperm))}
    cg = {k: graph_of(n, e) for k, (n, e) in centers.items()}
    specs = []  # (builder tag, center, graph index, covering)
    graphs = []
    for g in U.atlas_graphs(max_n=4, min_n=4):
        perm = seeded_perm(4, rng, seed)
        gi = len(graphs)
        p = graph_of(4, g.edges, perm)
        graphs.append((4, tuple(p.edges), p))
        for b1, b2 in _ordered_two_coverings(4):
            blocks = (frozenset(perm[v] for v in b1), frozenset(perm[v] for v in b2))
            cov = U.Covering(p, blocks)
            specs.append(("rho1", "k2", gi, cov))
            specs.append(("rho2", "k2", gi, cov))
            specs.append(("rho2", "p3", gi, cov))
            for q0, q1 in _splits(b1):
                rc = U.RefinedCovering(cov, 0, frozenset(perm[v] for v in q0),
                                       frozenset(perm[v] for v in q1))
                specs.append(("refined", "k2", gi, rc))
                specs.append(("refined", "p3", gi, rc))
    ids = [f"g{gi}:{tag}:{cname}:{i}" for i, (tag, cname, gi, _) in enumerate(specs)]

    sample = frozenset(random.Random(f"verify_sweep-sample:{seed}").sample(
        range(len(specs)), min(VERIFY_SAMPLE, len(specs))))

    def op(tag, c, p, cov, keep):
        if tag == "rho1":
            s = U.build_scaffold(c, p, cov, 1, drop=(1,))
        elif tag == "rho2":
            s = U.build_scaffold(c, p, cov, 2, drop=(1, 2))
        else:
            s = U.build_refined_scaffold(c, p, cov)
        # only the re-checked ops keep their graph, so peak memory is the
        # library's rather than 51,887 retained scaffolds
        return s if keep else None, U.verify_construction(s, c, p)

    thunks = [lambda t=tag, c=cg[cname], p=graphs[gi][2], cov=cov, k=i in sample:
              op(t, c, p, cov, k)
              for i, (tag, cname, gi, cov) in enumerate(specs)]

    def canon(i, out):
        return canon_raised(out) if isinstance(out, Raised) else out[1].ok

    def check(i, out):
        if isinstance(out, Raised):
            return None
        s, rep = out
        _, cname, gi, _ = specs[i]
        want = checks.scaffold_verdict(s.graph.n, s.graph.edges, s.roles,
                                       centers[cname], graphs[gi][:2])
        got = {"is_ucg": rep.is_ucg, "center_matches": rep.center_matches,
               "periphery_matches": rep.periphery_matches, "ok": rep.ok}
        if want["connected"]:
            got["radius"] = rep.radius
            got["intermediate_count"] = rep.intermediate_count
        diff = {k: (v, want[k]) for k, v in got.items() if want[k] != v}
        return f"verdict differs from networkx: {diff}" if diff else None

    return Workload("verify_sweep", ids, lambda: thunks, canon, check, sample,
                    {"graphs": len(graphs)})


# --------------------------------------------------------------------------
# oracle: the brute-force oracle through the command line

#: (center, periphery, t_max, bound or None).  The first eight are the
#: acceptance suite's oracle corpus at its largest t_max under the
#: default bound; the rest force full enumerations.  Eight ops take at
#: most 10 ms and eight at least 36 ms, so the median op is always
#: (p3, p4, t 1), a 13 ms enumeration, and not a 3 ms round trip through
#: argument parsing and files whose rank changes from run to run.
ORACLE_CORPUS = (
    ("k1", "2k1", 4, None), ("k1", "2k2", 3, None), ("k1", "p4", 3, None),
    ("k1", "c4", 3, None), ("k2", "2k1", 3, None), ("k2", "2k2", 2, None),
    ("k2", "p4", 2, None), ("k2", "c4", 2, None),
    ("k1", "c4", 0, None), ("p3", "2k1", 3, None), ("k2", "p4", 3, 30),
    ("p3", "2k1", 2, None), ("p3", "p4", 1, None), ("k2", "c5", 2, 30),
    ("k2", "p5", 2, 30), ("p3", "c5", 1, None), ("p3", "p4", 2, 30),
)


def _oracle(rng, seed, root) -> Workload:
    """In-process ``ucgkit.cli.main(["oracle", ...])`` over graph6 files
    written during set-up, one JSON report per op.

    Only the peripheries are relabeled.  A full enumeration visits the
    same set of graphs under any periphery labeling, but the center's
    labeling decides which center vertex each acceptance test starts
    from, and so how early it stops.
    """
    import ucgkit as U
    from ucgkit import cli

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root))
    argvs, ids = [], []
    for i, (ctok, ptok, tmax, bound) in enumerate(ORACLE_CORPUS):
        files = []
        for role, tok in (("c", ctok), ("p", ptok)):
            g = U.named_graph(tok)
            perm = seeded_perm(g.n, rng, seed) if role == "p" else None
            path = tmp / f"{i}{role}.g6"
            path.write_text(U.encode_graph6(graph_of(g.n, g.edges, perm)) + "\n")
            files.append(str(path))
        argv = ["oracle", "--center", files[0], "--periphery", files[1],
                "--tmax", str(tmax), "--json", str(tmp / f"{i}.json")]
        if bound is not None:
            argv += ["--bound", str(bound)]
        argvs.append(argv)
        ids.append(f"oracle:{ctok}:{ptok}:t{tmax}" + (f":b{bound}" if bound else ""))

    thunks = [lambda a=argv: cli.main(list(a)) for argv in argvs]

    def report(i):
        return json.loads(Path(argvs[i][argvs[i].index("--json") + 1]).read_text())

    def canon(i, out):
        if isinstance(out, Raised):
            return canon_raised(out)
        res = report(i)["result"]
        return [out, res["value"], res["t_max"], res["provably_infinite"]]

    def check(i, out):
        if isinstance(out, Raised):
            return None
        return checks.oracle_report_problem(report(i), argvs[i])

    return Workload("oracle", ids, lambda: thunks, canon, check,
                    frozenset(range(len(argvs))),
                    close=lambda: shutil.rmtree(tmp, ignore_errors=True))


_BUILDERS = {"prism_search": _prism_search, "atlas_sweep": _atlas_sweep,
             "verify_sweep": _verify_sweep, "oracle": _oracle}
