"""Central-peripheral appendage numbers with certificates.

``appendage_number(c, p)`` computes the minimum count of extra vertices
needed to glue a graph together that is uniform central with center
inducing c and centered periphery inducing p.  The case analysis runs on
exact minimum-covering decisions over p:

* radius(p) <= 1: impossible, infinity.
* c a single vertex: 0, witnessed by the cone over p.
* c complete on n >= 2 vertices: kappa = cov_A(p); the answer is kappa
  when a size-kappa covering also satisfies B, else kappa + 1.
* c non-complete: the answer is 2*kappa, 2*kappa + 1 or 2*kappa + 2,
  decided by whether size-kappa coverings satisfying A'+B', A' alone, or
  A+A''+B'' (refined) exist.

Every finite answer ships with a witness scaffold that is re-verified on
the spot - wrong covering decisions cannot produce a silently wrong
value, the witness check would fail loudly first.  Because a covering
can meet the printed conditions while its construction degenerates
(overlapping blocks shortcut through shared spine feet), the engine
treats "some witness builds and verifies" as the decision, walking the
whole witness stream when needed; searches that exceed their bounds, or
condition-satisfiable instances where nothing builds, yield an explicit
``Unknown`` interval, saying why it stopped, instead of a guess.

``brute_force_appendage`` is the independent oracle: it tries t = 0, 1,
... added vertices, enumerating every free edge subset and accepting the
first graph whose fresh analysis has exactly the requested center and
centered periphery.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations_with_replacement

from .coverings import (PROFILE_CONDS, Covering, RefinedCovering, Unknown, cov_A,
                        decide_bound, iter_covering_witnesses, singleton_witness,
                        two_block_fact)
from .errors import BoundExceededError, DomainError, InternalCheckError
from .graphs import INF, Graph, MetricProfile, json_number, metric_profile
from .scaffolds import (Scaffold, build_cone, build_refined_scaffold,
                        build_scaffold, verify_construction)

#: How many decision witnesses the engine will try to turn into a verified
#: construction before giving up; overlapping-block witnesses can fail the
#: graph check even though they meet the covering conditions, so the engine
#: walks the witness stream until one construction verifies.  The stream
#: holds orbit leaders only (one covering per block permutation class), so
#: the cap counts leaders.
WITNESS_RETRY_CAP = 5000

#: Free-edge-count ceiling for the brute-force oracle.
DEFAULT_ORACLE_BOUND = 24


@dataclass(frozen=True)
class AppendageResult:
    value: object  # int | INF | Unknown
    case: str
    certificates: dict
    witness: Scaffold | None

    def to_json(self) -> dict:
        if isinstance(self.value, Unknown):
            val: object = self.value.to_json()
        else:
            val = json_number(self.value)
        wit = None if self.witness is None else self.witness.to_json()
        return {"value": val, "case": self.case,
                "certificates": self.certificates, "witness": wit}


def _verifies(s: Scaffold, c: Graph, p: Graph, expect: int) -> bool:
    """Does ``s`` verify over c and p with ``expect`` intermediate vertices?"""
    rep = verify_construction(s, c, p)
    return rep.ok and rep.intermediate_count == expect


def _verified(s: Scaffold, c: Graph, p: Graph, expect: int) -> Scaffold:
    """``s``, whose verification the theory guarantees; a failure is a bug."""
    if not _verifies(s, c, p, expect):
        raise InternalCheckError(f"witness fails to verify with {expect} intermediates")
    return s


@dataclass(frozen=True)
class _Route:
    """Outcome of hunting one construction shape for a value.

    status: "built" (witness graph verified), "no-witness" (no covering
    meets the conditions at size kappa), "no-build" (coverings meet the
    conditions but none of their constructions verified - overlap
    degeneracy), "vertex-bound"/"witness-cap" (search could not finish).
    The unfinished statuses are ``Unknown`` stop words.
    """

    status: str
    reason: str
    witness: Covering | RefinedCovering | None = None
    scaffold: Scaffold | None = None


def _route(c: Graph, p: Graph, prof: MetricProfile, kappa: int, bound: int,
           certs: dict, key: str, builder, expect: int) -> _Route:
    """Find a size-kappa covering meeting the conditions of profile key
    ``key`` whose construction ``builder(covering)`` verifies with
    ``expect`` intermediate vertices, and record the outcome in ``certs``
    as ``cov_{key}_decision`` and, once built, ``witness_covering``.

    At kappa = 2 the key's size-2 facts come first: one may rule the
    covering out, or hand over a theory-backed witness to try; so do the
    singletons at kappa = n.  If that disappoints, the witness stream is
    walked in order, so a "no-build" answer means every
    condition-passing covering was tried, up to a permutation of its
    blocks, which gives an isomorphic scaffold."""
    def done(status, reason, witness=None, scaffold=None):
        certs[f"cov_{key}_decision"] = {"status": status, "reason": reason}
        if witness is not None:
            certs["witness_covering"] = witness.to_json()
        return _Route(status, reason, witness, scaffold)

    fact = two_block_fact(p, prof, key) if kappa == 2 else None
    if fact is not None and fact.build is None:
        return done("no-witness", fact.reason)

    theory = [] if fact is None else [(fact.build(p), fact.reason)]
    if kappa == p.n:
        theory.append((singleton_witness(p, key), "singletons"))
    for wit, reason in theory:
        s = builder(wit)
        if _verifies(s, c, p, expect):
            return done("built", reason, wit, s)
    try:
        stream = iter_covering_witnesses(p, kappa, PROFILE_CONDS[key], bound,
                                         orbit_leaders=True)
        first = next(stream, None)
    except BoundExceededError:
        return done("vertex-bound", f"bound exceeded at k={kappa}")
    if first is None:
        return done("no-witness", f"exhausted@k={kappa}")
    for tried, wit in enumerate(chain((first,), stream), 1):
        s = builder(wit)
        if _verifies(s, c, p, expect):
            return done("built", f"decide@k={kappa}", wit, s)
        if tried >= WITNESS_RETRY_CAP:
            return done("witness-cap", f"witness retry cap at k={kappa}")
    return done("no-build", f"conditions met at k={kappa}, no construction verified")


def appendage_number(c: Graph, p: Graph, bound: int | None = None) -> AppendageResult:
    prof = metric_profile(p)
    if prof.radius <= 1:
        return AppendageResult(INF, "infeasible: radius(P) <= 1",
                               {"radius": json_number(prof.radius)}, None)

    if c.n == 1:
        cone = _verified(build_cone(p), c, p, 0)
        return AppendageResult(0, "single-vertex center: cone", {}, cone)

    res_a = cov_A(p)
    kappa = res_a.value
    bound = decide_bound(kappa, bound)
    certs: dict = {"kappa": kappa, "cov_A_witness": res_a.witness.to_json(),
                   "radius": json_number(prof.radius),
                   "diameter": json_number(prof.diameter)}
    route = partial(_route, c, p, prof, kappa, bound, certs)
    center = _complete_center if c.is_complete else _general_center
    value, case, witness = center(c, p, kappa, res_a.witness, bound, route)
    return AppendageResult(value, case, certs, witness)


def _complete_center(c, p, kappa, cov_a_wit, bound, route):
    # value is kappa exactly when a size-kappa covering meeting A and B
    # admits a verifying depth-1 construction minus the apex
    r = route("AB", lambda w: build_scaffold(c, p, w, 1, drop=(1,)), kappa)
    if r.status == "built":
        return kappa, f"complete center: cov_AB=kappa ({r.reason})", r.scaffold
    if r.status == "no-witness":
        return (kappa + 1, f"complete center: cov_AB>kappa ({r.reason})",
                _verified(build_scaffold(c, p, cov_a_wit, 1), c, p, kappa + 1))
    # "no-build" keeps the covering-size equivalence out of reach for
    # this instance (coverings meet A and B but no construction checks
    # out), and "vertex-bound"/"witness-cap" means the search could not finish
    return (Unknown(kappa, kappa + 1, bound, r.status),
            f"complete center: cov_AB undecided ({r.reason})", None)


def _general_center(c, p, kappa, cov_a_wit, bound, route):
    # 2*kappa  <=>  some size-kappa covering meeting A' and B' builds;
    # a graph realizing 2*kappa always contains such a buildable covering
    # as a spanning-subgraph certificate, so a fully walked stream with
    # no verifying construction rules the value out exactly.
    r1 = route("A'B'", lambda w: build_scaffold(c, p, w, 2, drop=(1, 2)), 2 * kappa)
    if r1.status == "built":
        return 2 * kappa, f"general center: cov_A'B'=kappa ({r1.reason})", r1.scaffold
    if r1.status in ("vertex-bound", "witness-cap"):
        return (Unknown(2 * kappa, 2 * kappa + 2, bound, r1.status),
                f"general center: cov_A'B' undecided ({r1.reason})", None)

    # 2*kappa+1, first shape: depth-2 scaffold minus the apex tip over a
    # size-kappa covering meeting A'
    r2 = route("A'", lambda w: build_scaffold(c, p, w, 2, drop=(2,)), 2 * kappa + 1)
    if r2.status == "built":
        return 2 * kappa + 1, f"general center: cov_A'=kappa ({r2.reason})", r2.scaffold

    # 2*kappa+1, second shape: the refined scaffold; a graph realizing
    # 2*kappa+1 with a heavy second stratum always contains a buildable
    # refined covering, so "no-build" here is an exact exclusion
    r3 = route("AA''B''", lambda w: build_refined_scaffold(c, p, w), 2 * kappa + 1)
    if r3.status == "built":
        return (2 * kappa + 1, f"general center: cov_AA''B''=kappa ({r3.reason})",
                r3.scaffold)

    # endgame: 2*kappa+2 is exact when the A'-route had no covering at
    # all and the refined route was walked to the end, because a graph
    # realizing 2*kappa+1 would force one of those certificates
    if r2.status == "no-witness" and r3.status in ("no-witness", "no-build"):
        return (2 * kappa + 2,
                "general center: no size-kappa covering meets A'+B', A', or A+A''+B''",
                _verified(build_scaffold(c, p, cov_a_wit, 2), c, p, 2 * kappa + 2))
    # the route that left 2*kappa+1 open: A' unless it had no covering
    stop = (r3 if r2.status == "no-witness" else r2).status
    return (Unknown(2 * kappa + 1, 2 * kappa + 2, bound, stop),
            "general center: 2k+1 shapes undecided", None)


# --------------------------------------------------------------------------
# the fixed-periphery / fixed-center specializations, answered by the engine

def _one_sided(res: AppendageResult, added: int, case: str) -> AppendageResult:
    """The engine's answer ``res`` grown by the ``added`` vertices that the
    one-sided variant appends beside the intermediate ones."""
    if res.witness is None:
        raise InternalCheckError(f"{case}: the engine gave no witness ({res.case})")
    value = res.value + added
    return AppendageResult(value, case, {"appended": value}, res.witness)


def appendage_center_only(c: Graph) -> AppendageResult:
    """Fewest vertices to append to c alone so it becomes the center of a
    uniform central graph: the appendage number over the two-isolated-
    vertex periphery plus those two vertices, which is 2 for a single
    vertex, 4 for a larger complete graph and 6 otherwise."""
    p2 = Graph.empty(2, labels=["u", "v"])
    case = ("single vertex: cone" if c.n == 1 else
            "complete: depth-1 scaffold minus apex" if c.is_complete else
            "non-complete: depth-2 scaffold minus apex chain")
    return _one_sided(appendage_number(c, p2), p2.n, f"center-only, {case}")


def appendage_periphery_only(p: Graph) -> AppendageResult:
    """Fewest vertices to append to p alone so it becomes the centered
    periphery of a uniform central graph: the appendage number over a
    single-vertex center plus that vertex, so one cone apex, unless the
    radius is at most 1, which is impossible."""
    res = appendage_number(Graph(1), p)
    if res.value == INF:
        return AppendageResult(INF, "periphery-only, infeasible: radius <= 1",
                               {}, None)
    return _one_sided(res, 1, "periphery-only, cone")


# --------------------------------------------------------------------------
# independent brute-force oracle

def brute_force_appendage(c: Graph, p: Graph, t_max: int,
                          bound: int = DEFAULT_ORACLE_BOUND) -> int | None:
    """Smallest t <= t_max admitting a host graph, by exhaustive search.

    For each t the free edge slots are all pairs except those inside c
    and inside p, whose edges are fixed; the nominal count is
    f(t) = |C||P| + t(|C|+|P|) + t(t-1)/2 and every tried t must satisfy
    f(t) <= bound.  Two sound reductions.  For t >= 1 no center-periphery
    edge can occur (such an edge would force the common center
    eccentricity to 1, putting the added vertices into the eccentric set
    of every central vertex, which the periphery must equal).  And the
    added vertices' attachment columns (each one's neighbors in c and p)
    are tried in sorted order only, under every added-added edge set:
    acceptance treats the added vertices alike, so permuting them to sort
    their columns maps every host to a tried one.  Each tried host is one
    packed integer (row u at bits [u*n, (u+1)*n)): the fixed edges plus
    one table entry per byte of the added-added (for t = 0, the
    center-periphery) edge mask and one per column.  Acceptance walks
    the host from scratch with its own breadth-first search, independent
    of the kernel it checks: every c-vertex must see exactly the
    p-vertices as its eccentric set, at one common eccentricity r*, and
    every other vertex must be strictly more eccentric.  Each search stops
    once its verdict is known: a c-vertex's at the first layer meeting
    the p-vertices, any other vertex's after r* layers.

    Returns the minimal accepting t, or None if all t <= t_max fail.
    """
    if t_max < 0:
        raise DomainError(f"t_max must be >= 0, got {t_max}")
    nc, np_ = c.n, p.n
    for t in range(t_max + 1):
        f = nc * np_ + t * (nc + np_) + t * (t - 1) // 2
        if f > bound:
            raise BoundExceededError(
                f"oracle needs f({t})={f} free edges, bound is {bound}")
        if _oracle_try_t(c, p, t):
            return t
    return None


def _subset_table(values: list[int]) -> list[int]:
    """Entry b is the union of ``values[i]`` over the set bits i of b,
    built incrementally."""
    tab = [0] * (1 << len(values))
    for b in range(1, len(tab)):
        low = b & -b
        tab[b] = tab[b ^ low] | values[low.bit_length() - 1]
    return tab


def _oracle_hosts(nc: int, np_: int, t: int):
    """The free edges of each host the oracle tries, packed (row u at bits
    [u*n, (u+1)*n)).  For t = 0 every subset of the C-P pairs.  For
    t >= 1, for each added-added edge mask in increasing order, each
    non-decreasing tuple of attachment columns (added vertex x's
    neighbors in C and P, one table entry per column)."""
    m, n = nc + np_, nc + np_ + t
    added = range(m, n)

    def edge(u, v):
        return 1 << (u * n + v) | 1 << (v * n + u)

    if t:
        pairs = [(x, y) for x in added for y in added if x < y]
        parts = [_subset_table([edge(b, x) for b in range(m)]) for x in added]
    else:
        pairs = [(u, v) for u in range(nc) for v in range(nc, m)]
    # one table per byte of the edge mask: the edges are disjoint bit
    # sets, so a mask's edges are the sum of its bytes' entries
    edges = [edge(u, v) for u, v in pairs]
    tabs = [_subset_table(edges[j:j + 8]) for j in range(0, len(edges), 8)]
    getitem = list.__getitem__
    for mask in range(1 << len(pairs)):
        base = sum(map(getitem, tabs, mask.to_bytes(len(tabs), "little")))
        if not t:
            yield base
            continue
        for cols in combinations_with_replacement(range(1 << m), t):
            yield base + sum(map(getitem, parts, cols))


def _oracle_try_t(c: Graph, p: Graph, t: int) -> bool:
    nc, np_ = c.n, p.n
    n = nc + np_ + t
    p_mask = ((1 << np_) - 1) << nc
    rows = list(c.adj_masks) + [m << nc for m in p.adj_masks]
    host0 = sum(row << (i * n) for i, row in enumerate(rows))
    return any(_accepts(host0 + free, nc, n, p_mask)
               for free in _oracle_hosts(nc, np_, t))


def _accepts(host: int, nc: int, n: int, p_mask: int) -> bool:
    """Whether the packed host (row u at bits [u*n, (u+1)*n)) has center
    eccentricity r* common to vertices 0..nc-1, each with the p-vertices
    as its eccentric set, and every other vertex more eccentric.  A
    center search stops at the first layer meeting P, which must be all
    of P with every vertex reached; any other search stops after r*
    layers, which must leave a vertex unreached."""
    full = (1 << n) - 1
    r_star = 0
    for src in range(n):
        center = src < nc
        seen = frontier = 1 << src
        depth = 0
        while frontier and (not frontier & p_mask if center else depth < r_star):
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= host >> ((low.bit_length() - 1) * n)
                frontier ^= low
            frontier = nxt & full & ~seen
            seen |= frontier
            depth += 1
        if center:
            if frontier != p_mask or seen != full or r_star and depth != r_star:
                return False
            r_star = depth
        elif seen == full:
            return False
    return True
