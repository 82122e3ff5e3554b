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
unresolved interval instead of a guess.

``brute_force_appendage`` is the independent oracle: it tries t = 0, 1,
... added vertices, enumerating every free edge subset and accepting the
first graph whose fresh analysis has exactly the requested center and
centered periphery.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, permutations

from .coverings import (PROFILE_CONDS, Covering, cov_A, iter_covering_witnesses,
                        singleton_witness, two_block_fact)
from .errors import BoundExceededError, InternalCheckError
from .graphs import INF, Graph, MetricProfile, bfs_layers, json_number, metric_profile
from .scaffolds import (Scaffold, build_cone, build_refined_scaffold,
                        build_scaffold, verify_construction)

#: How many decision witnesses the engine will try to turn into a verified
#: construction before giving up; overlapping-block witnesses can fail the
#: graph check even though they meet the covering conditions, so the engine
#: walks the witness stream until one construction verifies.
WITNESS_RETRY_CAP = 5000

#: Free-edge-count ceiling for the brute-force oracle.
DEFAULT_ORACLE_BOUND = 24


@dataclass(frozen=True)
class Unresolved:
    """The exact value is one of lo..hi; the deciders ran out of bounds."""

    lo: int
    hi: int

    def __repr__(self):
        return f"UNRESOLVED(lo={self.lo}, hi={self.hi})"


@dataclass(frozen=True)
class AppendageResult:
    value: object  # int | INF | Unresolved
    case: str
    certificates: dict
    witness: Scaffold | None

    def to_json(self) -> dict:
        from .codecs import encode_graph6

        if isinstance(self.value, Unresolved):
            val: object = {"lo": self.value.lo, "hi": self.value.hi}
        else:
            val = json_number(self.value)
        wit = None
        if self.witness is not None:
            wit = {"graph6": encode_graph6(self.witness.graph),
                   "roles": list(self.witness.roles)}
        return {"value": val, "case": self.case,
                "certificates": self.certificates, "witness": wit}


def _verified(s: Scaffold, c: Graph, p: Graph, expect: int) -> Scaffold:
    rep = verify_construction(s, c, p)
    if not rep.ok:
        raise InternalCheckError(
            f"witness failed verification: is_ucg={rep.is_ucg},"
            f" center={rep.center_matches}, periphery={rep.periphery_matches}")
    if rep.intermediate_count != expect:
        raise InternalCheckError(
            f"witness has {rep.intermediate_count} intermediate vertices,"
            f" expected {expect}")
    return s


class _Route:
    """Outcome of hunting one construction shape for a value.

    status: "built" (witness graph verified), "no-witness" (no covering
    meets the conditions at size kappa), "no-build" (coverings meet the
    conditions but none of their constructions verified - overlap
    degeneracy), "bound"/"capped" (search could not finish).
    """

    __slots__ = ("status", "witness", "scaffold", "reason")

    def __init__(self, status, witness=None, scaffold=None, reason=""):
        self.status = status
        self.witness = witness
        self.scaffold = scaffold
        self.reason = reason

    def note(self):
        return {"status": self.status, "reason": self.reason}


def _try(builder, wit, c, p, expect):
    s = builder(wit)
    rep = verify_construction(s, c, p)
    return s if rep.ok and rep.intermediate_count == expect else None


def _route(c: Graph, p: Graph, prof: MetricProfile, key: str, kappa: int,
           bound: int | None, builder, expect: int) -> _Route:
    """Find a size-kappa covering meeting the conditions of profile key
    ``key`` whose construction verifies.  At kappa = 2 the key's size-2
    facts come first: one may rule the covering out, or hand over a
    theory-backed witness to try.  If that disappoints, the full witness
    stream is walked in order, so a "no-build" answer means every
    condition-passing covering was tried."""
    conds = PROFILE_CONDS[key]
    refine = key == "AA''B''"
    fact = two_block_fact(p, prof, key) if kappa == 2 else None
    if fact is not None:
        if fact.build is None:
            return _Route("no-witness", reason=fact.reason)
        quick = fact.build(p)
        s = _try(builder, quick, c, p, expect)
        if s is not None:
            return _Route("built", quick, s, fact.reason)
    if kappa == p.n:
        wit = singleton_witness(p, key)
        s = _try(builder, wit, c, p, expect)
        if s is not None:
            return _Route("built", wit, s, "singletons")
    try:
        gen = iter_covering_witnesses(p, kappa, conds, refine=refine, bound=bound)
        first = next(gen, None)
    except BoundExceededError:
        return _Route("bound", reason=f"bound exceeded at k={kappa}")
    if first is None:
        return _Route("no-witness", reason=f"exhausted@k={kappa}")
    tried = 0
    for wit in chain((first,), gen):
        s = _try(builder, wit, c, p, expect)
        if s is not None:
            return _Route("built", wit, s, f"decide@k={kappa}")
        tried += 1
        if tried >= WITNESS_RETRY_CAP:
            return _Route("capped", reason=f"witness retry cap at k={kappa}")
    return _Route("no-build",
                  reason=f"conditions met at k={kappa}, no construction verified")


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
    certs: dict = {"kappa": kappa, "cov_A_witness": res_a.witness.to_json(),
                   "radius": json_number(prof.radius),
                   "diameter": json_number(prof.diameter)}

    if c.is_complete:
        return _complete_center(c, p, kappa, res_a.witness, prof, certs, bound)
    return _general_center(c, p, kappa, res_a.witness, prof, certs, bound)


def _complete_center(c, p, kappa, cov_a_wit, prof, certs, bound):
    # value is kappa exactly when a size-kappa covering meeting A and B
    # admits a verifying depth-1 construction minus the apex
    builder = lambda w: build_scaffold(c, p, w, 1, drop=(1,))
    route = _route(c, p, prof, "AB", kappa, bound, builder, kappa)
    certs["cov_AB_decision"] = route.note()
    if route.status == "built":
        certs["witness_covering"] = route.witness.to_json()
        return AppendageResult(kappa,
                               f"complete center: cov_AB=kappa ({route.reason})",
                               certs, route.scaffold)
    if route.status == "no-witness":
        scaffold = _verified(build_scaffold(c, p, cov_a_wit, 1), c, p, kappa + 1)
        return AppendageResult(kappa + 1,
                               f"complete center: cov_AB>kappa ({route.reason})",
                               certs, scaffold)
    # "no-build" keeps the covering-size equivalence out of reach for
    # this instance (coverings meet A and B but no construction checks
    # out), and "bound"/"capped" means the search could not finish
    return AppendageResult(Unresolved(kappa, kappa + 1),
                           f"complete center: cov_AB undecided ({route.reason})",
                           certs, None)


def _general_center(c, p, kappa, cov_a_wit, prof, certs, bound):
    # 2*kappa  <=>  some size-kappa covering meeting A' and B' builds;
    # a graph realizing 2*kappa always contains such a buildable covering
    # as a spanning-subgraph certificate, so a fully walked stream with
    # no verifying construction rules the value out exactly.
    builder1 = lambda w: build_scaffold(c, p, w, 2, drop=(1, 2))
    r1 = _route(c, p, prof, "A'B'", kappa, bound, builder1, 2 * kappa)
    certs["cov_A'B'_decision"] = r1.note()
    if r1.status == "built":
        certs["witness_covering"] = r1.witness.to_json()
        return AppendageResult(2 * kappa,
                               f"general center: cov_A'B'=kappa ({r1.reason})",
                               certs, r1.scaffold)
    if r1.status in ("bound", "capped"):
        return AppendageResult(Unresolved(2 * kappa, 2 * kappa + 2),
                               f"general center: cov_A'B' undecided ({r1.reason})",
                               certs, None)

    # 2*kappa+1, first shape: depth-2 scaffold minus the apex tip over a
    # size-kappa covering meeting A'
    builder2 = lambda w: build_scaffold(c, p, w, 2, drop=(2,))
    r2 = _route(c, p, prof, "A'", kappa, bound, builder2, 2 * kappa + 1)
    certs["cov_A'_decision"] = r2.note()
    if r2.status == "built":
        certs["witness_covering"] = r2.witness.to_json()
        return AppendageResult(2 * kappa + 1,
                               f"general center: cov_A'=kappa ({r2.reason})",
                               certs, r2.scaffold)

    # 2*kappa+1, second shape: the refined scaffold; a graph realizing
    # 2*kappa+1 with a heavy second stratum always contains a buildable
    # refined covering, so "no-build" here is an exact exclusion
    builder3 = lambda w: build_refined_scaffold(c, p, w)
    r3 = _route(c, p, prof, "AA''B''", kappa, bound, builder3, 2 * kappa + 1)
    certs["cov_AA''B''_decision"] = r3.note()
    if r3.status == "built":
        certs["witness_covering"] = r3.witness.to_json()
        return AppendageResult(2 * kappa + 1,
                               f"general center: cov_AA''B''=kappa ({r3.reason})",
                               certs, r3.scaffold)

    # endgame: 2*kappa+2 is exact when the A'-route had no covering at
    # all and the refined route was walked to the end, because a graph
    # realizing 2*kappa+1 would force one of those certificates
    if r2.status == "no-witness" and r3.status in ("no-witness", "no-build"):
        scaffold = _verified(build_scaffold(c, p, cov_a_wit, 2),
                             c, p, 2 * kappa + 2)
        return AppendageResult(2 * kappa + 2,
                               "general center: no size-kappa covering meets"
                               " A'+B', A', or A+A''+B''",
                               certs, scaffold)
    return AppendageResult(Unresolved(2 * kappa + 1, 2 * kappa + 2),
                           "general center: 2k+1 shapes undecided",
                           certs, None)


# --------------------------------------------------------------------------
# the fixed-periphery / fixed-center specializations

def appendage_center_only(c: Graph) -> AppendageResult:
    """Fewest vertices to append to c alone so it becomes the center of a
    uniform central graph: 2 for a single vertex, 4 for a larger complete
    graph, 6 otherwise.  The witness builds over the two-isolated-vertex
    periphery, and its added-vertex count is re-checked against the value."""
    p2 = Graph.empty(2, labels=["u", "v"])
    cover = Covering(p2, (frozenset((0,)), frozenset((1,))))
    if c.n == 1:
        value, scaffold, case = 2, build_cone(p2), "single vertex: cone"
    elif c.is_complete:
        value, scaffold, case = 4, build_scaffold(c, p2, cover, 1, drop=(1,)), \
            "complete: depth-1 scaffold minus apex"
    else:
        value, scaffold, case = 6, build_scaffold(c, p2, cover, 2, drop=(1, 2)), \
            "non-complete: depth-2 scaffold minus apex chain"
    rep = verify_construction(scaffold, c, p2)
    if not rep.ok or scaffold.graph.n - c.n != value:
        raise InternalCheckError("center-only witness failed verification")
    return AppendageResult(value, f"center-only, {case}",
                           {"appended": scaffold.graph.n - c.n}, scaffold)


def appendage_periphery_only(p: Graph) -> AppendageResult:
    """Fewest vertices to append to p alone so it becomes the centered
    periphery of a uniform central graph: one cone apex, unless the
    radius is at most 1, which is impossible."""
    if metric_profile(p).radius <= 1:
        return AppendageResult(INF, "periphery-only, infeasible: radius <= 1",
                               {}, None)
    cone = _verified(build_cone(p), Graph(1), p, 0)
    return AppendageResult(1, "periphery-only, cone", {"appended": 1}, cone)


# --------------------------------------------------------------------------
# independent brute-force oracle

def brute_force_appendage(c: Graph, p: Graph, t_max: int,
                          bound: int = DEFAULT_ORACLE_BOUND) -> int | None:
    """Smallest t <= t_max admitting a host graph, by exhaustive search.

    For each t the free edge slots are all pairs except those inside c
    and inside p, whose edges are fixed; the nominal count is
    f(t) = |C||P| + t(|C|+|P|) + t(t-1)/2 and every tried t must satisfy
    f(t) <= bound.  Two sound reductions: edge sets differing only by a
    permutation of the added vertices are enumerated once, and for t >= 1
    no center-periphery edge can occur (such an edge would force the
    common center eccentricity to 1, putting the added vertices into the
    eccentric set of every central vertex, which the periphery must
    equal).  Acceptance recomputes eccentricities from scratch: every
    c-vertex must see exactly the p-vertices as its eccentric set, and
    every other vertex must be strictly more eccentric.

    Returns the minimal accepting t, or None if all t <= t_max fail.
    """
    nc, np_ = c.n, p.n
    for t in range(t_max + 1):
        f = nc * np_ + t * (nc + np_) + t * (t - 1) // 2
        if f > bound:
            raise BoundExceededError(
                f"oracle needs f({t})={f} free edges, bound is {bound}")
    for t in range(t_max + 1):
        if _oracle_try_t(c, p, t):
            return t
    return None


def _oracle_try_t(c: Graph, p: Graph, t: int) -> bool:
    nc, np_ = c.n, p.n
    n = nc + np_ + t
    full = (1 << n) - 1
    p_mask = ((1 << np_) - 1) << nc
    base = list(c.adj_masks) + [m << nc for m in p.adj_masks] + [0] * t

    if t == 0:
        pairs = [(u, v + nc) for u in range(nc) for v in range(np_)]
    else:
        w = range(nc + np_, n)
        pairs = [(u, x) for u in range(nc) for x in w]
        pairs += [(v, x) for v in range(nc, nc + np_) for x in w]
        pairs += [(x, y) for x in w for y in w if x < y]

    perm_maps = []
    if t >= 2:
        index = {pq: i for i, pq in enumerate(pairs)}
        ids = list(range(nc + np_, n))
        for perm in permutations(ids):
            if perm == tuple(ids):
                continue
            sigma = dict(zip(ids, perm))
            perm_maps.append([index[tuple(sorted((sigma.get(u, u), sigma.get(v, v))))]
                              for u, v in pairs])

    nf = len(pairs)
    rows = base[:]
    for mask in range(1 << nf):
        skip = False
        for pm in perm_maps:
            other = 0
            m = mask
            while m:
                low = m & -m
                other |= 1 << pm[low.bit_length() - 1]
                m ^= low
            if other < mask:
                skip = True
                break
        if skip:
            continue
        rows[:] = base
        m = mask
        while m:
            low = m & -m
            u, v = pairs[low.bit_length() - 1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m ^= low
        if _accepts(rows, nc, n, full, p_mask):
            return True
    return False


def _accepts(rows: list[int], nc: int, n: int, full: int, p_mask: int) -> bool:
    r_star = -1
    for src in range(nc):
        layers, seen = bfs_layers(rows, 1 << src)
        if seen != full or layers[-1] != p_mask:
            return False
        if r_star < 0:
            r_star = len(layers) - 1
        elif len(layers) - 1 != r_star:
            return False
    return all(len(bfs_layers(rows, 1 << src)[0]) - 1 > r_star for src in range(nc, n))
