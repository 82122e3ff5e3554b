"""Central-peripheral appendage numbers with certificates.

``appendage_number(c, p)`` computes the minimum count of extra vertices
needed to glue a graph together that is uniform central with center
inducing c and centered periphery inducing p.  The case analysis runs on
exact minimum-covering decisions over p:

* radius(p) <= 1: impossible, infinity.
* c a single vertex: 0, witnessed by the cone over p.
* c complete on n >= 2 vertices: the ladder kappa, kappa + 1 over
  kappa = cov_A(p); kappa when a size-kappa covering meeting A and B
  builds the depth-1 scaffold minus its apex, else kappa + 1.
* c non-complete: the ladder 2*kappa, 2*kappa + 1, 2*kappa + 2; 2*kappa
  when a size-kappa covering meeting A' and B' builds the depth-2
  scaffold minus its apex chain, else 2*kappa + 1 when one meeting A'
  builds it minus its apex tip or a refined one meeting A, A'' and B''
  builds the refined scaffold, else 2*kappa + 2.

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
from itertools import combinations_with_replacement

from .coverings import (PROFILE_CONDS, Unknown, cov_A, decide_bound,
                        iter_covering_witnesses, singleton_witness, two_block_fact)
from .errors import BoundExceededError, DomainError, InternalCheckError
from .graphs import INF, Graph, MetricProfile, json_number, metric_profile, subset_table
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
        return _Route(status, reason, scaffold)

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
        stream = iter_covering_witnesses(p, kappa, PROFILE_CONDS[key], bound)
    except BoundExceededError:
        return done("vertex-bound", f"bound exceeded at k={kappa}")
    tried = 0
    for tried, wit in enumerate(stream, 1):
        s = builder(wit)
        if _verifies(s, c, p, expect):
            return done("built", f"decide@k={kappa}", wit, s)
        if tried >= WITNESS_RETRY_CAP:
            return done("witness-cap", f"witness retry cap at k={kappa}")
    if not tried:
        return done("no-witness", f"exhausted@k={kappa}")
    return done("no-build", f"conditions met at k={kappa}, no construction verified")


def appendage_number(c: Graph, p: Graph, bound: int | None = None) -> AppendageResult:
    """A_ucg(c, p), with its certificates and a verified witness.

    Past the two shortcuts (radius(p) <= 1, a single-vertex center), the
    value sits on a short ladder over kappa = cov_A(p): kappa or kappa + 1
    for a complete center, 2*kappa, 2*kappa + 1 or 2*kappa + 2 otherwise.
    Each rung below the top names the routes that can realize its value,
    tried in order; a built route answers.  Once a rung's routes have all
    run, the first whose status does not rule the value out exactly leaves
    an ``Unknown`` from the rung's value to the top, and otherwise the walk
    moves up one rung.  The top value is realized by cov_A's witness on the
    full scaffold of the ladder's apex depth.
    """
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
    # rungs are (value, routes, case when left open), routes (profile key,
    # scaffold builder, statuses that rule the value out exactly)
    if c.is_complete:
        # "no-build" leaves kappa open: coverings meet A and B, yet no
        # construction checks out
        kind, rungs = "complete center", [
            (kappa, [("AB", lambda w: build_scaffold(c, p, w, 1, drop=(1,)),
                      ("no-witness",))], "cov_AB undecided ({reason})")]
        top, rho, top_case = kappa + 1, 1, "cov_AB>kappa ({reason})"
    else:
        # a graph realizing 2*kappa contains a buildable A'B' covering as a
        # spanning-subgraph certificate; one realizing 2*kappa+1 contains an
        # A' covering or, with a heavy second stratum, a buildable refined one
        kind, rungs = "general center", [
            (2 * kappa, [("A'B'", lambda w: build_scaffold(c, p, w, 2, drop=(1, 2)),
                          ("no-witness", "no-build"))], "cov_A'B' undecided ({reason})"),
            (2 * kappa + 1, [("A'", lambda w: build_scaffold(c, p, w, 2, drop=(2,)),
                              ("no-witness",)),
                             ("AA''B''", lambda w: build_refined_scaffold(c, p, w),
                              ("no-witness", "no-build"))], "2k+1 shapes undecided")]
        top, rho, top_case = (2 * kappa + 2, 2,
                              "no size-kappa covering meets A'+B', A', or A+A''+B''")

    for value, routes, open_case in rungs:
        stop = None
        for key, builder, exact in routes:
            r = _route(c, p, prof, kappa, bound, certs, key, builder, value)
            if r.status == "built":
                return AppendageResult(value, f"{kind}: cov_{key}=kappa ({r.reason})",
                                       certs, r.scaffold)
            if stop is None and r.status not in exact:
                stop = r
        if stop is not None:
            return AppendageResult(Unknown(value, top, bound, stop.status),
                                   f"{kind}: {open_case.format(reason=stop.reason)}",
                                   certs, None)
    # the top case quotes the reason of the last route run
    witness = _verified(build_scaffold(c, p, res_a.witness, rho), c, p, top)
    return AppendageResult(top, f"{kind}: {top_case.format(reason=r.reason)}",
                           certs, witness)


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
    f(t) <= bound.  Two sound reductions.  No center-periphery edge can
    occur for t >= 1, nor for t = 0 with |C| >= 2: such an edge would
    force the common center eccentricity to 1, putting the added vertices,
    or a second center vertex, into the eccentric set of every central
    vertex, which the periphery must equal; and with |C| >= 2 at t = 0 a
    host without one is disconnected.  So only t = 0 with |C| = 1 walks
    the center-periphery edge sets.  And the
    added vertices' attachment columns (each one's neighbors in c and p)
    are tried in sorted order only, under every added-added edge set:
    acceptance treats the added vertices alike, so permuting them to sort
    their columns maps every host to a tried one.  Each tried host is one
    packed integer (row u at bits [u*n, (u+1)*n)): the fixed edges plus
    one table entry per byte of the added-added (for t = 0 and |C| = 1,
    the center-periphery) edge mask and one per column.  Acceptance walks
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


def _oracle_hosts(nc: int, np_: int, t: int):
    """The free edges of each host the oracle tries, packed (row u at bits
    [u*n, (u+1)*n)).  For t = 0 every subset of the C-P pairs when
    |C| = 1, and for |C| >= 2 the one host with no free edge, as no C-P
    edge can occur (see ``brute_force_appendage``).  For t >= 1, for each
    added-added edge mask in increasing order, each non-decreasing tuple
    of attachment columns (added vertex x's neighbors in C and P, one
    table entry per column)."""
    m, n = nc + np_, nc + np_ + t
    added = range(m, n)

    def edge(u, v):
        return 1 << (u * n + v) | 1 << (v * n + u)

    if t:
        pairs = [(x, y) for x in added for y in added if x < y]
        parts = [subset_table([edge(b, x) for b in range(m)]) for x in added]
    else:
        pairs = [(0, v) for v in range(nc, m)] if nc == 1 else []
    # one table per byte of the edge mask: the edges are disjoint bit
    # sets, so a mask's edges are the sum of its bytes' entries
    edges = [edge(u, v) for u, v in pairs]
    tabs = [subset_table(edges[j:j + 8]) for j in range(0, len(edges), 8)]
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
