"""Coverings of a graph and the distance conditions on them.

A covering is a family of nonempty vertex sets whose union is the whole
vertex set; blocks may overlap.  Six conditions (A, B, A', B', A'', B'')
constrain how blocks sit inside the host metric.  Each condition is
written once, as a generator of its violations over block masks: the
``check_*`` reporters list every violation with its failed sub-clauses,
while ``covering_passes`` and the decision search stop at the first one.
The package decides, at desk scale, the minimum covering sizes under
several condition sets:

* ``cov_A`` is solved exactly for any size via a reduction to set cover
  by complements of closed neighborhoods.
* The compound condition sets couple blocks to each other, so they are
  decided by a bounded exhaustive search over block-membership patterns
  (``decide_cover_k``), run in lexicographic order so the first witness
  found is the lexicographically first one.  The search checks each
  clause on the partial assignment wherever its violation is monotone
  (no later vertex can repair it), so a pruned subtree holds no witness
  and the order is kept.
* Diameter and radius facts settle many size-2 cases outright; they form
  one table, ``TWO_BLOCK_FACTS``, read by ``cov_profile`` and by the
  appendage engine.

All distances are taken in the host graph; infinity satisfies every
threshold, and the distance from an empty set is infinite.  Clauses that
demand a witness *inside* a set are false for the empty set.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import BoundExceededError, InternalCheckError, PreconditionError
from .graphs import INF, Graph, MetricProfile, bfs_layers, bits, mask_of, metric_profile

CONDITIONS = ("A", "B", "A'", "B'", "A''", "B''")

#: Largest vertex count accepted by ``decide_cover_k`` per block count.
DEFAULT_DECIDE_BOUNDS = {2: 14, 3: 10}
_FALLBACK_DECIDE_BOUND = 10


@dataclass(frozen=True)
class Covering:
    """Blocks P_1..P_k over a host graph; union is V, blocks nonempty."""

    host: Graph
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("covering needs at least one block")
        union = 0
        for blk in self.blocks:
            if not blk:
                raise ValueError("covering blocks must be nonempty")
            m = mask_of(blk)
            if m & ~self.host.full_mask:
                raise ValueError("block contains out-of-range vertices")
            union |= m
        if union != self.host.full_mask:
            raise ValueError("covering blocks must cover every vertex")

    @property
    def k(self) -> int:
        return len(self.blocks)

    def block_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(b) for b in self.blocks)

    def to_json(self) -> dict:
        return {"blocks": [sorted(b) for b in self.blocks]}


@dataclass(frozen=True)
class RefinedCovering:
    """A covering plus a split Q_0 | Q_1 of its block ``iota``.

    Q_0 must be nonempty; Q_1 may be empty; the two may overlap.
    """

    base: Covering
    iota: int
    q0: frozenset[int]
    q1: frozenset[int]

    def __post_init__(self):
        if not 0 <= self.iota < self.base.k:
            raise ValueError("iota out of range")
        if not self.q0:
            raise ValueError("q0 must be nonempty")
        if self.q0 | self.q1 != self.base.blocks[self.iota]:
            raise ValueError("q0 and q1 must union to the refined block")

    def to_json(self) -> dict:
        d = self.base.to_json()
        d.update({"iota": self.iota, "q0": sorted(self.q0), "q1": sorted(self.q1)})
        return d


def covering_from_json(host: Graph, data: dict) -> Covering | RefinedCovering:
    cov = Covering(host, tuple(frozenset(b) for b in data["blocks"]))
    if data.get("iota") is None:
        return cov
    return RefinedCovering(cov, int(data["iota"]),
                           frozenset(data.get("q0") or ()),
                           frozenset(data.get("q1") or ()))


def singleton_covering(host: Graph) -> Covering:
    return Covering(host, tuple(frozenset((v,)) for v in range(host.n)))


def trivial_refinement(base: Covering) -> RefinedCovering:
    """Block 0 of ``base`` split as Q0 = the whole block, Q1 = {}."""
    return RefinedCovering(base, 0, base.blocks[0], frozenset())


def singleton_witness(p: Graph, key: str) -> Covering | RefinedCovering:
    """The kappa = n witness for profile key ``key``: the singleton
    covering, trivially refined for the refined key.  Singletons satisfy
    every condition set when the radius is >= 2 (A''/B'' through the
    trivial split), and nothing smaller than kappa satisfies a set
    containing A."""
    base = singleton_covering(p)
    return trivial_refinement(base) if key == "AA''B''" else base


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition check; violations name exact sub-clauses."""

    condition: str
    passed: bool
    violations: tuple[tuple[str, str], ...] = ()


class _Infeasible:
    __slots__ = ()

    def __repr__(self):
        return "INFEASIBLE"


#: No covering of the requested kind exists (at the requested size, for
#: the bounded deciders; at any size, for ``cov_A``).
INFEASIBLE = _Infeasible()


@dataclass(frozen=True)
class Unknown:
    """Value not settled within enumeration bounds; carries what is known."""

    lo: int
    hi: int | None
    bound: int

    def __repr__(self):
        return f"UNKNOWN(lo={self.lo}, hi={self.hi}, bound={self.bound})"


@dataclass(frozen=True)
class CovSizeResult:
    """A minimum-covering-size answer with provenance and witness."""

    which: str
    value: object  # int | INFEASIBLE | Unknown
    witness: Covering | RefinedCovering | None
    method: str

    @property
    def found(self) -> bool:
        return isinstance(self.value, int)

    def to_json(self) -> dict:
        if isinstance(self.value, int):
            val: object = self.value
        elif isinstance(self.value, Unknown):
            val = {"unknown": True, "lo": self.value.lo, "hi": self.value.hi,
                   "bound": self.value.bound}
        else:
            val = "infeasible"
        return {
            "which": self.which,
            "value": val,
            "method": self.method,
            "witness": self.witness.to_json() if self.witness is not None else None,
        }


# --------------------------------------------------------------------------
# set-mask helpers

def _union_ball(per_vertex: Sequence[int], set_mask: int) -> int:
    out = 0
    m = set_mask
    while m:
        low = m & -m
        out |= per_vertex[low.bit_length() - 1]
        m ^= low
    return out


def _geometry(g: Graph):
    return (g.full_mask, g.closed_masks, g.ball_masks(2), g.far_masks(3), g.far_masks(4))


# --------------------------------------------------------------------------
# the conditions, one violation generator each
#
# Each generator walks its subjects (blocks, block vertices, split sides)
# in a fixed order and lazily yields (subject, tags) for each subject on
# which every alternative of the condition fails, tags naming those
# failed sub-clauses.  The reports list every violation; the decision
# search only asks for the first one.

def _violations_A(g: Graph, bm: Sequence[int]):
    """A: every block has an outside vertex at distance >= 2."""
    full, closed = g.full_mask, g.closed_masks
    for i, m in enumerate(bm):
        if _union_ball(closed, m) == full:
            yield f"block {i}", ("A",)


def _violations_B(g: Graph, bm: Sequence[int]):
    """B: each vertex of each block has an outside vertex at distance >= 3
    (B-1) or a sibling block entirely at distance >= 2 (B-2)."""
    closed, far3 = g.closed_masks, g.far_masks(3)
    for i, m in enumerate(bm):
        for p in bits(m):
            if far3[p] & ~m:
                continue
            if any(j != i and not (bm[j] & closed[p]) for j in range(len(bm))):
                continue
            yield f"vertex {p} in block {i}", ("B-1", "B-2")


def _violations_Aprime(g: Graph, bm: Sequence[int]):
    """A': every block has an outside vertex at distance >= 3 (A'-1) or a
    sibling block entirely at distance >= 2 (A'-2)."""
    full, closed, ball2 = g.full_mask, g.closed_masks, g.ball_masks(2)
    for i, m in enumerate(bm):
        if _union_ball(ball2, m) != full:
            continue
        nb1 = _union_ball(closed, m)
        if any(j != i and not (bm[j] & nb1) for j in range(len(bm))):
            continue
        yield f"block {i}", ("A'-1", "A'-2")


def _violations_Bprime(g: Graph, bm: Sequence[int]):
    """B': every vertex of every block has a sibling block entirely at
    distance >= 2."""
    closed = g.closed_masks
    for i, m in enumerate(bm):
        for p in bits(m):
            if not any(j != i and not (bm[j] & closed[p]) for j in range(len(bm))):
                yield f"vertex {p} in block {i}", ("B'",)


def _violations_Adp(g: Graph, bm: Sequence[int], iota: int, q0: int, q1: int):
    """A'' on the split Q0 | Q1 of block ``iota``."""
    full, closed, ball2 = g.full_mask, g.closed_masks, g.ball_masks(2)
    k = len(bm)
    for i in range(k):
        if i == iota:
            continue
        if full & ~_union_ball(ball2, bm[i]):                    # A''-1a
            continue
        nb1 = _union_ball(closed, bm[i])
        if any(j != iota and not (bm[j] & nb1) for j in range(k)):  # A''-1b
            continue
        if not (q0 & nb1) or not (q1 & nb1):                     # A''-1c
            continue
        yield f"block {i}", ("A''-1a", "A''-1b", "A''-1c")
    for l, ql in ((0, q0), (1, q1)):
        if full & ~bm[iota] & ~_union_ball(ball2, ql):           # A''-2a
            continue
        nbq = _union_ball(closed, ql)
        if any(j != iota and not (bm[j] & nbq) for j in range(k)):  # A''-2b
            continue
        yield f"Q{l}", ("A''-2a", "A''-2b")


def _violations_Bdp(g: Graph, bm: Sequence[int], iota: int, q0: int, q1: int):
    """B'' on the split Q0 | Q1 of block ``iota``."""
    closed, ball2, far4 = g.closed_masks, g.ball_masks(2), g.far_masks(4)
    k = len(bm)
    for i in range(k):
        if i == iota:
            continue
        for p in bits(bm[i]):
            if any(j != iota and not (bm[j] & closed[p]) for j in range(k)):  # B''-1a
                continue
            if not (q0 & closed[p]) and not (q1 & closed[p]):    # B''-1b
                continue
            if not (q0 & ball2[p]) or not (q1 & ball2[p]):       # B''-1c
                continue
            if any(not (ql & closed[p]) and (ql & far4[p])       # B''-1d
                   for ql in (q0, q1)):
                continue
            yield (f"vertex {p} in block {i}",
                   ("B''-1a", "B''-1b", "B''-1c", "B''-1d"))
    for l, ql, qo in ((0, q0, q1), (1, q1, q0)):
        for p in bits(ql):
            if any(j != iota and not (bm[j] & closed[p]) for j in range(k)):  # B''-2a
                continue
            if (far4[p] & bm[iota] & ~ql) and not (qo & closed[p]):  # B''-2b
                continue
            yield f"vertex {p} in Q{l}", ("B''-2a", "B''-2b")


_VIOLATIONS = {"A": _violations_A, "B": _violations_B,
               "A'": _violations_Aprime, "B'": _violations_Bprime}


def _report(condition: str, violations) -> ConditionReport:
    bad = tuple((subject, tag) for subject, tags in violations for tag in tags)
    return ConditionReport(condition, not bad, bad)


def _holds(violations) -> bool:
    return next(violations, None) is None


# --------------------------------------------------------------------------
# public condition checkers with violation reports

def check_A(c: Covering) -> ConditionReport:
    """Condition A: every block has an outside vertex at distance >= 2."""
    return _report("A", _violations_A(c.host, c.block_masks()))


def check_B(c: Covering) -> ConditionReport:
    """Condition B: each vertex of each block escapes, either via some
    vertex outside the block at distance >= 3 (B-1) or via a sibling
    block entirely at distance >= 2 (B-2)."""
    return _report("B", _violations_B(c.host, c.block_masks()))


def check_Aprime(c: Covering) -> ConditionReport:
    """Condition A': every block has an outside vertex at distance >= 3
    (A'-1) or a sibling block entirely at distance >= 2 (A'-2)."""
    return _report("A'", _violations_Aprime(c.host, c.block_masks()))


def check_Bprime(c: Covering) -> ConditionReport:
    """Condition B': every vertex of every block has a sibling block
    entirely at distance >= 2."""
    return _report("B'", _violations_Bprime(c.host, c.block_masks()))


def check_AdpBdp(rc: RefinedCovering) -> tuple[ConditionReport, ConditionReport]:
    """Conditions A'' and B'' on a refined covering, clause by clause.

    Distances from an empty Q_1 are infinite, so threshold clauses about
    it hold vacuously; clauses demanding a witness inside Q_1 fail.
    """
    args = (rc.base.host, rc.base.block_masks(), rc.iota,
            mask_of(rc.q0), mask_of(rc.q1))
    return (_report("A''", _violations_Adp(*args)),
            _report("B''", _violations_Bdp(*args)))


def covering_passes(c: Covering | RefinedCovering, conds: Iterable[str]) -> bool:
    """Re-verify a covering (or refined covering) against named conditions."""
    conds = set(conds)
    refined = isinstance(c, RefinedCovering)
    base = c.base if refined else c
    g, bm = base.host, base.block_masks()
    checks = [_VIOLATIONS[tag](g, bm) for tag in sorted(conds & _VIOLATIONS.keys())]
    if conds & {"A''", "B''"}:
        if not refined:
            return False
        split = (c.iota, mask_of(c.q0), mask_of(c.q1))
        if "A''" in conds:
            checks.append(_violations_Adp(g, bm, *split))
        if "B''" in conds:
            checks.append(_violations_Bdp(g, bm, *split))
    return all(map(_holds, checks))


# --------------------------------------------------------------------------
# cov_A: exact minimum via set cover over closed-neighborhood complements

def cov_A(p: Graph) -> CovSizeResult:
    """Smallest covering satisfying condition A, exactly, any size.

    Every condition-A block avoids the closed neighborhood of its witness
    vertex, and every closed-neighborhood complement is itself a valid
    block; so the minimum equals a minimum set cover by the (nonempty)
    complements V \\ N[q].  Infeasible exactly when the radius is <= 1.
    """
    if metric_profile(p).radius <= 1:
        return CovSizeResult("A", INFEASIBLE, None, "set-cover")
    full = p.full_mask
    cands = sorted({full & ~c for c in p.closed_masks})
    cands = [m for m in cands
             if not any(o != m and m & ~o == 0 for o in cands)]
    best = _min_set_cover(cands, full)
    blocks = tuple(frozenset(bits(m)) for m in sorted(best, key=lambda m: min(bits(m))))
    witness = Covering(p, blocks)
    if not check_A(witness).passed:
        raise InternalCheckError("set-cover witness failed condition A re-check")
    return CovSizeResult("A", len(best), witness, "set-cover")


def _min_set_cover(cands: list[int], universe: int) -> list[int]:
    """Exact minimum set cover by branch and bound (inputs are tiny)."""
    # greedy upper bound
    greedy: list[int] = []
    left = universe
    while left:
        pick = max(cands, key=lambda m: (m & left).bit_count())
        greedy.append(pick)
        left &= ~pick
    best: list[list[int]] = [greedy]

    cover_count = {v: sum(1 for m in cands if m >> v & 1) for v in bits(universe)}
    max_size = max(m.bit_count() for m in cands)

    def rec(left: int, chosen: list[int]):
        if not left:
            if len(chosen) < len(best[0]):
                best[0] = list(chosen)
            return
        lower = len(chosen) + -(-left.bit_count() // max_size)
        if lower >= len(best[0]):
            return
        v = min(bits(left), key=lambda u: (cover_count[u], u))
        options = sorted((m for m in cands if m >> v & 1),
                         key=lambda m: (-(m & left).bit_count(), m))
        for m in options:
            chosen.append(m)
            rec(left & ~m, chosen)
            chosen.pop()

    rec(universe, [])
    return best[0]


# --------------------------------------------------------------------------
# decide_cover_k: bounded exhaustive decision for the compound conditions

def _decide_bound(k: int) -> int:
    env = os.environ.get("UCG_BOUND")
    if env:
        return int(env)
    return DEFAULT_DECIDE_BOUNDS.get(k, _FALLBACK_DECIDE_BOUND)


def conds_tag(conds: Iterable[str]) -> str:
    order = {t: i for i, t in enumerate(CONDITIONS)}
    return ",".join(sorted(set(conds), key=order.__getitem__))


def iter_covering_witnesses(p: Graph, k: int, conds: Iterable[str],
                            refine: bool = False, bound: int | None = None):
    """Lazily yield every size-k covering of ``p`` meeting ``conds``, in
    lexicographic order of the per-vertex block-membership patterns (and,
    under ``refine``, of the (Q_0, Q_1) split patterns of block 0)."""
    conds = frozenset(conds)
    unknown = conds - set(CONDITIONS)
    if unknown:
        raise ValueError(f"unknown conditions: {sorted(unknown)}")
    if (conds & {"A''", "B''"}) and not refine:
        raise ValueError("conditions A''/B'' require refine=True")
    if refine and not (conds & {"A''", "B''"}):
        raise ValueError("refine=True without A''/B'' conditions")
    if k < 1:
        raise ValueError("k must be at least 1")
    if bound is None:
        bound = _decide_bound(k)
    if p.n > bound:
        raise BoundExceededError(
            f"decide_cover_k: n={p.n} exceeds bound {bound} for k={k}")

    for bm, split in _decide_dfs(p, k, conds, refine):
        cov = Covering(p, tuple(frozenset(bits(m)) for m in bm))
        witness: Covering | RefinedCovering = cov
        if refine:
            q0m, q1m = split
            witness = RefinedCovering(cov, 0, frozenset(bits(q0m)),
                                      frozenset(bits(q1m)))
        if not covering_passes(witness, conds):
            raise InternalCheckError("decide witness failed public re-check")
        yield witness


def decide_cover_k(p: Graph, k: int, conds: Iterable[str], refine: bool = False,
                   bound: int | None = None) -> CovSizeResult:
    """Is there a size-k covering of ``p`` meeting all of ``conds``?

    Enumerates per-vertex block-membership patterns (3^n ordered pairs
    with union V for k=2, 7^n for k=3, and so on) depth-first in
    lexicographic order, so the returned witness is the lexicographically
    first one regardless of any internal work partitioning.  With
    ``refine`` the first block additionally gets every (Q_0, Q_1) split
    searched for the A''/B'' clauses.

    Blocks only grow as vertices are placed, so each prune below fires on
    a violation that every completion keeps; a pruned subtree therefore
    holds no witness and lexicographic order is preserved.  The leaf
    checks still run on everything that survives.  Before vertex v is
    placed, each such violation it could cause is written as the set of
    blocks v would have to join to cause it, and every pattern holding
    one of those sets is skipped.

    * A (or A', which implies A): a block whose closed neighborhood N[P_i]
      is V has no outside vertex at distance >= 2.
    * A': a block whose 2-ball is V and whose N[P_i] meets every sibling;
      both only grow.
    * B': a placed vertex u whose N[u] meets every block (one of them
      holds u) has no sibling at distance >= 2.  B: that, and one of u's
      blocks holds every vertex at distance >= 3 from u.  Placing v can
      only change these for u in N[v] or at distance >= 3 from v, so only
      those are rechecked.

    The split of the first block is a second depth-first search, in the
    same pattern order the plain enumeration had.  Clauses that do not
    depend on the split (A''-1a/1b, B''-1a/1b, B''-2a) are settled once
    per covering; Q_0 and Q_1 only grow, so these cut the split search:

    * A''-1c: a sibling failing A''-1a/1b whose N[P_i] already meets both
      sides.
    * A''-2: a side whose 2-ball already covers V \\ P_0 and whose
      N[Q_l] already meets every sibling; both only grow.
    * B''-1: a sibling vertex p failing B''-1a/1b whose N[p] already
      meets both sides, so B''-1c and B''-1d both fail.
    * B''-2b: a vertex p of Q_l failing B''-2a, with every vertex of P_0
      at distance >= 4 from p already in Q_l, or N[p] already meeting
      the other side.
    """
    conds = frozenset(conds)
    witness = next(iter_covering_witnesses(p, k, conds, refine=refine,
                                           bound=bound), None)
    tag = conds_tag(conds)
    if witness is None:
        return CovSizeResult(tag, INFEASIBLE, None, "exhausted")
    return CovSizeResult(tag, k, witness, "decide-k")


def _decide_dfs(host: Graph, k: int, conds: frozenset, refine: bool):
    n = host.n
    full, closed, ball2, far3, _ = _geometry(host)
    need_a = bool(conds & {"A", "A'"})
    need_ap = "A'" in conds
    need_bp = "B'" in conds
    need_b = "B" in conds and not need_bp
    members = [tuple(i for i in range(k) if pat >> i & 1) for pat in range(1 << k)]
    # supersets[r]: the patterns holding every block of r, as a bit set
    supersets = [mask_of(pat for pat in range(1 << k) if pat & r == r)
                 for r in range(1 << k)]
    nonempty = (1 << (1 << k)) - 2

    def missing(bl: tuple[int, ...], m: int) -> int:
        out = 0
        for i, b in enumerate(bl):
            if not b & m:
                out |= 1 << i
        return out

    def cuts(v: int, bl: tuple[int, ...], nb1: tuple[int, ...],
             nb2: tuple[int, ...]) -> list[int]:
        # block sets R such that placing v in every block of R (and maybe
        # others) violates a clause for good; the state before v violates
        # none, so a clause v cannot touch needs no rule
        vb, cv, bv = 1 << v, closed[v], ball2[v]
        out = []
        if need_a:      # N[P_i] becomes V
            out += [1 << i for i in range(k) if nb1[i] | cv == full]
        if need_ap:     # the 2-ball of P_i is V and N[P_i] meets every block
            for i in range(k):
                if nb2[i] | bv == full:
                    out.append(missing(bl, nb1[i] | cv) | 1 << i)
                if nb2[i] == full and nb1[i] & vb:
                    out.append(missing(bl, nb1[i]))
        # B' fails at u once N[u] meets every block; B fails once, besides,
        # a block of u holds far3[u] (so a B' rule covers B).  Placing v
        # changes these only for u in N[v], or for B in far3[v] too.
        placed = (vb << 1) - 1
        if need_bp:
            out += [missing(bl, closed[u]) for u in bits(placed & cv)]
        elif need_b:
            for u in bits(placed & (cv | far3[v])):
                m, fu = missing(bl, closed[u]), far3[u]
                if u == v:
                    out += [m | 1 << i for i in range(k) if not fu & ~bl[i]]
                elif cv >> u & 1:
                    if any(b >> u & 1 and not fu & ~b for b in bl):
                        out.append(m)
                elif not m:
                    out += [1 << i for i in range(k)
                            if bl[i] >> u & 1 and fu & ~bl[i] == vb]
        return out

    plain = [_VIOLATIONS[c] for c in ("A", "A'", "B", "B'") if c in conds]

    def leaf(bm: tuple[int, ...]):
        if not all(_holds(violations(host, bm)) for violations in plain):
            return
        if not refine:
            yield bm, None
            return
        for split in _split_dfs(host, bm, conds):
            yield bm, split

    def rec(v: int, bl: tuple[int, ...], nb1: tuple[int, ...], nb2: tuple[int, ...]):
        if v == n:
            # blocks may overlap, so one vertex left can still fill every
            # empty block: emptiness is only decided here
            if all(bl):
                yield from leaf(bl)
            return
        vb, cv, bv = 1 << v, closed[v], ball2[v]
        dead = 0
        for r in cuts(v, bl, nb1, nb2):
            dead |= supersets[r]
        for pat in bits(nonempty & ~dead):
            cb, c1, c2 = list(bl), list(nb1), list(nb2)
            for i in members[pat]:
                cb[i] |= vb
                c1[i] |= cv
                c2[i] |= bv
            yield from rec(v + 1, tuple(cb), tuple(c1), tuple(c2))

    empty = (0,) * k
    return rec(0, empty, empty, empty)


def _split_dfs(g: Graph, bm: tuple[int, ...], conds: frozenset):
    """The (Q0, Q1) splits of block 0 that pass the A''/B'' of ``conds``.

    Q0 | Q1 is block 0 and its lowest vertex is pinned into Q0.  Vertices
    are assigned in index order, each Q0-only, Q1-only or both (the lowest
    vertex skips Q1-only), so the splits come in lexicographic order of
    that pattern vector.  A subtree is cut as soon as a clause fails in a
    way no later vertex can repair; the splits reached are checked in full.
    """
    full, closed, ball2, _, far4 = _geometry(g)
    p0, rest = bm[0], bm[1:]
    vs = list(bits(p0))
    need_a, need_b = "A''" in conds, "B''" in conds
    outside = full & ~p0
    # masks at most one side may meet: N[P_i] of a sibling failing A''-1a
    # and A''-1b (A''-1c is left), and N[p] of a sibling vertex failing
    # B''-1a and B''-1b (B''-1c and B''-1d both fail once Q0 and Q1 meet it)
    one_side: list[int] = []
    # vertices of block 0 failing B''-2a, which need B''-2b in their side
    need_2b = 0
    if need_a:
        for m in rest:
            nb = _union_ball(closed, m)
            if _union_ball(ball2, m) == full and all(j & nb for j in rest):
                one_side.append(nb)
    if need_b:
        sib = 0
        for m in rest:
            sib |= m
        for p in bits(sib):
            if p0 & closed[p] and all(j & closed[p] for j in rest):
                one_side.append(closed[p])
        for p in vs:
            if all(j & closed[p] for j in rest):
                need_2b |= 1 << p

    def side_bad(b2: int, c1: int) -> bool:
        # A''-2a and A''-2b both fail for a side with these 2- and 1-balls
        return not (outside & ~b2) and all(j & c1 for j in rest)

    def lost_2b(p: int, q0: int, q1: int) -> bool:
        # B''-2b fails for p in a side that holds far4[p] & P_0 or whose
        # other side meets N[p]
        fp, cp = far4[p] & p0, closed[p]
        return bool((q0 >> p & 1 and (not fp & ~q0 or q1 & cp))
                    or (q1 >> p & 1 and (not fp & ~q1 or q0 & cp)))

    def rec(t: int, q0: int, q1: int, b0: int, b1: int, c0: int, c1: int):
        if t == len(vs):
            if need_a and not _holds(_violations_Adp(g, bm, 0, q0, q1)):
                return
            if need_b and not _holds(_violations_Bdp(g, bm, 0, q0, q1)):
                return
            yield q0, q1
            return
        x = vs[t]
        xb = 1 << x
        cx, bx = closed[x], ball2[x]
        touched = need_2b & ((xb << 1) - 1) & (cx | far4[x])
        for pat in (1, 3) if t == 0 else (1, 2, 3):
            r0, r1, s0, s1, d0, d1 = q0, q1, b0, b1, c0, c1
            if pat & 1:
                r0, s0, d0 = r0 | xb, s0 | bx, d0 | cx
                if need_a and side_bad(s0, d0):
                    continue
            if pat & 2:
                r1, s1, d1 = r1 | xb, s1 | bx, d1 | cx
                if need_a and side_bad(s1, d1):
                    continue
            if any(r0 & m and r1 & m for m in one_side):
                continue
            if any(lost_2b(p, r0, r1) for p in bits(touched)):
                continue
            yield from rec(t + 1, r0, r1, s0, s1, d0, d1)

    return rec(0, 0, 0, 0, 0, 0, 0)


# --------------------------------------------------------------------------
# structural shortcuts

def two_ball_triple_check(p: Graph) -> tuple[bool, tuple[int, int, int] | None]:
    """Does some vertex triple have empty common closed 2-neighborhood
    intersection?  Returns the first such triple in lexicographic order."""
    ball2 = p.ball_masks(2)
    n = p.n
    if n < 3:
        return False, None
    for x1 in range(n):
        b1 = ball2[x1]
        for x2 in range(x1 + 1, n):
            b12 = b1 & ball2[x2]
            if not b12:
                x3 = next(v for v in range(n) if v not in (x1, x2))
                return True, tuple(sorted((x1, x2, x3)))  # type: ignore[return-value]
            for x3 in range(x2 + 1, n):
                if not (b12 & ball2[x3]):
                    return True, (x1, x2, x3)
    return False, None


def construct_AB_bipartition(p: Graph) -> Covering:
    """Two-block covering meeting conditions A and B, built recursively.

    Requires diameter >= 4 and radius >= 3 (infinite values qualify).
    Start from the closed neighborhoods of a vertex pair at distance
    exactly 4 (falling back to a cross-component pair when no finite
    pair exists), then sweep the unassigned vertices in index order:

    1. a vertex with some assigned-to-block-2 vertex at distance >= 3
       joins block 1;
    2. else one with some block-1 vertex at distance >= 3 joins block 2;
    3. else it joins block 1 together with its smallest-index unassigned
       vertex at distance >= 3, which joins block 2.

    The result is re-checked against A and B; failure raises, it is never
    returned silently.
    """
    prof = metric_profile(p)
    if not (prof.diameter >= 4 and prof.radius >= 3):
        raise PreconditionError(
            f"need diameter >= 4 and radius >= 3, got diameter={prof.diameter},"
            f" radius={prof.radius}")
    dist = p.dist
    n = p.n
    pair = next(((u, v) for u in range(n) for v in range(u + 1, n)
                 if dist[u][v] == 4), None)
    if pair is None:
        pair = next((u, v) for u in range(n) for v in range(u + 1, n)
                    if dist[u][v] is INF)
    x, y = pair
    p1 = p.closed_masks[x]
    p2 = p.closed_masks[y]
    far3 = p.far_masks(3)
    for z in range(n):
        assigned = p1 | p2
        if assigned >> z & 1:
            continue
        if far3[z] & p2:
            p1 |= 1 << z
        elif far3[z] & p1:
            p2 |= 1 << z
        else:
            far = far3[z] & ~assigned
            p1 |= 1 << z
            p2 |= far & -far
    cov = Covering(p, (frozenset(bits(p1)), frozenset(bits(p2))))
    if not (check_A(cov).passed and check_B(cov).passed):
        raise InternalCheckError("recursive bipartition failed its A/B re-check")
    return cov


# --------------------------------------------------------------------------
# the covering-size profile

PROFILE_KEYS = ("A", "AB", "A'", "A'B'", "AA''B''")

#: The condition set of each profile key past "A".
PROFILE_CONDS = {
    "AB": frozenset(("A", "B")),
    "A'": frozenset(("A'",)),
    "A'B'": frozenset(("A'", "B'")),
    "AA''B''": frozenset(("A", "A''", "B''")),
}


def _component_split(p: Graph) -> Covering:
    comp = bfs_layers(p.adj_masks, 1)[1]
    return Covering(p, (frozenset(bits(comp)),
                        frozenset(bits(p.full_mask & ~comp))))


def _far_split(p: Graph) -> Covering:
    """Two blocks at diameter >= 5: the components when disconnected, else
    the 2-ball of the first vertex of eccentricity >= 5 and the rest."""
    if not p.is_connected:
        return _component_split(p)
    m = p.ball_masks(2)[next(u for u in range(p.n) if p.ecc[u] >= 5)]
    return Covering(p, (frozenset(bits(m)), frozenset(bits(p.full_mask & ~m))))


@dataclass(frozen=True)
class TwoBlockFact:
    """A diameter/radius fact settling whether a size-2 covering exists.

    ``build`` makes one when it exists; ``None`` means none exists.
    ``method`` names the fact in ``cov_profile`` results and ``reason``
    in the appendage engine's certificates.
    """

    holds: Callable[[Graph, MetricProfile], bool]
    build: Callable[[Graph], Covering | RefinedCovering] | None
    method: str
    reason: str


def _disconnected(p: Graph, prof: MetricProfile) -> bool:
    return not p.is_connected


#: Per profile key, the size-2 facts in the order they are tried.
TWO_BLOCK_FACTS = {
    "AB": (
        TwoBlockFact(lambda p, prof: prof.diameter >= 4 and prof.radius >= 3,
                     construct_AB_bipartition, "shortcut-bipartition", "diam>=4,r>=3"),
        TwoBlockFact(lambda p, prof: prof.radius == 2,
                     None, "shortcut-r2", "r=2"),
    ),
    "A'": (
        TwoBlockFact(lambda p, prof: prof.diameter >= 5,
                     _far_split, "shortcut-diam>=5", "diam>=5"),
        TwoBlockFact(lambda p, prof: prof.diameter < 5,
                     None, "shortcut-diam<5", "diam<5"),
    ),
    "A'B'": (
        TwoBlockFact(_disconnected,
                     _component_split, "shortcut-disconnected", "disconnected"),
        TwoBlockFact(lambda p, prof: p.is_connected,
                     None, "shortcut-connected", "connected"),
    ),
    "AA''B''": (
        TwoBlockFact(_disconnected,
                     lambda p: trivial_refinement(_component_split(p)),
                     "shortcut-disconnected", "disconnected"),
        TwoBlockFact(lambda p, prof: prof.radius == 2 or prof.diameter <= 3,
                     None, "shortcut-r2-or-diam<=3", "r=2 or diam<=3"),
        TwoBlockFact(lambda p, prof: (prof.diameter == 4
                                      and not two_ball_triple_check(p)[0]),
                     None, "shortcut-two-balls", "two-ball filter"),
    ),
}


def two_block_fact(p: Graph, prof: MetricProfile, key: str) -> TwoBlockFact | None:
    """The first fact of profile key ``key`` that holds for ``p``, whose
    metric profile is ``prof``; ``None`` when no fact settles size 2."""
    return next((f for f in TWO_BLOCK_FACTS[key] if f.holds(p, prof)), None)


def cov_profile(p: Graph, bound: int | None = None) -> dict[str, CovSizeResult]:
    """Minimum covering sizes for all condition sets, shortcuts first.

    Structural facts settle most cases: diameter >= 3 forces cov_A = 2;
    a recursive bipartition gives cov_AB = 2 whenever diameter >= 4 and
    radius >= 3, while radius 2 forbids it; cov_{A'B'} = 2 exactly for
    disconnected graphs; cov_{A'} = 2 exactly for diameter >= 5; and
    cov_{AA''B''} = 2 needs diameter >= 4, radius >= 3 and (at diameter
    exactly 4) a vertex triple with empty common 2-ball intersection.
    These are the rows of ``TWO_BLOCK_FACTS``.  Everything left over goes
    to the bounded decision procedure; what it cannot settle is reported
    UNKNOWN with the bound that stopped it.
    """
    res_a = cov_A(p)
    if not res_a.found:
        return {key: CovSizeResult(key, INFEASIBLE, None, "radius<=1")
                for key in PROFILE_KEYS}
    out = {"A": res_a}
    kappa = res_a.value
    prof = metric_profile(p)
    n = p.n

    def bound_at(k: int) -> int:
        return _decide_bound(k) if bound is None else bound

    def settle(key: str, lo: int, shortcut: str | None) -> CovSizeResult:
        conds = PROFILE_CONDS[key]
        lo = max(lo, kappa)
        if kappa == n:
            wit = singleton_witness(p, key)
            if covering_passes(wit, conds):
                return CovSizeResult(key, n, wit, "shortcut-singletons")
        ks = sorted({k for k in (2, 3) if k >= lo} | ({kappa} if kappa > 3 else set()))
        ks = [k for k in ks if k >= lo]
        method = shortcut or "decide-k"
        for k in ks:
            try:
                dec = decide_cover_k(p, k, conds, refine=key == "AA''B''", bound=bound)
            except BoundExceededError:
                return CovSizeResult(key, Unknown(lo, n, bound_at(k)), None,
                                     method if shortcut else f"bound@k={k}")
            if dec.found:
                return CovSizeResult(key, k, dec.witness,
                                     "decide-k" if shortcut is None else
                                     f"{shortcut}+decide-k")
            lo = k + 1
        return CovSizeResult(key, Unknown(lo, n, bound_at(max(ks, default=3))),
                             None, method)

    for key in PROFILE_KEYS[1:]:
        fact = two_block_fact(p, prof, key)
        if fact is None:
            out[key] = settle(key, 2, None)
        elif fact.build is None:
            out[key] = settle(key, 3, fact.method)
        else:
            wit = fact.build(p)
            if not covering_passes(wit, PROFILE_CONDS[key]):
                raise InternalCheckError(
                    f"{fact.method} witness failed its {key} re-check")
            out[key] = CovSizeResult(key, 2, wit, fact.method)
    return out
