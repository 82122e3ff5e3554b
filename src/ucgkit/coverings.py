"""Coverings of a graph and the distance conditions on them.

A covering is a family of nonempty vertex sets whose union is the whole
vertex set; blocks may overlap.  Six conditions (A, B, A', B', A'', B'')
constrain how blocks sit inside the host metric.  Each condition is
written once, as a generator of its violations over block masks, and
the six share one table: ``check_condition`` reports every violation of
one condition with its failed sub-clauses, while ``covering_passes``
stops at the first one.  The decision search never runs them: its cuts
leave no violation standing but one case of B''-1, which the split
search's leaves check from three masks.
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
  and the order is kept; deciding, it skips every covering that is not
  the least of its block permutations.  Its state is packed, k blocks
  to an integer, so a search node costs a few whole-integer operations.
* Diameter and radius facts settle many size-2 cases outright; they form
  one table, ``TWO_BLOCK_FACTS``, read by ``cov_profile`` and by the
  appendage engine.

All distances are taken in the host graph; infinity satisfies every
threshold, and the distance from an empty set is infinite.  Clauses that
demand a witness *inside* a set are false for the empty set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Literal, Sequence

from .errors import BoundExceededError, InternalCheckError, PreconditionError
from .graphs import (Graph, MetricProfile, bits, check_vertices, json_value, mask_of,
                     metric_profile, subset_table)

CONDITIONS = ("A", "B", "A'", "B'", "A''", "B''")
#: The conditions read on the split of block 0; a set holding one is refined.
REFINED = frozenset(("A''", "B''"))


@dataclass(frozen=True)
class Covering:
    """Blocks P_1..P_k over a host graph; union is V, blocks nonempty."""

    host: Graph
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("covering needs at least one block")
        try:
            check_vertices(self.host, chain.from_iterable(self.blocks))
        except ValueError as exc:
            raise ValueError(f"block contains out-of-range vertices: {exc}") from None
        union = 0
        for blk in self.blocks:
            if not blk:
                raise ValueError("covering blocks must be nonempty")
            union |= mask_of(blk)
        if union != self.host.full_mask:
            raise ValueError("covering blocks must cover every vertex")

    @property
    def k(self) -> int:
        return len(self.blocks)

    def block_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(b) for b in self.blocks)

    def to_json(self) -> dict:
        return {"blocks": [sorted(map(int, b)) for b in self.blocks]}


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
        d.update({"iota": int(self.iota), "q0": sorted(map(int, self.q0)),
                  "q1": sorted(map(int, self.q1))})
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

    def to_json(self):
        return "infeasible"


#: No covering of the requested kind exists (at the requested size, for
#: the bounded deciders; at any size, for ``cov_A``).
INFEASIBLE = _Infeasible()


@dataclass(frozen=True)
class Unknown:
    """A value not settled: the exact value is one of lo..hi.

    ``bound`` is the decision vertex bound in force.  ``stop`` says what
    ended the search: ``"vertex-bound"`` when n was over that bound,
    ``"ladder"`` when every block count tried was exhausted below it;
    in the appendage engine ``"witness-cap"`` when the witness retry cap
    ran out, ``"no-build"`` when coverings met the conditions but none of
    their constructions verified.
    """

    lo: int
    hi: int
    bound: int
    stop: Literal["ladder", "vertex-bound", "witness-cap", "no-build"]

    def to_json(self) -> dict:
        return {"unknown": True, "lo": self.lo, "hi": self.hi,
                "bound": self.bound, "stop": self.stop}


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
        return {"which": self.which, "value": json_value(self.value),
                "method": self.method, "witness": json_value(self.witness)}


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
# Each generator takes the host, the block masks and the split: (iota,
# Q0 mask, Q1 mask) of a refined covering, None for a plain one, which
# only A'' and B'' read.  It walks its subjects (blocks, block vertices,
# split sides) in a fixed order and lazily yields (subject, tags) for
# each subject on which every alternative of the condition fails, tags
# naming those failed sub-clauses.  The reports list every violation;
# the re-checks only ask for the first one.

_Split = tuple[int, int, int] | None


def _violations_A(g: Graph, bm: Sequence[int], split: _Split):
    """A: every block has an outside vertex at distance >= 2."""
    full, closed = g.full_mask, g.closed_masks
    for i, m in enumerate(bm):
        if _union_ball(closed, m) == full:
            yield f"block {i}", ("A",)


def _violations_B(g: Graph, bm: Sequence[int], split: _Split):
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


def _violations_Aprime(g: Graph, bm: Sequence[int], split: _Split):
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


def _violations_Bprime(g: Graph, bm: Sequence[int], split: _Split):
    """B': every vertex of every block has a sibling block entirely at
    distance >= 2."""
    closed = g.closed_masks
    for i, m in enumerate(bm):
        for p in bits(m):
            if not any(j != i and not (bm[j] & closed[p]) for j in range(len(bm))):
                yield f"vertex {p} in block {i}", ("B'",)


def _violations_Adp(g: Graph, bm: Sequence[int], split: _Split):
    """A'' on the split Q0 | Q1 of block ``iota``."""
    iota, q0, q1 = split
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


def _violations_Bdp(g: Graph, bm: Sequence[int], split: _Split):
    """B'' on the split Q0 | Q1 of block ``iota``."""
    iota, q0, q1 = split
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


_VIOLATIONS = {"A": _violations_A, "B": _violations_B, "A'": _violations_Aprime,
               "B'": _violations_Bprime, "A''": _violations_Adp, "B''": _violations_Bdp}


def _condition_args(c: Covering | RefinedCovering):
    """The host, block masks and split of ``c``, as the generators take them."""
    if isinstance(c, RefinedCovering):
        return c.base.host, c.base.block_masks(), (c.iota, mask_of(c.q0), mask_of(c.q1))
    return c.host, c.block_masks(), None


def _condition_set(conds: Iterable[str]) -> frozenset[str]:
    if isinstance(conds, str):
        raise ValueError(f"conditions must be a collection of names, not {conds!r}")
    conds = frozenset(conds)
    unknown = conds - _VIOLATIONS.keys()
    if unknown:
        raise ValueError(f"unknown conditions: {sorted(unknown)}")
    return conds


# --------------------------------------------------------------------------
# the public checks: one report, or a pass/fail re-check

def check_condition(c: Covering | RefinedCovering, name: str) -> ConditionReport:
    """Condition ``name``, one of ``CONDITIONS``, on ``c``, listing every
    violation with its failed sub-clauses.

    A'' and B'' are read on the split of a ``RefinedCovering``; the other
    conditions on its base blocks.  Distances from an empty Q_1 are
    infinite, so threshold clauses about it hold vacuously; clauses
    demanding a witness inside Q_1 fail.
    """
    if name not in _VIOLATIONS:
        raise ValueError(f"unknown condition: {name!r}")
    g, bm, split = _condition_args(c)
    if split is None and name in REFINED:
        raise TypeError(f"condition {name} needs a RefinedCovering")
    bad = tuple((subject, tag) for subject, tags in _VIOLATIONS[name](g, bm, split)
                for tag in tags)
    return ConditionReport(name, not bad, bad)


def covering_passes(c: Covering | RefinedCovering, conds: Iterable[str]) -> bool:
    """Re-verify a covering (or refined covering) against named conditions,
    stopping at the first violation.  A plain covering fails A'' and B''."""
    conds = _condition_set(conds)
    g, bm, split = _condition_args(c)
    if split is None and conds & REFINED:
        return False
    return all(next(_VIOLATIONS[name](g, bm, split), None) is None
               for name in CONDITIONS if name in conds)


# --------------------------------------------------------------------------
# cov_A: exact minimum via set cover over closed-neighborhood complements

def cov_A(p: Graph) -> CovSizeResult:
    """Smallest covering satisfying condition A, exactly, any size.

    Every condition-A block avoids the closed neighborhood of its witness
    vertex, and every closed-neighborhood complement is itself a valid
    block; so the minimum equals a minimum set cover by the (nonempty)
    complements V \\ N[q].  Infeasible exactly when the radius is <= 1.
    The cover is computed once per graph: its checked blocks, or ``()``
    when infeasible, are kept in p's instance dict, and each call builds
    an equal result from them.  The result itself is not kept, as its
    witness refers back to p.
    """
    blocks = p.__dict__.get("_cov_A_blocks")
    if blocks is None:
        blocks = p.__dict__["_cov_A_blocks"] = _min_A_blocks(p)
    if not blocks:
        return CovSizeResult("A", INFEASIBLE, None, "set-cover")
    return CovSizeResult("A", len(blocks), Covering(p, blocks), "set-cover")


def _min_A_blocks(p: Graph) -> tuple[frozenset[int], ...]:
    """The blocks of ``cov_A``'s witness, in order of their least vertex,
    re-checked against condition A; ``()`` when the radius is <= 1."""
    if metric_profile(p).radius <= 1:
        return ()
    full = p.full_mask
    cands = sorted({full & ~c for c in p.closed_masks})
    # a strict superset is a larger number, so only later candidates dominate
    cands = [m for i, m in enumerate(cands)
             if not any(m & ~o == 0 for o in cands[i + 1:])]
    best = _min_set_cover(cands, full)
    blocks = tuple(frozenset(bits(m)) for m in sorted(best, key=lambda m: m & -m))
    if not covering_passes(Covering(p, blocks), ("A",)):
        raise InternalCheckError("set-cover witness failed condition A re-check")
    return blocks


def _min_set_cover(cands: list[int], universe: int) -> list[int]:
    """Exact minimum set cover by branch and bound (inputs are tiny)."""
    # greedy upper bound; meeting the root's lower bound, it is the answer
    greedy: list[int] = []
    left = universe
    while left:
        pick = max(cands, key=lambda m: (m & left).bit_count())
        greedy.append(pick)
        left &= ~pick
    max_size = max(m.bit_count() for m in cands)
    if len(greedy) <= -(-universe.bit_count() // max_size):
        return greedy
    best: list[list[int]] = [greedy]

    cover_count = {v: sum(1 for m in cands if m >> v & 1) for v in bits(universe)}

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

def decide_bound(k: int, bound: int | None = None) -> int:
    """The largest vertex count, and block count, a k-block decision
    accepts: ``bound`` when given, else 14 for k = 2 and 10 otherwise."""
    return bound if bound is not None else 14 if k == 2 else 10


def conds_tag(conds: Iterable[str]) -> str:
    order = {t: i for i, t in enumerate(CONDITIONS)}
    return ",".join(sorted(set(conds), key=order.__getitem__))


def iter_covering_witnesses(p: Graph, k: int, conds: Iterable[str],
                            bound: int | None = None):
    """Lazily yield the size-k coverings of ``p`` meeting ``conds``, one
    per block-permutation orbit: its lexicographically least covering
    (permuting blocks 1..k-1 for refined sets, whose block 0 carries the
    split).  They come in lexicographic order of the per-vertex
    block-membership patterns (and, for refined sets, of the (Q_0, Q_1)
    split patterns of block 0, each witness then a ``RefinedCovering``).
    See ``decide_cover_k``.

    The names, ``k`` and the bounds are checked when it is called, so a
    bad argument raises there, before the first witness is asked for."""
    conds = _condition_set(conds)
    if k < 1:
        raise ValueError("k must be at least 1")
    bound = decide_bound(k, bound)
    if p.n > bound:
        raise BoundExceededError(
            f"decide_cover_k: n={p.n} exceeds bound {bound} for k={k}")
    if k > bound:
        raise BoundExceededError(f"decide_cover_k: k={k} exceeds bound {bound}")
    return _witness_stream(p, k, conds)


def _witness_stream(p: Graph, k: int, conds: frozenset[str]):
    """The witnesses of ``iter_covering_witnesses``, re-checked publicly."""
    for bm, split in _decide_dfs(p, k, conds, True):
        cov = Covering(p, tuple(frozenset(bits(m)) for m in bm))
        witness: Covering | RefinedCovering = cov
        if split is not None:
            q0m, q1m = split
            witness = RefinedCovering(cov, 0, frozenset(bits(q0m)),
                                      frozenset(bits(q1m)))
        if not covering_passes(witness, conds):
            raise InternalCheckError("decide witness failed public re-check")
        yield witness


def decide_cover_k(p: Graph, k: int, conds: Iterable[str],
                   bound: int | None = None) -> CovSizeResult:
    """Is there a size-k covering of ``p`` meeting all of ``conds``?

    Enumerates per-vertex block-membership patterns (3^n ordered pairs
    with union V for k=2, 7^n for k=3, and so on) depth-first in
    lexicographic order, so the returned witness is the lexicographically
    first one regardless of any internal work partitioning.  When
    ``conds`` holds A'' or B'' (a refined set), the first block
    additionally gets every (Q_0, Q_1) split searched for their clauses.
    ``bound`` caps n and k; ``decide_bound`` gives the one in force.

    Blocks only grow as vertices are placed, so each prune below fires on
    a violation that every completion keeps; a pruned subtree therefore
    holds no witness and lexicographic order is preserved.  Before vertex
    v is placed, each such violation it could cause is written as the set
    of blocks v would have to join to cause it, and every pattern holding
    one of those sets is skipped.  The cuts are complete: the empty
    assignment violates nothing, and each violation of A, A', B or B' is
    cut when its last ingredient is placed, so every full assignment the
    block search reaches meets them, and its leaves check nothing.

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

    A'' and B''-2 are then complete, each violation cut when its last
    ingredient is placed.  An empty Q_1 needs no rule: with a sibling it
    meets A''-2b, and with none (k = 1) P_0 is V, so the first vertex
    placed in Q_0 is cut by A''-2.  What is left is B''-1 at a sibling
    vertex p whose N[p] meets one side only: it fails exactly when the
    other side meets the 2-ball of p and misses far4[p], which is not
    monotone, so a complete split checks that and nothing else.

    B''-2 also cuts the block search, through every split at once.  Each
    p of P_0 lies in some side Q_l; when N[p] meets every sibling
    (B''-2a fails), B''-2b needs a vertex of P_0 \\ Q_l at distance >= 4
    from p, so far4[p] & P_0 must be nonempty.  Both halves are
    permanent: siblings only grow, and far4[p] & P_0 stays empty once all
    of far4[p] is placed outside P_0.  The violation appears when its
    last ingredient does, so placing v cuts:

    * (a) v joining block 0 when all of far4[v] lies before v and outside
      P_0: the patterns holding block 0 and every sibling N[v] misses;
    * (b) a p of P_0 whose far4[p] ends at v, none of it in P_0, with
      N[p] already meeting every sibling (v is not in N[p]): the patterns
      without block 0;
    * (c) a p of P_0 with all of far4[p] before v and outside P_0, and v
      in N[p]: the patterns holding every sibling N[p] misses.

    The conditions treat blocks alike (for refined sets, every block but
    the split block 0), so each covering comes with all its block
    permutations.  Only the orbit leader, the lexicographically least
    permutation, is searched: when blocks i and i + 1 are equal over the
    vertices placed so far, v may not join block i + 1 without block i
    (i >= 0 unrefined, i >= 1 refined).  That holds exactly when
    the blocks, read as membership vectors from vertex 0 on, never
    increase with the index, which is the least order; blocks equal so
    far form contiguous runs, so adjacent pairs suffice.  The answer is
    unchanged: the first witness of the full stream is least in its
    orbit, so it is a leader.  The appendage engine also walks leaders
    only, since scaffolds built from permuted blocks are isomorphic with
    C and P fixed: the first covering whose construction verifies is
    still a leader, and a walked-out stream still means none verifies.

    The block search state is packed, broadword style (Knuth, TAOCP 4A,
    7.1.3): the blocks, their N[P_i] and their 2-balls are three integers
    of k fields of n + 1 bits, the top bit of each field a guard.  Placing
    v in a pattern is three ORs.  Which blocks miss a mask, which N[P_i]
    or 2-balls are all of V, and which adjacent blocks are equal are each
    read off one subtraction, which borrows through the guard of every
    empty field and of no other; the rules look their patterns up in
    tables keyed by the guard masks it leaves.
    """
    conds = _condition_set(conds)
    witness = next(iter_covering_witnesses(p, k, conds, bound), None)
    tag = conds_tag(conds)
    if witness is None:
        return CovSizeResult(tag, INFEASIBLE, None, "exhausted")
    return CovSizeResult(tag, k, witness, "decide-k")


class _Memo(dict):
    """A table whose entry for ``key`` is ``make(key)``, built on first read."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        val = self[key] = self.make(key)
        return val


@functools.lru_cache(maxsize=64)
def _packed_tables(n: int, k: int):
    """The (n, k) tables of ``_decide_dfs``'s packed state: k fields of
    w = n + 1 bits, block i in bits i*w .. i*w + n - 1 under a guard bit.
    ``rep[pat]`` holds bit 0 of each field of pattern pat, so m * rep[pat]
    puts mask m in each of them.  The rest are bit sets of block-membership
    patterns (bit i of a pattern: block i): ``nonempty``; ``no_block0``,
    those without block 0; and, keyed by guard masks naming block sets r
    and filled on first read, ``sup``, ``touch`` and ``swap``: those
    holding every block of r, some block of r, and block i + 1 but not
    block i for some i in r."""
    w = n + 1
    every = (1 << (1 << k)) - 1
    holding = [mask_of(pat for pat in range(1 << k) if pat >> i & 1) for i in range(k)]
    swapped = [holding[i + 1] & ~holding[i] for i in range(k - 1)]
    nonempty, no_block0 = every - 1, every & ~holding[0]
    rep = subset_table([1 << i * w for i in range(k)])

    def fold(op, table, start):
        return _Memo(lambda g: functools.reduce(
            op, (table[i] for i in range(k) if g >> i * w + n & 1), start))

    return (w, rep, fold(int.__and__, holding, nonempty | 1), fold(int.__or__, holding, 0),
            fold(int.__or__, swapped, 0), nonempty, no_block0)


def _decide_dfs(host: Graph, k: int, conds: frozenset, leaders: bool):
    n = host.n
    geo = _geometry(host)
    full, closed, ball2, far3, far4 = geo
    refine = bool(conds & REFINED)
    need_a = bool(conds & {"A", "A'"})
    need_ap = "A'" in conds
    need_bp = "B'" in conds
    need_b = "B" in conds and not need_bp
    # B''-2 through every split, rules (a)-(c) of decide_cover_k: last4[v]
    # holds the p whose far4[p] ends at v, settled4[v] those whose far4[p]
    # lies before v
    need_2 = refine and "B''" in conds
    last4, settled4 = [0] * n, [0] * n
    for p in range(n):
        if far4[p]:
            last4[far4[p].bit_length() - 1] |= 1 << p
    later = 0
    for v in reversed(range(n)):
        later |= last4[v]
        settled4[v] = full & ~later
    # The state is three integers of k fields (``_packed_tables``): B
    # holds the blocks P_i, N1 their closed neighborhoods N[P_i] and N2
    # their 2-balls.  G ^ ((x | G) - O) & G keeps the guards of the empty
    # fields of x, as a field borrows through its guard only when empty:
    # for x = B & O * m, the blocks missing m.  Rules name block sets by
    # such guard masks.
    w, rep, sup, touch, swap, nonempty, no_block0 = _packed_tables(n, k)
    O = rep[-1]
    G = O << n
    every = G | full * O        # every ^ y leaves the full fields of y empty
    c1, f3 = [O * m for m in closed], [O * m for m in far3]
    shifts = range(0, k * w, w)
    # orbit leaders: while blocks i and i + 1 (both past the split block
    # when refined) are equal, v may not join block i + 1 without block i;
    # (B ^ B >> w) has field i empty then
    sym = ((1 << k - 1) - 1) >> refine << refine if leaders else 0
    s_one = rep[sym]
    s_g = s_one << n
    # the placed u whose B or B' state placing v can change: N[v], and for
    # B far3[v] too
    reach = far3 if need_b else closed
    near = [list(bits(((2 << v) - 1) & (closed[v] | reach[v])))
            for v in range(n)] if need_b or need_bp else ()

    def rec(v: int, B: int, N1: int, N2: int):
        if v == n:
            # blocks may overlap, so one vertex left can still fill every
            # empty block: emptiness is only decided here; the cuts leave
            # no plain violation to check
            if G ^ ((B | G) - O) & G:
                return
            bm = tuple(B >> s & full for s in shifts)
            if not refine:
                yield bm, None
                return
            nb1, nb2 = (tuple(X >> s & full for s in shifts) for X in (N1, N2))
            for split in _split_dfs(host, bm, nb1, nb2, conds, geo):
                yield bm, split
            return
        # the patterns v may not take: for each clause that placing v in
        # every block of a set R (and maybe others) violates for good,
        # the supersets of R; the state before v violates none, so a
        # clause v cannot touch needs no rule
        cv = closed[v]
        dead = 0
        if need_a:      # N[P_i] becomes V
            g = G ^ ((every ^ (N1 | c1[v])) - O) & G
            if g:
                dead |= touch[g]
        if need_ap:     # the 2-ball of P_i is V and N[P_i] meets every block
            g = G ^ ((every ^ (N2 | O * ball2[v])) - O) & G
            while g:
                hb = g & -g
                g ^= hb
                x = B & O * (N1 >> hb.bit_length() - 1 - n & full | cv)
                dead |= sup[(G ^ ((x | G) - O) & G) | hb]
            g = (G ^ ((every ^ N2) - O) & G) & (N1 >> v & O) << n
            while g:
                hb = g & -g
                g ^= hb
                x = B & O * (N1 >> hb.bit_length() - 1 - n & full)
                dead |= sup[G ^ ((x | G) - O) & G]
        # B' fails at u once N[u] meets every block; B fails once, besides,
        # a block of u holds far3[u] (so a B' rule covers B)
        if need_bp:
            for u in near[v]:
                dead |= sup[G ^ ((B & c1[u] | G) - O) & G]
        elif need_b:
            for u in near[v]:
                miss = G ^ ((B & c1[u] | G) - O) & G
                # the blocks holding u and all of far3[u]
                x = ~B & (f3[u] | O << u)
                if u == v:      # the blocks already holding all of far3[v]
                    g = G ^ ((~B & f3[u] | G) - O) & G
                    while g:
                        hb = g & -g
                        g ^= hb
                        dead |= sup[miss | hb]
                elif cv >> u & 1:
                    if G ^ ((x | G) - O) & G:
                        dead |= sup[miss]
                elif not miss:  # v is the last vertex of far3[u] outside
                    g = G ^ ((x ^ O << v | G) - O) & G
                    if g:
                        dead |= touch[g]
        if need_2:      # B''-2 through every split
            p0 = B & full
            if settled4[v] >> v & 1 and not far4[v] & p0:               # (a)
                dead |= sup[(G ^ ((B & c1[v] | G) - O) & G) | 1 << n]
            m = p0 & (last4[v] | cv & settled4[v])
            while m:
                low = m & -m
                m ^= low
                p = low.bit_length() - 1
                if far4[p] & p0:
                    continue
                miss = G ^ ((B & c1[p] | G) - O) & G
                if not last4[v] & low:                                  # (c)
                    dead |= sup[miss]
                elif not miss:                                          # (b)
                    dead |= no_block0
        if sym:
            g = s_g ^ ((B ^ B >> w | s_g) - s_one) & s_g
            if g:
                dead |= swap[g]
        free = nonempty & ~dead
        bv = ball2[v]
        while free:
            low = free & -free
            free ^= low
            r = rep[low.bit_length() - 1]
            yield from rec(v + 1, B | r << v, N1 | cv * r, N2 | bv * r)

    return rec(0, 0, 0, 0)


def _pack(masks: Sequence[int], w: int) -> tuple[int, int]:
    """``masks`` side by side in fields of w bits, and the field ones."""
    packed = ones = 0
    for i, m in enumerate(masks):
        packed |= m << i * w
        ones |= 1 << i * w
    return packed, ones


def _split_dfs(g: Graph, bm: tuple[int, ...], nb1: tuple[int, ...],
               nb2: tuple[int, ...], conds: frozenset, geo: tuple):
    """The (Q0, Q1) splits of block 0 that pass the A''/B'' of ``conds``.

    ``nb1`` and ``nb2`` hold each block's N[P_i] and 2-ball.  Q0 | Q1 is
    block 0 and its lowest vertex is pinned into Q0.  Vertices are
    assigned in index order, each Q0-only, Q1-only or both (the lowest
    vertex skips Q1-only), so the splits come in lexicographic order of
    that pattern vector.  A subtree is cut as soon as a clause fails in a
    way no later vertex can repair; a split reached is checked only for
    the B''-1 case no cut decides (see ``decide_cover_k``).
    ``geo`` is ``_geometry(g)``.
    """
    full, closed, ball2, _, far4 = geo
    p0, rest = bm[0], bm[1:]
    n = g.n
    vs = [x for x in range(n) if p0 >> x & 1]
    need_a, need_b = "A''" in conds, "B''" in conds
    outside = full & ~p0
    # the siblings packed as in _decide_dfs: a mask c meets every sibling
    # when no field of S & O * c is empty
    S, O = _pack(rest, n + 1)
    G = O << n
    # masks at most one side may meet: N[P_i] of a sibling failing A''-1a
    # and A''-1b (A''-1c is left), and N[p] of a sibling vertex failing
    # B''-1a and B''-1b (B''-1c and B''-1d both fail once Q0 and Q1 meet it)
    one_side: list[int] = []
    # those sibling vertices p: with N[p] meeting one side only, B''-1
    # fails when the other side meets the 2-ball of p and misses far4[p]
    lone: list[int] = []
    # vertices of block 0 failing B''-2a, which need B''-2b in their side
    need_2b = 0
    if need_a:
        for i in range(1, len(bm)):
            if nb2[i] == full and not G ^ ((S & O * nb1[i] | G) - O) & G:
                one_side.append(nb1[i])
    if need_b:
        # N[p] meets P_i exactly when p is in N[P_i]
        meet = full
        for nb in nb1[1:]:
            meet &= nb
        need_2b = p0 & meet
        m = functools.reduce(int.__or__, rest, 0) & nb1[0] & meet
        while m:
            low = m & -m
            m ^= low
            lone.append(low.bit_length() - 1)
            one_side.append(closed[lone[-1]])
    # ... packed the same way: both sides meet one of them when the fields
    # of T & U * Q_0 and of T & U * Q_1 are nonempty at the same guard
    T, U = _pack(one_side, n + 1)
    H = U << n

    def rec(t: int, q0: int, q1: int, b0: int, b1: int, c0: int, c1: int):
        if t == len(vs):
            for p in lone:
                qo = q1 if q0 & closed[p] else q0
                if qo & ball2[p] and not qo & far4[p]:
                    return
            yield q0, q1
            return
        x = vs[t]
        xb = 1 << x
        cx, bx = closed[x], ball2[x]
        touched = need_2b & ((xb << 1) - 1) & (cx | far4[x])
        for pat in (1, 3) if t == 0 else (1, 2, 3):
            r0, r1, s0, s1, d0, d1 = q0, q1, b0, b1, c0, c1
            # A''-2a and A''-2b both fail for a side whose 2-ball holds
            # V \ P_0 and whose N[Q_l] meets every sibling
            if pat & 1:
                r0, s0, d0 = r0 | xb, s0 | bx, d0 | cx
                if need_a and not outside & ~s0 and not G ^ ((S & O * d0 | G) - O) & G:
                    continue
            if pat & 2:
                r1, s1, d1 = r1 | xb, s1 | bx, d1 | cx
                if need_a and not outside & ~s1 and not G ^ ((S & O * d1 | G) - O) & G:
                    continue
            if H and ((T & U * r0 | H) - U) & ((T & U * r1 | H) - U) & H:
                continue
            # B''-2b fails for p in a side that holds far4[p] & P_0 or
            # whose other side meets N[p]
            m = touched
            while m:
                low = m & -m
                m ^= low
                p = low.bit_length() - 1
                fp, cp = far4[p] & p0, closed[p]
                if (r0 & low and (not fp & ~r0 or r1 & cp)
                        or r1 & low and (not fp & ~r1 or r0 & cp)):
                    break
            else:
                yield from rec(t + 1, r0, r1, s0, s1, d0, d1)

    return rec(0, 0, 0, 0, 0, 0, 0)


# --------------------------------------------------------------------------
# structural shortcuts

def two_ball_triple_check(p: Graph) -> tuple[bool, tuple[int, int, int] | None]:
    """Does some vertex triple have empty common closed 2-neighborhood
    intersection?  Returns the first such triple in lexicographic order."""
    ball2 = p.ball_masks(2)
    n = p.n
    for x1 in range(n):
        b1 = ball2[x1]
        for x2 in range(x1 + 1, n):
            b12 = b1 & ball2[x2]
            for x3 in range(x2 + 1, n):
                if not (b12 & ball2[x3]):
                    return True, (x1, x2, x3)
    return False, None


def construct_AB_bipartition(p: Graph) -> Covering:
    """Two-block covering meeting conditions A and B, built recursively.

    Requires diameter >= 4 and radius >= 3 (infinite values qualify).
    Start from the closed neighborhoods of the first vertex pair at
    distance exactly 4 (falling back to the first cross-component pair
    when no pair is at distance 4), then sweep the unassigned vertices
    in index order:

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
    n = p.n
    seed = [ls[4] if len(ls) > 4 else 0 for ls in p.layers]
    if not any(seed):
        seed = p.ecc_masks
    x = next(u for u in range(n) if seed[u] >> u + 1)
    y = next(v for v in bits(seed[x]) if v > x)
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
    if not covering_passes(cov, ("A", "B")):
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
    comp = p.full_mask & ~p.ecc_masks[0]
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
    These are the rows of ``TWO_BLOCK_FACTS``.  The two theory witnesses,
    a fact's size-2 covering and the singletons at kappa = n, are
    re-checked at one site and answer under their method.  Every other
    key goes up the bounded decision procedure's block counts
    (``_decide_ladder``); what it cannot settle is reported UNKNOWN with
    the bound in force and whether that bound (``stop="vertex-bound"``)
    or the end of those block counts (``stop="ladder"``) stopped it.
    """
    res_a = cov_A(p)
    if not res_a.found:
        return {key: CovSizeResult(key, INFEASIBLE, None, "radius<=1")
                for key in PROFILE_KEYS}
    out = {"A": res_a}
    kappa = res_a.value
    prof = metric_profile(p)
    for key in PROFILE_KEYS[1:]:
        fact = two_block_fact(p, prof, key)
        if fact is not None and fact.build is not None:
            value, wit, method = 2, fact.build(p), fact.method
        elif kappa == p.n:  # singletons meet every condition set at radius >= 2
            value, wit, method = p.n, singleton_witness(p, key), "shortcut-singletons"
        else:
            out[key] = _decide_ladder(p, key, max(kappa, 2 if fact is None else 3),
                                      fact and fact.method, bound)
            continue
        if not covering_passes(wit, PROFILE_CONDS[key]):
            raise InternalCheckError(f"{method} witness failed its {key} re-check")
        out[key] = CovSizeResult(key, value, wit, method)
    return out


def _decide_ladder(p: Graph, key: str, lo: int, shortcut: str | None,
                   bound: int | None) -> CovSizeResult:
    """``cov_profile``'s answer for ``key`` from ``decide_cover_k`` at
    k = lo, lo + 1, ..., 3 (only k = lo when lo is above 3): the first k
    found, else an ``Unknown`` from the k the vertex bound stopped, or
    from one past the last k exhausted.  ``shortcut`` names the fact
    that ruled size 2 out, if any, and heads the method."""
    for k in range(lo, max(lo, 3) + 1):
        try:
            dec = decide_cover_k(p, k, PROFILE_CONDS[key], bound)
        except BoundExceededError:
            unknown = Unknown(k, p.n, decide_bound(k, bound), "vertex-bound")
            return CovSizeResult(key, unknown, None, shortcut or f"bound@k={k}")
        if dec.found:
            return CovSizeResult(key, k, dec.witness,
                                 f"{shortcut}+decide-k" if shortcut else "decide-k")
    unknown = Unknown(k + 1, p.n, decide_bound(k, bound), "ladder")
    return CovSizeResult(key, unknown, None, shortcut or "decide-k")
