"""Print one canonical JSON line per ucgkit answer on a fixed corpus.

Run it once against each of two versions of the package and compare the
outputs with ``cmp``: equal outputs mean the two versions give
byte-identical answers, witnesses included.  The corpus is

* ``appendage_number(C, P).to_json()`` for C in {k2, p3, 2k1}, over the
  atlas graphs with radius >= 2 and every fixture;
* ``cov_profile(P)``, as ``CovSizeResult.to_json()`` per key, over the
  atlas graphs with n <= 6 and every fixture;
* ``decide_cover_k`` on prism3..prism7 for k = 2..4 and each profile
  condition set past "A" (a bound error is printed as such);
* the first five witnesses of ``iter_covering_witnesses(P, k, conds)``
  for k in {2, 3} and each profile condition set past "A", over the
  atlas graphs with radius >= 2 and every fixture (a bound error is
  printed as such);
* ``appendage_number(C, P, bound=4)`` for C in {k2, p3} and
  ``cov_profile(P, bound=4)`` over every fixture, so that unsettled
  answers (``Unknown`` intervals with their stop causes) are compared too;
* the one-sided variants: ``appendage_center_only(C)`` and then
  ``appendage_periphery_only(P)``, each over every atlas graph and every
  fixture;
* ``brute_force_appendage(C, P, t_max)`` on the acceptance suite's
  oracle corpus and on (p3, 2k1), each at the largest t_max the default
  bound of 24 free edges admits, then on (k2, p4, 3), (k2, c5, 2),
  (k2, p5, 2) and (p3, p4, 2) under a bound of 30, which their records
  carry as ``"bound"``;
* ``verify_construction(S, C, P).to_json()`` for every ordered
  2-covering (P_1, P_2) of every atlas graph P on 4 vertices, one line
  per graph and shape: the depth-1 scaffold minus its apex with C = k2,
  the depth-2 scaffold minus its apex chain with C = k2 and with
  C = p3, and the refined scaffold over every split of P_1 with C = k2
  and with C = p3, so that failing verifications of each kind are
  compared too.  Each line also carries the sha256 of the verified
  scaffolds' ``Scaffold.to_json()`` (graph6 and roles), so that a
  different graph with the same verdict changes the digest;
* last, ``ucg_analysis(G).to_json()`` over every atlas graph and every
  fixture: radius, diameter, the UCG test, center, centered periphery,
  intermediate vertices, strata and eccentric-set map, as the
  ``analyze`` command writes them.

``--max-n N`` keeps only the graphs with at most N vertices.  The package
is imported from the path, so point ``PYTHONPATH`` at the version to
digest:

    PYTHONPATH=src python3 tools/answer_digest.py > digest.txt
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys

import ucgkit as U
from ucgkit.coverings import PROFILE_CONDS

CENTERS = {"k2": U.Graph.complete(2), "p3": U.Graph.path(3), "2k1": U.Graph.empty(2)}
PRISMS = range(3, 8)
DECIDE_KS = range(2, 5)
PROFILE_MAX_N = 6
STREAM_KS = (2, 3)
#: Witnesses kept from the head of each stream.
STREAM_HEAD = 5
#: The vertex bound of the bounded sections, under which several fixtures
#: stay unsettled.
SMALL_BOUND = 4
#: (center, periphery, t_max, free-edge bound or None for the default)
#: given to the brute-force oracle.
ORACLE_CASES = (("k1", "2k1", 4, None), ("k1", "2k2", 3, None), ("k1", "p4", 3, None),
                ("k1", "c4", 3, None), ("k2", "2k1", 3, None), ("k2", "2k2", 2, None),
                ("k2", "p4", 2, None), ("k2", "c4", 2, None), ("p3", "2k1", 3, None),
                ("k2", "p4", 3, 30), ("k2", "c5", 2, 30), ("k2", "p5", 2, 30),
                ("p3", "p4", 2, 30))
#: (shape, center) of each verify line.
VERIFY_SHAPES = (("rho1", "k2"), ("rho2", "k2"), ("rho2", "p3"),
                 ("refined", "k2"), ("refined", "p3"))


def ordered_two_coverings(n: int):
    """All ordered (P_1, P_2), both nonempty with union V, in the order of
    their per-vertex membership patterns (1: P_1 only, 2: P_2 only, 3:
    both)."""
    for pat in itertools.product((1, 2, 3), repeat=n):
        b1 = frozenset(v for v in range(n) if pat[v] & 1)
        b2 = frozenset(v for v in range(n) if pat[v] & 2)
        if b1 and b2:
            yield b1, b2


def splits(block: frozenset[int]):
    """All (Q_0, Q_1) with union ``block`` and Q_0 nonempty, in the order
    of their per-vertex patterns."""
    vs = sorted(block)
    for pat in itertools.product((1, 2, 3), repeat=len(vs)):
        q0 = frozenset(v for v, x in zip(vs, pat) if x & 1)
        if q0:
            yield q0, frozenset(v for v, x in zip(vs, pat) if x & 2)


def shape_scaffolds(shape: str, c: U.Graph, p: U.Graph):
    """The scaffolds of one shape over every ordered 2-covering of ``p``
    (and, for the refined shape, every split)."""
    for b1, b2 in ordered_two_coverings(p.n):
        cov = U.Covering(p, (b1, b2))
        if shape == "rho1":
            scaffolds = [U.build_scaffold(c, p, cov, 1, drop=(1,))]
        elif shape == "rho2":
            scaffolds = [U.build_scaffold(c, p, cov, 2, drop=(1, 2))]
        else:
            scaffolds = [U.build_refined_scaffold(c, p, U.RefinedCovering(cov, 0, q0, q1))
                         for q0, q1 in splits(b1)]
        yield from scaffolds


def scaffolds_sha256(scaffolds) -> str:
    """The sha256 of the scaffolds' canonical JSON lines, in order."""
    h = hashlib.sha256()
    for s in scaffolds:
        h.update(json.dumps(s.to_json(), sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def corpus(max_n: int) -> tuple[list[tuple[str, U.Graph]], list[tuple[str, U.Graph]]]:
    """(name, graph) pairs of the atlas graphs with n <= ``max_n`` and of
    the fixtures with at most ``max_n`` vertices."""
    atlas = [(f"atlas{i}", g)
             for i, g in enumerate(U.atlas_graphs(max_n=min(max_n, 7)))]
    fixtures = [(f"fixture:{fx.name}", fx.graph) for fx in U.all_fixtures()
                if fx.graph.n <= max_n]
    return atlas, fixtures


def answers(max_n: int):
    """Yield one JSON-ready record per answer, in a fixed order."""
    atlas, fixtures = corpus(max_n)
    append_graphs = [(name, g) for name, g in atlas if min(g.ecc) >= 2] + fixtures
    for cname, c in CENTERS.items():
        for name, g in append_graphs:
            yield {"op": "append", "center": cname, "graph": name,
                   "answer": U.appendage_number(c, g).to_json()}
    profile_graphs = [(name, g) for name, g in atlas if g.n <= PROFILE_MAX_N] + fixtures
    for name, g in profile_graphs:
        yield {"op": "profile", "graph": name,
               "answer": {key: res.to_json() for key, res in U.cov_profile(g).items()}}
    for m in PRISMS:
        g = U.gen_prism(m).graph
        if g.n > max_n:
            continue
        for k in DECIDE_KS:
            for key, conds in PROFILE_CONDS.items():
                try:
                    ans = U.decide_cover_k(g, k, conds).to_json()
                except U.BoundExceededError as e:
                    ans = {"error": "bound", "message": str(e)}
                yield {"op": "decide", "graph": f"prism{m}", "k": k, "key": key,
                       "answer": ans}
    for name, g in append_graphs:
        for k in STREAM_KS:
            for key, conds in PROFILE_CONDS.items():
                try:
                    stream = U.iter_covering_witnesses(g, k, conds)
                    ans = [w.to_json() for w in itertools.islice(stream, STREAM_HEAD)]
                except U.BoundExceededError as e:
                    ans = {"error": "bound", "message": str(e)}
                yield {"op": "stream", "graph": name, "k": k, "key": key, "answer": ans}
    for name, g in fixtures:
        for cname in ("k2", "p3"):
            res = U.appendage_number(CENTERS[cname], g, bound=SMALL_BOUND)
            yield {"op": "append-bounded", "center": cname, "graph": name,
                   "answer": res.to_json()}
        prof = U.cov_profile(g, bound=SMALL_BOUND)
        yield {"op": "profile-bounded", "graph": name,
               "answer": {key: res.to_json() for key, res in prof.items()}}
    for op, one_sided in (("center-only", U.appendage_center_only),
                          ("periphery-only", U.appendage_periphery_only)):
        for name, g in atlas + fixtures:
            yield {"op": op, "graph": name, "answer": one_sided(g).to_json()}
    for ctok, ptok, tmax, bound in ORACLE_CASES:
        c, p = U.named_graph(ctok), U.named_graph(ptok)
        if max(c.n, p.n) > max_n:
            continue
        kw = {} if bound is None else {"bound": bound}
        yield {"op": "oracle", "center": ctok, "graph": ptok, "t_max": tmax, **kw,
               "answer": U.brute_force_appendage(c, p, tmax, **kw)}
    for name, g in atlas:
        if g.n == 4:
            for shape, cname in VERIFY_SHAPES:
                c = CENTERS[cname]
                built = list(shape_scaffolds(shape, c, g))
                yield {"op": "verify", "graph": name, "shape": shape, "center": cname,
                       "answer": [U.verify_construction(s, c, g).to_json() for s in built],
                       "scaffolds": scaffolds_sha256(built)}
    for name, g in atlas + fixtures:
        yield {"op": "analyze", "graph": name, "answer": U.ucg_analysis(g).to_json()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=sys.maxsize,
                    help="keep only graphs with at most this many vertices")
    args = ap.parse_args(argv)
    for rec in answers(args.max_n):
        sys.stdout.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
