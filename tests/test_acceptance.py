"""End-to-end verification suite.

Each test prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts zero violations of the law it checks.  The laws are exact
combinatorial statements, so every tolerance is exact equality; the only
latitude anywhere is the documented enumeration bounds of the deciders.
"""

import time
from math import inf

import pytest

import oracles
import ucgkit as U
from ucgkit import (INF, Covering, Graph, RefinedCovering, appendage_number,
                    brute_force_appendage, build_refined_scaffold,
                    build_scaffold, check_condition, construct_AB_bipartition, cov_A,
                    decide_cover_k, gen_P_alpha, gen_P_alpha_beta, gen_prism,
                    metric_profile, periphery_covering, periphery_gap_example,
                    ucg_analysis, verify_construction)


def _report(name, violations, t0, extra=""):
    status = "PASS" if not violations else "FAIL"
    took = time.time() - t0
    tail = f" [{extra}]" if extra else ""
    print(f"[{status}] {name} ({took:.1f}s){tail}")
    assert not violations, f"{name}: first violations: {violations[:5]}"


def test_criterion_1_periphery_gap_fixture_fidelity():
    t0 = time.time()
    violations = []
    g = periphery_gap_example().graph
    lab = {name: i for i, name in enumerate(g.labels)}
    a = ucg_analysis(g)
    want_periphery = {lab[p] for p in ("p0", "p1", "p2", "p5", "p6", "p7")}
    got_periphery = {v for v in range(g.n) if g.ecc[v] == a.diameter}
    if got_periphery != want_periphery:
        violations.append(("periphery", sorted(got_periphery)))
    want_cp = {lab[f"p{i}"] for i in range(1, 7)}
    if a.centered_periphery != want_cp:
        violations.append(("centered periphery", sorted(a.centered_periphery)))
    _report("criterion 1: fixture periphery vs centered periphery",
            violations, t0)


def _connected_graphs_n_le_7():
    for n in range(1, 7):
        for g in U.labeled_graphs(n):
            if g.is_connected:
                yield g
    yield from U.atlas_graphs(max_n=7, min_n=7, connected_only=True)


def test_criterion_2_induced_covering_and_radial_path_laws():
    t0 = time.time()
    violations = []
    ucgs = 0
    for g in _connected_graphs_n_le_7():
        a = ucg_analysis(g)
        if not a.is_ucg:
            continue
        for path in oracles.radial_paths(g):
            if len(set(path) & a.center) != 1:
                violations.append(("radial path", g.edges, path))
                break
        if a.radius < 2:
            continue
        ucgs += 1
        _, cov, _ = periphery_covering(g)
        if not check_condition(cov, "A").passed:
            violations.append(("induced covering fails A", g.edges))
        _, kept, _ = periphery_covering(g, kept_only=True)
        if not check_condition(kept, "A").passed:
            violations.append(("irredundant subcovering fails A", g.edges))
    _report("criterion 2: induced coverings satisfy A; radial paths hold "
            "one central vertex (labeled n<=6 + canonical n=7)",
            violations, t0, f"{ucgs} uniform central graphs with radius>=2")


LAW_SPECS = [
    ("depth-1 minus apex", ("A", "B"), "k2",
     lambda C, p, w: build_scaffold(C, p, w, 1, drop=(1,))),
    ("depth-2 minus apex chain", ("A'", "B'"), "both",
     lambda C, p, w: build_scaffold(C, p, w, 2, drop=(1, 2))),
    ("refined scaffold", ("A", "A''", "B''"), "both",
     lambda C, p, w: build_refined_scaffold(C, p, w)),
]


def _law_conditions(p, law, cov, rc=None):
    if law == 0:
        return check_condition(cov, "A").passed and check_condition(cov, "B").passed
    if law == 1:
        return check_condition(cov, "A'").passed and check_condition(cov, "B'").passed
    ra, rb = check_condition(rc, "A''"), check_condition(rc, "B''")
    return check_condition(cov, "A").passed and ra.passed and rb.passed


def test_criterion_3_construction_equivalences(k2, p3):
    """Decision-procedure witnesses must always build verifying graphs;
    conversely a verifying construction forces its covering conditions,
    checked over every 2-block covering and refinement; and for the two
    unrefined laws the equivalence is exact both ways on coverings with
    pairwise-disjoint blocks.

    Sufficiency is genuinely weaker than the conditions in corner cases:
    a vertex shared by two blocks (or, for the refined shape, a foot
    vertex adjacent to two same-side split vertices in different
    components) rides the spine to within distance 2 of everything and
    sinks the build.  The deciders' own witnesses avoid this, which is
    what the first leg asserts.
    """
    t0 = time.time()
    violations = []
    centers = {"k2": (k2,), "both": (k2, p3)}
    found_witnesses = 0
    for g in U.atlas_graphs(max_n=5):
        # forward direction on every decision witness
        for k in (2, 3):
            for name, conds, which, builder in LAW_SPECS:
                dec = decide_cover_k(g, k, conds)
                if not dec.found:
                    continue
                for C in centers[which]:
                    s = builder(C, g, dec.witness)
                    if not verify_construction(s, C, g).ok:
                        violations.append((name, k, C.n, g.edges))
                    found_witnesses += 1
        # necessity on all ordered 2-coverings, exactness on disjoint ones
        for blocks in oracles.all_coverings(g, 2):
            cov = Covering(g, blocks)
            disjoint = not (blocks[0] & blocks[1])
            ab = _law_conditions(g, 0, cov)
            ok = verify_construction(
                build_scaffold(k2, g, cov, 1, drop=(1,)), k2, g).ok
            if ok and not ab:
                violations.append(("law1 necessity", g.edges, blocks))
            if disjoint and ab != ok:
                violations.append(("law1 disjoint iff", g.edges, blocks))
            apbp = _law_conditions(g, 1, cov)
            for C in (k2, p3):
                ok = verify_construction(
                    build_scaffold(C, g, cov, 2, drop=(1, 2)), C, g).ok
                if ok and not apbp:
                    violations.append(("law2 necessity", C.n, g.edges, blocks))
                if disjoint and apbp != ok:
                    violations.append(("law2 disjoint iff", C.n, g.edges))
            a_pass = check_condition(cov, "A").passed
            for q0, q1 in oracles.all_splits(blocks[0]):
                rc = RefinedCovering(cov, 0, q0, q1)
                ra, rb = check_condition(rc, "A''"), check_condition(rc, "B''")
                conds = a_pass and ra.passed and rb.passed
                for C in (k2, p3):
                    ok = verify_construction(
                        build_refined_scaffold(C, g, rc), C, g).ok
                    if ok and not conds:
                        violations.append(("law3 necessity", C.n, g.edges))
    _report("criterion 3: construction laws (witness soundness, necessity, "
            "disjoint equivalence; n<=5)", violations, t0,
            f"{found_witnesses} decision witnesses built and verified")


ORACLE_CORPUS = [
    ("k1", "2k1"), ("k1", "2k2"), ("k1", "p4"), ("k1", "c4"),
    ("k2", "2k1"), ("k2", "2k2"), ("k2", "p4"), ("k2", "c4"),
]


def _max_tmax(nc, np_, bound=24):
    t = -1
    while True:
        f = nc * np_ + (t + 1) * (nc + np_) + (t + 1) * t // 2
        if f > bound:
            return t
        t += 1


def test_criterion_4_oracle_agreement():
    t0 = time.time()
    violations = []
    for ctok, ptok in ORACLE_CORPUS:
        c = U.named_graph(ctok)
        p = U.named_graph(ptok)
        if min(p.ecc) < 2:
            continue
        tmax = _max_tmax(c.n, p.n)
        got = brute_force_appendage(c, p, tmax)
        want = appendage_number(c, p).value
        if want is not INF and want <= tmax:
            if got != want:
                violations.append((ctok, ptok, got, want))
        elif got is not None:
            violations.append((ctok, ptok, got, want, "oracle found too small"))
    if brute_force_appendage(U.named_graph("k2"), U.named_graph("2k2"), 2) != 2:
        violations.append(("k2", "2k2", "flagship t=2 search"))
    if brute_force_appendage(Graph(1), Graph.cycle(4), 0) != 0:
        violations.append(("k1", "c4", "cone at t=0"))
    _report("criterion 4: brute-force oracle agrees with the case-analysis engine",
            violations, t0)


def test_criterion_5_value_tables(k2, p3, atlas_r2, prism6, prism7):
    t0 = time.time()
    violations = []
    zone_complete = {2: 0, 3: 0}
    zone_general = {5: 0, 6: 0}
    for g in atlas_r2:
        prof = metric_profile(g)
        d, r = prof.diameter, prof.radius
        kappa = cov_A(g).value
        vk = appendage_number(k2, g).value
        if d >= 4 and r >= 3:
            want = {2}
        elif d >= 3 and r == 2:
            want = {3}
        elif d == r == 3:
            want = {2, 3}
            zone_complete[vk] += 1
        else:
            want = {kappa, kappa + 1}
        if not isinstance(vk, int) or vk not in want:
            violations.append(("complete-center", g.edges, vk, want))

        vc = appendage_number(p3, g).value
        if d is inf:
            wantc = {4}
        elif 5 <= d:
            wantc = {5}
        elif d == 4 and r == 4:
            wantc = {5, 6}
        elif d == 4 and r == 3:
            wantc = {5, 6}
            if isinstance(vc, int):
                zone_general[vc] += 1
        elif d == 4 and r == 2:
            wantc = {6}
        elif d == 3:
            wantc = {6}
        else:
            wantc = {2 * kappa, 2 * kappa + 1, 2 * kappa + 2}
        if not isinstance(vc, int) or vc not in wantc:
            violations.append(("general-center", g.edges, vc, wantc))
    if appendage_number(p3, prism7).value != 5:
        violations.append(("heptagonal prism", "expected 5"))
    if appendage_number(p3, prism6).value != 6:
        violations.append(("hexagonal prism", "expected 6"))
    extra = (f"diam=r=3 complete-center zone resolved: {zone_complete}; "
             f"diam=4,r=3 general-center zone resolved: {zone_general}")
    _report("criterion 5: appendage values match the diameter/radius tables "
            "(canonical n<=7 + prisms)", violations, t0, extra)


def test_criterion_6_family_laws(k2):
    t0 = time.time()
    violations = []
    for alpha in (2, 3, 4):
        got = cov_A(gen_P_alpha(alpha).graph).value
        if got != 2 * alpha:
            violations.append(("cov_A doubled clique", alpha, got))
    for alpha, beta in ((2, 1), (3, 2)):
        fx = gen_P_alpha_beta(alpha, beta)
        if fx.graph.n != 2 * alpha + beta:
            violations.append(("order", alpha, beta, fx.graph.n))
        got = appendage_number(k2, fx.graph).value
        if got != 2 * alpha:
            violations.append(("appendage padded clique", alpha, beta, got))
    _report("criterion 6: family laws (doubled cliques, padded variants)",
            violations, t0)


def test_criterion_7_center_only_values(p3):
    t0 = time.time()
    violations = []
    p2 = Graph.empty(2, labels=["u", "v"])
    for c, want in ((Graph(1), 2), (Graph.complete(5), 4), (p3, 6)):
        res = U.appendage_center_only(c)
        if res.value != want:
            violations.append((c.n, res.value, want))
        appended = res.witness.graph.n - c.n
        if appended != want or not verify_construction(res.witness, c, p2).ok:
            violations.append((c.n, "witness", appended))
    _report("criterion 7: center-only appendage numbers 2/4/6 with verified "
            "witnesses", violations, t0)


def test_criterion_8_two_block_equivalences():
    t0 = time.time()
    violations = []
    checked = 0
    for g in U.atlas_graphs(max_n=7):
        prof = metric_profile(g)
        checked += 1
        ap2 = decide_cover_k(g, 2, ("A'",)).found
        if ap2 != (prof.diameter >= 5):
            violations.append(("A' at 2 <=> diam>=5", g.edges))
        apbp2 = decide_cover_k(g, 2, ("A'", "B'")).found
        if apbp2 != (not g.is_connected):
            violations.append(("A'B' at 2 <=> disconnected", g.edges))
        if prof.radius == 2 and decide_cover_k(g, 2, ("A", "B")).found:
            violations.append(("radius 2 admits no 2-block A+B", g.edges))
        if prof.diameter >= 4 and prof.radius >= 3:
            cov = construct_AB_bipartition(g)
            if not (check_condition(cov, "A").passed
                    and check_condition(cov, "B").passed):
                violations.append(("bipartition fails A/B", g.edges))
    _report("criterion 8: two-block covering equivalences (canonical n<=7)",
            violations, t0, f"{checked} graphs")
