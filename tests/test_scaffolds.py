import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import ucgkit as U
from ucgkit import (Covering, DomainError, Graph, InvalidDropError,
                    RefinedCovering, build_cone, build_refined_scaffold,
                    build_scaffold, check_A, check_AdpBdp, check_Aprime,
                    check_B, check_Bprime, encode_graph6,
                    verify_construction)
from ucgkit import analysis, scaffolds
from ucgkit.graphs import bits


def two_k1_cover():
    g = Graph.empty(2)
    return g, Covering(g, (frozenset({0}), frozenset({1})))


class TestBuildScaffold:
    def test_depth_one_over_two_isolated(self, k2):
        p, cov = two_k1_cover()
        s = build_scaffold(k2, p, cov, 1)
        assert s.graph.n == 7
        rep = verify_construction(s, k2, p)
        assert rep.ok and rep.radius == 2 and rep.intermediate_count == 3

    def test_drop_apex(self, k2):
        p, cov = two_k1_cover()
        s = build_scaffold(k2, p, cov, 1, drop=(1,))
        rep = verify_construction(s, k2, p)
        assert rep.ok and rep.intermediate_count == 2

    def test_depth_two_minus_apex_tip(self, p3):
        p, cov = two_k1_cover()
        s = build_scaffold(p3, p, cov, 2, drop=(2,))
        rep = verify_construction(s, p3, p)
        assert rep.ok and rep.intermediate_count == 5 and rep.radius == 3

    def test_depth_one_under_noncomplete_center_fails(self, p3):
        p, cov = two_k1_cover()
        rep = verify_construction(build_scaffold(p3, p, cov, 1), p3, p)
        assert not rep.ok and not rep.is_ucg and not rep.periphery_matches

    def test_edges_follow_the_five_rules(self, p3):
        p = Graph(3, [(0, 1)])
        cov = Covering(p, (frozenset({0, 1}), frozenset({2})))
        s = build_scaffold(p3, p, cov, 2)
        g = s.graph
        lab = {name: i for i, name in enumerate(g.labels)}
        edges = set(g.edges)

        def has(a, b):
            return (min(a, b), max(a, b)) in edges

        assert has(lab["0"], lab["1"])                      # center edge 0-1
        c_ids = [0, 1, 2]
        assert not has(lab["0"], lab["2"])                  # no new C edges
        assert has(3, 4) and not has(3, 5) and not has(4, 5)  # P edges kept
        for cv in c_ids:
            for i in range(3):                              # all x_{i,1} joined to C
                assert has(cv, lab[f"x{i},1"])
            assert not has(cv, lab[f"x{i},2"])
        assert has(3, lab["x1,2"]) and has(4, lab["x1,2"])  # block 1 foot
        assert has(5, lab["x2,2"]) and not has(5, lab["x1,2"])
        for i in range(3):                                  # chains
            assert has(lab[f"x{i},1"], lab[f"x{i},2"])

    def test_intermediate_count_formula(self, k2):
        p, cov = two_k1_cover()
        for rho in (1, 2, 3):
            for drop in itertools.chain.from_iterable(
                    itertools.combinations(range(1, rho + 1), r)
                    for r in range(rho + 1)):
                s = build_scaffold(k2, p, cov, rho, drop)
                assert len(s.spine_vertices) == (cov.k + 1) * rho - len(drop)

    def test_invalid_drop(self, k2):
        p, cov = two_k1_cover()
        with pytest.raises(InvalidDropError):
            build_scaffold(k2, p, cov, 1, drop=(2,))
        with pytest.raises(DomainError):
            build_scaffold(k2, p, cov, 0)

    def test_covering_of_another_graph_rejected(self, k2):
        # both C-then-P builders refuse a covering whose host is not P
        _, cov = two_k1_cover()
        other = Graph.empty(3)
        with pytest.raises(ValueError):
            build_scaffold(k2, other, cov, 1)
        with pytest.raises(ValueError):
            build_refined_scaffold(k2, other, RefinedCovering(cov, 0, frozenset({0}), frozenset()))

    def test_byte_stable(self, k2):
        p, cov = two_k1_cover()
        a = build_scaffold(k2, p, cov, 2, drop=(1,))
        b = build_scaffold(k2, p, cov, 2, drop=(1,))
        assert encode_graph6(a.graph) == encode_graph6(b.graph)
        assert a.roles == b.roles and a.graph.labels == b.graph.labels


class TestBuildRefined:
    def test_prism_figure_cover(self, p3, prism7):
        rc = U.refined_cover_of(U.prism7_refined_cover())
        s = build_refined_scaffold(p3, prism7, rc)
        rep = verify_construction(s, p3, prism7)
        assert rep.ok and rep.intermediate_count == 5

    def test_edge_rules(self, p3):
        p = Graph.empty(3)
        base = Covering(p, (frozenset({0, 1}), frozenset({2})))
        rc = RefinedCovering(base, 0, frozenset({0}), frozenset({1}))
        s = build_refined_scaffold(p3, p, rc)
        g = s.graph
        lab = {name: i for i, name in enumerate(g.labels)}
        edges = set(g.edges)

        def has(a, b):
            return (min(a, b), max(a, b)) in edges

        for cv in (0, 1, 2):
            assert has(cv, lab["x1"]) and has(cv, lab["x2"])
            assert not has(cv, lab["y0"])
        assert has(3, lab["y0"]) and not has(3, lab["y1"])   # Q0 = {p0}
        assert has(4, lab["y1"]) and not has(4, lab["y0"])   # Q1 = {p1}
        assert has(5, lab["y2"])                             # P2 foot
        assert has(lab["x1"], lab["y1"]) and has(lab["x2"], lab["y2"])
        assert has(lab["x1"], lab["y0"])                     # the extra edge
        assert not has(lab["x2"], lab["y0"])
        assert len(s.spine_vertices) == 2 * base.k + 1

    def test_empty_q1_with_component_split_verifies(self, p3):
        p, base = two_k1_cover()
        rc = RefinedCovering(base, 0, base.blocks[0], frozenset())
        assert check_Aprime(base).passed and check_Bprime(base).passed
        s = build_refined_scaffold(p3, p, rc)
        rep = verify_construction(s, p3, p)
        assert rep.ok and rep.intermediate_count == 2 * base.k + 1 == 5

    def test_failing_refinement_fails_verification(self, p3, prism7):
        fx = U.prism7_refined_cover()
        blocks = tuple(frozenset(b) for b in fx.extras["blocks"])
        base = Covering(prism7, blocks)
        bad = RefinedCovering(base, 0, blocks[0], frozenset())
        ra, rb = check_AdpBdp(bad)
        assert not (ra.passed and rb.passed)
        rep = verify_construction(build_refined_scaffold(p3, prism7, bad),
                                  p3, prism7)
        assert not rep.ok


class TestCone:
    def test_two_disjoint_edges(self):
        p = U.named_graph("2k2")
        rep = verify_construction(build_cone(p), Graph(1), p)
        assert rep.ok and rep.intermediate_count == 0

    def test_wheel(self):
        p = Graph.cycle(4)
        rep = verify_construction(build_cone(p), Graph(1), p)
        assert rep.ok

    def test_star_fails(self):
        p = Graph.star(3)
        rep = verify_construction(build_cone(p), Graph(1), p)
        assert not rep.ok and not rep.is_ucg and not rep.center_matches


def random_a_covering(g, rng):
    """Random covering whose blocks are closed-neighborhood complements
    (so condition A holds by construction), or None if unlucky."""
    full = g.full_mask
    comps = [full & ~m for m in g.closed_masks if full & ~m]
    if not comps:
        return None
    for _ in range(30):
        k = rng.randint(1, min(4, len(comps)))
        picks = rng.sample(comps, k)
        union = 0
        for m in picks:
            union |= m
        if union == full:
            blocks = tuple(frozenset(v for v in range(g.n) if m >> v & 1)
                           for m in picks)
            return Covering(g, blocks)
    return None


class TestLayeredLawRandomized:
    def test_two_hundred_condition_A_samples_verify(self):
        # scaffold over any condition-A covering, depth at least
        # min(diam(C), 2), is uniform central with radius rho + 1
        rng = random.Random(20240809)
        centers = [Graph(1), Graph.complete(2), Graph.complete(3),
                   Graph.path(3), Graph.path(4), Graph.cycle(4),
                   Graph.star(3), Graph.empty(2)]
        pairs_pool = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        done = 0
        while done < 200:
            c = rng.choice(centers)
            n = rng.randint(2, 6)
            edges = [e for e in pairs_pool if max(e) < n and rng.random() < 0.4]
            p = Graph(n, edges)
            cov = random_a_covering(p, rng)
            if cov is None:
                continue
            assert check_A(cov).passed
            base = 1 if (c.is_complete or c.n == 1) else 2
            rho = base + rng.choice((0, 1))
            s = build_scaffold(c, p, cov, rho)
            rep = verify_construction(s, c, p)
            assert rep.ok and rep.radius == rho + 1, (
                c.edges, p.edges, cov.blocks, rho)
            assert rep.intermediate_count == (cov.k + 1) * rho
            done += 1


class TestConstructionLawsSmall:
    """Spot checks of the covering-condition / verification equivalences;
    the exhaustive version runs in the acceptance suite."""

    def test_depth1_minus_apex_iff_disjoint(self, k2):
        import oracles
        for g in U.atlas_graphs(max_n=4):
            for blocks in oracles.all_coverings(g, 2):
                if blocks[0] & blocks[1]:
                    continue
                cov = Covering(g, blocks)
                ok = verify_construction(
                    build_scaffold(k2, g, cov, 1, drop=(1,)), k2, g).ok
                conds = check_A(cov).passed and check_B(cov).passed
                assert ok == conds, (g.edges, blocks)

    def test_overlap_can_defeat_sufficiency_but_not_necessity(self, k2):
        # a covering can meet A and B yet fail to build: a vertex in both
        # blocks rides the spine feet to within distance 2 of everything
        g = Graph.empty(3)
        cov = Covering(g, (frozenset({0, 2}), frozenset({1, 2})))
        assert check_A(cov).passed and check_B(cov).passed
        rep = verify_construction(
            build_scaffold(k2, g, cov, 1, drop=(1,)), k2, g)
        assert not rep.ok

    def test_refined_sufficiency_gap_even_with_disjoint_blocks(self, k2):
        # the refined conditions can hold with pairwise-disjoint blocks
        # and split, yet the build fails: two same-side split vertices in
        # different components let their shared foot shortcut past the
        # far-vertex clause (vertex 3 reaches its distance-4 witness 2 in
        # three steps through y0 and 0)
        g = Graph(5, [(0, 2), (3, 4)])
        cov = Covering(g, (frozenset({0, 2, 3}), frozenset({1, 4})))
        rc = RefinedCovering(cov, 0, frozenset({0, 3}), frozenset({2}))
        ra, rb = check_AdpBdp(rc)
        assert check_A(cov).passed and ra.passed and rb.passed
        rep = verify_construction(build_refined_scaffold(k2, g, rc), k2, g)
        assert not rep.ok

    def test_engine_skips_degenerate_witnesses(self, k2):
        # the appendage engine must survive condition-passing coverings
        # whose construction fails, by walking the witness stream
        g = Graph(5, [(0, 2), (3, 4)])
        res = U.appendage_number(k2, g)
        assert res.value == 2
        assert verify_construction(res.witness, k2, g).ok


CENTERS = (Graph(1), Graph.complete(2), Graph.path(3), Graph.empty(2))


@st.composite
def scaffold_cases(draw):
    """(scaffold, c, p): a scaffold built over a random covering, or a
    random refinement of one, of a random small periphery (often with
    several components), or the cone over that periphery.  The covering
    is random, or made of the far sets V - N[v], which meet condition A,
    so that many scaffolds verify.  Half the time c is the center built;
    otherwise it is drawn from the same centers, so it may not match."""
    n = draw(st.integers(1, 5), label="n")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    p = Graph(n, sorted(draw(st.sets(st.sampled_from(pairs))) if pairs else ()))
    builder = draw(st.sampled_from(("layered", "refined", "cone")), label="builder")
    c = draw(st.sampled_from(CENTERS), label="center")
    claimed = c if draw(st.booleans(), label="as built") else draw(st.sampled_from(CENTERS))
    if builder == "cone":
        return build_cone(p), claimed, p
    far = {frozenset(bits(p.full_mask & ~m)) for m in p.closed_masks} - {frozenset()}
    if draw(st.booleans(), label="far blocks") and far and frozenset().union(*far) == set(range(n)):
        blocks = tuple(sorted(far, key=sorted))
    else:
        k = draw(st.integers(1, 3), label="k")
        patterns = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=n, max_size=n))
        blocks = tuple(frozenset(v for v in range(n) if patterns[v] >> i & 1)
                       for i in range(k))
    cov = Covering(p, tuple(b for b in blocks if b))
    if builder == "layered":
        rho = draw(st.integers(1, 3), label="rho")
        drop = draw(st.sets(st.integers(1, rho)), label="drop")
        return build_scaffold(c, p, cov, rho, drop), claimed, p
    iota = draw(st.integers(0, cov.k - 1), label="iota")
    block = sorted(cov.blocks[iota])
    sides = draw(st.lists(st.sampled_from((1, 2, 3)), min_size=len(block),
                          max_size=len(block)), label="split")
    q0 = frozenset(v for v, x in zip(block, sides) if x & 1) or frozenset(block[:1])
    q1 = frozenset(v for v, x in zip(block, sides) if x & 2)
    rc = RefinedCovering(cov, iota, q0, q1)
    return build_refined_scaffold(c, p, rc), claimed, p


class TestBuildersMatchLiteral:
    """The builders assemble their shape-only parts once per shape; the
    graphs and roles they give stay those of the literal edge lists."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_builders_match_literal_edge_lists(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = sorted(data.draw(st.sets(st.sampled_from(pairs)), label="edges")) if pairs else []
        named = data.draw(st.booleans(), label="labelled")
        p = Graph(n, edges, [f"p{v}" for v in range(n)] if named else None)
        c = data.draw(st.sampled_from(CENTERS + (Graph(2, [(0, 1)], ["a", "b"]),)), label="c")
        k = data.draw(st.integers(1, 4), label="k")
        patterns = data.draw(st.lists(st.integers(1, (1 << k) - 1), min_size=n, max_size=n))
        blocks = tuple(frozenset(v for v in range(n) if patterns[v] >> i & 1) for i in range(k))
        cov = Covering(p, tuple(b for b in blocks if b))

        def same(s, literal):
            size, edges, labels, roles = literal
            assert s.graph == Graph(size, edges, labels) and s.graph.labels == tuple(labels)
            assert s.roles == tuple(roles)

        for rho in (1, 2, 3):
            for r in range(rho + 1):
                for drop in itertools.combinations(range(1, rho + 1), r):
                    same(build_scaffold(c, p, cov, rho, drop),
                         oracles.layered_scaffold(c, p, cov.blocks, rho, drop))
        iota = data.draw(st.integers(0, cov.k - 1), label="iota")
        block = sorted(cov.blocks[iota])
        sides = data.draw(st.lists(st.sampled_from((1, 2, 3)), min_size=len(block),
                                   max_size=len(block)), label="split")
        q0 = frozenset(v for v, x in zip(block, sides) if x & 1) or frozenset(block[:1])
        q1 = frozenset(v for v, x in zip(block, sides) if x & 2)
        same(build_refined_scaffold(c, p, RefinedCovering(cov, iota, q0, q1)),
             oracles.refined_scaffold(c, p, cov.blocks, iota, q0, q1))


class TestVerifyAgainstLiteral:
    @settings(max_examples=300, deadline=None)
    @given(scaffold_cases())
    def test_report_matches_literal_verification(self, case):
        s, c, p = case
        rep = verify_construction(s, c, p)
        assert dataclasses.asdict(rep) == oracles.verification_report(s.graph, s.roles, c, p)


class TestLazyViews:
    """Verification compares masks: it runs the distance kernel but reads
    only eccentricities and eccentric sets, so it builds no vertex-set
    view of the analysis.  (The graph keeps no distance matrix, so no row
    can be built either.)"""

    VIEWS = {"center", "centered_periphery", "intermediate", "ec_map", "strata"}

    @pytest.fixture
    def analyses(self, monkeypatch):
        """Every analysis ``verify_construction`` makes while the test runs."""
        seen = []

        def record(g):
            seen.append(analysis.ucg_analysis(g))
            return seen[-1]

        monkeypatch.setattr(scaffolds, "ucg_analysis", record)
        return seen

    def built(self, a):
        """The views of the analysis that have been built."""
        return set(vars(a)) & self.VIEWS

    def test_verify_builds_no_row_and_no_view(self, analyses, k2):
        p, cov = two_k1_cover()
        s = build_scaffold(k2, p, cov, 2)
        assert verify_construction(s, k2, p).ok
        assert [a.graph for a in analyses] == [s.graph]
        assert self.built(analyses[0]) == set()

    def test_appendage_number_builds_no_row_and_no_view(self, analyses, k2):
        assert U.appendage_number(k2, U.named_graph("2k2")).value == 2
        assert analyses
        assert all(self.built(a) == set() for a in analyses)
