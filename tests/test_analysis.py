import pytest

import oracles
import ucgkit as U
from ucgkit import (INF, Covering, Graph, NotSpanningSubgraphError,
                    NotUcgError, RadiusTooSmallError, build_cone,
                    build_scaffold, induced_covering, periphery_covering,
                    periphery_gap_example, ucg_analysis)


class TestUcgAnalysis:
    def test_periphery_gap_fixture(self):
        g = periphery_gap_example().graph
        lab = {name: i for i, name in enumerate(g.labels)}
        a = ucg_analysis(g)
        assert a.center == {lab["c"]}
        assert a.centered_periphery == {lab[f"p{i}"] for i in range(1, 7)}
        assert a.is_ucg
        assert a.radius == 3 and a.diameter == 5
        periphery = {v for v in range(g.n) if g.ecc[v] == a.diameter}
        assert periphery == {lab[p] for p in ("p0", "p1", "p2", "p5", "p6", "p7")}

    def test_k2_is_not_ucg(self):
        a = ucg_analysis(Graph.complete(2))
        assert not a.is_ucg
        assert a.ec_map[0] == {1} and a.ec_map[1] == {0}

    def test_c6_is_not_ucg(self):
        a = ucg_analysis(Graph.cycle(6))
        assert not a.is_ucg
        # each eccentric set is the singleton antipode
        assert all(a.ec_map[v] == {(v + 3) % 6} for v in range(6))

    def test_single_vertex(self):
        a = ucg_analysis(Graph(1))
        assert a.is_ucg and a.center == {0} and a.radius == 0

    def test_disconnected_convention(self):
        a = ucg_analysis(Graph.empty(2))
        assert not a.is_ucg
        assert a.center == {0, 1}
        assert a.strata == (frozenset({0, 1}),)
        assert a.radius is INF

    def test_strata_partition_center_first(self):
        g = periphery_gap_example().graph
        a = ucg_analysis(g)
        assert a.strata[0] == a.center
        assert a.strata[int(a.radius)] >= a.centered_periphery
        seen = set()
        for s in a.strata:
            assert not (seen & s)
            seen |= s
        assert seen == set(range(g.n))

    def test_center_and_cp_can_overlap(self):
        # both ends of an edge are central, each the other's eccentric set
        a = ucg_analysis(Graph.complete(2))
        assert a.center == a.centered_periphery == {0, 1}
        assert a.intermediate == frozenset()


class TestInducedCovering:
    def test_scaffold_blocks(self, k2):
        tk1 = Graph.empty(2)
        cover = Covering(tk1, (frozenset({0}), frozenset({1})))
        s = build_scaffold(k2, tk1, cover, 1)
        res = induced_covering(s.graph)
        # apex foot has an empty block and is dropped; both P-blocks kept
        assert [sorted(b) for b in res.blocks] == [[2], [3]]
        assert res.kept == (0, 1)
        assert [s.roles[x] for x in res.d1] == ["spine:1,1", "spine:2,1"]

    def test_wheel_radius_too_small(self):
        wheel = build_cone(Graph.cycle(4)).graph
        with pytest.raises(RadiusTooSmallError):
            induced_covering(wheel)

    def test_non_ucg_rejected(self):
        with pytest.raises(NotUcgError):
            induced_covering(Graph.cycle(6))

    def test_periphery_gap_blocks_and_witnesses(self):
        g = periphery_gap_example().graph
        lab = {name: i for i, name in enumerate(g.labels)}
        res = induced_covering(g)
        assert [g.labels[x] for x in res.d1] == ["a1", "a2"]
        assert [sorted(b) for b in res.blocks] == [
            sorted(lab[p] for p in ("p1", "p2", "p3")),
            sorted(lab[p] for p in ("p4", "p5", "p6")),
        ]
        assert res.kept == (0, 1)
        assert res.witnesses == {0: lab["p1"], 1: lab["p4"]}

    def test_irredundant_reduction_drops_swallowed_block(self, k2):
        # three pairwise-overlapping blocks over 3 isolated vertices: the
        # first is contained in the union of the other two and gets dropped
        tk = Graph.empty(3)
        cover = Covering(tk, (frozenset({0, 1}), frozenset({1, 2}),
                              frozenset({0, 2})))
        s = build_scaffold(k2, tk, cover, 1)
        res = induced_covering(s.graph)
        assert [sorted(b) for b in res.blocks] == [[2, 3], [3, 4], [2, 4]]
        assert res.kept == (1, 2)
        assert res.witnesses == {1: 3, 2: 2}
        # kept blocks still cover, and witnesses are private
        assert res.blocks[1] | res.blocks[2] == frozenset({2, 3, 4})

    def test_kept_blocks_satisfy_condition_A(self):
        g = periphery_gap_example().graph
        sub, cov, _ = periphery_covering(g)
        assert U.check_condition(cov, "A").passed
        sub2, kept_cov, _ = periphery_covering(g, kept_only=True)
        assert U.check_condition(kept_cov, "A").passed

    def test_blocks_match_radial_path_oracle(self):
        # distance characterization vs explicit radial-path enumeration,
        # on every canonical UCG with radius >= 2 up to 7 vertices
        checked = 0
        for g in U.atlas_graphs(max_n=7, connected_only=True):
            a = ucg_analysis(g)
            if not a.is_ucg or a.radius < 2:
                continue
            res = induced_covering(g, a)
            oracle = oracles.radial_blocks(g, a.center, a.centered_periphery,
                                           sorted(a.strata[1]))
            mine = {x: blk for x, blk in zip(res.d1, res.blocks)}
            full = {x: blk for x, blk in
                    zip(sorted(a.strata[1]), oracle) if blk}
            assert mine == full, g.edges
            checked += 1
        assert checked == 73

    def test_radial_paths_single_center_small(self):
        for g in U.atlas_graphs(max_n=6, connected_only=True):
            a = ucg_analysis(g)
            if not a.is_ucg:
                continue
            for path in oracles.radial_paths(g):
                assert len(set(path) & a.center) == 1

    def test_cp_subgraph_radius_exceeds_one(self):
        for g in U.atlas_graphs(max_n=6, connected_only=True):
            a = ucg_analysis(g)
            if not a.is_ucg or a.radius < 2:
                continue
            sub, _, _ = periphery_covering(g)
            assert min(U.metric_profile(sub).ecc) > 1

    def test_intermediate_count_lower_bound(self):
        # every uniform central graph has at least kappa * (radius - 1)
        # intermediate vertices, kappa the smallest condition-A covering
        # of its centered-periphery subgraph
        checked = 0
        for g in U.atlas_graphs(max_n=7, connected_only=True):
            a = ucg_analysis(g)
            if not a.is_ucg or a.radius < 2:
                continue
            sub, _ = U.induced_subgraph(g, sorted(a.centered_periphery))
            kappa = U.cov_A(sub).value
            assert isinstance(kappa, int)
            assert len(a.intermediate) >= kappa * (int(a.radius) - 1), g.edges
            checked += 1
        assert checked == 73


class TestSpanningCheck:
    def test_identity(self):
        g = Graph.cycle(5)
        assert U.distance_preserving_spanning_check(g, g, {0, 1})

    def test_hub_distances_preserved(self):
        h = Graph.complete(3)
        g = Graph(3, [(0, 1), (1, 2)])
        assert U.distance_preserving_spanning_check(h, g, {1})

    def test_dropped_edge_lengthens(self):
        h = Graph.complete(3)
        g = Graph(3, [(0, 1), (1, 2)])
        assert not U.distance_preserving_spanning_check(h, g, {0})

    def test_not_spanning_rejected(self):
        with pytest.raises(NotSpanningSubgraphError):
            U.distance_preserving_spanning_check(Graph.path(3), Graph.path(4), {0})
        with pytest.raises(NotSpanningSubgraphError):
            U.distance_preserving_spanning_check(
                Graph.path(3), Graph(3, [(0, 2)]), {0})

    @pytest.mark.parametrize("center", [{-1}, {7}, {0, 3}])
    def test_ids_outside_the_graph_are_refused(self, center):
        g = Graph.path(3)
        with pytest.raises(ValueError, match="out of range for n=3"):
            U.distance_preserving_spanning_check(g, g, center)

    def test_preserving_subgraph_of_ucg_stays_ucg(self, k2):
        # drop one apex-foot edge of a verified scaffold and re-check
        tk1 = Graph.empty(2)
        cover = Covering(tk1, (frozenset({0}), frozenset({1})))
        h = build_scaffold(k2, tk1, cover, 1).graph
        a = ucg_analysis(h)
        for u, v in h.edges:
            g = Graph(h.n, [e for e in h.edges if e != (u, v)], h.labels)
            if U.distance_preserving_spanning_check(h, g, a.center):
                b = ucg_analysis(g)
                assert b.is_ucg
                assert b.center == a.center
                assert b.centered_periphery == a.centered_periphery
