import json

import pytest

import ucgkit as U
from ucgkit import (DomainError, Graph, check_A, check_AdpBdp, cov_A,
                    decode_graph6, encode_graph6, fixture_manifest,
                    gen_P_alpha, gen_P_alpha_beta, gen_prism, metric_profile,
                    named_graph, periphery_gap_example, prism7_refined_cover,
                    refined_cover_of)


class TestDoubledClique:
    def test_alpha_two_is_a_four_cycle(self):
        g = gen_P_alpha(2).graph
        assert g.n == 4
        assert set(g.edges) == {(0, 1), (2, 3), (0, 3), (1, 2)}

    def test_alpha_three_metrics(self):
        prof = metric_profile(gen_P_alpha(3).graph)
        assert prof.radius == prof.diameter == 2

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_smallest_A_covering_uses_all_singletons(self, alpha):
        assert cov_A(gen_P_alpha(alpha).graph).value == 2 * alpha

    def test_domain(self):
        with pytest.raises(DomainError):
            gen_P_alpha(1)


class TestPaddedDoubledClique:
    def test_two_one_shape(self):
        g = gen_P_alpha_beta(2, 1).graph
        assert g.n == 5
        assert g.adj[4] == {1, 3}        # g1 adjacent exactly to e2, f2
        assert g.labels == ("e1", "e2", "f1", "f2", "g1")

    @pytest.mark.parametrize("alpha,beta", [(2, 1), (3, 2), (2, 3)])
    def test_metrics_and_size(self, alpha, beta):
        g = gen_P_alpha_beta(alpha, beta).graph
        assert g.n == 2 * alpha + beta
        prof = metric_profile(g)
        assert prof.radius == prof.diameter == 2

    @pytest.mark.parametrize("alpha,beta", [(2, 1), (3, 2)])
    def test_core_vertices_force_singleton_blocks(self, alpha, beta):
        # any block holding e_k or f_k (k >= 2) plus anything else has its
        # closed 1-ball equal to V, so cannot sit in a condition-A covering
        g = gen_P_alpha_beta(alpha, beta).graph
        full = g.full_mask
        core = [k - 1 for k in range(2, alpha + 1)]
        core += [alpha + k - 1 for k in range(2, alpha + 1)]
        for v in core:
            for other in range(g.n):
                if other == v:
                    continue
                ball = g.closed_masks[v] | g.closed_masks[other]
                assert ball == full

    def test_domain(self):
        with pytest.raises(DomainError):
            gen_P_alpha_beta(1, 1)
        with pytest.raises(DomainError):
            gen_P_alpha_beta(2, 0)


class TestPrisms:
    @pytest.mark.parametrize("m,r,d", [(3, 2, 2), (6, 4, 4), (7, 4, 4)])
    def test_metrics(self, m, r, d):
        prof = metric_profile(gen_prism(m).graph)
        assert (prof.radius, prof.diameter) == (r, d)

    def test_structure(self):
        g = gen_prism(5).graph
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(10))

    def test_domain(self):
        with pytest.raises(DomainError):
            gen_prism(2)


class TestPeripheryGap:
    def test_caption_properties(self):
        g = periphery_gap_example().graph
        lab = {name: i for i, name in enumerate(g.labels)}
        a = U.ucg_analysis(g)
        periphery = {v for v in range(g.n) if g.ecc[v] == a.diameter}
        assert periphery == {lab[p] for p in ("p0", "p1", "p2", "p5", "p6", "p7")}
        assert a.centered_periphery == {lab[f"p{i}"] for i in range(1, 7)}
        assert a.center == {lab["c"]} and g.ecc[lab["c"]] == 3

    def test_size(self):
        g = periphery_gap_example().graph
        assert g.n == 13 and g.m == 17


class TestPrism7Cover:
    def test_partition_is_valid_and_passes(self):
        rc = refined_cover_of(prism7_refined_cover())
        assert check_A(rc.base).passed
        ra, rb = check_AdpBdp(rc)
        assert ra.passed and rb.passed

    def test_sets_partition_the_prism(self):
        fx = prism7_refined_cover()
        q0 = set(fx.extras["q0"])
        q1 = set(fx.extras["q1"])
        p2 = set(fx.extras["blocks"][1])
        assert not (q0 & q1) and not ((q0 | q1) & p2)
        assert q0 | q1 | p2 == set(range(14))


class TestRegistry:
    def test_fixtures_regenerate_byte_identically(self):
        first = {fx.name: (encode_graph6(fx.graph), fx.graph.labels, fx.extras)
                 for fx in U.all_fixtures()}
        second = {fx.name: (encode_graph6(fx.graph), fx.graph.labels, fx.extras)
                  for fx in U.all_fixtures()}
        assert first == second
        assert len(first) == len(U.all_fixtures())

    def test_manifest_round_trip(self):
        man = fixture_manifest()
        assert set(man) >= {"2k1", "2k2", "prism6", "prism7", "periphery_gap",
                            "prism7_cover", "palpha3"}
        for name, entry in man.items():
            g = decode_graph6(entry["graph6"])
            assert g.n >= 1 and "provenance" in entry
        json.dumps(man)  # JSON-serializable throughout

    def test_named_graph_tokens(self):
        assert named_graph("k5").is_complete and named_graph("k5").n == 5
        assert named_graph("p4").m == 3
        assert named_graph("c6").m == 6
        assert named_graph("star3").degree(0) == 3
        assert named_graph("k1_3").m == 3
        assert named_graph("2k1").m == 0 and named_graph("2k1").n == 2
        assert named_graph("2k2").m == 2 and named_graph("2k2").n == 4
        assert named_graph("3k2").n == 6
        assert named_graph("prism6").n == 12
        assert named_graph("palpha3").n == 6
        assert named_graph("palphabeta3_2").n == 8
        assert named_graph("periphery_gap").n == 13
        with pytest.raises(DomainError):
            named_graph("mystery9")

    @pytest.mark.parametrize("token", ["p1001", "c1001", "1001k1", "2k501",
                                       "star1000", "prism501"])
    def test_oversized_token_rejected_before_building(self, token, monkeypatch):
        assert U.families.MAX_TOKEN_VERTICES == 1000
        init = Graph.__init__

        def guarded(g, n, *args, **kwargs):
            assert n <= 1000, f"built a graph on {n} vertices"
            init(g, n, *args, **kwargs)
        monkeypatch.setattr(Graph, "__init__", guarded)
        with pytest.raises(DomainError, match="more than 1000"):
            named_graph(token)

    def test_token_at_the_cap_builds(self):
        assert named_graph("p1000").n == 1000 and named_graph("500k2").n == 1000
