import math

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ucgkit import (INF, Graph, eccentric_set, induced_subgraph,
                    metric_profile, ucg_analysis)
from ucgkit.graphs import bfs_layers


def random_graph_strategy(max_n=8):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = draw(st.integers(0, (1 << len(pairs)) - 1))
        return Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
    return build()


class TestConstruction:
    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            Graph(0)

    def test_adjacency_symmetric_and_deduped(self):
        g = Graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.adj[0] == {1} and g.adj[1] == {0, 2}
        assert g.m == 2

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            Graph(2, [], labels=["a"])

    def test_named_constructors(self):
        assert Graph.complete(4).m == 6
        assert Graph.path(5).m == 4
        assert Graph.cycle(5).m == 5
        assert Graph.star(3).m == 3
        u = Graph.disjoint_union([Graph.complete(2), Graph.complete(2)])
        assert u.n == 4 and set(u.edges) == {(0, 1), (2, 3)}


class TestDistances:
    def test_two_edge_path(self):
        g = Graph.path(3)
        assert g.dist[0][2] == 2

    def test_disconnected_pair_is_infinite(self):
        g = Graph.empty(2)
        assert g.dist[0][1] == INF

    def test_periphery_gap_fixture_distance(self):
        from ucgkit import periphery_gap_example
        g = periphery_gap_example().graph
        c = g.labels.index("c")
        p1 = g.labels.index("p1")
        assert g.dist[c][p1] == 3

    def test_matrix_contract(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        d = g.dist
        for u in range(5):
            assert d[u][u] == 0
            for v in range(5):
                assert d[u][v] == d[v][u]
        assert d[0][3] == INF and d[2][0] == 2

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy())
    def test_distances_match_floyd_warshall(self, g):
        d = g.dist
        ref = oracles.floyd_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert d[u][v] == ref[u, v]


def sparse_graph_strategy(max_n=10):
    """Graphs from a small random edge set: often disconnected."""
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
        return Graph(n, sorted(edges))
    return build()


kernel_graphs = st.one_of(random_graph_strategy(max_n=10), sparse_graph_strategy())


def _mask(vs):
    return sum(1 << v for v in vs)


class TestLayerKernelAgainstFloyd:
    @settings(max_examples=300, deadline=None)
    @given(kernel_graphs)
    def test_per_vertex_quantities(self, g):
        d = oracles.floyd_distances(g)
        ecc = oracles.eccentricities(g)
        vs = range(g.n)
        for v in vs:
            for u in vs:
                if d[v, u] == math.inf:
                    assert g.dist[v][u] is INF
                else:
                    assert g.dist[v][u] == d[v, u] and type(g.dist[v][u]) is int
            assert g.ecc[v] == ecc[v]
            assert (g.ecc[v] is INF) == (ecc[v] == math.inf)
            assert eccentric_set(g, v) == {u for u in vs if d[v, u] == ecc[v]}
            for t in range(-1, g.n + 1):
                assert g.ball_masks(t)[v] == _mask(u for u in vs if d[v, u] <= t)
                assert g.far_masks(t)[v] == _mask(u for u in vs if d[v, u] >= t)
        assert g.is_connected == all(e != math.inf for e in ecc)

    @settings(max_examples=300, deadline=None)
    @given(kernel_graphs, st.data())
    def test_multi_source_layers(self, g, data):
        sources = data.draw(st.integers(0, g.full_mask), label="sources")
        d = oracles.floyd_distances(g)
        to_set = [oracles.dset(d, [s for s in range(g.n) if sources >> s & 1], v)
                  for v in range(g.n)]
        deepest = max((x for x in to_set if x != math.inf), default=0)
        layers, reached = bfs_layers(g.adj_masks, sources)
        assert len(layers) == deepest + 1
        for k, layer in enumerate(layers):
            assert layer == _mask(v for v in range(g.n) if to_set[v] == k)
        assert reached == _mask(v for v in range(g.n) if to_set[v] != math.inf)

    @settings(max_examples=300, deadline=None)
    @given(kernel_graphs)
    def test_ucg_analysis_fields(self, g):
        d = oracles.floyd_distances(g)
        ecc = oracles.eccentricities(g)
        vs = range(g.n)
        r = min(ecc)
        center = [v for v in vs if ecc[v] == r]
        ec = {z: {u for u in vs if d[z, u] == ecc[z]} for z in center}
        cp = set().union(*ec.values())
        a = ucg_analysis(g)
        assert a.center == set(center)
        assert list(a.ec_map) == center and a.ec_map == ec
        assert a.centered_periphery == cp
        assert a.intermediate == set(vs) - set(center) - cp
        assert (a.radius, a.diameter) == (r, max(ecc))
        if r == math.inf:
            assert a.strata == (frozenset(vs),) and not a.is_ucg
        else:
            to_center = [oracles.dset(d, center, v) for v in vs]
            assert a.strata == tuple({v for v in vs if to_center[v] == m}
                                     for m in range(int(r) + 1))
            assert a.is_ucg == all(ec[z] == cp for z in center)


class TestMetricProfile:
    def test_odd_cycle(self):
        prof = metric_profile(Graph.cycle(7))
        assert (prof.radius, prof.diameter) == (3, 3)

    def test_heptagonal_prism(self):
        from ucgkit import gen_prism
        prof = metric_profile(gen_prism(7).graph)
        assert (prof.radius, prof.diameter) == (4, 4)

    def test_star(self):
        prof = metric_profile(Graph.star(3))
        assert (prof.radius, prof.diameter) == (1, 2)

    def test_disconnected_all_infinite(self):
        prof = metric_profile(Graph.empty(3))
        assert prof.radius is INF and prof.diameter is INF
        assert all(e is INF for e in prof.ecc)

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy())
    def test_radius_diameter_sandwich(self, g):
        prof = metric_profile(g)
        assert prof.radius == min(prof.ecc)
        assert prof.diameter == max(prof.ecc)
        if prof.diameter is not INF:
            assert prof.radius <= prof.diameter <= 2 * prof.radius


class TestSetDistances:
    def test_infinity_absorbs_thresholds(self):
        assert INF >= 2 and INF >= 3 and INF >= 4
        assert INF + 1 == INF
        assert math.isinf(INF)


class TestInducedSubgraph:
    def test_relabeling(self):
        g = Graph(5, [(0, 2), (2, 4), (1, 3)])
        sub, old = induced_subgraph(g, [4, 0, 2])
        assert old == (0, 2, 4)
        assert set(sub.edges) == {(0, 1), (1, 2)}

    def test_labels_carry_over(self):
        g = Graph(3, [(0, 1)], labels=["x", "y", "z"])
        sub, _ = induced_subgraph(g, [0, 2])
        assert sub.labels == ("x", "z")
