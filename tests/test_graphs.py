import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ucgkit import (INF, Graph, eccentric_set, induced_subgraph,
                    metric_profile, ucg_analysis)
from ucgkit import graphs
from ucgkit.graphs import bfs_layers, bits


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


def layer_distance(g, u, v):
    """d(u, v) read off u's layers: the index of the layer holding v, or
    INF when no layer does."""
    return next((d for d, layer in enumerate(g.layers[u]) if layer >> v & 1), INF)


class TestDistances:
    def test_two_edge_path(self):
        g = Graph.path(3)
        assert layer_distance(g, 0, 2) == 2 == oracles.floyd_distances(g)[0, 2]
        assert g.ecc[0] == 2

    def test_disconnected_pair_is_infinite(self):
        g = Graph.empty(2)
        assert layer_distance(g, 0, 1) is INF
        assert oracles.floyd_distances(g)[0, 1] == math.inf
        assert g.ecc == (INF, INF)

    def test_periphery_gap_fixture_distance(self):
        from ucgkit import periphery_gap_example
        g = periphery_gap_example().graph
        c = g.labels.index("c")
        p1 = g.labels.index("p1")
        assert layer_distance(g, c, p1) == 3 == oracles.floyd_distances(g)[c, p1]

    def test_matrix_contract(self):
        # symmetric with a zero diagonal, as read off the layers
        g = Graph(5, [(0, 1), (1, 2), (3, 4)])
        for u in range(5):
            assert g.layers[u][0] == 1 << u
            for v in range(5):
                assert layer_distance(g, u, v) == layer_distance(g, v, u)
        assert layer_distance(g, 0, 3) is INF and layer_distance(g, 2, 0) == 2

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy())
    def test_distances_match_floyd_warshall(self, g):
        ref = oracles.floyd_distances(g)
        for u in range(g.n):
            for v in range(g.n):
                assert layer_distance(g, u, v) == ref[u, v]


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


def assert_metrics_match_floyd(g):
    """Every per-vertex quantity the distance search gives, against the
    Floyd-Warshall distances."""
    d = oracles.floyd_distances(g)
    ecc = oracles.eccentricities(g)
    vs = range(g.n)
    for v in vs:
        depth = max(x for x in (d[v, u] for u in vs) if x != math.inf)
        assert g.layers[v] == tuple(_mask(u for u in vs if d[v, u] == t)
                                    for t in range(depth + 1))
        assert g.ecc[v] == ecc[v]
        assert (g.ecc[v] is INF) == (ecc[v] == math.inf)
        assert g.ecc_masks[v] == _mask(u for u in vs if d[v, u] == ecc[v])
        assert eccentric_set(g, v) == {u for u in vs if d[v, u] == ecc[v]}
        for t in range(-1, g.n + 1):
            assert g.ball_masks(t)[v] == _mask(u for u in vs if d[v, u] <= t)
            assert g.far_masks(t)[v] == _mask(u for u in vs if d[v, u] >= t)
    assert g.is_connected == all(e != math.inf for e in ecc)


def chorded_pieces(n):
    """A cycle with chords on all but the last five vertices, then a path
    on three and two isolated vertices."""
    m = n - 5
    edges = [(i, (i + 1) % m) for i in range(m)] + [(i, i + 3) for i in range(0, m - 3, 4)]
    return Graph(n, edges + [(m, m + 1), (m + 1, m + 2)])


CUTOFF = graphs.PACKED_BFS_MAX_N


class TestLayerKernelAgainstFloyd:
    @settings(max_examples=300, deadline=None)
    @given(kernel_graphs)
    def test_per_vertex_quantities(self, g):
        assert_metrics_match_floyd(g)

    @pytest.mark.parametrize("g", [
        Graph(1), Graph(2), Graph.path(2),
        chorded_pieces(CUTOFF), chorded_pieces(CUTOFF + 1),
        Graph.path(CUTOFF), Graph.path(CUTOFF + 1),
        Graph.cycle(CUTOFF), Graph.cycle(CUTOFF + 1),
        Graph(CUTOFF), Graph(CUTOFF + 1),
    ], ids=lambda g: f"n{g.n}m{g.m}")
    def test_both_searches_at_the_cutoff(self, g):
        assert_metrics_match_floyd(g)
        packed = isinstance(vars(g)["layers"], graphs.PackedLayers)
        assert packed == (g.n <= CUTOFF)

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

    @settings(max_examples=300, deadline=None)
    @given(kernel_graphs)
    def test_ucg_analysis_masks_match_views(self, g):
        a = ucg_analysis(g)
        assert a.center == frozenset(bits(a.center_mask))
        assert a.centered_periphery == frozenset(bits(a.cp_mask))
        assert a.intermediate == frozenset(bits(g.full_mask & ~(a.center_mask | a.cp_mask)))
        assert a.ec_map == {z: frozenset(bits(m)) for z, m in zip(sorted(a.center), a.ec_masks)}
        assert a.strata[0] == a.center


class TestTracedSearch:
    """``perfbench`` times the distance kernel by wrapping the function
    of the ``Graph.dist`` cached property in a new cached property; these
    tests pin what that wrapping relies on."""

    def test_dist_is_a_cached_property(self):
        assert isinstance(Graph.__dict__["dist"], functools.cached_property)

    @pytest.mark.parametrize("n", [5, CUTOFF + 1])
    def test_metrics_run_dist_once_and_store_no_matrix(self, monkeypatch, n):
        calls = []
        search = Graph.__dict__["dist"].func

        def counted(g):
            calls.append(g)
            return search(g)
        traced = functools.cached_property(counted)
        traced.__set_name__(Graph, "dist")
        monkeypatch.setattr(Graph, "dist", traced)
        g = Graph.cycle(n)
        before = set(vars(g))
        g.ecc, g.ecc_masks, g.layers, g.ecc, g.layers[0], metric_profile(g)
        assert calls == [g] and g.dist is None
        assert set(vars(g)) - before == {"dist", "layers", "ecc", "ecc_masks"}


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
