import itertools
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
import ucgkit as U
from ucgkit import (INF, BoundExceededError, DomainError, Graph, Unknown,
                    appendage_center_only, appendage_number,
                    appendage_periphery_only, brute_force_appendage,
                    gen_P_alpha, gen_P_alpha_beta, verify_construction)
from ucgkit.appendage import _accepts, _oracle_hosts, _oracle_try_t


@pytest.fixture
def nothing_verifies(monkeypatch):
    # every scaffold fails, as overlapping blocks can make one fail
    monkeypatch.setattr(U.appendage, "verify_construction",
                        lambda s, c, p: SimpleNamespace(ok=False, intermediate_count=-1))


class TestAppendageNumber:
    def test_two_disjoint_edges(self, k2):
        res = appendage_number(k2, U.named_graph("2k2"))
        assert res.value == 2
        assert "diam>=4,r>=3" in res.case

    def test_two_isolated_general_center(self, p3):
        res = appendage_number(p3, Graph.empty(2))
        assert res.value == 4
        assert "disconnected" in res.case

    def test_seven_cycle_complete_center(self, k2):
        res = appendage_number(k2, Graph.cycle(7))
        assert res.value == 2

    def test_star_impossible_for_every_center(self, k2, p3):
        for c in (Graph(1), k2, p3):
            assert appendage_number(c, Graph.star(3)).value == INF

    def test_single_vertex_center_cone(self):
        res = appendage_number(Graph(1), Graph.cycle(4))
        assert res.value == 0 and res.witness is not None

    def test_four_cycle_needs_all_singletons(self, k2):
        res = appendage_number(k2, Graph.cycle(4))
        assert res.value == 4
        assert res.certificates["cov_AB_decision"]["reason"] == "singletons"

    def test_path_six_long_diameter(self, p3):
        # diameter 5 settles the general-center value at 2*kappa + 1
        res = appendage_number(p3, Graph.path(6))
        assert res.value == 5 and "diam>=5" in res.case

    def test_witness_soundness(self, k2, p3):
        for c, p in [(k2, U.named_graph("2k2")), (p3, Graph.empty(2)),
                     (Graph(1), Graph.cycle(5)), (k2, Graph.cycle(6)),
                     (p3, Graph.cycle(6)), (k2, gen_P_alpha(2).graph)]:
            res = appendage_number(c, p)
            assert isinstance(res.value, int)
            rep = verify_construction(res.witness, c, p)
            assert rep.ok and rep.intermediate_count == res.value

    def test_bounds_sandwich(self, k2, p3, atlas_r2):
        for g in atlas_r2[::17]:
            kappa = U.cov_A(g).value
            rk = appendage_number(k2, g).value
            assert kappa <= rk <= kappa + 1
            rc = appendage_number(p3, g).value
            assert 2 * kappa <= rc <= 2 * kappa + 2

    def test_unresolved_when_bound_blocks_the_decision(self, k2):
        res = appendage_number(k2, Graph.cycle(5), bound=4)
        assert res.value == Unknown(3, 4, 4, "vertex-bound")
        assert res.witness is None
        assert "undecided" in res.case

    def test_unknown_when_bound_blocks_the_first_general_route(self, p3):
        # kappa(C5) = 3 and n = 5 > 4 stops the A'B' route at once
        res = appendage_number(p3, Graph.cycle(5), bound=4)
        assert res.value == Unknown(6, 8, 4, "vertex-bound")
        assert res.certificates["cov_A'B'_decision"]["status"] == "vertex-bound"

    def test_open_2k_plus_1_takes_its_stop_from_the_refined_route(self, p3, prism7):
        # A'B' and A' have no size-2 covering (connected, diam 4); the
        # refined route is the one the bound stops
        res = appendage_number(p3, prism7, bound=10)
        assert res.value == Unknown(5, 6, 10, "vertex-bound")
        assert res.certificates["cov_A'_decision"]["status"] == "no-witness"
        assert res.certificates["cov_AA''B''_decision"]["status"] == "vertex-bound"

    @pytest.mark.parametrize("name, bound, value, keys", [
        ("2k2", None, 4, ["cov_A'B'_decision", "witness_covering"]),
        ("c5", 4, Unknown(6, 8, 4, "vertex-bound"), ["cov_A'B'_decision"]),
        ("prism7", 10, Unknown(5, 6, 10, "vertex-bound"),
         ["cov_A'B'_decision", "cov_A'_decision", "cov_AA''B''_decision"]),
        ("p4", None, 6,
         ["cov_A'B'_decision", "cov_A'_decision", "cov_AA''B''_decision"])])
    def test_certificates_at_each_exit_of_the_general_ladder(self, p3, name, bound,
                                                             value, keys):
        # the decisions of the routes run, in order, and the covering of
        # a built route; the top adds no decision of its own
        res = appendage_number(p3, U.named_graph(name), bound=bound)
        assert res.value == value
        assert list(res.certificates) == ["kappa", "cov_A_witness", "radius",
                                          "diameter", *keys]
        if name == "p4":
            assert res.case == ("general center: no size-kappa covering meets"
                                " A'+B', A', or A+A''+B''")

    def test_json_serialization(self, k2):
        res = appendage_number(k2, U.named_graph("2k2"))
        d = res.to_json()
        assert d["value"] == 2 and d["witness"]["graph6"]
        inf_d = appendage_number(k2, Graph.star(3)).to_json()
        assert inf_d["value"] == "inf"
        unres = appendage_number(k2, Graph.cycle(5), bound=4).to_json()
        assert unres["value"] == {"unknown": True, "lo": 3, "hi": 4, "bound": 4,
                                  "stop": "vertex-bound"}

    def test_no_build_leaves_the_complete_center_open(self, k2, nothing_verifies):
        res = appendage_number(k2, U.named_graph("2k2"))
        assert res.value == Unknown(2, 3, 14, "no-build")
        assert res.case == ("complete center: cov_AB undecided"
                            " (conditions met at k=2, no construction verified)")
        assert res.witness is None

    def test_no_build_leaves_2k_plus_1_open(self, p3, nothing_verifies):
        res = appendage_number(p3, U.named_graph("2k2"))
        assert res.value == Unknown(5, 6, 14, "no-build")
        assert [res.certificates[f"cov_{key}_decision"]["status"]
                for key in ("A'B'", "A'", "AA''B''")] == ["no-build"] * 3

    def test_witness_cap_stops_each_center_kind(self, k2, p3, nothing_verifies,
                                                monkeypatch):
        monkeypatch.setattr(U.appendage, "WITNESS_RETRY_CAP", 1)
        res = appendage_number(k2, U.named_graph("2k2"))
        assert res.value == Unknown(2, 3, 14, "witness-cap")
        res = appendage_number(p3, U.named_graph("2k2"))
        assert res.value == Unknown(4, 6, 14, "witness-cap")
        assert res.case == "general center: cov_A'B' undecided (witness retry cap at k=2)"

    def test_prism_values(self, p3, prism6, prism7):
        assert appendage_number(p3, prism6).value == 6
        assert appendage_number(p3, prism7).value == 5

    @pytest.mark.parametrize("g6, center, zone, value, case, witness_n", [
        ("I_?gAJOE_", "p3", (4, 3), 5,
         "general center: cov_AA''B''=kappa (decide@k=2)", 18),
        ("KeX?GOR?hSA@", "k2", (3, 3), 3,
         "complete center: cov_AB>kappa (exhausted@k=2)", 17)])
    def test_open_zone_minority_values(self, g6, center, zone, value, case, witness_n):
        # the smallest graphs known to take the value that no zone graph
        # on n <= 8 takes (general zone 6, complete zone 2); found by
        # random search, not by an exhaustive run
        p = U.decode_graph6(g6)
        prof = U.metric_profile(p)
        assert (prof.diameter, prof.radius) == zone
        res = appendage_number(U.named_graph(center), p)
        assert res.value == value
        assert res.case == case
        assert res.witness.graph.n == witness_n


class TestFamilies:
    @pytest.mark.parametrize("alpha,beta", [(2, 1), (3, 2)])
    def test_padded_doubled_clique_value(self, k2, alpha, beta):
        g = gen_P_alpha_beta(alpha, beta).graph
        res = appendage_number(k2, g)
        assert res.value == 2 * alpha
        assert g.n == 2 * alpha + beta

    @pytest.mark.parametrize("alpha", [2, 3])
    def test_doubled_clique_value_equals_order(self, k2, alpha):
        g = gen_P_alpha(alpha).graph
        assert appendage_number(k2, g).value == g.n == 2 * alpha


class TestCenterOnly:
    def test_values(self, p3):
        assert appendage_center_only(Graph(1)).value == 2
        assert appendage_center_only(Graph.complete(5)).value == 4
        assert appendage_center_only(p3).value == 6

    def test_witness_sizes_match(self, p3):
        for c, want in [(Graph(1), 2), (Graph.complete(5), 4), (p3, 6),
                        (Graph.cycle(5), 6), (Graph.empty(2), 6)]:
            res = appendage_center_only(c)
            assert res.value == want
            assert res.witness.graph.n - c.n == want
            p2 = Graph.empty(2, labels=["u", "v"])
            assert verify_construction(res.witness, c, p2).ok

    def test_missing_engine_witness_is_an_internal_error(self, nothing_verifies):
        with pytest.raises(U.InternalCheckError):
            appendage_center_only(Graph.complete(3))


class TestPeripheryOnly:
    def test_values(self):
        assert appendage_periphery_only(Graph.star(3)).value == INF
        assert appendage_periphery_only(Graph.empty(2)).value == 1
        assert appendage_periphery_only(Graph.cycle(6)).value == 1
        # radius 0 is just as impossible as radius 1
        assert appendage_periphery_only(Graph(1)).value == INF

    def test_cone_witness(self):
        res = appendage_periphery_only(Graph.cycle(6))
        assert res.witness.graph.n == 7
        assert verify_construction(res.witness, Graph(1), Graph.cycle(6)).ok


@st.composite
def _split_hosts(draw):
    """(host, nc, np_): a graph on n <= 9 vertices split into nc center
    vertices, then np_ periphery vertices, then the added ones, with a
    random edge set (connected or not)."""
    n = draw(st.integers(2, 9))
    nc = draw(st.integers(1, n - 1))
    np_ = draw(st.integers(1, n - nc))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    return Graph(n, edges), nc, np_


@st.composite
def _oracle_cases(draw):
    """(c, p, t) with at most 12 free edges, f(t) = |C||P| + t(|C|+|P|) +
    t(t-1)/2: random c on 1 to 3 vertices and p on 1 to 4."""
    def graph(n):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    c, p = graph(draw(st.integers(1, 3))), graph(draw(st.integers(1, 4)))
    f = [t for t in range(4) if c.n * p.n + t * (c.n + p.n) + t * (t - 1) // 2 <= 12]
    return c, p, draw(st.sampled_from(f))


def _frame_pairs(nc, np_, t):
    """The pairs a host of t added vertices may join: C-P for t = 0, else
    each vertex of C, then of P, with each added vertex, then the added
    pairs."""
    n = nc + np_ + t
    if t == 0:
        return [(u, v + nc) for u in range(nc) for v in range(np_)]
    w = range(nc + np_, n)
    return ([(u, x) for u in range(nc + np_) for x in w]
            + [(x, y) for x in w for y in w if x < y])


def _free_mask(host, pairs, n):
    """The mask over ``pairs`` of a packed host's edges; the host must
    hold nothing else."""
    mask = sum(1 << i for i, (u, v) in enumerate(pairs) if host >> (u * n + v) & 1)
    assert host == sum(1 << (u * n + v) | 1 << (v * n + u)
                       for i, (u, v) in enumerate(pairs) if mask >> i & 1)
    return mask


def _orbit_minimum(mask, pairs, added):
    """The least free-edge mask that a permutation of ``added`` maps
    ``mask`` to."""
    index = {pq: i for i, pq in enumerate(pairs)}
    best = mask
    for perm in itertools.permutations(added):
        sigma = dict(zip(added, perm))
        image = sum(1 << index[tuple(sorted((sigma.get(u, u), sigma.get(v, v))))]
                    for i, (u, v) in enumerate(pairs) if mask >> i & 1)
        best = min(best, image)
    return best


def _accepts_agrees(g, nc, np_):
    """Assert that ``_accepts`` on g's packed host gives the literal
    verdict, and return that verdict."""
    host = sum(row << (u * g.n) for u, row in enumerate(g.adj_masks))
    want = oracles.ucg_host_accepts(g, nc, np_)
    assert _accepts(host, nc, g.n, ((1 << np_) - 1) << nc) == want
    return want


class TestBruteForce:
    def test_cone_found_at_zero(self):
        assert brute_force_appendage(Graph(1), Graph.cycle(4), 0) == 0

    def test_two_disjoint_edges_at_two(self, k2):
        assert brute_force_appendage(k2, U.named_graph("2k2"), 2) == 2

    def test_star_never_found(self, k2):
        assert brute_force_appendage(k2, Graph.star(3), 2) is None

    def test_bound_guard(self, k2):
        with pytest.raises(BoundExceededError):
            brute_force_appendage(k2, Graph.path(4), 3)

    def test_accepting_t_before_the_bound_is_returned(self, k2):
        # f(3) = 29 free edges is past the default bound of 24, but t = 2
        # (f(2) = 21) accepts first
        assert brute_force_appendage(k2, U.named_graph("2k2"), 3) == 2

    def test_general_center_refuted_through_three(self, p3):
        # the engine says 4; f(4) = 32 free edges is past the default bound
        assert brute_force_appendage(p3, Graph.empty(2), 3) is None

    def test_complete_center_path_at_three(self, k2):
        assert brute_force_appendage(k2, Graph.path(4), 3, bound=30) == 3

    def test_general_center_path_refuted_through_two(self, p3):
        assert brute_force_appendage(p3, Graph.path(4), 2, bound=30) is None

    # (|C|, |P|, t): 2 to 15 free edges, t from 0 to 3
    @pytest.mark.parametrize("nc,np_,t", [(1, 2, 0), (2, 2, 1), (3, 4, 1), (2, 2, 2),
                                          (1, 4, 2), (1, 2, 3), (2, 2, 3)])
    def test_leader_masks_match_literal_orbit_minima(self, nc, np_, t):
        # the orbits the hosts reach are exactly the literal orbits
        pairs = _frame_pairs(nc, np_, t)
        added = range(nc + np_, nc + np_ + t)
        masks = [_free_mask(h, pairs, nc + np_ + t) for h in _oracle_hosts(nc, np_, t)]
        leaders = list(oracles.orbit_leader_masks(pairs, added))
        assert {_orbit_minimum(m, pairs, added) for m in masks} == set(leaders)
        if t <= 1:
            assert masks == list(range(1 << len(pairs)))

    def test_leader_masks_count_for_p3_two_isolated(self):
        # 262,144 free-edge masks in 45,760 orbits, tried as 47,872 hosts
        pairs = _frame_pairs(3, 2, 3)
        assert len(pairs) == 18
        masks = [_free_mask(h, pairs, 8) for h in _oracle_hosts(3, 2, 3)]
        assert len(masks) == 47_872
        assert len({_orbit_minimum(m, pairs, range(5, 8)) for m in masks}) == 45_760

    @pytest.mark.parametrize("nc,np_,t", [(1, 2, 0), (3, 4, 1), (1, 4, 2), (2, 2, 3),
                                          (2, 3, 0)])
    def test_hosts_touch_no_fixed_slot(self, nc, np_, t):
        # no edge inside C, inside P or on the diagonal, and no C-P edge
        # unless t = 0 and |C| = 1; every row agrees with its column
        m, n = nc + np_, nc + np_ + t
        slots = [(u, v) for u in range(n) for v in range(n)
                 if u == v or u < nc and v < nc or nc <= u < m and nc <= v < m
                 or (t or nc > 1) and (u < nc <= v < m or v < nc <= u < m)]
        fixed = sum(1 << (u * n + v) for u, v in slots)
        for host in _oracle_hosts(nc, np_, t):
            assert host & fixed == 0
            rows = [host >> (u * n) & (1 << n) - 1 for u in range(n)]
            assert all(rows[u] >> v & 1 == rows[v] >> u & 1
                       for u in range(n) for v in range(n))

    def test_refutes_what_the_engine_puts_past_t_max(self, k2, p3):
        for c, p, tmax, bound in [(k2, Graph.cycle(5), 2, 30), (k2, Graph.path(5), 2, 30),
                                  (p3, Graph.cycle(5), 1, U.appendage.DEFAULT_ORACLE_BOUND)]:
            assert brute_force_appendage(c, p, tmax, bound=bound) is None
            assert appendage_number(c, p).value > tmax  # 4, 3 and 8

    # 2 to 9 C-P pairs at t = 0 (one to two table bytes, a short last
    # one); columns over 2 to 9 vertices, a table wider than a byte;
    # 0 to 6 added-added pairs
    @pytest.mark.parametrize("nc,np_,t", [(1, 2, 0), (3, 4, 1), (1, 4, 2), (2, 2, 3),
                                          (1, 9, 0), (3, 6, 1), (1, 1, 4)])
    def test_host_tables_match_the_bit_walk(self, nc, np_, t):
        # the hosts, in order: for each added-added edge mask, each sorted
        # column tuple, every edge set bit by bit; at t = 0 the C-P pairs
        # are free only for |C| = 1
        m, n = nc + np_, nc + np_ + t
        added = range(m, n)
        if t:
            outer = [(x, y) for x in added for y in added if x < y]
            inner = list(itertools.combinations_with_replacement(range(1 << m), t))
        else:
            outer = [(u, v) for u in range(nc) for v in range(nc, m)] if nc == 1 else []
            inner = [()]
        expect = []
        for mask in range(1 << len(outer)):
            for cols in inner:
                edges = [pq for i, pq in enumerate(outer) if mask >> i & 1]
                edges += [(b, x) for x, col in zip(added, cols) for b in range(m)
                          if col >> b & 1]
                rows = [0] * n
                for u, v in edges:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                expect.append(rows)
        got = [[h >> (u * n) & (1 << n) - 1 for u in range(n)] for h in _oracle_hosts(nc, np_, t)]
        assert got == expect
        assert all(h >> (n * n) == 0 for h in _oracle_hosts(nc, np_, t))

    def test_negative_t_max_is_a_domain_error(self, k2):
        with pytest.raises(DomainError):
            brute_force_appendage(k2, Graph.empty(2), -1)

    @settings(max_examples=30, deadline=None)
    @given(_oracle_cases())
    # the two accepting cases of this class: (K2, 2K2) at t = 2 and, at
    # bound 30, (K2, P4) at t = 3
    @example((Graph.complete(2), Graph(4, [(0, 1), (2, 3)]), 2))
    @example((Graph.complete(2), Graph.path(4), 3))
    def test_try_t_matches_the_literal_subset_walk(self, case):
        assert _oracle_try_t(*case) == oracles.oracle_host_exists(*case)

    @settings(max_examples=400, deadline=None)
    @given(_split_hosts())
    # accepted: the cone over C4; K2 with 2K2 and two added vertices
    @example((Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)]), 1, 4))
    @example((Graph(8, [(0, 1), (0, 6), (0, 7), (1, 6), (1, 7), (2, 3), (2, 7), (3, 7),
                        (4, 5), (4, 6), (5, 6)]), 2, 4))
    # P is the last layer at depth 3 from vertex 0 and at depth 2 from
    # vertex 1, and every other vertex has eccentricity 3 or 4
    @example((Graph(6, [(0, 1), (1, 4), (1, 5), (2, 4), (3, 5)]), 2, 2))
    # disconnected: the first layer meeting P is P, but vertex 2 is unreached;
    # P is all that vertex 0 cannot reach
    @example((Graph(3, [(0, 1)]), 1, 1))
    @example((Graph(3, [(0, 1)]), 2, 1))
    # a periphery vertex as central as the center
    @example((Graph(3, [(0, 1), (0, 2), (1, 2)]), 1, 2))
    def test_accepts_matches_literal_acceptance(self, case):
        _accepts_agrees(*case)

    def test_accepts_matches_literal_on_every_small_host(self):
        # every labelled graph on 2..5 vertices under every split: 48 accepted
        accepted = 0
        for n in range(2, 6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for m in range(1 << len(pairs)):
                g = Graph(n, [pq for i, pq in enumerate(pairs) if m >> i & 1])
                for nc in range(1, n):
                    for np_ in range(1, n - nc + 1):
                        accepted += _accepts_agrees(g, nc, np_)
        assert accepted == 48

    def test_agreement_on_quick_pairs(self, k2):
        for c, p, tmax in [(Graph(1), Graph.path(4), 0),
                           (Graph(1), Graph.empty(2), 0),
                           (k2, Graph.empty(2), 2)]:
            engine = appendage_number(c, p).value
            oracle = brute_force_appendage(c, p, tmax)
            assert engine == oracle
