import gc
import itertools
import json
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import ucgkit as U
from ucgkit import (CONDITIONS, INFEASIBLE, BoundExceededError, Covering, Graph,
                    PreconditionError, RefinedCovering, Unknown, check_condition,
                    construct_AB_bipartition, cov_A, cov_profile,
                    decide_cover_k, gen_P_alpha, gen_prism,
                    iter_covering_witnesses, singleton_covering,
                    two_ball_triple_check)
from ucgkit.coverings import (PROFILE_CONDS, _decide_dfs, _pack, _packed_tables,
                              singleton_witness)
from ucgkit.graphs import bits


def cover(g, *blocks):
    return Covering(g, tuple(frozenset(b) for b in blocks))


def full_stream(g, k, conds):
    """Every size-k covering of ``g`` meeting ``conds``, not only the orbit
    leaders ``iter_covering_witnesses`` yields, wrapped as it wraps them."""
    for bm, split in _decide_dfs(g, k, frozenset(conds), False):
        c = cover(g, *(bits(m) for m in bm))
        yield c if split is None else RefinedCovering(c, 0, *(frozenset(bits(m))
                                                                for m in split))


class TestCoveringType:
    def test_union_must_cover(self):
        with pytest.raises(ValueError):
            cover(Graph.path(3), {0}, {1})

    def test_blocks_nonempty(self):
        with pytest.raises(ValueError):
            cover(Graph.path(3), {0, 1, 2}, set())

    def test_negative_vertex_is_out_of_range(self):
        with pytest.raises(ValueError, match="out-of-range"):
            cover(Graph.path(3), {-1}, {1, 2})

    def test_non_integer_vertex_is_out_of_range(self):
        with pytest.raises(ValueError, match="out-of-range"):
            cover(Graph.path(3), {0, 1, 2}, {1.5})

    def test_refined_validation(self):
        c = cover(Graph.path(3), {0, 1}, {2})
        with pytest.raises(ValueError):
            RefinedCovering(c, 0, frozenset(), frozenset({0, 1}))
        with pytest.raises(ValueError):
            RefinedCovering(c, 0, frozenset({0}), frozenset())
        rc = RefinedCovering(c, 0, frozenset({0}), frozenset({1}))
        assert rc.q0 | rc.q1 == c.blocks[0]

    def test_json_round_trip(self):
        g = Graph.path(4)
        c = cover(g, {0, 1}, {2, 3})
        rc = RefinedCovering(c, 0, frozenset({0}), frozenset({1}))
        assert U.covering_from_json(g, c.to_json()) == c
        assert U.covering_from_json(g, rc.to_json()) == rc

    def test_bool_ids_are_written_as_ints(self):
        c = Covering(Graph.path(2), (frozenset({False}), frozenset({True})))
        assert json.dumps(c.to_json()) == '{"blocks": [[0], [1]]}'
        whole = Covering(Graph.path(2), (frozenset({0, 1}),))
        rc = RefinedCovering(whole, False, frozenset({True}), frozenset({False}))
        assert json.dumps(rc.to_json()) == '{"blocks": [[0, 1]], "iota": 0, "q0": [1], "q1": [0]}'


class TestConditionCheckers:
    def test_A_cross_component_distance(self):
        assert check_condition(cover(Graph.empty(2), {0}, {1}), "A").passed

    def test_A_single_block_fails(self):
        rep = check_condition(cover(Graph.cycle(5), range(5)), "A")
        assert not rep.passed
        assert rep.violations == (("block 0", "A"),)

    def test_A_prism_figure_blocks(self, prism7):
        fx = U.prism7_refined_cover()
        blocks = [set(b) for b in fx.extras["blocks"]]
        assert check_condition(cover(prism7, *blocks), "A").passed

    def test_B_singletons_radius_two(self):
        assert check_condition(singleton_covering(Graph.cycle(5)), "B").passed

    def test_B_two_isolated(self):
        c = cover(Graph.empty(2), {0}, {1})
        assert check_condition(c, "B").passed and check_condition(c, "A").passed

    def test_B_c4_split_fails(self):
        rep = check_condition(cover(Graph.cycle(4), {0, 1}, {2, 3}), "B")
        assert not rep.passed
        assert ("vertex 0 in block 0", "B-1") in rep.violations
        assert ("vertex 0 in block 0", "B-2") in rep.violations

    def test_Aprime_path_halves(self):
        assert check_condition(cover(Graph.path(6), {0, 1, 2}, {3, 4, 5}), "A'").passed

    def test_Aprime_two_isolated(self):
        assert check_condition(cover(Graph.empty(2), {0}, {1}), "A'").passed

    def test_Aprime_heptagonal_prism_needs_three_blocks(self, prism7):
        dec = decide_cover_k(prism7, 2, ("A'",))
        assert not dec.found and dec.method == "exhausted"

    def test_Bprime_component_split(self):
        g = Graph.disjoint_union([Graph.path(2), Graph.path(3)])
        assert check_condition(cover(g, {0, 1}, {2, 3, 4}), "B'").passed

    def test_Bprime_connected_split_fails_at_boundary(self):
        rep = check_condition(cover(Graph.path(4), {0, 1}, {2, 3}), "B'")
        assert not rep.passed
        assert ("vertex 1 in block 0", "B'") in rep.violations
        assert ("vertex 2 in block 1", "B'") in rep.violations

    def test_Bprime_singletons(self):
        assert check_condition(singleton_covering(Graph.cycle(5)), "B'").passed

    def test_refined_trivial_split_inherits_Aprime_Bprime(self):
        # any covering passing A' and B', refined with Q0 = first block and
        # Q1 empty, passes A'' and B''; exercised on component splits of
        # disconnected graphs and on singleton coverings
        sampled = 0
        for g in U.atlas_graphs(max_n=6):
            candidates = []
            if min(g.ecc) >= 2:
                candidates.append(singleton_covering(g))
            if not g.is_connected:
                comp = frozenset(bits(sum(g.layers[0])))
                candidates.append(cover(g, comp, set(range(g.n)) - comp))
            for c in candidates:
                if check_condition(c, "A'").passed and check_condition(c, "B'").passed:
                    rc = RefinedCovering(c, 0, c.blocks[0], frozenset())
                    ra, rb = check_condition(rc, "A''"), check_condition(rc, "B''")
                    assert ra.passed and rb.passed
                    sampled += 1
        assert sampled > 100

    def test_refined_prism_figure(self, prism7):
        rc = U.refined_cover_of(U.prism7_refined_cover())
        ra, rb = check_condition(rc, "A''"), check_condition(rc, "B''")
        assert ra.passed and rb.passed

    def test_refined_violations_name_subclauses(self, prism7):
        fx = U.prism7_refined_cover()
        blocks = [frozenset(b) for b in fx.extras["blocks"]]
        base = Covering(prism7, tuple(blocks))
        # a deliberately bad split: everything into Q0
        rc = RefinedCovering(base, 0, blocks[0], frozenset())
        ra, rb = check_condition(rc, "A''"), check_condition(rc, "B''")
        assert not (ra.passed and rb.passed)
        tags = {t for _, t in ra.violations + rb.violations}
        assert tags <= {"A''-1a", "A''-1b", "A''-1c", "A''-2a", "A''-2b",
                        "B''-1a", "B''-1b", "B''-1c", "B''-1d",
                        "B''-2a", "B''-2b"}
        assert tags

    def test_checkers_match_literal_oracles(self):
        rng = random.Random(11)
        for g in U.atlas_graphs(max_n=5):
            covs = list(oracles.all_coverings(g, 2))
            for blocks in rng.sample(covs, min(12, len(covs))):
                c = Covering(g, blocks)
                assert check_condition(c, "A").passed == oracles.cond_A(g, blocks)
                assert check_condition(c, "B").passed == oracles.cond_B(g, blocks)
                assert check_condition(c, "A'").passed == oracles.cond_Aprime(g, blocks)
                assert check_condition(c, "B'").passed == oracles.cond_Bprime(g, blocks)
                for q0, q1 in itertools.islice(oracles.all_splits(blocks[0]), 6):
                    rc = RefinedCovering(c, 0, q0, q1)
                    ra, rb = check_condition(rc, "A''"), check_condition(rc, "B''")
                    assert ra.passed == oracles.cond_Adp(g, blocks, 0, q0, q1)
                    assert rb.passed == oracles.cond_Bdp(g, blocks, 0, q0, q1)

    def test_monotonicity_of_conditions(self):
        # random coverings: every A'-pass also passes A, every B'-pass B
        rng = random.Random(3)
        for g in U.atlas_graphs(max_n=6):
            for _ in range(8):
                k = rng.choice((2, 3))
                pat = [rng.randrange(1, 1 << k) for _ in range(g.n)]
                blocks = tuple(frozenset(v for v in range(g.n)
                                         if pat[v] >> i & 1) for i in range(k))
                if not all(blocks):
                    continue
                c = Covering(g, blocks)
                if check_condition(c, "A'").passed:
                    assert check_condition(c, "A").passed
                if check_condition(c, "B'").passed:
                    assert check_condition(c, "B").passed


class TestCovA:
    def test_doubled_clique(self):
        assert cov_A(gen_P_alpha(3).graph).value == 6

    def test_star_infeasible(self):
        res = cov_A(Graph.star(3))
        assert res.value is INFEASIBLE and res.witness is None

    def test_c6(self):
        res = cov_A(Graph.cycle(6))
        assert res.value == 2
        assert check_condition(res.witness, "A").passed

    def test_lower_bound_two_when_feasible(self):
        for g in U.atlas_graphs(max_n=5):
            res = cov_A(g)
            if res.found:
                assert res.value >= 2

    def test_feasibility_iff_radius_at_least_two(self):
        for g in U.atlas_graphs(max_n=6):
            assert cov_A(g).found == (min(g.ecc) >= 2)

    def test_matches_naive_enumeration(self):
        for g in U.atlas_graphs(max_n=4):
            res = cov_A(g)
            naive = oracles.min_cover_A_naive(g, 4)
            assert (res.value if res.found else None) == naive
        for g in U.atlas_graphs(max_n=5, min_n=5):
            res = cov_A(g)
            naive = oracles.min_cover_A_naive(g, 3)
            if res.found and res.value <= 3:
                assert res.value == naive
            else:
                assert naive is None

    def test_witness_reverified(self):
        for g in [Graph.cycle(5), gen_P_alpha(2).graph, Graph.empty(3)]:
            res = cov_A(g)
            assert check_condition(res.witness, "A").passed
            assert len(res.witness.blocks) == res.value

    def test_set_cover_runs_once_per_graph(self, monkeypatch, k2, p3):
        runs = []
        run = U.coverings._min_set_cover
        monkeypatch.setattr(U.coverings, "_min_set_cover",
                            lambda *args: runs.append(args) or run(*args))
        for p in (Graph.cycle(6), Graph.path(5)):
            U.appendage_number(k2, p)
            U.appendage_number(p3, p)
            cov_profile(p)
        assert len(runs) == 2

    def test_answers_do_not_depend_on_call_order(self, k2, p3):
        asks = (lambda p: U.appendage_number(k2, p).to_json(),
                lambda p: U.appendage_number(p3, p).to_json(),
                lambda p: {key: r.to_json() for key, r in cov_profile(p).items()})
        for make in (lambda: Graph.cycle(6), lambda: Graph.path(5),
                     lambda: Graph.empty(3)):
            fresh = [ask(make()) for ask in asks]
            for order in itertools.permutations(range(3)):
                p = make()
                assert {i: asks[i](p) for i in order} == dict(enumerate(fresh))

    def test_store_holds_no_reference_to_its_graph(self):
        # no cycle: the graph dies on its last reference, without gc
        gc.disable()
        try:
            for make in (lambda: Graph.cycle(6), lambda: Graph.star(3)):
                g = make()
                ref = weakref.ref(g)
                cov_A(g)
                del g
                assert ref() is None
        finally:
            gc.enable()

    def test_set_cover_equals_decide_minimum(self):
        # the set-cover reduction and the generic decision procedure agree
        # on the smallest condition-A covering size, for every canonical
        # graph on up to 6 vertices; a duplicate block lifts any witness
        # to the next size, so found-at-k is monotone and two probes pin
        # the minimum exactly
        for g in U.atlas_graphs(max_n=6):
            res = cov_A(g)
            if res.found:
                kappa = res.value
                assert decide_cover_k(g, kappa, ("A",), bound=10).found, g.edges
                if kappa > 2:
                    assert not decide_cover_k(g, kappa - 1, ("A",),
                                              bound=10).found, g.edges
            else:
                assert not decide_cover_k(g, 2, ("A",)).found
                assert not decide_cover_k(g, 3, ("A",)).found


class TestDecide:
    def test_c7_ab_witness(self):
        dec = decide_cover_k(Graph.cycle(7), 2, ("A", "B"))
        assert dec.found and dec.value == 2
        assert (check_condition(dec.witness, "A").passed
                and check_condition(dec.witness, "B").passed)

    def test_c7_handmade_cover_valid(self):
        c = cover(Graph.cycle(7), {6, 0, 1}, {2, 3, 4, 5})
        assert check_condition(c, "A").passed and check_condition(c, "B").passed

    def test_lexicographically_first_witness(self):
        g = Graph.cycle(7)
        dec = decide_cover_k(g, 2, ("A", "B"))
        # reference: first valid assignment in plain pattern order
        expect = None
        for blocks in oracles.all_coverings(g, 2):
            if oracles.cond_A(g, blocks) and oracles.cond_B(g, blocks):
                expect = blocks
                break
        assert dec.witness.blocks == expect

    def test_iterator_yields_all_valid_coverings(self):
        g = Graph.cycle(5)
        mine = [w.blocks for w in full_stream(g, 2, ("A",))]
        ref = [b for b in oracles.all_coverings(g, 2) if oracles.cond_A(g, b)]
        assert mine == ref

    def test_exhausted_on_impossible(self):
        dec = decide_cover_k(Graph.star(3), 2, ("A",))
        assert not dec.found and dec.value is INFEASIBLE

    def test_bound_exceeded(self):
        with pytest.raises(BoundExceededError):
            decide_cover_k(Graph.cycle(15), 2, ("A",))
        with pytest.raises(BoundExceededError):
            decide_cover_k(Graph.cycle(11), 3, ("A",))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_pattern_tables_match_their_definition(self, k):
        # the k-only pattern tables, read through one-block guard keys
        w, rep, sup, touch, swap, nonempty, no_block0 = _packed_tables(1, k)
        pats = range(1 << k)

        def bitset(keep):
            return sum(1 << pat for pat in pats if keep(pat))

        holding = [sup[rep[1 << i] << 1] for i in range(k)]
        assert holding == [touch[rep[1 << i] << 1] for i in range(k)]
        assert holding == [bitset(lambda pat: pat >> i & 1) for i in range(k)]
        assert nonempty == bitset(lambda pat: pat != 0)
        assert no_block0 == bitset(lambda pat: not pat & 1)
        assert [swap[rep[1 << i] << 1] for i in range(k - 1)] == \
            [bitset(lambda pat: pat >> i & 3 == 2) for i in range(k - 1)]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_packed_state_matches_its_definition(self, data):
        # the block search's packed state, with the cached (n, k) constants,
        # against the per-block tuple it stands for, up to n = 30
        n = data.draw(st.integers(1, 30), label="n")
        k = data.draw(st.integers(1, 14), label="k")
        full = (1 << n) - 1
        masks = st.one_of(st.sampled_from([0, full]), st.integers(0, full))
        bl = data.draw(st.lists(masks, min_size=k, max_size=k), label="blocks")
        m = data.draw(masks, label="m")
        pat = data.draw(st.integers(0, (1 << k) - 1), label="pattern")
        w, rep = _packed_tables(n, k)[:2]
        one = rep[-1]
        guards = one << n
        B, ones = _pack(bl, w)
        assert (w, ones) == (n + 1, one)
        assert [B >> i * w & full for i in range(k)] == bl
        assert m * rep[pat] == sum(m << i * w for i in range(k) if pat >> i & 1)

        def blocks(g):
            return [i for i in range(k) if g >> i * w + n & 1]
        # the zero-field test: the blocks missing m
        missing = guards ^ ((B & one * m | guards) - one) & guards
        assert missing & ~guards == 0
        assert blocks(missing) == [i for i in range(k) if not bl[i] & m]
        # the orbit-leader XOR-shift: the blocks equal to their successor
        lo = data.draw(st.integers(0, 1), label="split block")
        sym = ((1 << k - 1) - 1) >> lo << lo
        s_one = rep[sym]
        s_g = s_one << n
        equal = s_g ^ ((B ^ B >> w | s_g) - s_one) & s_g
        assert blocks(equal) == [i for i in range(lo, k - 1) if bl[i] == bl[i + 1]]

    @pytest.mark.parametrize("n, k", [(1, 1), (1, 3), (4, 2), (3, 4), (3, 5), (2, 6)])
    def test_guard_keyed_tables_match_their_definition(self, n, k):
        w, rep, sup, touch, swap, nonempty, no_block0 = _packed_tables(n, k)
        pats = range(1 << k)

        def bitset(keep):
            return sum(1 << pat for pat in pats if keep(pat))

        assert (nonempty, no_block0) == _packed_tables(1, k)[5:]
        for r in pats:
            g = rep[r] << n
            assert sup[g] == bitset(lambda pat: pat & r == r)
            assert touch[g] == bitset(lambda pat: pat & r)
            if r >> k - 1 == 0:     # swap is read for blocks 0..k-2 only
                assert swap[g] == bitset(lambda pat: any(
                    r >> i & 1 and pat >> i & 3 == 2 for i in range(k - 1)))

    def test_refine_validation(self):
        g = Graph.cycle(5)
        with pytest.raises(ValueError):
            decide_cover_k(g, 2, ("A", "X"))

    def test_determinism(self):
        g = Graph.cycle(6)
        a = decide_cover_k(g, 2, ("A", "B"))
        b = decide_cover_k(g, 2, ("A", "B"))
        assert a.witness == b.witness

    def test_section5_equivalences_small(self):
        # decidable structure at 2 blocks, exhaustively for n <= 6
        for g in U.atlas_graphs(max_n=6):
            prof = U.metric_profile(g)
            apbp = decide_cover_k(g, 2, ("A'", "B'")).found
            assert apbp == (not g.is_connected)
            ap = decide_cover_k(g, 2, ("A'",)).found
            assert ap == (prof.diameter >= 5)
            if prof.radius == 2:
                assert not decide_cover_k(g, 2, ("A", "B")).found


_LITERAL = {"A": oracles.cond_A, "B": oracles.cond_B,
            "A'": oracles.cond_Aprime, "B'": oracles.cond_Bprime}
_PLAIN_CONDS = [("A",), ("B",), ("A'",), ("B'",), ("A", "B"), ("A'", "B'")]
_REFINED_CONDS = [("A", "A''", "B''"), ("A''",), ("B''",)]
#: Every pairing of the block search's cuts, the refined profile set, and
#: each split condition alone, so no rule is tested only with another's help.
_CUT_CONDS = _PLAIN_CONDS + [("A'", "B"), ("A", "B'"), ("A", "A''", "B''"),
                             ("A''",), ("B''",)]


def _literal_streams(g, k, cond_sets, limit=None):
    """The witnesses the pruned search must yield for each condition set,
    in order: every covering (and, for A''/B'', every split of block 0
    with its lowest vertex in Q0) passing the literal condition texts.
    With ``limit`` the scan stops once every stream has that many."""
    streams = {conds: [] for conds in cond_sets}
    for blocks in oracles.all_coverings(g, k):
        if limit is not None and all(len(w) >= limit for w in streams.values()):
            break
        seen = {}

        def holds(c):  # each literal condition once per covering
            if c not in seen:
                seen[c] = _LITERAL[c](g, blocks)
            return seen[c]

        for conds in cond_sets:
            if not all(holds(c) for c in conds if c in _LITERAL):
                continue
            if "A''" not in conds and "B''" not in conds:
                streams[conds].append(blocks)
                continue
            head = min(blocks[0])
            streams[conds] += [
                (blocks, q0, q1) for q0, q1 in oracles.all_splits(blocks[0])
                if head in q0
                and ("A''" not in conds or oracles.cond_Adp(g, blocks, 0, q0, q1))
                and ("B''" not in conds or oracles.cond_Bdp(g, blocks, 0, q0, q1))]
    if limit is not None:
        streams = {conds: w[:limit] for conds, w in streams.items()}
    return streams


def _library_stream(g, k, conds):
    for w in full_stream(g, k, conds):
        yield (w.base.blocks, w.q0, w.q1) if isinstance(w, RefinedCovering) else w.blocks


@st.composite
def _graph_and_conds(draw):
    # the literal split scan costs 7^n condition checks when fewer than 20
    # refined witnesses exist, so refined sets draw smaller graphs
    conds = draw(st.sampled_from(_PLAIN_CONDS + _REFINED_CONDS))
    n = draw(st.integers(2, 6 if conds in _REFINED_CONDS else 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
    return g, conds


class TestPrunedSearch:
    @pytest.mark.parametrize("k, cond_sets", [(2, _PLAIN_CONDS + _REFINED_CONDS),
                                              (3, _PLAIN_CONDS)])
    def test_streams_match_literal_oracle(self, k, cond_sets):
        for g in U.atlas_graphs(max_n=5):
            if min(g.ecc) < 2:
                continue
            ref = _literal_streams(g, k, cond_sets)
            for conds in cond_sets:
                assert list(_library_stream(g, k, conds)) == ref[conds], \
                    (g.edges, conds)

    def test_refined_three_block_streams_match_literal_oracle(self):
        # the B''-carrying refined sets, whose block search B''-2 cuts
        cond_sets = [("A", "A''", "B''"), ("B''",)]
        for g in U.atlas_graphs(max_n=4):
            if min(g.ecc) < 2:
                continue
            ref = _literal_streams(g, 3, cond_sets)
            for conds in cond_sets:
                assert list(_library_stream(g, 3, conds)) == ref[conds], \
                    (g.edges, conds)

    @settings(max_examples=60, deadline=None)
    @given(_graph_and_conds())
    def test_stream_prefix_matches_literal_oracle_random(self, case):
        g, conds = case
        ref = _literal_streams(g, 2, [conds], limit=20)[conds]
        assert list(itertools.islice(_library_stream(g, 2, conds), 20)) == ref

    @pytest.mark.parametrize("leaders", [False, True])
    def test_block_search_meets_the_literal_conditions(self, leaders):
        # _decide_dfs with no re-check after it, past the literal stream
        # tests' n <= 5: a missing or weakened cut, or split check, lets
        # through a covering or split that fails its condition text
        graphs = [g for g in U.atlas_graphs(max_n=7, min_n=6) if min(g.ecc) >= 2]
        for g in graphs[::10]:
            for k, conds in itertools.product((1, 2, 3), _CUT_CONDS):
                if k == 3 and conds == ("A''",):
                    continue    # no block cut: ~7 s over these graphs
                stream = _decide_dfs(g, k, frozenset(conds), leaders)
                for bm, split in itertools.islice(stream, 20):
                    blocks = tuple(frozenset(bits(m)) for m in bm)
                    assert all(_LITERAL[c](g, blocks) for c in conds if c in _LITERAL), \
                        (g.edges, k, conds, blocks)
                    if split is not None:
                        q0, q1 = (frozenset(bits(m)) for m in split)
                        assert "A''" not in conds or oracles.cond_Adp(g, blocks, 0, q0, q1)
                        assert "B''" not in conds or oracles.cond_Bdp(g, blocks, 0, q0, q1)

    def test_prism5_three_block_AprimeBprime_infeasible(self):
        dec = decide_cover_k(gen_prism(5).graph, 3, ("A'", "B'"))
        assert dec.value is INFEASIBLE and dec.method == "exhausted"

    def test_prism7_refined_witness(self, prism7_refined_decision):
        w = prism7_refined_decision.witness
        assert [sorted(b) for b in w.base.blocks] == \
            [[0, 1, 2, 3, 4, 7, 8, 9, 10], [5, 6, 11, 12, 13]]
        assert sorted(w.q0) == [0, 1, 2, 7, 8]
        assert sorted(w.q1) == [3, 4, 9, 10]


def _is_orbit_leader(n, blocks, fixed):
    """Is the per-vertex membership pattern vector of ``blocks`` the
    lexicographically least over every order of blocks ``fixed``..k-1?"""
    def patterns(bs):
        return [sum(1 << i for i, b in enumerate(bs) if v in b) for v in range(n)]
    own = patterns(blocks)
    return all(patterns(blocks[:fixed] + tuple(blocks[j] for j in perm)) >= own
               for perm in itertools.permutations(range(fixed, len(blocks))))


_ORBIT_CONDS = _PLAIN_CONDS + [("A", "A''", "B''")]


class TestOrbitLeaders:
    # the full stream costs ~50 us per covering (about 10^5 of them at
    # k = 4, n = 4), so larger k runs on smaller graphs, with A'B' (the
    # engine's first route) one size up
    @pytest.mark.parametrize("k, max_n, cond_sets", [
        (2, 5, _ORBIT_CONDS), (3, 4, _ORBIT_CONDS), (4, 3, _ORBIT_CONDS),
        (3, 5, [("A'", "B'")]), (4, 4, [("A'", "B'")])])
    def test_leader_stream_is_filtered_full_stream(self, k, max_n, cond_sets):
        for g in U.atlas_graphs(max_n=max_n):
            if min(g.ecc) < 2:
                continue
            for conds in cond_sets:
                refine = "A''" in conds
                fixed = 1 if refine else 0

                def blocks(w):
                    return w.base.blocks if refine else w.blocks
                full = full_stream(g, k, conds)
                expect = [w for w in full if _is_orbit_leader(g.n, blocks(w), fixed)]
                leaders = iter_covering_witnesses(g, k, conds)
                assert list(leaders) == expect, (g.edges, k, conds)

    def test_decide_matches_first_full_witness(self):
        for g in U.atlas_graphs(max_n=6):
            if min(g.ecc) < 2:
                continue
            for k in range(2, 6):
                for key, conds in PROFILE_CONDS.items():
                    dec = decide_cover_k(g, k, conds)
                    first = next(full_stream(g, k, conds), None)
                    assert dec.witness == first, (g.edges, k, key)
                    assert dec.found == (first is not None)

    def test_prism5_three_block_AprimeBprime_infeasible(self):
        g = gen_prism(5).graph
        dec = decide_cover_k(g, 3, ("A'", "B'"))
        assert dec.value is INFEASIBLE and dec.method == "exhausted"
        assert next(iter_covering_witnesses(g, 3, ("A'", "B'")), None) is None

    @pytest.mark.parametrize("m, k, key, length", [
        (4, 3, "AB", 1472), (4, 3, "AA''B''", 32), (5, 2, "AB", 80),
        (5, 3, "AA''B''", 1570), (6, 2, "AB", 1467)])
    def test_prism_leader_stream_lengths(self, m, k, key, length):
        # whole leader streams on 8 to 12 vertices, past the literal
        # stream tests' n <= 5
        stream = iter_covering_witnesses(gen_prism(m).graph, k, PROFILE_CONDS[key])
        assert sum(1 for _ in stream) == length

    def test_atlas_1035_refined_route(self, atlas_r2):
        # radius 2 on 7 vertices, kappa = 5: both A'B' and A' exhaust at
        # k = 5 and the refined route builds on its first orbit leader
        res = U.appendage_number(Graph.path(3), atlas_r2[1035])
        assert res.value == 11
        assert res.case == "general center: cov_AA''B''=kappa (decide@k=5)"
        assert res.certificates["witness_covering"] == {
            "blocks": [[5], [0, 1], [2, 3], [4], [6]], "iota": 0,
            "q0": [5], "q1": []}


class TestTwoBall:
    def test_hexagonal_prism(self, prism6):
        ok, triple = two_ball_triple_check(prism6)
        assert not ok and triple is None

    def test_heptagonal_prism(self, prism7):
        ok, (x1, x2, x3) = two_ball_triple_check(prism7)
        assert ok
        b = prism7.ball_masks(2)
        assert b[x1] & b[x2] & b[x3] == 0

    def test_complete_graph(self):
        assert two_ball_triple_check(Graph.complete(3)) == (False, None)

    @pytest.mark.parametrize("g, expected", [
        (Graph(1), (False, None)), (Graph.empty(2), (False, None)),
        (Graph.empty(3), (True, (0, 1, 2))), (Graph.empty(5), (True, (0, 1, 2)))],
        ids=["n1", "empty2", "empty3", "empty5"])
    def test_small_and_disjoint_balls(self, g, expected):
        assert two_ball_triple_check(g) == expected

    def test_matches_the_literal_scan_on_the_atlas(self):
        for g in U.atlas_graphs(max_n=7):
            triple = oracles.two_ball_triple(g)
            assert two_ball_triple_check(g) == (triple is not None, triple)


class TestBipartition:
    def test_path7_trace(self):
        c = construct_AB_bipartition(Graph.path(7))
        assert [sorted(b) for b in c.blocks] == [[0, 1, 2, 6], [3, 4, 5]]

    def test_cycle9_trace(self):
        c = construct_AB_bipartition(Graph.cycle(9))
        assert [sorted(b) for b in c.blocks] == [[0, 1, 2, 6, 7, 8], [3, 4, 5]]

    def test_disconnected_fallback(self):
        c = construct_AB_bipartition(Graph.empty(2))
        assert [sorted(b) for b in c.blocks] == [[0], [1]]

    # seed pairs other than (0, 1): a distance-4 pair; the first
    # cross-component pair when no vertex has a layer 4; a distance-4
    # pair (1, 5) over the earlier cross-component pair (0, 1)
    @pytest.mark.parametrize("parts,blocks", [
        ((Graph.path(5), Graph.empty(1)), [[0, 1, 2], [3, 4, 5]]),
        ((Graph.cycle(6), Graph.empty(1)), [[0, 1, 2, 3, 4, 5], [6]]),
        ((Graph.empty(1), Graph.path(6)), [[0, 1, 2, 3], [4, 5, 6]]),
    ], ids=["p5+k1", "c6+k1", "k1+p6"])
    def test_seed_pair(self, parts, blocks):
        c = construct_AB_bipartition(Graph.disjoint_union(parts))
        assert [sorted(b) for b in c.blocks] == blocks

    def test_radius_two_rejected(self):
        with pytest.raises(PreconditionError):
            construct_AB_bipartition(Graph.path(5))

    def test_passes_A_and_B_on_eligible_atlas(self):
        hit = 0
        for g in U.atlas_graphs(max_n=7):
            prof = U.metric_profile(g)
            if prof.diameter >= 4 and prof.radius >= 3:
                c = construct_AB_bipartition(g)
                assert check_condition(c, "A").passed and check_condition(c, "B").passed
                hit += 1
        assert hit > 30

    def test_passes_on_random_eight_vertex_graphs(self):
        rng = random.Random(2024)
        pairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        hit = 0
        for _ in range(4000):
            edges = [e for e in pairs if rng.random() < 0.25]
            g = Graph(8, edges)
            prof = U.metric_profile(g)
            if prof.diameter >= 4 and prof.radius >= 3:
                c = construct_AB_bipartition(g)
                assert check_condition(c, "A").passed and check_condition(c, "B").passed
                hit += 1
        assert hit > 40


class TestProfile:
    def test_two_isolated(self):
        prof = cov_profile(Graph.empty(2))
        assert prof["A"].value == 2
        assert prof["AB"].value == 2
        assert prof["A'"].value == 2
        assert prof["A'B'"].value == 2
        assert prof["AA''B''"].value == 2

    def test_star_all_infeasible(self):
        prof = cov_profile(Graph.star(3))
        assert all(res.value is INFEASIBLE for res in prof.values())

    def test_hexagonal_prism_two_ball_filter(self, prism6):
        res = cov_profile(prism6)["AA''B''"]
        assert isinstance(res.value, Unknown)
        assert res.value.lo == 3          # "not 2" via the two-ball filter
        assert res.method.startswith("shortcut-two-balls")

    def test_c7_profile(self):
        prof = cov_profile(Graph.cycle(7))
        assert prof["A"].value == 2
        assert prof["AB"].value == 2      # diam 3, r 3: decided at k=2
        # the true values are 4 (independently: decide at k=4 succeeds,
        # k=2 and 3 exhaust); the profile stops at 3 blocks and reports
        # what it knows
        assert isinstance(prof["A'"].value, Unknown)
        assert prof["A'"].value.lo == 4 and prof["A'"].value.hi == 7
        assert isinstance(prof["A'B'"].value, Unknown)
        assert prof["A'B'"].value.lo == 4

    def test_c7_true_aprime_value_at_k4(self):
        dec = decide_cover_k(Graph.cycle(7), 4, ("A'", "B'"), bound=10)
        assert dec.found
        assert not decide_cover_k(Graph.cycle(7), 3, ("A'", "B'")).found

    def test_p7_profile(self):
        prof = cov_profile(Graph.path(7))
        assert prof["AB"].value == 2      # diam 6 >= 4, r 3: bipartition
        assert prof["AB"].method == "shortcut-bipartition"
        assert prof["A'"].value == 2      # diam >= 5
        assert prof["A'"].method == "shortcut-diam>=5"

    def test_doubled_clique_profile_hits_singletons(self):
        prof = cov_profile(gen_P_alpha(2).graph)  # this is a 4-cycle
        assert prof["A"].value == 4
        assert prof["AB"].value == 4
        assert prof["AA''B''"].value == 4
        assert prof["AB"].method == "shortcut-singletons"

    def test_singletons_meet_every_profile_key_at_radius_two(self, atlas_r2):
        # what makes hi = n a sound upper bound of every Unknown
        for g in atlas_r2:
            for key, conds in PROFILE_CONDS.items():
                assert U.covering_passes(singleton_witness(g, key), conds), (g.edges, key)
        assert len(atlas_r2) * len(PROFILE_CONDS) == 4172

    def test_witnesses_reverified(self):
        for g in [Graph.empty(2), Graph.path(7), Graph.cycle(7)]:
            for key, res in cov_profile(g).items():
                if res.witness is not None:
                    conds = {"A": ("A",), "AB": ("A", "B"), "A'": ("A'",),
                             "A'B'": ("A'", "B'"),
                             "AA''B''": ("A", "A''", "B''")}[key]
                    assert U.covering_passes(res.witness, conds), (key, res)


class TestProfileExits:
    """One case per way ``cov_profile`` answers a key: a size-2 fact's
    covering, the singletons at kappa = n, the decision ladder finding a
    covering with or without a shortcut, stopped by the vertex bound with
    or without one, or exhausted after a shortcut.  No graph of the
    answer digest reaches the exhausted ladder without a shortcut, so
    that exit is not pinned."""

    @pytest.mark.parametrize("name, bound, key, value, method", [
        *[("2k2", None, key, 2, method) for key, method in (
            ("AB", "shortcut-bipartition"), ("A'", "shortcut-diam>=5"),
            ("A'B'", "shortcut-disconnected"), ("AA''B''", "shortcut-disconnected"))],
        *[("palpha2", None, key, 4, "shortcut-singletons")
          for key in ("AB", "A'", "A'B'", "AA''B''")],
        ("c7", None, "AB", 2, "decide-k"),
        ("c7", None, "AA''B''", 3, "shortcut-r2-or-diam<=3+decide-k"),
        ("c7", None, "A'", Unknown(4, 7, 10, "ladder"), "shortcut-diam<5"),
        ("c7", 4, "AB", Unknown(2, 7, 4, "vertex-bound"), "bound@k=2"),
        ("c7", 4, "A'", Unknown(3, 7, 4, "vertex-bound"), "shortcut-diam<5"),
        ("p7", None, "A'B'", 3, "shortcut-connected+decide-k"),
        ("KeX?GOR?hSA@", None, "AB", Unknown(3, 12, 10, "vertex-bound"), "bound@k=3")])
    def test_each_exit(self, name, bound, key, value, method):
        p = U.decode_graph6(name) if name[0].isupper() else U.named_graph(name)
        res = cov_profile(p, bound=bound)[key]
        assert (res.which, res.value, res.method) == (key, value, method)
        if isinstance(value, Unknown):
            assert res.witness is None
        else:
            assert U.covering_passes(res.witness, PROFILE_CONDS[key])


class TestProfileBound:
    def test_unknown_reports_the_bound_in_force(self):
        # n = 7 > 5 stops every decision at k = 2
        prof = cov_profile(Graph.cycle(7), bound=5)
        for key in ("AB", "A'", "A'B'", "AA''B''"):
            assert prof[key].value.bound == 5, key

    def test_exhausted_ladder_reports_the_bound_in_force(self):
        prof = cov_profile(Graph.cycle(7), bound=20)
        assert prof["A'"].value == Unknown(4, 7, 20, "ladder")
        assert prof["A'B'"].value == Unknown(4, 7, 20, "ladder")

    def test_stop_names_the_vertex_bound(self):
        prof = cov_profile(Graph.cycle(7), bound=5)
        for key in ("AB", "A'", "A'B'", "AA''B''"):
            assert prof[key].value.stop == "vertex-bound", key
            assert prof[key].to_json()["value"]["stop"] == "vertex-bound", key

    def test_stop_names_the_ladder(self):
        # n = 7 is far under the bound: k = 2 and 3 exhausted, k = 4 untried
        prof = cov_profile(Graph.cycle(7), bound=20)
        for key in ("A'", "A'B'"):
            assert prof[key].value.stop == "ladder", key
            assert prof[key].to_json()["value"] == {
                "unknown": True, "lo": 4, "hi": 7, "bound": 20, "stop": "ladder"}

    def test_different_stops_compare_unequal(self):
        a, b = Unknown(4, 7, 20, "ladder"), Unknown(4, 7, 20, "vertex-bound")
        assert a != b and a == Unknown(4, 7, 20, "ladder")
        assert hash(a) == hash(Unknown(4, 7, 20, "ladder"))
        assert "stop='ladder'" in repr(a) and "stop='vertex-bound'" in repr(b)


@st.composite
def _refined_case(draw):
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    g = Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
    pat = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=n, max_size=n))
    for i in range(k):  # every block gets a vertex
        if not any(x >> i & 1 for x in pat):
            pat[i % n] |= 1 << i
    blocks = tuple(frozenset(v for v in range(n) if pat[v] >> i & 1)
                   for i in range(k))
    vs = sorted(blocks[0])
    sides = draw(st.lists(st.integers(1, 3), min_size=len(vs), max_size=len(vs)))
    sides[0] |= 1  # Q0 is nonempty
    q0 = frozenset(v for v, s in zip(vs, sides) if s & 1)
    q1 = frozenset(v for v, s in zip(vs, sides) if s & 2)
    return g, blocks, q0, q1


class TestCheckersAgainstOracleRandom:
    @settings(max_examples=300, deadline=None)
    @given(_refined_case())
    def test_reports_match_literal_conditions(self, case):
        g, blocks, q0, q1 = case
        c = Covering(g, blocks)
        assert check_condition(c, "A").passed == oracles.cond_A(g, blocks)
        assert check_condition(c, "B").passed == oracles.cond_B(g, blocks)
        assert check_condition(c, "A'").passed == oracles.cond_Aprime(g, blocks)
        assert check_condition(c, "B'").passed == oracles.cond_Bprime(g, blocks)
        rc = RefinedCovering(c, 0, q0, q1)
        ra, rb = check_condition(rc, "A''"), check_condition(rc, "B''")
        assert ra.passed == oracles.cond_Adp(g, blocks, 0, q0, q1)
        assert rb.passed == oracles.cond_Bdp(g, blocks, 0, q0, q1)


class TestCoveringPasses:
    @pytest.mark.parametrize("conds", [{"Z"}, ["a"], "A''"],
                             ids=["unknown", "lower-case", "bare-string"])
    def test_unknown_names_refused(self, conds):
        # a bare "A''" iterates to {"A", "'"}
        with pytest.raises(ValueError):
            U.covering_passes(singleton_covering(Graph.cycle(5)), conds)

    @pytest.mark.parametrize("conds", ["AB", "A'"])
    @pytest.mark.parametrize("entry", [
        lambda g, conds: U.covering_passes(singleton_covering(g), conds),
        lambda g, conds: next(iter_covering_witnesses(g, 2, conds)),
        lambda g, conds: decide_cover_k(g, 2, conds)],
        ids=["covering_passes", "iter_covering_witnesses", "decide_cover_k"])
    def test_bare_string_refused(self, entry, conds):
        # "AB" would iterate to the names {"A", "B"}, "A'" to {"A", "'"}
        with pytest.raises(ValueError):
            entry(Graph.cycle(7), conds)

    @pytest.mark.parametrize("g, k, conds, error", [
        (Graph.cycle(7), 2, "AB", ValueError),
        (Graph.cycle(7), 0, {"A"}, ValueError),
        (Graph.cycle(15), 2, {"A"}, BoundExceededError)],
        ids=["bare-string", "k0", "past-bound"])
    def test_stream_checks_arguments_at_the_call(self, g, k, conds, error):
        # no next(): the stream refuses before any witness is asked for
        with pytest.raises(error):
            iter_covering_witnesses(g, k, conds)

    def test_check_condition_refuses_unknown_and_unsplit(self):
        c = singleton_covering(Graph.cycle(5))
        with pytest.raises(ValueError):
            check_condition(c, "Z")
        with pytest.raises(TypeError):
            check_condition(c, "A''")

    @settings(max_examples=300, deadline=None)
    @given(_refined_case(), st.sets(st.sampled_from(CONDITIONS)), st.booleans())
    def test_matches_literal_conditions(self, case, conds, refined):
        # plain coverings fail A'' and B'': they have no split to read
        g, blocks, q0, q1 = case
        c = Covering(g, blocks)
        literal = {
            "A": lambda: oracles.cond_A(g, blocks),
            "B": lambda: oracles.cond_B(g, blocks),
            "A'": lambda: oracles.cond_Aprime(g, blocks),
            "B'": lambda: oracles.cond_Bprime(g, blocks),
            "A''": lambda: refined and oracles.cond_Adp(g, blocks, 0, q0, q1),
            "B''": lambda: refined and oracles.cond_Bdp(g, blocks, 0, q0, q1),
        }
        wit = RefinedCovering(c, 0, q0, q1) if refined else c
        assert U.covering_passes(wit, conds) == all(literal[name]() for name in conds)


def _each_tag(subjects, tags):
    return tuple((s, t) for s in subjects for t in tags)


_B12 = ("B-1", "B-2")
_AP12 = ("A'-1", "A'-2")
_ADP2 = ("A''-2a", "A''-2b")
_BDP1 = ("B''-1a", "B''-1b", "B''-1c", "B''-1d")
_BDP2 = ("B''-2a", "B''-2b")


class TestViolationOrder:
    """Full violation tuples, order included, on fixed coverings; the
    refined reports use the split Q0 = block 0, Q1 = {} unless noted."""

    def reports(self, c, q0=None, q1=frozenset()):
        rc = RefinedCovering(c, 0, c.blocks[0] if q0 is None else q0, q1)
        return ((check_condition(c, "A"), check_condition(c, "B"),
                 check_condition(c, "A'"), check_condition(c, "B'"))
                + (check_condition(rc, "A''"), check_condition(rc, "B''")))

    def assert_violations(self, reports, expected):
        assert [r.condition for r in reports] == ["A", "B", "A'", "B'", "A''", "B''"]
        for rep, exp in zip(reports, expected):
            assert rep.violations == exp, rep.condition
            assert rep.passed == (not exp)

    def test_c4_halves(self):
        c = cover(Graph.cycle(4), {0, 1}, {2, 3})
        self.assert_violations(self.reports(c), [
            (("block 0", "A"), ("block 1", "A")),
            _each_tag([f"vertex {p} in block {p // 2}" for p in range(4)], _B12),
            _each_tag(["block 0", "block 1"], _AP12),
            tuple((f"vertex {p} in block {p // 2}", "B'") for p in range(4)),
            _each_tag(["Q0"], _ADP2),
            _each_tag(["vertex 0 in Q0", "vertex 1 in Q0"], _BDP2),
        ])
        ra, rb = self.reports(c, frozenset({0}), frozenset({1}))[4:]
        assert ra.violations == (
            (("block 1", "A''-1a"), ("block 1", "A''-1b"), ("block 1", "A''-1c"))
            + _each_tag(["Q0", "Q1"], _ADP2))
        assert rb.violations == (
            _each_tag(["vertex 2 in block 1", "vertex 3 in block 1"], _BDP1)
            + _each_tag(["vertex 0 in Q0", "vertex 1 in Q1"], _BDP2))

    def test_p4_halves(self):
        c = cover(Graph.path(4), {0, 1}, {2, 3})
        self.assert_violations(self.reports(c), [
            (),
            _each_tag(["vertex 1 in block 0", "vertex 2 in block 1"], _B12),
            _each_tag(["block 0", "block 1"], _AP12),
            (("vertex 1 in block 0", "B'"), ("vertex 2 in block 1", "B'")),
            _each_tag(["Q0"], _ADP2),
            _each_tag(["vertex 1 in Q0"], _BDP2),
        ])
        ra, rb = self.reports(c, frozenset({0}), frozenset({1}))[4:]
        assert ra.violations == _each_tag(["Q1"], _ADP2)
        assert rb.violations == (_each_tag(["vertex 2 in block 1"], _BDP1)
                                 + _each_tag(["vertex 1 in Q1"], _BDP2))

    def test_c5_one_block(self):
        c = cover(Graph.cycle(5), range(5))
        self.assert_violations(self.reports(c), [
            (("block 0", "A"),),
            _each_tag([f"vertex {p} in block 0" for p in range(5)], _B12),
            _each_tag(["block 0"], _AP12),
            tuple((f"vertex {p} in block 0", "B'") for p in range(5)),
            _each_tag(["Q0", "Q1"], _ADP2),
            _each_tag([f"vertex {p} in Q0" for p in range(5)], _BDP2),
        ])

    def test_prism7_cover_empty_q1(self, prism7):
        blocks = U.prism7_refined_cover().extras["blocks"]
        c = cover(prism7, *blocks)
        assert [sorted(b) for b in c.blocks] == [[0, 1, 2, 3, 7, 8, 9, 10, 11],
                                                 [4, 5, 6, 12, 13]]
        self.assert_violations(self.reports(c), [
            (),
            (),
            _each_tag(["block 0"], _AP12),
            tuple((f"vertex {p} in block {i}", "B'")
                  for i, p in ((0, 0), (0, 3), (0, 7), (0, 11),
                               (1, 4), (1, 6), (1, 12), (1, 13))),
            _each_tag(["Q0"], _ADP2),
            _each_tag([f"vertex {p} in Q0" for p in (0, 3, 7, 11)], _BDP2),
        ])
