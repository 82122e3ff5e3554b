import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import ucgkit as U
from ucgkit import (Graph, MalformedInputError, decode_graph6, encode_graph6,
                    fixture_manifest, format_edge_list, load_graph_text,
                    parse_edge_list, to_dot)


@st.composite
def small_graph(draw):
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


class TestGraph6:
    def test_single_edge(self):
        g = decode_graph6("A_")
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_two_isolated(self):
        g = decode_graph6("A?")
        assert g.n == 2 and g.edges == ()

    def test_header_accepted(self):
        assert decode_graph6(">>graph6<<A_").edges == ((0, 1),)

    def test_manifest_round_trips(self):
        for name, entry in fixture_manifest().items():
            g = decode_graph6(entry["graph6"])
            assert encode_graph6(g) == entry["graph6"], name

    @settings(max_examples=200, deadline=None)
    @given(small_graph())
    def test_round_trip_and_networkx_agreement(self, g):
        enc = encode_graph6(g)
        back = decode_graph6(enc)
        assert back.n == g.n and set(back.edges) == set(g.edges)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        assert nx.to_graph6_bytes(nxg, header=False).strip().decode() == enc

    def test_decode_matches_networkx_on_their_encoding(self):
        nxg = nx.petersen_graph()
        enc = nx.to_graph6_bytes(nxg, header=False).strip().decode()
        g = decode_graph6(enc)
        assert g.n == 10 and g.m == 15

    def test_long_form_round_trip(self):
        g = Graph.cycle(70)
        enc = encode_graph6(g)
        assert enc.startswith("~")
        back = decode_graph6(enc)
        assert back.n == 70 and set(back.edges) == set(g.edges)

    @pytest.mark.parametrize("bad", ["", "A", "A__", "A\x1f", "~~??"])
    def test_malformed_inputs_rejected(self, bad):
        with pytest.raises(MalformedInputError):
            decode_graph6(bad)


class TestEdgeList:
    def test_parse_and_format_round_trip(self):
        text = "4 3\n0 1\n1 2\n2 3\n"
        g = parse_edge_list(text)
        assert g.n == 4 and g.m == 3
        assert format_edge_list(g) == text

    def test_comments_and_blanks_ignored(self):
        g = parse_edge_list("# a path\n\n3 2\n0 1\n1 2\n")
        assert g.m == 2

    @pytest.mark.parametrize("bad", ["", "3\n", "2 1\n0 1\n0 2\n", "2 1\nx y\n",
                                     "2 2\n0 1\n"])
    def test_malformed_edge_lists_rejected(self, bad):
        with pytest.raises(MalformedInputError):
            parse_edge_list(bad)


def _graph6_header(n):
    """The graph6 size prefix of an n-vertex graph, long form when n > 62."""
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))


class TestInputCap:
    @pytest.fixture
    def no_big_graph(self, monkeypatch):
        init = Graph.__init__

        def guarded(g, n, *args, **kwargs):
            assert n <= 1000, f"built a graph on {n} vertices"
            init(g, n, *args, **kwargs)
        monkeypatch.setattr(Graph, "__init__", guarded)

    def test_cap_is_the_token_cap(self):
        assert U.codecs.MAX_INPUT_VERTICES == 1000
        assert U.families.MAX_INPUT_VERTICES is U.codecs.MAX_INPUT_VERTICES

    @pytest.mark.parametrize("text", ["1001 0\n", "1001 1\n0 1\n",
                                      "1000000000 0\n", "1001 5\n0 1\n"])
    def test_edge_list_over_cap_rejected(self, text, no_big_graph):
        with pytest.raises(MalformedInputError, match="more than 1000"):
            parse_edge_list(text)
        with pytest.raises(MalformedInputError, match="more than 1000"):
            load_graph_text(text)

    @pytest.mark.parametrize("n", [1001, 258047])
    def test_graph6_over_cap_rejected_before_body_check(self, n, no_big_graph):
        # the header alone: the cap fires before the body length is checked
        with pytest.raises(MalformedInputError, match="more than 1000"):
            decode_graph6(_graph6_header(n))
        body = "?" * ((n * (n - 1) // 2 + 5) // 6) if n == 1001 else ""
        with pytest.raises(MalformedInputError, match="more than 1000"):
            load_graph_text(_graph6_header(n) + body)

    def test_at_cap_loads(self):
        assert parse_edge_list("1000 1\n998 999\n").n == 1000
        g = Graph.path(1000)
        back = decode_graph6(encode_graph6(g))
        assert back.n == 1000 and back.edges == g.edges


_G6_CHARS = "".join(chr(c) for c in range(63, 127))


@st.composite
def _edge_list_text(draw):
    ints = st.one_of(st.integers(-3, 12), st.integers(-10**12, 10**12))
    token = st.one_of(ints.map(str), st.sampled_from(["x", "#", "1_0", "", "٣"]))
    lines = draw(st.lists(st.lists(token, max_size=3).map(" ".join), max_size=8))
    return "\n".join(lines)


class TestLoaderFuzz:
    @settings(max_examples=400, deadline=1000)
    @given(st.one_of(st.text(max_size=40), st.text(_G6_CHARS, max_size=40),
                     _edge_list_text()))
    def test_graph_or_malformed_input_error(self, text):
        try:
            g = load_graph_text(text)
        except MalformedInputError:
            return
        assert isinstance(g, Graph) and 1 <= g.n <= 1000


class TestSniffing:
    def test_edge_list_detected(self):
        assert load_graph_text("2 1\n0 1\n").m == 1

    def test_graph6_detected(self):
        assert load_graph_text("A_\n").m == 1


class TestDot:
    def test_roles_color_the_output(self):
        g = Graph(3, [(0, 1), (1, 2)], labels=["c", "m", "p"])
        dot = to_dot(g, ("center", "spine:1,1", "periphery"))
        assert "gold" in dot and "lightskyblue" in dot and "gray80" in dot
        assert "0 -- 1;" in dot and "1 -- 2;" in dot
        assert 'label="c"' in dot
