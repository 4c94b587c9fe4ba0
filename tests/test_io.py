import random

import pytest
from hypothesis import given, strategies as st

from antimagic.graph import Graph
from antimagic.io import ParseError, emit_graph6, parse_edgelist, parse_graph6


@pytest.mark.parametrize("dup", ["1 2", "2 1"])
def test_duplicate_edge_reports_its_line(dup):
    text = f"# header follows\n4 3\n0 1\n1 2\n\n{dup}\n"
    with pytest.raises(ParseError, match="duplicate edge") as exc:
        parse_edgelist(text)
    assert exc.value.line == 6


def test_large_edge_list_parses():
    n, step = 20_000, 7
    edges = [(v, (v + k) % n) for k in (1, step) for v in range(n)]
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    g = parse_edgelist(text)
    assert (g.n, g.m) == (n, 40_000)
    assert set(g.degrees()) == {4}


@pytest.mark.parametrize("line", ["", ">>graph6<<", "~", "~~", "A\x7f", "A>", "Bé", "Bw x", "A "])
def test_graph6_rejects(line):
    # "Bé": a non-ASCII character must not become '?', which is valid graph6
    with pytest.raises(ParseError):
        parse_graph6(line)


@pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
def test_graph6_matches_networkx(p):
    nx = pytest.importorskip("networkx")
    rng = random.Random(p)
    for n in [*range(101), 300]:  # the 4-character '~' header starts at n = 63
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
        ref = nx.empty_graph(n)
        ref.add_edges_from(edges)
        line = nx.to_graph6_bytes(ref, header=False).rstrip(b"\n").decode("ascii")
        g = Graph(n, edges)
        assert emit_graph6(g) == line
        assert parse_graph6(line) == g


def test_graph6_header_is_skipped():
    assert parse_graph6(">>graph6<<Bw\n") == Graph(3, [(0, 1), (0, 2), (1, 2)])


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=0, max_value=70))
    vertex = st.integers(0, max(n - 1, 0))
    pairs = draw(st.sets(st.tuples(vertex, vertex), max_size=80))
    return Graph(n, {(min(p), max(p)) for p in pairs if p[0] != p[1]})


@st.composite
def graph6_lines(draw):
    n = draw(st.integers(min_value=0, max_value=70))
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    vals = draw(st.lists(st.integers(0, 63), min_size=need, max_size=need))
    if vals:
        vals[-1] &= -1 << (-nbits % 6)  # padding bits are zero
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    return head + "".join(chr(x + 63) for x in vals)


@given(graphs())
def test_graph6_round_trip_graph(g):
    assert parse_graph6(emit_graph6(g)) == g


@given(graph6_lines())
def test_graph6_round_trip_line(line):
    assert emit_graph6(parse_graph6(line)) == line
