import random

import pytest
from hypothesis import given, strategies as st

from antimagic.dispatch import dispatch_label
from antimagic.graph import Graph, GraphError, _canonical_graph
from antimagic.io import ParseError, emit_edgelist, emit_graph6, parse_edgelist, parse_graph6


@pytest.mark.parametrize("dup", ["1 2", "2 1"])
def test_duplicate_edge_reports_its_line(dup):
    text = f"# header follows\n4 3\n0 1\n1 2\n\n{dup}\n"
    with pytest.raises(ParseError, match="duplicate edge") as exc:
        parse_edgelist(text)
    assert exc.value.line == 6


@pytest.mark.parametrize("text, message, line", [
    ("", "empty document", None),
    ("# only a comment\n\n", "empty document", None),
    ("\n4\n0 1\n", "header must be 'n m'", 2),
    ("4 x\n", "header must hold two integers", 1),
    ("# huge\n10000000000 0", "at most 258047 vertices, header says 10000000000", 2),
    ("3 2\n0 1\n1 2 7\n", "edge line must be 'u v'", 3),
    ("3 1\n# edge\n0 one\n", "edge endpoints must be integers", 3),
    ("3 1\n2 2\n", "self-loop at vertex 2", 2),
    ("3 2\n0 1\n\n1 3\n", "vertex out of range 0..2", 4),
    ("3 2\n0 1\n", "header promises 2 edges, found 1", None),
], ids=["empty", "comment only", "short header", "non-integer header", "huge n",
        "long edge line", "non-integer end", "self-loop", "out of range", "edge count"])
def test_edgelist_rejects(text, message, line):
    with pytest.raises(ParseError) as exc:
        parse_edgelist(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


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


# A 10-cycle plus a chord: 45 bits fill 8 characters, leaving 3 padding bits.
_C10_CHORD = Graph(10, [(i, (i + 1) % 10) for i in range(10)] + [(0, 5)])
_C10_LINE = emit_graph6(_C10_CHORD)


@pytest.mark.parametrize("line", [
    ">>graph6<<" + _C10_LINE,
    "~??" + chr(10 + 63) + _C10_LINE[1:],
    _C10_LINE[:-1] + chr((ord(_C10_LINE[-1]) - 63 | 0b111) + 63),
], ids=["header", "long size field", "padding bits set"])
def test_noncanonical_graph6_line_is_not_the_graph_id(line):
    g = parse_graph6(line)
    assert g == _C10_CHORD
    assert dispatch_label(g).graph_id == emit_graph6(Graph(g.n, g.edges)) == _C10_LINE


@st.composite
def graphs(draw, max_n=70):
    n = draw(st.integers(min_value=0, max_value=max_n))
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


# n stays small: Graph allocates one incidence list per vertex of the header
@given(graphs(max_n=30), st.randoms(use_true_random=False))
def test_edgelist_round_trip(g, rnd):
    header, *lines = emit_edgelist(g).splitlines()
    rnd.shuffle(lines)
    lines = [" ".join(line.split()[::-1]) if rnd.random() < 0.5 else line for line in lines]
    assert parse_edgelist("\n".join([header, *lines])) == g


# arbitrary text, and text over ASCII so that more lines get past the checks
@given(st.text(max_size=40) | st.text(st.characters(max_codepoint=127), max_size=40))
def test_parse_graph6_fuzz(line):
    try:
        g = parse_graph6(line)
    except (ParseError, GraphError):
        return
    assert isinstance(g, Graph)


# a small header, then lines that are either 'u v' with small ends or short
# text over what edge lines are made of, so that every check gets reached
_fuzz_lines = (st.tuples(st.integers(-1, 12), st.integers(-1, 12)).map("{0[0]} {0[1]}".format)
               | st.text(st.sampled_from("0123456789 -#x"), max_size=8))


@given(st.integers(-2, 12), st.integers(-1, 10), st.lists(_fuzz_lines, max_size=10))
def test_parse_edgelist_fuzz(n, m, lines):
    try:
        g = parse_edgelist("\n".join([f"{n} {m}", *lines]))
    except (ParseError, GraphError):
        return
    assert (g.n, g.m) == (n, m)


@given(graph6_lines())
def test_graph6_round_trip_line(line):
    g = parse_graph6(line)
    assert emit_graph6(g) == line
    # the parsed graph returns its recorded line; the encoder must agree
    assert emit_graph6(Graph(g.n, g.edges)) == line


def _same_structure(a, b):
    assert a.n == b.n
    assert a.edges == b.edges
    assert all(a.incident_edges(v) == b.incident_edges(v) for v in range(a.n))


def _validated(n, edges):
    # the checking constructor, fed the edges reversed and flipped, so that
    # it must sort them itself
    return Graph(n, [(v, u) for u, v in reversed(edges)])


@given(graphs())
def test_graph6_decode_builds_what_graph_builds(g):
    _same_structure(parse_graph6(emit_graph6(g)), _validated(g.n, g.edges))


@given(graphs(), st.data())
def test_edge_subset_builds_what_graph_builds(g, data):
    # an ascending subset of canonical edges goes to the trusted constructor
    # unchecked, as the max-degree n-2 construction builds G - v_n
    mask = data.draw(st.lists(st.booleans(), min_size=g.m, max_size=g.m))
    kept = [edge for edge, keep in zip(g.edges, mask) if keep]
    _same_structure(_canonical_graph(g.n, kept), _validated(g.n, kept))
