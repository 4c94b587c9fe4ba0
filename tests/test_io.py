import random

import pytest
from hypothesis import given, strategies as st

from antimagic.dispatch import dispatch_label
from antimagic.graph import Graph, GraphError, Labeling, _canonical_graph
from antimagic.generators import complete_graph, complete_partite_graph, cycle_graph, star_graph
from antimagic.io import (ParseError, emit_certificate, emit_edgelist, emit_graph6, parse_certificate,
                          parse_edgelist, parse_graph6)


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
    ("\n-1 0\n", "vertex count must be non-negative, header says -1", 2),
    ("3 2\n0 1\n1 2 7\n", "edge line must be 'u v'", 3),
    ("3 1\n# edge\n0 one\n", "edge endpoints must be integers", 3),
    ("3 1\n2 2\n", "self-loop at vertex 2", 2),
    ("3 2\n0 1\n\n1 3\n", "vertex out of range 0..2", 4),
    ("3 2\n0 1\n", "header promises 2 edges, found 1", None),
], ids=["empty", "comment only", "short header", "non-integer header", "huge n", "negative n",
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


@pytest.mark.parametrize("line", [
    "", ">>graph6<<", "~", "~~", "A\x7f", "A>", "Bé", "Bw x", "A ",
    # a size character outside '?'..'~' must not decode to a vertex count
    pytest.param(chr(127) + "?" * 336, id="size DEL"),
    pytest.param("é" + "?" * 2395, id="size non-ASCII"),
    pytest.param("~??" + chr(127) + "?" * 336, id="long size DEL"),
])
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
    assert a.degrees() == b.degrees()


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


# The decoder walks the set bits of the whole triangle and moves from column
# to column by arithmetic, so a lone edge behind many empty columns, the last
# bit of the triangle and both size fields are its edge cases.
@pytest.mark.parametrize("n, edges", [
    (0, []), (1, []), (2, []), (2, [(0, 1)]),
    (62, [(0, 61)]), (63, [(0, 62)]), (64, [(0, 63)]), (300, [(0, 299)]),
    (63, [(61, 62)]), (300, [(298, 299)]), (300, [(0, 1), (0, 299), (298, 299)]),
], ids=["n=0", "n=1", "n=2 empty", "n=2 edge", "n=62 lone", "n=63 lone", "n=64 lone", "n=300 lone",
        "n=63 last bit", "n=300 last bit", "n=300 first and last bits"])
def test_one_scan_decode_edge_cases(n, edges):
    g = parse_graph6(emit_graph6(Graph(n, edges)))
    _same_structure(g, _validated(n, edges))
    assert g._graph6 == emit_graph6(Graph(n, edges))


# Padding bits lie past the triangle: the decoder ignores them, and the
# line, not being emit_graph6's, is not kept.
@pytest.mark.parametrize("n, edges", [(3, [(0, 2)]), (5, [(3, 4)]), (62, [(0, 61), (60, 61)]),
                                      (63, [(0, 62)])])
def test_set_padding_bits_keep_the_graph(n, edges):
    line = emit_graph6(Graph(n, edges))
    pad = -(n * (n - 1) // 2) % 6
    assert pad > 0
    g = parse_graph6(line[:-1] + chr((ord(line[-1]) - 63 | (1 << pad) - 1) + 63))
    _same_structure(g, _validated(n, edges))
    assert g._graph6 is None


def _random_graphs(seed):
    rng = random.Random(seed)
    out = [Graph(0, []), Graph(1, []), Graph(2, []), Graph(6, [(1, 4)])]
    for _ in range(30):
        n = rng.randrange(0, 14)
        p = rng.random()
        out.append(Graph(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]))
    return out


def _assert_degrees_match_incidence(g):
    degs = tuple(len(g.incident_edges(v)) for v in range(g.n))
    assert g.degrees() == degs
    assert [g.degree(v) for v in range(g.n)] == list(degs)
    assert g.max_degree() == max(degs, default=0)
    assert g.min_degree() == min(degs, default=0)


# The degree tuple is set once, at construction, whatever the constructor.
@pytest.mark.parametrize("seed", range(3))
def test_degrees_agree_with_incidence_for_every_constructor(seed):
    for g in _random_graphs(seed):
        builds = [
            Graph(g.n, [(v, u) for u, v in reversed(g.edges)]),
            _canonical_graph(g.n, list(g.edges)),
            parse_graph6(emit_graph6(g)),
            parse_edgelist(emit_edgelist(g)),
            parse_certificate(emit_certificate(g, Labeling(range(1, g.m + 1))))[0],
        ]
        for h in builds:
            assert h == g
            _assert_degrees_match_incidence(h)


@pytest.mark.parametrize("g", [complete_graph(4), cycle_graph(5), star_graph(4),
                               complete_partite_graph([2, 3]), Graph(1, []), Graph(0, [])],
                         ids=["K4", "C5", "star-4", "K2,3", "K1", "empty"])
def test_certificate_round_trip(g):
    cert = dispatch_label(g).certificate
    text = emit_certificate(g, cert)
    assert text.endswith("OK\n")
    assert parse_certificate(text) == (g, cert)


def test_certificate_with_edges_needs_vertex_lines():
    with pytest.raises(ParseError, match="no vertex lines"):
        parse_certificate("0 1 1\nOK\n")


# K2 labelled 1 collides (both sums 1); K2 labelled 2 is not a bijection;
# P3 labelled 1, 2 is antimagic (sums 1, 3, 2).
@pytest.mark.parametrize("text, line, message", [
    ("0 1 1\n0 1\n1 x\nCOLLISION 0 1\n", 3, "vertex line must be 'v sum'"),
    ("0 1 1\n0 5\n1 7\nCOLLISION 0 1\n", 2, "vertex 0 has sum 5, but its labels add up to 1"),
    ("0 1 1\n0 1\n1 1\nOK\n", 4, "status 'OK' contradicts the labeling, which gives 'COLLISION 0 1'"),
    ("0 1 2\n1 2 1\n0 2\n1 3\n2 1\nNOT-A-BIJECTION\n", 6,
     "status 'NOT-A-BIJECTION' contradicts the labeling, which gives 'OK'"),
    ("0 1 2\n0 2\n1 2\nCOLLISION 0 1\n", 4,
     "status 'COLLISION 0 1' contradicts the labeling, which gives 'NOT-A-BIJECTION'"),
    ("0 1 1\n1 0 2\n0 3\n1 3\nOK\n", 2, r"duplicate edge \(0, 1\), first on line 1"),
    ("0 0 1\n0 2\nOK\n", 1, "self-loop at vertex 0"),
    ("0 5 1\n0 1\n1 1\nOK\n", 1, r"edge \(0, 5\) out of range for n=2"),
    ("0 -1 1\n0 1\nOK\n", 1, r"edge \(-1, 0\) out of range for n=1"),
    ("0 1 0\n0 0\n1 0\nOK\n", 1, "labels must be positive, got 0"),
    ("0 1 2\n1 2 -3\n0 2\n1 -1\n2 -3\nOK\n", 2, "labels must be positive, got -3"),
], ids=["non-integer sum", "wrong sum", "false OK", "false NOT-A-BIJECTION", "false COLLISION",
        "duplicate edge", "self-loop", "end past n", "negative end", "label 0", "label -3"])
def test_contradictory_certificate_rejected(text, line, message):
    with pytest.raises(ParseError, match=f"^line {line}: {message}$") as info:
        parse_certificate(text)
    assert info.value.line == line
