import random
import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from antimagic import io
from antimagic.lab.corpus import connected_graphs_upto_iso, high_max_degree_corpus
from antimagic.dispatch import dispatch_label
from antimagic.graph import Graph, GraphError, Labeling, _canonical_graph
from antimagic.lab.generators import (complete_graph, complete_partite_graph, cycle_graph,
                                      random_min_degree_graph, star_graph)
from antimagic.io import (GRAPH6_MAX_N, ParseError, emit_certificate, emit_edgelist, emit_graph6,
                          parse_certificate, parse_edgelist, parse_graph6)


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
    ("3 -1\n", "edge count must be non-negative, header says -1", 1),
    ("3 2\n0 1\n1 2 7\n", "edge line must be 'u v'", 3),
    ("4 2\n0 1 2\n3 1\n", "edge line must be 'u v'", 2),
    ("4 2\n0\n1 2 3\n", "edge line must be 'u v'", 2),
    ("3 1\n# edge\n0 one\n", "edge endpoints must be integers", 3),
    ("3 1\n0 1_0\n", "edge endpoints must be integers", 2),
    ("3 2\n0 1\n1 \u0662\n", "edge endpoints must be integers", 3),
    ("3 2\n0 1_0\n0 2\n0 2\n", "edge endpoints must be integers", 2),
    ("3_0 1\n0 1\n", "header must hold two integers", 1),
    ("\uff13 1\n0 1\n", "header must hold two integers", 1),
    ("3 1\n2 2\n", "self-loop at vertex 2", 2),
    ("3 2\n0 1\n\n1 3\n", "vertex out of range 0..2", 4),
    ("3 2\n0 1\n", "header promises 2 edges, found 1", None),
], ids=["empty", "comment only", "short header", "non-integer header", "huge n", "negative n",
        "negative m", "long edge line", "three ends", "one end, then three", "non-integer end", "underscore end", "Arabic-Indic digit end",
        "underscore before duplicate", "underscore header", "fullwidth digit header",
        "self-loop", "out of range", "edge count"])
def test_edgelist_rejects(text, message, line):
    with pytest.raises(ParseError) as exc:
        parse_edgelist(text)
    assert exc.value.line == line
    assert str(exc.value) == (message if line is None else f"line {line}: {message}")


def test_comments_may_hold_underscores_and_non_ascii_text():
    g = parse_edgelist("# n_m, café \u0662\n3 2\n0 +1\n  # 1_0\n2 1\n")
    assert (g.n, g.edges) == (3, ((0, 1), (1, 2)))


@pytest.mark.parametrize("blank", ["\t", "\xa0", "\x1f", "\u3000"])
def test_comment_lines_may_be_indented_by_any_blank(blank):
    g = parse_edgelist(f"3 2\n{blank}# 0 2\n0 1\n{blank}{blank}#\n2 1\n")
    assert (g.n, g.edges) == (3, ((0, 1), (1, 2)))


def test_large_edge_list_parses():
    n, step = 20_000, 7
    edges = [(v, (v + k) % n) for k in (1, step) for v in range(n)]
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    g = parse_edgelist(text)
    assert (g.n, g.m) == (n, 40_000)
    assert set(g.degrees()) == {4}


# Each rejected line, its message, and the test's id.  A short-form body
# (one size character) and a long-form one are decoded by different loops,
# which must refuse a body alike.
@pytest.mark.parametrize("line, message", [
    pytest.param("", "empty encoded line", id=""),
    pytest.param(">>graph6<<", "empty encoded line", id=">>graph6<<"),
    pytest.param("~", "unsupported or truncated size prefix", id="~"),
    pytest.param("~~", "unsupported or truncated size prefix", id="~~"),
    pytest.param("A\x7f", "invalid character '\\x7f'", id="A\x7f"),
    pytest.param("A>", "invalid character '>'", id="A>"),
    # a non-ASCII character must not become '?', which is valid graph6
    pytest.param("Bé", "invalid character 'é'", id="Bé"),
    pytest.param("Bw x", "expected 1 data characters, got 3", id="Bw x"),
    pytest.param("A ", "expected 1 data characters, got 0", id="A "),
    # a size character outside '?'..'~' must not decode to a vertex count
    pytest.param(chr(127) + "?" * 336, "invalid size character '\\x7f'", id="size DEL"),
    pytest.param("é" + "?" * 2395, "invalid size character 'é'", id="size non-ASCII"),
    pytest.param("~??" + chr(127) + "?" * 336, "invalid size character '\\x7f'", id="long size DEL"),
    # short-form bodies of n = 4 and n = 62, the largest short form
    pytest.param("C", "expected 1 data characters, got 0", id="n=4 no body"),
    pytest.param("C??", "expected 1 data characters, got 2", id="n=4 body too long"),
    pytest.param("}" + "?" * 315, "expected 316 data characters, got 315", id="n=62 body too short"),
    pytest.param("}" + "?" * 317, "expected 316 data characters, got 317", id="n=62 body too long"),
    pytest.param("}" + "?" * 200 + "é" + "?" * 114 + "\x7f", "invalid character 'é'",
                 id="n=62 two bad characters"),
    pytest.param("}" + "?" * 315 + "\x80", "invalid character '\\x80'", id="n=62 bad last character"),
    pytest.param("~??}" + "?" * 200 + "é" + "?" * 114 + "\x7f", "invalid character 'é'",
                 id="n=62 long form two bad characters"),
])
def test_graph6_rejects(line, message):
    with pytest.raises(ParseError) as err:
        parse_graph6(line)
    assert str(err.value) == message


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


def _int(token: str) -> int:
    # an optional sign and ASCII digits; int() alone also takes '0_1' and '٣'
    if not re.fullmatch(r"[+-]?[0-9]+", token):
        raise ValueError(token)
    return int(token)


def _reference_parse_edgelist(text: str) -> Graph:
    # the per-line edge-list parser, kept as the reference that
    # parse_edgelist must agree with on every document; it reads each
    # number with _int
    lines = text.splitlines()
    header = None
    header_no = 0
    for i, raw in enumerate(lines, start=1):
        if raw.strip() and not raw.lstrip().startswith("#"):
            header = raw.split()
            header_no = i
            break
    if header is None:
        raise ParseError("empty document")
    if len(header) != 2:
        raise ParseError("header must be 'n m'", header_no)
    try:
        n, m = _int(header[0]), _int(header[1])
    except ValueError:
        raise ParseError("header must hold two integers", header_no) from None
    if n < 0:
        raise ParseError(f"vertex count must be non-negative, header says {n}", header_no)
    if m < 0:
        raise ParseError(f"edge count must be non-negative, header says {m}", header_no)
    if n > GRAPH6_MAX_N:
        # Graph allocates one incidence list per vertex, so the header alone
        # must not be able to ask for billions of them
        raise ParseError(f"at most {GRAPH6_MAX_N} vertices, header says {n}", header_no)
    edges = set()
    for i in range(header_no, len(lines)):
        raw = lines[i].strip()
        if not raw or raw.startswith("#"):
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", i + 1)
        try:
            u, v = _int(parts[0]), _int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", i + 1) from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", i + 1)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range 0..{n - 1}", i + 1)
        key = (min(u, v), max(u, v))
        if key in edges:
            raise ParseError(f"duplicate edge {key}", i + 1)
        edges.add(key)
    if len(edges) != m:
        raise ParseError(f"header promises {m} edges, found {len(edges)}")
    return Graph(n, edges)


# Tokens and separators beyond _fuzz_lines: int() takes '+3', '0_1' and
# Unicode digits, of which only '+3' is a number here, str.split() and str.strip() agree on Unicode whitespace,
# and a '#' starts a comment only at the front of a stripped line.
_odd_tokens = st.sampled_from(["+3", "0_1", "1#", "#", "#1", "x", "-0", "٣", "12" * 3, "1-2", "+-1", "a"])
_separators = st.sampled_from([" ", "  ", "\t", "\xa0", "\x1f", "\u2000", "\u3000"])
# the line breaks of str.splitlines() beyond '\n', '\r' and '\r\n'
_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_noise_lines = (_fuzz_lines
                | st.sampled_from(["", " ", "\t", "#", "# comment", "  # indented comment", "#0 1", "0 1 # note"])
                | st.lists(st.integers(-1, 12).map(str) | _odd_tokens, min_size=1, max_size=3)
                .flatmap(lambda tokens: _separators.map(lambda sep: sep.join(tokens)))
                .flatmap(lambda row: st.sampled_from(["", " ", "\t"]).map(lambda pad: pad + row + pad)))


@st.composite
def edgelist_documents(draw):
    """Edge-list text, mostly valid graphs, with comments, blank lines, odd
    tokens and separators, duplicates, bad lines and wrong edge counts."""
    n = draw(st.integers(-1, 12))
    pairs = [(u, v) for v in range(max(n, 0)) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=15)) if pairs else []
    rows = []
    # in half the documents, an edge's ends may also be split by a line break
    separators = draw(st.sampled_from([_separators, _separators | st.sampled_from(_LINE_BREAKS)]))
    for u, v in edges:
        if draw(st.booleans()):
            u, v = v, u
        rows.append(f"{u}{draw(separators)}{v}")
    for _ in range(draw(st.integers(0, 3))):
        # a noise line, or an edge line again, the other way round
        again = st.sampled_from(rows).map(lambda r: " ".join(r.split()[::-1])) if rows else _noise_lines
        rows.insert(draw(st.integers(0, len(rows))), draw(_noise_lines | again))
    m = draw(st.just(len(edges)) | st.integers(-1, 16))
    head = draw(st.lists(st.sampled_from(["", "# c", "  #", "\t"]), max_size=2))
    header = draw(st.sampled_from([f"{n} {m}", f" {n}\t{m} ", f"+{n}\xa0{m}", f"{n} {m} 0"]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r", *_LINE_BREAKS]))
    tail = draw(st.sampled_from(["", newline]))
    return newline.join([*head, header, *rows]) + tail


def test_whitespace_tables_hold_what_str_methods_know():
    # parse_edgelist's tables must name every character str.split() splits at
    # and every one str.splitlines() breaks lines at, on this Python's Unicode
    space = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
    assert sorted(io._BREAKS) == [c for c in space if len(f"a{c}b".splitlines()) == 2]
    assert sorted(io._BLANKS + io._BREAKS) == space


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line


@settings(max_examples=400)
@given(edgelist_documents())
def test_parse_edgelist_matches_the_per_line_reference(text):
    got, want = _outcome(parse_edgelist, text), _outcome(_reference_parse_edgelist, text)
    if isinstance(want, Graph):
        assert isinstance(got, Graph), got
        _same_structure(got, want)
    else:
        assert got == want


@given(graph6_lines())
def test_graph6_round_trip_line(line):
    g = parse_graph6(line)
    assert emit_graph6(g) == line
    # the parsed graph returns its recorded line; the encoder must agree
    assert emit_graph6(Graph(g.n, g.edges)) == line


# A line whose size is one character (n <= 62) is decoded through tables in
# one pass, a long-form line ('~' and 18 bits) chunk by chunk.  The long form
# of a short line, with the same body, must give the same graph, and only the
# short line, with zero padding, is the graph's own line.
def _long_form(line):
    n = ord(line[0]) - 63
    return "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0)) + line[1:]


def _padding_set(line):
    n = ord(line[0]) - 63
    pad = -(n * (n - 1) // 2) % 6
    return len(line) > 1 and (ord(line[-1]) - 63) & ((1 << pad) - 1) != 0


def _reference_edges(line):
    """The edges of a short-form line, read off the definition bit by bit."""
    n = ord(line[0]) - 63
    bit = [(ord(ch) - 63) >> (5 - o) & 1 for ch in line[1:] for o in range(6)]
    return sorted((u, v) for v in range(n) for u in range(v) if bit[v * (v - 1) // 2 + u])


def _check_short_line(line):
    """The graph on the short-form ``line``, once its long form has given the
    same ends, incidence and degrees, the ends are the definition's, and the
    line is kept exactly when its padding bits are zero."""
    short, long = parse_graph6(line), parse_graph6(_long_form(line))
    assert (short.n, short.lo, short.hi, short._incident, short._degrees) == \
        (long.n, long.lo, long.hi, long._incident, long._degrees)
    assert list(zip(short.lo, short.hi)) == _reference_edges(line)
    assert short._graph6 == (None if _padding_set(line) else line)
    assert long._graph6 is None
    return short


def test_short_and_long_forms_agree_on_the_small_corpus():
    # every connected graph on 3..7 vertices and every 8-vertex graph with a
    # vertex of degree 7 or 6: the graphs of the corpus-small benchmark
    graphs = [g for n in range(3, 8) for g in connected_graphs_upto_iso(n)]
    graphs += high_max_degree_corpus(8)
    assert len(graphs) == 8376
    for g in graphs:
        assert _check_short_line(emit_graph6(g)) == g


@st.composite
def short_graph6_lines(draw):
    """A short-form line on 0..62 vertices, whose padding bits may be set."""
    n = draw(st.integers(min_value=0, max_value=62))
    nbits = n * (n - 1) // 2
    vals = draw(st.lists(st.integers(0, 63), min_size=(nbits + 5) // 6, max_size=(nbits + 5) // 6))
    if vals and draw(st.booleans()):
        vals[-1] &= -1 << (-nbits % 6)
    return chr(n + 63) + "".join(chr(x + 63) for x in vals)


# n = 0, 1 and 2, and n = 62, the largest short form, with no bit set and
# with every triangle and padding bit set
@given(short_graph6_lines())
@example("?")
@example("@")
@example("A_")
@example("}" + "?" * 316)
@example("}" + "~" * 316)
def test_short_and_long_forms_agree(line):
    _check_short_line(line)


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
    lo = [u for u, _ in kept]
    hi = [v for _, v in kept]
    _same_structure(_canonical_graph(g.n, lo, hi), _validated(g.n, kept))


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
                                      (63, [(0, 62)]), (3, []), (62, []), (63, [])])
def test_set_padding_bits_keep_the_graph(n, edges):
    line = emit_graph6(Graph(n, edges))
    pad = -(n * (n - 1) // 2) % 6
    assert pad > 0
    g = parse_graph6(line[:-1] + chr((ord(line[-1]) - 63 | (1 << pad) - 1) + 63))
    _same_structure(g, _validated(n, edges))
    assert g._graph6 is None


# parse_graph6 expands the body io._G6_CHUNK characters (6 bits each) at a
# time, so a chunk edge falls every 6 * _G6_CHUNK bits.  A triangle {0, b, c}
# puts its last bit, the one of (b, c), at c(c - 1)/2 + b: the three cases
# put that bit last in a chunk, first in the next and one short of last.
def _triangle_ending_at(bit):
    c = 2
    while (c + 1) * c // 2 <= bit:
        c += 1
    b = bit - c * (c - 1) // 2
    assert 0 < b < c
    return [(0, b), (0, c), (b, c)]


@pytest.mark.parametrize("chunks, shift", [(1, -1), (1, 0), (1, -2), (2, -1), (2, 0), (2, -2)],
                         ids=["last bit of chunk 1", "first bit of chunk 2", "one short of chunk 1's end",
                              "last bit of chunk 2", "first bit of chunk 3", "one short of chunk 2's end"])
def test_graph6_triangle_at_a_chunk_edge(chunks, shift):
    edges = _triangle_ending_at(chunks * 6 * io._G6_CHUNK + shift)
    for n in (edges[-1][1] + 1, edges[-1][1] + 2):
        line = emit_graph6(Graph(n, edges))
        g = parse_graph6(line)
        _same_structure(g, _validated(n, edges))
        assert g._graph6 == line


def test_graph6_set_padding_bit_in_the_last_chunk():
    # n = 446: 99,235 bits, so a second chunk and five padding bits
    n = 446
    assert n * (n - 1) // 2 > 6 * io._G6_CHUNK and n * (n - 1) // 2 % 6 == 1
    edges = [(0, 1), (0, 445), (444, 445)] + _triangle_ending_at(6 * io._G6_CHUNK)
    line = emit_graph6(Graph(n, edges))
    g = parse_graph6(line[:-1] + chr((ord(line[-1]) - 63 | 1) + 63))
    _same_structure(g, _validated(n, edges))
    assert g._graph6 is None


def test_graph6_spanning_three_chunks_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(7)
    n = 700
    assert n * (n - 1) // 2 > 2 * 6 * io._G6_CHUNK
    edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.05]
    ref = nx.empty_graph(n)
    ref.add_edges_from(edges)
    line = nx.to_graph6_bytes(ref, header=False).rstrip(b"\n").decode("ascii")
    g = parse_graph6(line)
    _same_structure(g, _validated(n, edges))
    assert g._graph6 == line == emit_graph6(Graph(n, edges))


def test_graph6_every_alignment_with_small_chunks(monkeypatch):
    # one base64 quantum per chunk, 24 bits.  The triangle size n(n - 1)/2
    # mod 24 repeats every 48 sizes, so the triangles of n = 0..60 and those
    # of n = 63..110 each end at every offset a chunk allows, at the chunk
    # edge itself and one character past it.  Only a long-form line is
    # decoded in chunks: for n <= 62 the long form of the short line, never
    # kept, and from n = 63 emit_graph6's own line, kept exactly when its
    # padding bits are zero.
    monkeypatch.setattr(io, "_G6_CHUNK", 4)
    rng = random.Random(3)
    for n in [*range(61), *range(63, 111)]:
        for p in (0.1, 0.5, 1.0):
            edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
            line = emit_graph6(Graph(n, edges))
            if n <= 62:
                g = parse_graph6(_long_form(line))
                _same_structure(g, _validated(n, edges))
                assert g._graph6 is None
                continue
            g = parse_graph6(line)
            _same_structure(g, _validated(n, edges))
            assert g._graph6 == line
            pad = -(n * (n - 1) // 2) % 6
            if pad:
                # the first padding bit, the one right past the triangle
                padded = line[:-1] + chr((ord(line[-1]) - 63 | 1 << pad - 1) + 63)
                assert parse_graph6(padded)._graph6 is None


def test_parsed_graph_takes_at_most_70_bytes_per_edge():
    # Graph keeps the edge ends in the flat lists lo and hi, a slot each,
    # not as one pair per edge: a parsed graph takes about 65 bytes per
    # edge, the two ends 16 of them and the incidence the rest, where the
    # pairs took 112
    g = random_min_degree_graph(800, 50, 0)
    assert g.m >= 20000
    for parse, text in ((parse_graph6, emit_graph6(g)), (parse_edgelist, emit_edgelist(g))):
        tracemalloc.start()
        try:
            h = parse(text)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert h == g
        assert size / g.m <= 70, parse.__name__


def test_graph6_parse_peaks_below_77_bytes_per_edge():
    # Graph's build turns each vertex's incidence list into its tuple in
    # turn, so the lists and the tuples never all exist at once.  This parse
    # peaks at 67 bytes per edge on Python 3.10 to 3.13 (85 when the tuples
    # were built only after all the lists), for a graph that keeps 65.
    g = random_min_degree_graph(800, 50, 0)
    text = emit_graph6(g)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = parse_graph6(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == g
    assert (peak - base) / g.m <= 77


def test_edgelist_parse_peaks_below_155_bytes_per_edge():
    # The parse checks the lines' shapes on the distinct class strings and
    # tokenises the body with one split(), so it holds no list per line and
    # no line list beside the tokens.  It peaks at 147 bytes per edge on
    # Python 3.10 and 3.11 and 131 on 3.12 and 3.13 (328 and 246 when each
    # line was split into a row of its own).
    g = random_min_degree_graph(800, 50, 0)
    text = emit_edgelist(g)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = parse_edgelist(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == g
    assert (peak - base) / g.m <= 155


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
            _canonical_graph(g.n, g.lo, g.hi),
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


def test_certificate_vertex_lines_cover_every_vertex():
    with pytest.raises(ParseError, match=r"^vertex sums must cover 0\.\.n-1$"):
        parse_certificate("0 2 1\n0 1\n2 1\n")


def test_blank_certificate_lines_are_skipped():
    g = cycle_graph(5)
    cert = dispatch_label(g).certificate
    text = emit_certificate(g, cert).replace("\n", "\n \n")
    assert parse_certificate("\n" + text) == (g, cert)


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
    ("0 1 1\n1 2 two\n0 1\n1 3\n2 2\nOK\n", 2, "edge line must be 'u v label'"),
    ("0 1 1\n0 1 1 1\n0 1\n1 1\n", 2, "unrecognized certificate line"),
    # the path 0-1-2 labelled 1, 2, with one field that int() reads but the
    # sign-and-ASCII-digits rule of every other number in io does not
    ("0 1 1\n1 2 2\n0 1\n1 \u0663\n2 2\nOK\n", 4, "vertex line must be 'v sum'"),
    ("0 1 1\n1 2 2\n0 1\n1 0_3\n2 2\nOK\n", 4, "vertex line must be 'v sum'"),
    ("0 1 1\n1 2 \u0662\n0 1\n1 3\n2 2\nOK\n", 2, "edge line must be 'u v label'"),
    ("0 1 1\n1 2_0 2\n0 1\n1 3\n2 2\nOK\n", 2, "edge line must be 'u v label'"),
], ids=["non-integer sum", "wrong sum", "false OK", "false NOT-A-BIJECTION", "false COLLISION",
        "duplicate edge", "self-loop", "end past n", "negative end", "label 0", "label -3",
        "non-integer label", "four fields", "Arabic-Indic sum", "underscore sum",
        "Arabic-Indic label", "underscore end"])
def test_contradictory_certificate_rejected(text, line, message):
    with pytest.raises(ParseError, match=f"^line {line}: {message}$") as info:
        parse_certificate(text)
    assert info.value.line == line
