"""Graph and certificate serialization.

Two graph formats: a plain edge list and the compact one-line ASCII
encoding (graph6) used by standard small-graph corpora.  A graph6 line
gives n in one of two forms: the short form, one character, for n <= 62,
or the long form, ``~`` and three characters, for n up to
``GRAPH6_MAX_N``.  A short-form body, at most 316 characters, is decoded
in one pass through lookup tables; a long-form body is decoded a chunk at
a time, so its parse holds one chunk's bits, never the whole triangle's.
An edge list is a header line ``n m``, then one ``u v`` line per edge, in
either orientation and any order; blank lines and lines starting with
``#`` (comments) may appear anywhere.  Its parse checks the shape of every
line on the whole body at once, through one class string and the set of
its distinct lines, and tokenises the body with one ``split()``, so it
builds no list per line and peaks at about 150 bytes per edge.  A
malformed document raises :class:`ParseError`, which names the first bad
line.
Certificates are grep-friendly text: one ``u v label`` line per edge, one
``vertex sum`` line per vertex, then a status line.
"""

from __future__ import annotations

import binascii
import re
from itertools import chain, islice, repeat
from operator import eq, floordiv, mod
from typing import NoReturn, Optional

from .graph import Graph, Labeling, VerifyReport, _canonical_graph, verify_antimagic, vertex_sums


class ParseError(ValueError):
    """Malformed document; carries the 1-based offending line when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_edgelist(text: str) -> Graph:
    """The graph of an edge-list document.

    The first line that is neither blank nor a comment is the header ``n m``;
    each later such line is one edge ``u v`` with ``0 <= u, v < n``, in
    either orientation and in any order.  Each number is an optional sign
    and ASCII digits.  A comment is a line whose first
    non-blank character is ``#``.  The document must hold exactly ``m``
    edges, with no self-loop and no edge twice.  A malformed document raises
    :class:`ParseError` naming the first bad line (the header's, for a
    negative count), or, when the edges number other than the header's
    ``m``, no line.

    After the header, the document is checked as a whole, with no list per
    line.  One ``str.translate`` maps the body to its classes (token, blank
    and line break), and the set of distinct class lines, a handful, shows
    whether every line is blank or two tokens.  One ``split()`` tokenises
    the body, each distinct token is read once, and each end then costs one
    dict lookup.  So the parse peaks at about 150 bytes per edge, the
    tokens most of it, and the graph keeps about 65: its end lists ``lo``
    and ``hi`` share one int per vertex and take 16 bytes per edge.  Only
    when a check fails is the text split into lines, to name the first bad
    one.
    """
    header = None
    for header_no, line in enumerate(_LINE.finditer(text), start=1):
        if line[1].strip() and not line[1].lstrip().startswith("#"):
            header = line[1].split()
            break
    if header is None:
        raise ParseError("empty document")
    if len(header) != 2:
        raise ParseError("header must be 'n m'", header_no)
    try:
        n, m = _ints(header)
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
    # the body starts with the header's line break, so every edge line
    # follows one
    body = text[line.end(1):]
    if "#" in body:
        body = _COMMENT.sub("\n", body.translate(_NEWLINES))
    ends = _edge_ends(body.split(), n) if _two_per_line(body) else None
    del body
    if ends is None:
        _reject_edge_lines(text.splitlines(), header_no, n)
    lo, hi = ends
    if len(lo) != m:
        raise ParseError(f"header promises {m} edges, found {len(lo)}")
    return _canonical_graph(n, lo, hi)


# The characters that str.splitlines() breaks lines at, and the other
# whitespace that str.split() and str.strip() know (the test suite checks
# both against every code point).
_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
_BLANKS = "\t\x1f \xa0\u1680\u202f\u205f\u3000" + "".join(map(chr, range(0x2000, 0x200B)))
# one line of a document and its break, as str.splitlines() sees them
_LINE = re.compile(f"([^{_BREAKS}]*)(?:\r\n|[{_BREAKS}]|\\Z)")
_NEWLINES = str.maketrans(dict.fromkeys(_BREAKS, "\n"))
# a comment line, once every line break is '\n'
_COMMENT = re.compile(r"\n[^\S\n]*#[^\n]*")
# Every other ASCII character is a token character.  A Unicode one stays as
# it is, and the token it is in is no number.
_CLASSES = str.maketrans({**dict.fromkeys(map(chr, range(128)), "x"), **dict.fromkeys(_BLANKS, " "),
                          **dict.fromkeys(_BREAKS, "\n")})


def _two_per_line(body: str) -> bool:
    """Whether each line of ``body`` is blank or two tokens.

    A line's class string (``x`` per token character, a space per blank)
    shows its shape, and the lines of a document have few distinct ones, so
    each distinct shape is checked once.
    """
    shapes = set(body.translate(_CLASSES).split("\n"))
    return set(map(len, map(str.split, shapes))) <= {0, 2}


def _ints(fields: list[str]) -> list[int]:
    """The integers ``fields`` hold; ValueError unless each is an optional
    sign and ASCII digits.

    A field has no whitespace, since it comes from ``str.split()``, and
    ``int()`` would also take '_' between digits and non-ASCII digits.
    """
    joined = "".join(fields)
    if not joined.isascii() or "_" in joined:
        raise ValueError("not a plain decimal integer")
    return list(map(int, fields))


def _edge_ends(tokens: list[str], n: int) -> Optional[tuple[list[int], list[int]]]:
    """The end lists ``lo`` and ``hi`` of the edges whose ends are
    ``tokens``, two by two, in Graph's order; None if an end is no vertex,
    an edge is a loop or an edge repeats.  ``tokens`` is emptied.

    Each distinct token is read once, and each end is one lookup in the
    dict of the distinct tokens, so the work and the ints go by the tokens
    present, never by n.  Each check is one pass over the whole document,
    not a loop per line.
    """
    distinct = list(set(tokens))
    try:
        ints = _ints(distinct)
    except ValueError:
        return None
    if ints and (min(ints) < 0 or max(ints) >= n):
        return None
    end = dict(zip(distinct, ints)).__getitem__
    us = list(map(end, islice(tokens, 0, None, 2)))
    vs = list(map(end, islice(tokens, 1, None, 2)))
    tokens.clear()
    if any(map(eq, us, vs)):
        return None
    # code u * n + v, u < v, orders the edges as Graph stores them
    codes = [u * n + v if u < v else v * n + u for u, v in zip(us, vs)]
    del us, vs
    codes.sort()
    if any(map(eq, codes, islice(codes, 1, None))):
        return None
    # the ends are each code's quotient and remainder; looking them up in
    # one dict of the vertices present lets all of a vertex's edges share
    # its int, so each end costs its 8-byte slot alone
    vertex = {v: v for v in ints}.__getitem__
    lo = list(map(vertex, map(floordiv, codes, repeat(n))))
    hi = list(map(vertex, map(mod, codes, repeat(n))))
    return lo, hi


def _reject_edge_lines(lines: list[str], header_no: int, n: int) -> NoReturn:
    """Raise the ParseError for the first bad edge line after the header,
    as a scan line by line finds it; parse_edgelist calls it once its
    whole-document checks have found a fault."""
    edges = set()
    for i in range(header_no, len(lines)):
        raw = lines[i].strip()
        if not raw or raw.startswith("#"):
            continue
        parts = raw.split()
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", i + 1)
        try:
            u, v = _ints(parts)
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
    raise ParseError(f"invalid edge list for n={n}")


def emit_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in zip(g.lo, g.hi))
    return "\n".join(lines) + "\n"


# graph6 packs the upper triangle column by column, (0,1), (0,2), (1,2),
# (0,3), ..., six bits to a character 63..126: base64 with another alphabet.
# So the O(n^2) body of a long-form line goes through binascii, and Python
# touches only the edges.
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = bytes(range(63, 127))
_B64_TO_G6 = bytes.maketrans(_B64, _G6)
_G6_TO_B64 = bytes.maketrans(_G6, _B64)

# A short-form body (n <= 62) is at most 316 characters, decoded in one
# pass through tables: _G6_BITS[c] lists the offsets 0..5 of the set bits
# of character c, highest bit first (empty for a character outside
# '?'..'~', which the decoder refuses before it reads the table), and bit
# k of the triangle is the pair (_G6_ROW[k], _G6_COL[k]).
_G6_BITS = [()] * 63 + [tuple(o for o in range(6) if x >> 5 - o & 1) for x in range(64)] + [()] * 129
_G6_ROW = [u for v in range(62) for u in range(v)]
_G6_COL = [v for v in range(62) for _ in range(v)]

# Body characters that parse_graph6 decodes at a time: a whole number of
# base64 quanta (4 characters), 6 * 16384 = 98,304 bits.
_G6_CHUNK = 16384

# The largest vertex count graph6's short size field (``~`` + 18 bits) holds.
GRAPH6_MAX_N = 258047


def emit_graph6(g: Graph) -> str:
    """The graph6 line of ``g``, without a ``>>graph6<<`` header.

    A graph read by :func:`parse_graph6` from a line in exactly this form
    keeps that line, and it is returned as it stands.
    """
    if g._graph6 is not None:
        return g._graph6
    n = g.n
    if n > GRAPH6_MAX_N:
        raise ParseError(f"encoding supports at most {GRAPH6_MAX_N} vertices")
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    nchars = (n * (n - 1) // 2 + 5) // 6
    # whole base64 quanta (4 characters = 3 bytes), so no '=' padding
    bits = bytearray((nchars + 3) // 4 * 3)
    for u, v in zip(g.lo, g.hi):
        k = v * (v - 1) // 2 + u
        bits[k >> 3] |= 128 >> (k & 7)
    body = binascii.b2a_base64(bits, newline=False)[:nchars].translate(_B64_TO_G6)
    return head + body.decode("ascii")


def parse_graph6(line: str) -> Graph:
    """The graph on one graph6 line; an optional ``>>graph6<<`` header is skipped.

    A line gives n in one of two forms: the short form, one size character,
    for n <= 62, or the long form, ``~`` and three size characters, for
    any n up to ``GRAPH6_MAX_N``.  When the line, stripped and without the
    header, is exactly what :func:`emit_graph6` writes for the graph (the
    short form for n <= 62, zero padding bits), the graph records it, so
    that encoding the graph again costs nothing.

    A short-form body, at most 316 characters, is decoded in one pass
    through lookup tables.  A long-form body is decoded ``_G6_CHUNK``
    characters at a time, so beyond the line and the graph the parse holds
    one chunk's bits, never the whole triangle's.  Either way the graph's
    end lists ``lo`` and ``hi`` are built with no tuple per edge, and the
    graph takes about 65 bytes per edge, 16 of them for the two ends.
    """
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ParseError("empty encoded line")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise ParseError("unsupported or truncated size prefix")
        size, i = s[1:4], 4
    else:
        size, i = s[0], 1
    n = 0
    for ch in size:
        if not "?" <= ch <= "~":
            raise ParseError(f"invalid size character {ch!r}")
        n = (n << 6) | (ord(ch) - 63)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - i != need:
        raise ParseError(f"expected {need} data characters, got {len(s) - i}")
    if i == 1:
        # bit k of the triangle is at offset k % 6 of character k // 6; set
        # bits past the triangle are padding and come last, so they are
        # popped off the end
        raw = _body_bytes(s[1:])
        ks = [k + o for k, c in zip(range(0, nbits, 6), raw) for o in _G6_BITS[c]]
        canonical = not ks or ks[-1] < nbits
        while ks and ks[-1] >= nbits:
            ks.pop()
        # the bits come column by column, so within a row the columns
        # ascend, and a stable sort by row puts the edges in Graph's order
        row = _G6_ROW.__getitem__
        ks.sort(key=row)
        lo = list(map(row, ks))
        hi = list(map(_G6_COL.__getitem__, ks))
    else:
        lo, hi, canonical = _decode_long(s, n, nbits)
        canonical = canonical and n > 62
    return _canonical_graph(n, lo, hi, s if canonical else None)


def _body_bytes(text: str) -> bytes:
    """``text``, a run of graph6 body characters, as ASCII bytes; ParseError
    names the first character outside '?'..'~'."""
    raw = text.encode("ascii", "ignore")  # never "replace": it makes '?', a valid character
    if len(raw) != len(text) or raw.translate(None, _G6):
        bad = next(ch for ch in text if not "?" <= ch <= "~")
        raise ParseError(f"invalid character {bad!r}")
    return raw


def _decode_long(s: str, n: int, nbits: int) -> tuple[list[int], list[int], bool]:
    """The edge ends ``lo`` and ``hi`` of the long-form line ``s``, whose
    body of ``nbits`` triangle bits starts at index 4, and whether all its
    padding bits are zero.

    The body is expanded ``_G6_CHUNK`` characters at a time.  The decoder
    files each edge's larger end under its smaller one, and the end lists
    are read off those rows.
    """
    # Column v holds the bits of (0, v), ..., (v - 1, v); filing each set bit
    # under its row leaves every row's later ends ascending, so the edges
    # come out in Graph's order and need no sort or check.  One find per
    # edge walks the whole triangle; the column moves on by arithmetic.
    # Bit positions count from the start of the current chunk.
    rows: list[list[int]] = [[] for _ in range(n)]
    v, first, end = 1, 0, 1  # column v spans bits first .. end - 1
    left = nbits  # triangle bits from the current chunk's start on
    bits, stop = "", 0
    for start in range(4, len(s), _G6_CHUNK):
        raw = _body_bytes(s[start:start + _G6_CHUNK])
        data = binascii.a2b_base64(raw.translate(_G6_TO_B64) + b"A" * (-len(raw) % 4))
        bits = format(int.from_bytes(data, "big"), f"0{len(data) * 8}b")
        stop = min(left, len(bits))
        find = bits.find
        k = find("1", 0, stop)
        while k >= 0:
            while k >= end:
                first = end
                v += 1
                end += v
            rows[k - first].append(v)
            k = find("1", k + 1, stop)
        first -= len(bits)
        end -= len(bits)
        left -= len(bits)
    # row u's entries are the hi ends of u's edges, each the column's own
    # int, and enumerate hands out one int per row, so all the edges at a
    # vertex share its int
    lo = [u for u, row in enumerate(rows) for _ in row]
    hi = list(chain.from_iterable(rows))
    del rows
    # past the triangle, the last chunk holds only padding bits
    return lo, hi, bits.find("1", stop) < 0


def _status_line(report: VerifyReport) -> str:
    if report.ok:
        return "OK"
    if not report.bijection_ok:
        return "NOT-A-BIJECTION"
    u, v = report.first_collision
    return f"COLLISION {u} {v}"


def emit_certificate(g: Graph, labeling: Labeling) -> str:
    """Edge labels, vertex sums, then OK or the failure reason."""
    report = verify_antimagic(g, labeling)
    lines = [f"{u} {v} {lab}" for u, v, lab in zip(g.lo, g.hi, labeling.labels)]
    sums = vertex_sums(g, labeling)
    lines.extend(f"{v} {sums[v]}" for v in range(g.n))
    lines.append(_status_line(report))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> tuple[Graph, Labeling]:
    """Rebuild graph and labeling from certificate text.

    The certificate must agree with itself: each vertex line's sum is the sum
    of the labels at that vertex, and each status line is the one the
    verifier gives the labeling.  Each number is an optional sign and ASCII
    digits, as in an edge list.  A line that contradicts the rest raises
    :class:`ParseError` with its line number.
    """
    labels = []
    edge_lines = {}  # canonical edge -> its line, in line order
    vertex_lines = []
    statuses = []
    for i, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] in ("OK", "NOT-A-BIJECTION", "COLLISION"):
            statuses.append((" ".join(parts), i))
            continue
        if len(parts) == 3:
            try:
                u, v, lab = _ints(parts)
            except ValueError:
                raise ParseError("edge line must be 'u v label'", i) from None
            if u == v:
                raise ParseError(f"self-loop at vertex {u}", i)
            if lab < 1:
                raise ParseError(f"labels must be positive, got {lab}", i)
            key = (u, v) if u < v else (v, u)
            if key in edge_lines:
                raise ParseError(f"duplicate edge {key}, first on line {edge_lines[key]}", i)
            edge_lines[key] = i
            labels.append(lab)
        elif len(parts) == 2:
            try:
                vertex_lines.append((*_ints(parts), i))
            except ValueError:
                raise ParseError("vertex line must be 'v sum'", i) from None
        else:
            raise ParseError("unrecognized certificate line", i)
    if edge_lines and not vertex_lines:
        raise ParseError("certificate has no vertex lines")
    vertices = {v for v, _, _ in vertex_lines}
    # the graph on no vertices has neither edge nor vertex lines
    n = max(vertices, default=-1) + 1
    if vertices != set(range(n)):
        raise ParseError("vertex sums must cover 0..n-1")
    for (u, v), i in edge_lines.items():
        if u < 0 or v >= n:
            raise ParseError(f"edge ({u}, {v}) out of range for n={n}", i)
    g = Graph(n, list(edge_lines))
    # Graph stores the edges sorted, and the keys are distinct, so sorting
    # the (edge, label) pairs puts the labels in edge-id order
    labeling = Labeling([lab for _, lab in sorted(zip(edge_lines, labels))])
    actual = vertex_sums(g, labeling)
    for v, total, i in vertex_lines:
        if total != actual[v]:
            raise ParseError(f"vertex {v} has sum {total}, but its labels add up to {actual[v]}", i)
    if statuses:
        status = _status_line(verify_antimagic(g, labeling))
        for claimed, i in statuses:
            if claimed != status:
                raise ParseError(f"status {claimed!r} contradicts the labeling, which gives {status!r}", i)
    return g, labeling

