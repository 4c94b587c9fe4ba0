"""Graph and certificate serialization.

Two graph formats: a plain edge list (header ``n m`` then one ``u v`` line
per edge) and the compact one-line ASCII encoding used by standard
small-graph corpora.
Certificates are grep-friendly text: one ``u v label`` line per edge, one
``vertex sum`` line per vertex, then a status line.
"""

from __future__ import annotations

import binascii
from typing import Optional

from .graph import Graph, Labeling, VerifyReport, _canonical_graph, verify_antimagic, vertex_sums


class ParseError(ValueError):
    """Malformed document; carries the 1-based offending line when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_edgelist(text: str) -> Graph:
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
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ParseError("header must hold two integers", header_no) from None
    if n < 0:
        raise ParseError(f"vertex count must be non-negative, header says {n}", header_no)
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
            u, v = int(parts[0]), int(parts[1])
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


def emit_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# graph6 packs the upper triangle column by column, (0,1), (0,2), (1,2),
# (0,3), ..., six bits to a character 63..126: base64 with another alphabet.
# So the O(n^2) body goes through binascii, and Python touches only the edges.
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = bytes(range(63, 127))
_B64_TO_G6 = bytes.maketrans(_B64, _G6)
_G6_TO_B64 = bytes.maketrans(_G6, _B64)


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
    for u, v in g.edges:
        k = v * (v - 1) // 2 + u
        bits[k >> 3] |= 128 >> (k & 7)
    body = binascii.b2a_base64(bits, newline=False)[:nchars].translate(_B64_TO_G6)
    return head + body.decode("ascii")


def parse_graph6(line: str) -> Graph:
    """The graph on one graph6 line; an optional ``>>graph6<<`` header is skipped.

    When the line, stripped and without the header, is exactly what
    :func:`emit_graph6` writes for the graph (the one-character size for
    n <= 62, zero padding bits), the graph records it, so that encoding the
    graph again costs nothing.
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
    body = s[i:]
    if len(body) != need:
        raise ParseError(f"expected {need} data characters, got {len(body)}")
    raw = body.encode("ascii", "ignore")  # never "replace": it makes '?', a valid character
    if len(raw) != need or raw.translate(None, _G6):
        bad = next(ch for ch in body if not "?" <= ch <= "~")
        raise ParseError(f"invalid character {bad!r}")
    quanta = raw.translate(_G6_TO_B64) + b"A" * (-need % 4)
    data = binascii.a2b_base64(quanta)
    bits = format(int.from_bytes(data, "big"), f"0{len(data) * 8}b")
    # Column v holds the bits of (0, v), ..., (v - 1, v); filing each set bit
    # under its row leaves every row's later ends ascending, so the edges
    # come out in Graph's order and need no sort or check.  One find per
    # edge walks the whole triangle; the column moves on by arithmetic.
    rows: list[list[int]] = [[] for _ in range(n)]
    find = bits.find
    v, first, end = 1, 0, 1  # column v spans bits first .. end - 1
    k = find("1", 0, nbits)
    while k >= 0:
        while k >= end:
            first = end
            v += 1
            end += v
        rows[k - first].append(v)
        k = find("1", k + 1, nbits)
    edges = [(u, v) for u, row in enumerate(rows) for v in row]
    canonical = (i == 1 or n > 62) and bits.find("1", nbits) < 0
    return _canonical_graph(n, edges, s if canonical else None)


def _status_line(report: VerifyReport) -> str:
    if report.ok:
        return "OK"
    if not report.bijection_ok:
        return "NOT-A-BIJECTION"
    u, v = report.first_collision
    return f"COLLISION {u} {v}"


def emit_certificate(g: Graph, labeling: Labeling, report: Optional[VerifyReport] = None) -> str:
    """Edge labels, vertex sums, then OK or the failure reason."""
    report = report or verify_antimagic(g, labeling)
    lines = [f"{u} {v} {labeling[e]}" for e, (u, v) in enumerate(g.edges)]
    sums = vertex_sums(g, labeling)
    lines.extend(f"{v} {sums[v]}" for v in range(g.n))
    lines.append(_status_line(report))
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> tuple[Graph, Labeling]:
    """Rebuild graph and labeling from certificate text.

    The certificate must agree with itself: each vertex line's sum is the sum
    of the labels at that vertex, and each status line is the one the
    verifier gives the labeling.  A line that contradicts the rest raises
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
                u, v, lab = (int(x) for x in parts)
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
                vertex_lines.append((int(parts[0]), int(parts[1]), i))
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
    by_edge = [0] * g.m
    for (u, v), lab in zip(edge_lines, labels):
        by_edge[g.edge_index(u, v)] = lab
    labeling = Labeling(by_edge)
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

