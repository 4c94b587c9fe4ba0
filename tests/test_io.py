import pytest

from antimagic.io import ParseError, parse_edgelist


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
