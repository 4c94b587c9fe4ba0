import subprocess
import sys
import time
from pathlib import Path

import pytest

import antimagic.dispatch
from antimagic.dispatch import (ANTIMAGIC, FAILED, NOT_APPLICABLE, dispatch_label,
                                recognize_complete_multipartite)
from antimagic.generators import (complete_graph, complete_partite_graph, cycle_graph,
                                  random_min_degree_graph)
from antimagic.graph import Graph, verify_antimagic


def test_wall_time_covers_graph_id(monkeypatch):
    slow_id = antimagic.dispatch.emit_graph6

    def emit_graph6(g):
        time.sleep(0.05)
        return slow_id(g)

    monkeypatch.setattr(antimagic.dispatch, "emit_graph6", emit_graph6)
    rep = dispatch_label(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert rep.outcome == ANTIMAGIC
    assert rep.wall_time >= 0.05


def test_cold_start_does_not_import_numpy():
    # numpy's import alone costs more than a whole cold start of the labeler
    src = str(Path(antimagic.dispatch.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from antimagic import dispatch, io; "
            "assert dispatch.dispatch_label(io.parse_graph6('Bw')).certificate is not None; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False"]


def test_graph_beyond_graph6_gets_empty_id():
    # graph6's size field stops at 258047 vertices; labelling must not depend on the id
    rep = dispatch_label(Graph(258048, [(0, 1), (1, 2)]))
    assert rep.outcome == FAILED
    assert rep.graph_id == ""


def _wheel(spokes):
    rim = [(i, i % spokes + 1) for i in range(1, spokes + 1)]
    return Graph(spokes + 1, [(0, i) for i in range(1, spokes + 1)] + rim)


def _path_plus_chords():
    # vertex 0 misses only vertex 7: maximum degree n - 2, no universal vertex
    return Graph(8, [(0, v) for v in range(1, 7)] + [(i, i + 1) for i in range(1, 7)])


@pytest.mark.parametrize("g, method, outcome", [
    (Graph(2, [(0, 1)]), "auto", NOT_APPLICABLE),
    (Graph(4, []), "auto", NOT_APPLICABLE),
    (complete_graph(6), "partite", ANTIMAGIC),
    (complete_partite_graph([3, 5]), "partite", ANTIMAGIC),
    (complete_partite_graph([2, 3, 4]), "partite", ANTIMAGIC),
    (_wheel(7), "universal", ANTIMAGIC),
    (_path_plus_chords(), "delta-n2", ANTIMAGIC),
    (random_min_degree_graph(60, 13, 0), "dense", ANTIMAGIC),
    (cycle_graph(10), "oracle", ANTIMAGIC),
], ids=["K2", "edgeless", "K6", "K3,5", "K2,3,4", "wheel", "delta-n2", "dense", "C10"])
def test_routes_each_family(g, method, outcome):
    rep = dispatch_label(g)
    assert (rep.method, rep.outcome) == (method, outcome)
    if outcome == ANTIMAGIC:
        assert verify_antimagic(g, rep.certificate).ok


def test_recognizes_complete_multipartite_classes():
    g = complete_partite_graph([3, 4])
    assert recognize_complete_multipartite(g) == [[0, 1, 2], [3, 4, 5, 6]]


# Vertices 0 and 3 start the classes {0, 1, 2} and {3, 4, 5, 6}; the edges
# changed here avoid both, so the classes still form and only the final
# checks (no edge inside a class, every cross pair an edge) can object.
@pytest.mark.parametrize("drop, add", [([(1, 4)], []), ([], [(4, 5)]), ([(1, 4)], [(4, 5)])],
                         ids=["minus cross edge", "plus class edge", "cross edge moved into class"])
def test_near_complete_multipartite_is_rejected(drop, add):
    edges = set(complete_partite_graph([3, 4]).edges) - set(drop) | set(add)
    assert recognize_complete_multipartite(Graph(7, edges)) is None
