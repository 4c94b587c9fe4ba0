import subprocess
import sys
import time
from pathlib import Path

import pytest

import antimagic.dense
import antimagic.dispatch
import antimagic.oracle
import antimagic.partite
import antimagic.special
from antimagic.dispatch import (ANTIMAGIC, FAILED, NOT_APPLICABLE, dispatch_label,
                                recognize_complete_multipartite)
from antimagic.generators import (complete_graph, complete_partite_graph, cycle_graph,
                                  random_min_degree_graph)
from antimagic.graph import Graph, GraphError, verify_antimagic


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


_FAMILIES = [
    (Graph(2, [(0, 1)]), "auto", NOT_APPLICABLE),
    (Graph(4, []), "auto", NOT_APPLICABLE),
    (complete_graph(6), "partite", ANTIMAGIC),
    (complete_partite_graph([3, 5]), "partite", ANTIMAGIC),
    (complete_partite_graph([2, 3, 4]), "partite", ANTIMAGIC),
    (_wheel(7), "universal", ANTIMAGIC),
    (_path_plus_chords(), "delta-n2", ANTIMAGIC),
    (random_min_degree_graph(60, 13, 0), "dense", ANTIMAGIC),
    (cycle_graph(10), "oracle", ANTIMAGIC),
]
_FAMILY_IDS = ["K2", "edgeless", "K6", "K3,5", "K2,3,4", "wheel", "delta-n2", "dense", "C10"]


@pytest.mark.parametrize("g, method, outcome", _FAMILIES, ids=_FAMILY_IDS)
def test_routes_each_family(g, method, outcome):
    rep = dispatch_label(g)
    assert (rep.method, rep.outcome) == (method, outcome)
    if outcome == ANTIMAGIC:
        assert verify_antimagic(g, rep.certificate).ok


_STAR_PLUS_ISOLATED = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4)])


@pytest.mark.parametrize("g, kwargs, outcome, note", [
    (Graph(1, []), {}, ANTIMAGIC, "trivial"),
    (cycle_graph(5), {"method": "partite"}, NOT_APPLICABLE, "not complete multipartite"),
    (cycle_graph(5), {"method": "universal"}, NOT_APPLICABLE,
     "no vertex of degree n-1, nor of degree n-2 with an isolated non-neighbor"),
    (_STAR_PLUS_ISOLATED, {"method": "universal"}, ANTIMAGIC, ""),
    (Graph(4, [(0, 1), (2, 3)]), {"method": "dense", "d": 1, "max_restarts": 3}, FAILED,
     "budget exhausted; best attempt had 2 colliding pairs"),
], ids=["K1", "partite C5", "universal C5", "universal star plus isolated", "dense 2K2"])
def test_forced_routes(g, kwargs, outcome, note):
    rep = dispatch_label(g, **kwargs)
    assert (rep.method, rep.outcome, rep.note) == (kwargs.get("method", "auto"), outcome, note)
    assert (rep.certificate is not None) == (outcome == ANTIMAGIC)
    if g.m and outcome == ANTIMAGIC:
        assert verify_antimagic(g, rep.certificate).ok


def test_unknown_method_raises():
    with pytest.raises(GraphError, match="unknown method 'greedy'"):
        dispatch_label(cycle_graph(5), method="greedy")


@pytest.fixture
def verifier_calls(monkeypatch):
    """(graph, labels, ok) of every verifier call a labeler or dispatch makes."""
    calls = []

    def recording(g, labeling):
        report = verify_antimagic(g, labeling)
        calls.append((g, labeling.labels, report.ok))
        return report

    for module in (antimagic.dispatch, antimagic.dense, antimagic.special, antimagic.partite,
                   antimagic.oracle):
        monkeypatch.setattr(module, "verify_antimagic", recording)
    return calls


_CERTIFIED = [(g, method) for g, method, outcome in _FAMILIES if outcome == ANTIMAGIC]
_CERTIFIED_IDS = [i for i, (_, _, outcome) in zip(_FAMILY_IDS, _FAMILIES) if outcome == ANTIMAGIC]


@pytest.mark.parametrize("g, method", _CERTIFIED + [
    # a singleton class with k >= 3 goes through label_universal_vertex
    (complete_partite_graph([1, 2, 3]), "partite"),
    # the hub's non-neighbour is isolated: the universal-vertex labeling of
    # the graph as it stands, with the isolated vertex at weight 0
    (_STAR_PLUS_ISOLATED, "delta-n2"),
], ids=_CERTIFIED_IDS + ["K1,2,3", "delta-n2 isolated"])
def test_certificate_passes_the_verifier_exactly_once(g, method, verifier_calls):
    rep = dispatch_label(g)
    assert (rep.method, rep.outcome) == (method, ANTIMAGIC)
    gate = [ok for graph, labels, ok in verifier_calls
            if graph is g and labels == rep.certificate.labels]
    assert gate == [True]


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
