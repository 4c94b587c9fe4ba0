import dataclasses
import hashlib
import importlib
import itertools
import pkgutil
import random
import re
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
from antimagic import io
from antimagic.lab.corpus import connected_graphs_upto_iso, graphs_upto_iso
from antimagic.dispatch import (ANTIMAGIC, FAILED, METHODS, NOT_APPLICABLE, dispatch_label,
                                recognize_complete_multipartite)
from antimagic.lab.generators import (complete_graph, complete_partite_graph, cycle_graph,
                                      random_min_degree_graph)
from antimagic.graph import Graph, GraphError, _trusted_labeling, verify_antimagic
from antimagic.dense import label_dense
from antimagic.oracle import NOT_FOUND, SearchResult, exhaustive_search, heuristic_search

HOPELESS_NOTE = "a K2 component or two isolated vertices: two sums agree under every labeling"


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
    # numpy's import alone costs more than a whole cold start of the labeler,
    # and hashlib's a few percent of one; only the digest id needs hashlib.
    # No labeling module imports the lab; a lab module would bring
    # antimagic.lab into sys.modules with it
    src = str(Path(antimagic.dispatch.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from antimagic import dispatch, io; "
            "assert dispatch.dispatch_label(io.parse_graph6('Bw')).certificate is not None; "
            "print('numpy' in sys.modules, 'hashlib' in sys.modules, 'antimagic.lab' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False", "False", "False"]


# the id of C40 from an edge list: sha256 of n, lo and hi as 8-byte
# little-endian integers, the same on CPython 3.10 to 3.13
C40_ID = "sha256:88af100ce5fe0e5a45d88bc54ff7d4c8ce2448d359d743fa5ac5fa45e80d659b"


def test_graph_id_is_a_digest_of_the_edges():
    c40 = io.parse_edgelist(io.emit_edgelist(cycle_graph(40)))
    assert dispatch_label(c40).graph_id == C40_ID
    # the id names the graph, not its numbering of the edges
    rng = random.Random(0)
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in c40.edges]
    rng.shuffle(edges)
    assert dispatch_label(Graph(40, edges)).graph_id == C40_ID
    assert dispatch_label(Graph(40, edges + [(0, 20)])).graph_id not in (C40_ID, "")


def test_short_graph6_line_is_the_graph_id():
    # a graph6 line no longer than a digest names the graph itself: n <= 29
    for n in (28, 29):
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        assert dispatch_label(g).graph_id == io.emit_graph6(g)
        assert len(io.emit_graph6(g)) <= len(C40_ID)
    assert dispatch_label(cycle_graph(30)).graph_id.startswith("sha256:")


def test_long_form_graph6_line_stays_the_graph_id():
    line = io.emit_graph6(cycle_graph(70))
    assert line.startswith("~")
    assert dispatch_label(io.parse_graph6(line)).graph_id == line


def test_graph_beyond_graph6_gets_a_digest_id():
    # graph6's size field stops at 258047 vertices, so such a graph keeps no
    # graph6 line and is named like any other long one: the sha256 of
    # struct.pack("<5q", 258048, 0, 1, 1, 2).  The 258045 isolated vertices
    # all keep sum 0.
    rep = dispatch_label(Graph(258048, [(0, 1), (1, 2)]))
    assert (rep.method, rep.outcome) == ("oracle", NOT_APPLICABLE)
    assert rep.note == HOPELESS_NOTE
    assert rep.graph_id == "sha256:1c2c81ef928b28e4a7be96c5afeac572c35aaf3eb41e9eaebc14dc5e43e401e8"


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


# The dense route's resample budget is cut here to 3; the n = 20 graph, at
# minimum degree effective_d(20) = 9, needs 5 resamples at seed 7, so the
# route spends the budget and fails.
@pytest.mark.parametrize("g, kwargs, outcome, resamples, note", [
    (Graph(1, []), {}, ANTIMAGIC, 0, "trivial"),
    (cycle_graph(5), {"method": "partite"}, NOT_APPLICABLE, 0, "not complete multipartite"),
    (cycle_graph(5), {"method": "universal"}, NOT_APPLICABLE, 0,
     "no vertex of degree n-1, nor of degree n-2 with an isolated non-neighbor"),
    (_STAR_PLUS_ISOLATED, {"method": "universal"}, ANTIMAGIC, 0, ""),
    (cycle_graph(5), {"method": "delta-n2"}, NOT_APPLICABLE, 0,
     "maximum degree must be exactly n-2=3, got 2"),
    (cycle_graph(5), {"method": "dense"}, NOT_APPLICABLE, 0, "minimum degree 2 is below d=5"),
    (random_min_degree_graph(20, 9, 2), {"method": "dense", "seed": 7}, FAILED, 3,
     "no certificate; fewest colliding pairs 1"),
], ids=["K1", "partite C5", "universal C5", "universal star plus isolated", "delta-n2 C5",
        "dense C5", "dense budget spent"])
def test_forced_routes(g, kwargs, outcome, resamples, note, monkeypatch):
    monkeypatch.setattr(antimagic.dense, "MAX_RESAMPLES", 3)
    rep = dispatch_label(g, **kwargs)
    assert (rep.method, rep.outcome, rep.note) == (kwargs.get("method", "auto"), outcome, note)
    assert rep.resamples == resamples
    assert (rep.certificate is not None) == (outcome == ANTIMAGIC)
    if g.m and outcome == ANTIMAGIC:
        assert verify_antimagic(g, rep.certificate).ok


# No labeling of these is antimagic, as for K2 and edgeless graphs: the search
# proves it at once, and the oracle route names the obstruction.
@pytest.mark.parametrize("g", [
    Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
    Graph(5, [(0, 1), (1, 2), (0, 2)]),
    Graph(4, [(0, 1), (2, 3)]),
    # maximum degree n-2, yet auto leaves the Δ = n-2 route to n >= 4
    Graph(3, [(0, 1)]),
], ids=["K3+K2", "K3+2K1", "2K2", "K2+K1"])
def test_hopeless_graphs_not_applicable(g):
    rep = dispatch_label(g)
    assert (rep.method, rep.outcome, rep.certificate) == ("oracle", NOT_APPLICABLE, None)
    assert rep.note == HOPELESS_NOTE


# sha256 of (route, outcome, note, resamples, certificate labels) of every
# method in METHODS on every graph on 1..6 vertices, in graphs_upto_iso order:
# it pins each explicit route's refusals and auto's choice together
REPORTS_DIGEST = "d44806a82694a70d2becfc1d59c15bfd11084319c42d55b32ccb6c345373a203"


def test_every_route_is_pinned_on_small_graphs():
    folded = hashlib.sha256()
    for n in range(1, 7):
        for g in graphs_upto_iso(n):
            for method in METHODS:
                rep = dispatch_label(g, method)
                # dispatch_label skips RunReport.__init__; a copy through it
                # must be the same report, with every field, a defaulted one
                # too, in the instance dict
                copy = dataclasses.replace(rep)
                assert (rep, hash(rep), repr(rep), vars(rep)) == (copy, hash(copy), repr(copy), vars(copy))
                labels = rep.certificate.labels if rep.certificate else None
                folded.update(repr((rep.method, rep.outcome, rep.note, rep.resamples,
                                    labels)).encode())
    assert folded.hexdigest() == REPORTS_DIGEST


def test_unknown_method_raises():
    with pytest.raises(GraphError, match="unknown method 'greedy'"):
        dispatch_label(cycle_graph(5), method="greedy")


# The dense route's d is effective_d(n) and its resample budget the constant
# dense.MAX_RESAMPLES, so passing either is refused as an unknown argument.
@pytest.mark.parametrize("kwargs, error", [({"d": 0}, TypeError), ({"max_resamples": 0}, TypeError),
                                           ({"d": 2.5}, TypeError), ({"max_resamples": 1.5}, TypeError)],
                         ids=["d=0", "max_resamples=0", "d=2.5", "max_resamples=1.5"])
@pytest.mark.parametrize("method", METHODS)
def test_bad_dense_parameters_raise_on_every_route(method, kwargs, error):
    with pytest.raises(error):
        dispatch_label(complete_graph(5), method=method, **kwargs)


BAD_SEEDS = [[1], None, 1.5, "1"]


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=["list", "None", "float", "str"])
@pytest.mark.parametrize("method", METHODS)
def test_bad_seed_raises_on_every_route(method, seed):
    # None would seed from the operating system, so it is refused too
    with pytest.raises(GraphError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        dispatch_label(complete_graph(5), method=method, seed=seed)


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=["list", "None", "float", "str"])
@pytest.mark.parametrize("label", [label_dense, heuristic_search], ids=["dense", "search"])
def test_bad_seed_raises_in_each_seeded_labeler(label, seed):
    with pytest.raises(GraphError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        label(random_min_degree_graph(40, 6, 0), seed=seed)


@pytest.mark.parametrize("seed", [0, -1, -(2 ** 70), 2 ** 70])
def test_any_integer_seed_is_reproducible(seed):
    # zero, negatives and big integers all seed; the same seed gives the
    # same certificate on the two seeded routes, and __index__ is honored.
    # The dense route's graph has minimum degree effective_d(40) = 12.
    g = random_min_degree_graph(40, 6, 0)

    class Seed:
        def __index__(self):
            return seed

    for h, method in ((random_min_degree_graph(40, 12, 0), "dense"), (g, "oracle")):
        rep = dispatch_label(h, method, seed=seed)
        assert rep.outcome == ANTIMAGIC
        assert dispatch_label(h, method, seed=Seed()).certificate == rep.certificate
    assert label_dense(g, d=6, seed=seed).labeling == label_dense(g, d=6, seed=Seed()).labeling
    assert heuristic_search(g, seed=seed).labeling == heuristic_search(g, seed=Seed()).labeling


def test_construction_error_is_reported_failed(monkeypatch):
    # the n = 5 trap graph's scheme has no candidate, so dispatch runs the
    # search; with the search finding nothing, the oracle route fails
    trap = Graph(5, [(0, 3), (1, 2), (1, 4), (2, 4), (3, 4)])
    monkeypatch.setattr(antimagic.dispatch, "heuristic_search",
                        lambda g, seed: SearchResult(NOT_FOUND, None))
    rep = dispatch_label(trap)
    assert (rep.method, rep.outcome, rep.certificate) == ("oracle", FAILED, None)
    assert rep.note == ("the n-2 scheme had no verified candidate; "
                        "heuristic search found no certificate")


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


_TRUSTING = (antimagic.dense, antimagic.oracle, antimagic.partite, antimagic.special)


def test_every_trusted_labeling_is_verified_once_in_its_module(monkeypatch):
    # A labeling built without Labeling's checks must go to the verifier next,
    # in the module that built it, and to no other verifier call.
    for info in pkgutil.walk_packages(antimagic.__path__, "antimagic."):
        module = importlib.import_module(info.name)
        trusting = info.name != "antimagic.graph" and hasattr(module, "_trusted_labeling")
        assert trusting == (module in _TRUSTING), info.name
    events = []
    for module in _TRUSTING + (antimagic.dispatch,):
        name = module.__name__

        def made(labels, name=name):
            lab = _trusted_labeling(labels)
            events.append(("made", name, lab))
            return lab

        def verified(g, labeling, name=name):
            events.append(("verified", name, labeling))
            return verify_antimagic(g, labeling)

        if module in _TRUSTING:
            monkeypatch.setattr(module, "_trusted_labeling", made)
        monkeypatch.setattr(module, "verify_antimagic", verified)
    for n in range(1, 7):
        for g in connected_graphs_upto_iso(n):
            dispatch_label(g)
            if n <= 5:
                exhaustive_search(g)
    for seed in range(3):
        # minimum degree effective_d(40) = 12 for the dense route
        g = random_min_degree_graph(40, 12, seed)
        assert dispatch_label(g, "dense", seed=seed).outcome == ANTIMAGIC
        g = random_min_degree_graph(40, 6, seed)
        assert dispatch_label(g, "oracle", seed=seed).outcome == ANTIMAGIC
    made = [i for i, (kind, _, _) in enumerate(events) if kind == "made"]
    assert {events[i][1] for i in made} == {module.__name__ for module in _TRUSTING}
    for i in made:
        _, name, lab = events[i]
        assert events[i + 1][:2] == ("verified", name) and events[i + 1][2] is lab
        assert sum(labeling is lab for _, _, labeling in events) == 2


def test_recognizes_complete_multipartite_classes():
    g = complete_partite_graph([3, 4])
    assert recognize_complete_multipartite(g) == [[0, 1, 2], [3, 4, 5, 6]]


# Vertices 0 and 3 start the classes {0, 1, 2} and {3, 4, 5, 6}; the edges
# changed here avoid both, so the classes would still form, but each change
# moves some degree off its class size and the degree precheck objects.
@pytest.mark.parametrize("drop, add", [([(1, 4)], []), ([], [(4, 5)]), ([(1, 4)], [(4, 5)])],
                         ids=["minus cross edge", "plus class edge", "cross edge moved into class"])
def test_near_complete_multipartite_is_rejected(drop, add):
    edges = set(complete_partite_graph([3, 4]).edges) - set(drop) | set(add)
    assert recognize_complete_multipartite(Graph(7, edges)) is None


# These changes keep every degree and avoid the first vertex of each class,
# so the precheck passes and the classes form; only the final checks (no edge
# inside a class, every cross pair an edge) can object.
@pytest.mark.parametrize("sizes, drop, add", [
    ([3, 4], [(1, 4), (2, 5)], [(1, 2), (4, 5)]),
    ([2, 2, 2, 2], [(1, 3), (3, 5), (5, 7), (1, 7)], []),
], ids=["two cross edges moved into classes", "cross 4-cycle removed"])
def test_degree_preserving_change_is_rejected(sizes, drop, add):
    g = complete_partite_graph(sizes)
    edges = set(g.edges) - set(drop) | set(add)
    assert recognize_complete_multipartite(Graph(g.n, edges)) is None


def _partitions(n, largest):
    if n == 0:
        yield []
    for s in range(min(n, largest), 0, -1):
        for rest in _partitions(n - s, s):
            yield [s] + rest


@pytest.mark.parametrize("n", range(1, 10))
def test_recognizes_every_small_multipartite_graph_relabeled(n):
    rng = random.Random(n)
    for sizes in _partitions(n, n):
        g = complete_partite_graph(sizes)
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        # complete_partite_graph lays the classes out as blocks, smallest first
        bounds = list(itertools.accumulate(sorted(sizes), initial=0))
        classes = sorted(sorted(perm[v] for v in range(a, b)) for a, b in zip(bounds, bounds[1:]))
        assert recognize_complete_multipartite(relabeled) == classes


def _brute_force_classes(g):
    """Classes of non-adjacency if it is an equivalence relation whose cross
    pairs are all edges, else None."""
    edges = set(g.edges)
    apart = [[u == v or (min(u, v), max(u, v)) not in edges for v in range(g.n)]
             for u in range(g.n)]
    classes = []
    for v in range(g.n):
        if not any(v in cls for cls in classes):
            classes.append([u for u in range(g.n) if apart[v][u]])
    cls_of = {u: i for i, cls in enumerate(classes) for u in cls}
    same = all(apart[u][v] == (cls_of[u] == cls_of[v])
               for u, v in itertools.combinations(range(g.n), 2))
    return classes if same else None


@pytest.mark.parametrize("n", range(1, 7))
def test_recognizer_agrees_with_brute_force(n):
    for g in connected_graphs_upto_iso(n):
        assert recognize_complete_multipartite(g) == _brute_force_classes(g)
