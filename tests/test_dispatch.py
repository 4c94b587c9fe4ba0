import time

import antimagic.dispatch
from antimagic.dispatch import ANTIMAGIC, dispatch_label
from antimagic.graph import Graph


def test_wall_time_covers_graph_id(monkeypatch):
    slow_id = antimagic.dispatch.emit_graph6

    def emit_graph6(g):
        time.sleep(0.05)
        return slow_id(g)

    monkeypatch.setattr(antimagic.dispatch, "emit_graph6", emit_graph6)
    rep = dispatch_label(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert rep.outcome == ANTIMAGIC
    assert rep.wall_time >= 0.05
