import subprocess
import sys
import time
from pathlib import Path

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
