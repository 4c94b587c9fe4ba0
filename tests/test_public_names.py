import ast
import inspect
from pathlib import Path

from antimagic.dense import label_dense, phase1_reduce
from antimagic.dispatch import dispatch_label
from antimagic.oracle import count_antimagic_labelings, exhaustive_search, heuristic_search

SRC = Path(__file__).parents[1] / "src" / "antimagic"

# Public top-level names that nothing in src refers to, each with the reason it
# stays.  A new name that only tests (or nobody) use fails below until it is
# listed here with its reason, or gains a caller, or moves into the tests.
UNREFERENCED = {
    # entry points for callers outside the package
    "dispatch_label", "parse_graph6", "parse_edgelist",
    # certificate and edge-list text, for a command-line front end to read and write
    "emit_certificate", "parse_certificate", "emit_edgelist",
    # the brute-force reference, which bench/tracing.py also times
    "exhaustive_search", "count_antimagic_labelings",
    # the Theorem 1 lab: the paper's own draw and the character-sum experiments
    "phase5_assign", "character_product", "mod_p_distribution",
    "mod_p_distribution_fourier", "run_character_bound_experiment",
    "run_point_mass_experiment",
    # test fixtures: the small-graph corpora and the graph families
    "connected_graphs_upto_iso", "high_max_degree_corpus",
    "complete_partite_graph", "cycle_graph", "complete_graph", "star_graph",
    "random_min_degree_graph",
}


def test_every_unreferenced_public_name_is_listed():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    referenced = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined - referenced == UNREFERENCED


# Every settable value of the entry point and the labelers, with its default.
# Each knob is one more setting that the tests and the benchmark must cover,
# so a change that adds, drops or moves one edits this table.
NO_DEFAULT = inspect.Parameter.empty
KNOBS = {
    dispatch_label: [("g", NO_DEFAULT), ("method", "auto"), ("d", None), ("seed", 0),
                     ("max_resamples", 1000)],
    label_dense: [("g", NO_DEFAULT), ("d", None), ("seed", 0), ("max_resamples", 1000)],
    phase1_reduce: [("g", NO_DEFAULT), ("d", None)],
    heuristic_search: [("g", NO_DEFAULT), ("seed", 0)],
    exhaustive_search: [("g", NO_DEFAULT), ("max_nodes", 2_000_000)],
    count_antimagic_labelings: [("g", NO_DEFAULT), ("max_nodes", 50_000_000)],
}


def test_knobs_are_pinned():
    found = {fn.__name__: [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]
             for fn in KNOBS}
    assert found == {fn.__name__: knobs for fn, knobs in KNOBS.items()}
