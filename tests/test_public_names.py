import ast
from pathlib import Path

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
