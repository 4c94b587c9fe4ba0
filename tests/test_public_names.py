import ast
import inspect
from pathlib import Path

from antimagic import dense, oracle
from antimagic.dense import label_dense, phase1_reduce
from antimagic.dispatch import dispatch_label
from antimagic.lab import problab
from antimagic.lab.problab import (check_character_bounds, run_character_bound_experiment,
                                   run_point_mass_experiment)
from antimagic.oracle import count_antimagic_labelings, exhaustive_search, heuristic_search

SRC = Path(__file__).parents[1] / "src" / "antimagic"

# Public top-level names, and public methods of public classes as
# ``Class.method``, that nothing in src refers to, each with the reason it
# stays.  A new name that only tests (or nobody) use fails below until it is
# listed here with its reason, or gains a caller, or moves into the tests.
UNREFERENCED = {
    # entry points for callers outside the package
    "dispatch_label", "parse_graph6", "parse_edgelist",
    # certificate and edge-list text, for a command-line front end to read and write
    "emit_certificate", "parse_certificate", "emit_edgelist",
    # the brute-force reference, which bench/tracing.py also times
    "exhaustive_search", "count_antimagic_labelings",
    # the lab: the Theorem 1 character-sum experiments of lab.problab
    "mod_p_distribution", "mod_p_distribution_fourier", "run_character_bound_experiment",
    "run_point_mass_experiment",
    # the lab: the small-graph corpora of lab.corpus
    "connected_graphs_upto_iso", "high_max_degree_corpus",
    # the lab: the graph families of lab.generators
    "complete_partite_graph", "cycle_graph", "complete_graph", "star_graph",
    "random_min_degree_graph",
    # user API: the edges as (lo, hi) pairs, for callers that want them whole
    "Graph.edges",
    # user API: one vertex's degree, without building the whole degree list
    "Graph.degree",
    # user API: the id of the edge between two vertices
    "Graph.edge_index",
}


def test_every_unreferenced_public_name_is_listed():
    # a method counts as referenced only by an attribute of its name
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))]
    defined, methods = set(), set()
    for tree in trees:
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.add(node.name)
                if isinstance(node, ast.ClassDef):
                    methods |= {(node.name, fn.name) for fn in node.body
                                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                                and not fn.name.startswith("_")}
    names = {node.id for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attributes = {node.attr for tree in trees for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
    unreferenced = defined - names - attributes
    unreferenced |= {f"{cls}.{name}" for cls, name in methods if name not in attributes}
    assert unreferenced == UNREFERENCED


# Every settable value of the entry point, the labelers and the lab, with its
# default.  Each knob is one more setting that the tests and the benchmark
# must cover, so a change that adds, drops or moves one edits this table.
NO_DEFAULT = inspect.Parameter.empty
KNOBS = {
    dispatch_label: [("g", NO_DEFAULT), ("method", "auto"), ("seed", 0)],
    label_dense: [("g", NO_DEFAULT), ("d", None), ("seed", 0)],
    phase1_reduce: [("g", NO_DEFAULT), ("d", None)],
    heuristic_search: [("g", NO_DEFAULT), ("seed", 0)],
    exhaustive_search: [("g", NO_DEFAULT)],
    count_antimagic_labelings: [("g", NO_DEFAULT)],
    check_character_bounds: [("sample", NO_DEFAULT)],
    run_character_bound_experiment: [("t", NO_DEFAULT), ("d", NO_DEFAULT), ("trials", NO_DEFAULT),
                                     ("seed", NO_DEFAULT)],
    run_point_mass_experiment: [("t", NO_DEFAULT), ("d", NO_DEFAULT), ("trials", NO_DEFAULT),
                                ("seed", NO_DEFAULT)],
}


# Defaulted parameters that are not settings: an error field.
NOT_KNOBS = {("ParseError.__init__", "line")}


def defaulted_parameters():
    """(qualified name, parameter) of every defaulted parameter of a public
    module-level function or a public method of a public class in src.
    Nested functions are not walked: a closure's defaults are not settings."""
    def public(name):
        return not name.startswith("_") or name.endswith("__")

    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                fns = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                fns = [(f"{node.name}.{fn.name}", fn) for fn in node.body
                       if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for name, fn in fns:
                if not all(map(public, name.split("."))):
                    continue
                args = fn.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, default in zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                found.update((name, a.arg) for a in defaulted)
    return found


def test_knobs_are_pinned():
    found = {fn.__name__: [(p.name, p.default) for p in inspect.signature(fn).parameters.values()]
             for fn in KNOBS}
    assert found == {fn.__name__: knobs for fn, knobs in KNOBS.items()}
    # a defaulted parameter anywhere else in the public API is a knob this
    # table does not list
    settable = {(fn.__qualname__, name) for fn, knobs in KNOBS.items()
                for name, default in knobs if default is not NO_DEFAULT}
    assert defaulted_parameters() == settable | NOT_KNOBS


# Every budget and bound constant is a module constant, not a knob: a caller
# that needs another value brings the parameter with it, and edits both tables.
BUDGETS = {
    (oracle, "PROPOSALS_PER_EDGE"): 15_000,
    (oracle, "PARTNER_DRAWS"): 8,
    (dense, "MAX_RESAMPLES"): 1000,
    (oracle, "EXHAUSTIVE_MAX_NODES"): 2_000_000,
    (oracle, "COUNT_MAX_NODES"): 50_000_000,
    (problab, "NEAR_DECAY"): 0.25,
    (problab, "FAR_MULTIPLIER"): 500.0,
    (problab, "POINT_MASS_MULTIPLIER"): 10.0,
    (problab, "MIN_PASS_FRACTION"): 0.95,
    (problab, "MAX_EXACT_PAIRS"): 30,
}


def test_budgets_are_pinned():
    assert {key: getattr(*key) for key in BUDGETS} == BUDGETS
