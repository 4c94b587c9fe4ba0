import ast
import importlib
import re
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "antimagic"
LAB = SRC / "lab"


def src_modules():
    """{dotted name: path} of every module in src, the lab's included, each
    package under its own name, as ``pkgutil.walk_packages`` names them:
    ``antimagic.dispatch``, ``antimagic.lab``, ``antimagic.lab.corpus``."""
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return modules


def scripts_table(text):
    """``[project.scripts]`` of a pyproject.toml text, read without tomllib.

    Python 3.10 has no tomllib and the test extra brings no TOML reader, so
    the one table is read line by line.  Each line in it must be
    ``name = "module:attr"``.  Any other line there, and scripts declared
    any other way (an inline ``scripts`` key, a ``gui-scripts`` table),
    raise ``ValueError`` instead of reading as no scripts.
    """
    scripts, inside = {}, False
    for line in map(str.strip, text.splitlines()):
        if line.startswith("["):
            inside = line == "[project.scripts]"
        if not line or line.startswith("#") or line == "[project.scripts]":
            continue
        if inside:
            match = re.fullmatch(r'([\w.-]+)\s*=\s*"([\w.:]+)"', line)
            if not match:
                raise ValueError(f"cannot read this [project.scripts] line: {line!r}")
            scripts[match[1]] = match[2]
        elif "scripts" in line:
            raise ValueError(f"scripts declared outside [project.scripts]: {line!r}")
    return scripts


def tomllib_scripts(text):
    """The same table through tomllib, or None where there is none (3.10)."""
    try:
        import tomllib
    except ModuleNotFoundError:
        return None
    return tomllib.loads(text).get("project", {}).get("scripts", {})


def test_scripts_table_reader():
    text = ('[project]\nname = "x"\n\n[project.scripts]\n# a comment\nlabel-graph = "antimagic.dispatch:main"\n'
            'b = "m.n:o.p"\n\n[tool.pytest.ini_options]\nx = 1\n')
    assert scripts_table(text) == {"label-graph": "antimagic.dispatch:main", "b": "m.n:o.p"}
    assert tomllib_scripts(text) in (None, scripts_table(text))
    for bad in ['[project]\nscripts = {a = "m:f"}\n', '[project.gui-scripts]\na = "m:f"\n',
                "[project.scripts]\na = 'm:f'\n"]:
        with pytest.raises(ValueError):
            scripts_table(bad)


def test_every_script_target_exists():
    # on every interpreter, 3.10 included; tomllib, where there is one,
    # cross-checks the reader
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    scripts = scripts_table(text)
    assert tomllib_scripts(text) in (None, scripts)
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        assert callable(attrgetter(attr)(importlib.import_module(module))), name


def test_no_module_needs_numpy():
    # with numpy blocked, every module still imports and the lab and the corpora still run
    code = ("import sys; sys.modules['numpy'] = None; sys.path.insert(0, sys.argv[1]); "
            "import importlib, pkgutil, antimagic; "
            "names = [m.name for m in pkgutil.walk_packages(antimagic.__path__, 'antimagic.')]; "
            "[importlib.import_module(name) for name in names]; "
            "from antimagic.lab.corpus import graphs_upto_iso; "
            "from antimagic.lab.problab import run_character_bound_experiment; "
            "assert len(graphs_upto_iso(5)) == 34; "
            "assert run_character_bound_experiment(100, 8, 2, seed=1).trials == 2; "
            "print(' '.join(names))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC.parent)], capture_output=True, text=True,
                         check=True)
    assert sorted(out.stdout.split()) == sorted(set(src_modules()) - {"antimagic"})


def _calls_and_imports(path):
    """Names the module at ``path`` calls and dotted names it imports from."""
    calls, imports = [], []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            calls.append(getattr(func, "id", None) or getattr(func, "attr", None))
        elif isinstance(node, ast.ImportFrom):
            imports += [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imports += [alias.name for alias in node.names]
    return calls, imports


@pytest.mark.parametrize("module", ["special", "partite", "decompose"])
def test_constructions_import_nothing_from_the_oracle(module):
    # the theorem routes only construct; falling back to the search is dispatch's call
    _, imports = _calls_and_imports(SRC / f"{module}.py")
    assert not [name for name in imports if "oracle" in name.split(".")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=attrgetter("stem"))
def test_labeling_modules_import_nothing_from_the_lab(path):
    # the lab builds on the labeling path, never the other way round
    _, imports = _calls_and_imports(path)
    assert not [name for name in imports if "lab" in name.split(".")]


# dispatch calls each route's test and labeler once, in one chain; a second
# call site would be a second chain that has to agree with the first
@pytest.mark.parametrize("callee", ["recognize_complete_multipartite", "label_multipartite_on",
                                    "label_max_degree_n_minus_2", "label_dense",
                                    "heuristic_search"])
def test_only_dispatch_calls_each_route(callee):
    callers = [module for module, path in src_modules().items()
               for name in _calls_and_imports(path)[0] if name == callee]
    assert callers == ["antimagic.dispatch"]


def _unused_imports(directory):
    """(module, name) for each top-level import that no name in its module
    refers to, over the modules in ``directory`` and its subdirectories;
    ``module`` is the path from ``directory``, without its suffix."""
    unused = set()
    for path in sorted(directory.rglob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        # the base of an attribute such as math.log is a Name node too
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.relative_to(directory).with_suffix("").as_posix(), name)
                   for name in imported - used}
    return unused


def test_only_the_tracer_shims_are_unused_imports():
    # the two expected ones are imported only for bench/tracing.py to wrap
    assert _unused_imports(SRC) == {("dense", "vertex_sums"), ("dispatch", "verify_antimagic")}


def test_tests_have_no_unused_imports():
    assert _unused_imports(Path(__file__).parent) == set()


def test_no_module_reads_the_edge_pairs():
    # Graph.edges builds one (lo, hi) tuple per edge on every read, for
    # callers outside the package; inside it the ends are read from lo and
    # hi, so the per-edge tuples never come back on a labeling path
    readers = sorted({path.stem for path in SRC.rglob("*.py")
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute) and node.attr == "edges"})
    assert readers == []


def code_lines(path):
    """Lines of ``path`` that hold code: not blank, not a comment, and not
    part of a module, class or function docstring (nested ones included)."""
    source = Path(path).read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)


def test_code_line_counter(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Module\ndocstring."""\n\n# a comment\nclass A:\n    """One line."""\n\n'
                    '    def f(self):\n        """Two\n        lines."""\n        def g():\n'
                    '            """Nested."""\n            return "not a docstring"\n'
                    '        return g  # trailing comment\n')
    assert code_lines(path) == 5  # class, def f, def g, and the two returns


def test_labeling_path_code_lines_are_pinned():
    # a change that adds or drops code on the labeling path, the top-level
    # modules, edits this number
    assert sum(code_lines(path) for path in SRC.glob("*.py")) == 1459


def test_lab_code_lines_are_pinned():
    # below the top level src holds only the lab; a change that adds or
    # drops code there edits this number
    assert set(SRC.rglob("*.py")) - set(SRC.glob("*.py")) == set(LAB.rglob("*.py"))
    assert sum(code_lines(path) for path in LAB.rglob("*.py")) == 262
