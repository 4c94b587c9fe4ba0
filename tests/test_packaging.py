import ast
import importlib
import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import pytest


def test_every_script_target_exists():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(attrgetter(attr)(importlib.import_module(module))), name


def test_labeling_path_imports_no_numpy():
    # numpy's import alone takes about twice a cold start's whole setup time,
    # so the labeling path must not pull it in
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, antimagic.dispatch, antimagic.io; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    modules = ast.literal_eval(out.stdout)
    assert "antimagic.dispatch" in modules
    assert "numpy" not in modules
