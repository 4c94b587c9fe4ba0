import importlib
from operator import attrgetter
from pathlib import Path

import pytest


def test_every_script_target_exists():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(attrgetter(attr)(importlib.import_module(module))), name
