"""Every name the benchmark tracer wraps must exist in the package.

``perfbench/tracer.py`` imports only the standard library, so it is loaded
by path; a target that no longer resolves breaks every traced benchmark run.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

TARGETS = runpy.run_path(str(TRACER))["TARGETS"]


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_trace_target_resolves(name):
    modname, attr = TARGETS[name]
    assert modname == "semireg" or modname.startswith("semireg.")
    module = importlib.import_module(modname)
    if attr.startswith("Graph."):
        # the tracer wraps the method on the class that defines it
        assert attr.split(".", 1)[1] in module.Graph.__dict__
    else:
        assert callable(getattr(module, attr, None))
