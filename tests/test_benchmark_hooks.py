"""The names the benchmark harness in perfbench/ reaches into the package by.

perfbench/spans.py wraps the functions its LAYERS table lists and fails
at run time when one is missing; perfbench/workloads.py calls attributes
of `oqlab` and `oqlab.cli`. These tests read both files, change nothing
there, and fail as soon as a rename or deletion would break the harness.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _workload_attributes():
    """(module name, attribute) for every oqlab.x and cli.x in workloads.py."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {"oqlab": "oqlab", "cli": "oqlab.cli"}
    return sorted({
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


@pytest.mark.parametrize(
    "layer,module,name",
    [(layer, module, name) for layer, (module, names) in _layers().items() for name in names],
)
def test_span_boundaries_exist(layer, module, name):
    assert inspect.isfunction(getattr(importlib.import_module(module), name, None)), (
        f"layer {layer}: {module}.{name} is gone"
    )


def test_workloads_use_existing_attributes():
    attributes = _workload_attributes()
    assert {("oqlab.cli", n) for n in ("main", "build_parser", "generate_click_streams")} <= set(
        attributes
    )
    missing = [
        f"{module}.{name}" for module, name in attributes
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
