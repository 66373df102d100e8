"""Smoke test of the demo scripts: each main() runs to the end on small inputs.

Figures go to a temporary directory; without matplotlib each demo prints
that it skips its figure.
"""

import importlib.util
import pathlib

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

# small arguments per demo; "{out}" becomes a figure path in tmp_path
DEMO_ARGS = {
    "antibunching": ["--duration", "0.05", "--out", "{out}"],
    "count_run": ["--photons", "10000", "--seed", "1"],
    "disk_zero_region": ["--resolution", "21", "--out", "{out}"],
    "negativity_curve": ["--out", "{out}"],
    "weak_field_sweep": ["--pulses", "20000", "--out", "{out}"],
}


def load_demo(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_demo_is_covered():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == sorted(DEMO_ARGS)


@pytest.mark.parametrize("name", sorted(DEMO_ARGS))
def test_demo_runs(name, tmp_path, capsys):
    out = str(tmp_path / f"{name}.png")
    argv = [arg.replace("{out}", out) for arg in DEMO_ARGS[name]]
    assert load_demo(name).main(argv) is None
    assert capsys.readouterr().out.strip()
