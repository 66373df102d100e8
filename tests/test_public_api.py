"""The public API, pinned: a name joins or leaves oqlab.__all__ only by
changing PUBLIC_API here as well."""

from pathlib import Path

import pytest

import oqlab

PUBLIC_API = [
    "COMPONENT_ERRORS",
    "ClickStream",
    "CountTable",
    "DetectorModel",
    "ErrorBudget",
    "ExperimentRecord",
    "G2Histogram",
    "HeraldedSPDC",
    "MAX_NEGATIVITY",
    "ProbabilitySet",
    "Quasiprobability",
    "SETUPS",
    "SingleEmitter",
    "WeakCoherent",
    "analyze",
    "bloch_vector",
    "bootstrap_negativity_error",
    "coherent_expected_counts",
    "context_table",
    "count_tables_from_csv",
    "count_tables_to_csv",
    "dark_count_correction",
    "dip_width",
    "error_budget",
    "estimate_calibration",
    "estimate_probs",
    "expected_dark_counts",
    "fidelity",
    "g2_zero",
    "g2_zero_error",
    "generate_click_streams",
    "make_mixed_state",
    "make_pure_state",
    "negativity",
    "negativity_region",
    "negativity_standard_error",
    "oq_closed_form",
    "oq_distribution",
    "prep_angles",
    "prepare_via_waveplates",
    "record_from_csv",
    "record_to_csv",
    "rotate_polarization",
    "sequential_probs",
    "simulate_counts",
    "simulate_record",
    "single_probs",
    "start_stop_histogram",
    "state_from_bloch",
    "weakfield_run",
    "weakfield_scan",
]


def test_all_is_sorted_and_unique():
    assert oqlab.__all__ == sorted(set(oqlab.__all__))


def test_every_name_imports():
    namespace = {}
    exec("from oqlab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == oqlab.__all__
    assert all(namespace[name] is getattr(oqlab, name) for name in oqlab.__all__)


def test_all_is_the_pinned_list():
    assert oqlab.__all__ == PUBLIC_API


def test_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert oqlab.__version__ == tomllib.load(fh)["project"]["version"]
