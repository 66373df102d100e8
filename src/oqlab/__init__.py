"""Operational quasiprobabilities of sequential polarization measurements.

The package covers the full chain from exact quantum predictions to
simulated photon counting and back: qcore builds states and waveplate
optics, contexts computes the selective-measurement probabilities, oq
turns them into the quasiprobability and its negativity, photonsim
generates stochastic count tables and click streams, correlation
extracts g2 from timing data, and analysis reconstructs negativity with
error bars from raw counts. The cli module exposes all of it as the
oqlab command.
"""

from .analysis import (
    COMPONENT_ERRORS,
    ErrorBudget,
    ExperimentRecord,
    analyze,
    bootstrap_negativity_error,
    dark_count_correction,
    error_budget,
    estimate_calibration,
    estimate_probs,
    negativity_standard_error,
    record_from_csv,
    record_to_csv,
)
from .contexts import (
    SETUPS,
    ProbabilitySet,
    context_table,
    sequential_probs,
    single_probs,
)
from .correlation import G2Histogram, dip_width, g2_zero, g2_zero_error, start_stop_histogram
from .oq import (
    MAX_NEGATIVITY,
    Quasiprobability,
    negativity,
    negativity_region,
    oq_closed_form,
    oq_distribution,
)
from .photonsim import (
    ClickStream,
    CountTable,
    DetectorModel,
    HeraldedSPDC,
    SingleEmitter,
    WeakCoherent,
    count_tables_from_csv,
    count_tables_to_csv,
    expected_dark_counts,
    generate_click_streams,
    simulate_counts,
    weakfield_run,
)
from .qcore import (
    bloch_vector,
    fidelity,
    make_mixed_state,
    make_pure_state,
    prep_angles,
    prepare_via_waveplates,
    rotate_polarization,
    state_from_bloch,
)

__version__ = "0.1.0"

__all__ = [
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
    "single_probs",
    "start_stop_histogram",
    "state_from_bloch",
    "weakfield_run",
]
