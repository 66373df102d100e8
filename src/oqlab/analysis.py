"""Reconstruction of quasiprobabilities and error bars from count tables.

The lab scheme needs two measured tables: the joint run (both splitters
in, setup (1,1)) and the second-measurement-only run (first splitter
out, setup (0,1)). First-measurement probabilities follow from the
joint table's a2-marginal; a strict mode instead demands a directly
measured (1,0) table so that marginal consistency can be tested rather
than assumed.

Counts are first scaled by per-detector calibration factors (relative
efficiency references measured with a diagonally polarized input, where
all four detectors nominally see the same flux), then normalized over
the cells read from their own table, never by a nominal constant. A mode
reads all four cells of (1,1), the a1 = 0 row of (0,1) and, in strict
mode, the a2 = 0 column of (1,0) (_READ_CELLS); a record is refused at
the first of these tables that is missing, empty or empty in the cells
read. _estimate_rows reads a stack of records by this rule at once and
_standard_errors their delta-method errors from the same normalised
cells; a record is a stack of one, so estimate, errors and scan agree.

Error model: the statistical error of the negativity is its standard
error under the multinomial covariance of each table the mode reads,
carried through the linear estimate and eq. (1) by the delta method
along the cell the systematic budget follows, the smallest of the w
reported (negativity_standard_error; exact, no resampling). A multinomial
bootstrap of the same tables (bootstrap_negativity_error) is kept as
its oracle and on request. The systematic error: each optical component
contributes a relative error and is counted once per traversal of the
detection path. The total follows sum_i sqrt(error_i^2 x times_i), read
either as a root-sum-square or as a literal sum of the rooted terms; both
are implemented and the mode is recorded alongside the result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .contexts import SETUPS, ProbabilitySet, _probabilities, _split, _trusted, validate_setup
from .oq import _EQ1_MATRIX, _quasi_rows, oq_distribution
from .photonsim import (
    CountTable, DetectorModel, _counting_runs, _require_count, _require_in_range,
    _weakfield_counts, count_tables_from_csv, count_tables_to_csv, expected_dark_counts,
)
from .qcore import _pure_states

COMPONENT_ERRORS = {
    "hwp": 0.011,
    "pbs_reflect": 0.05,
    "pbs_transmit": 0.001,
    "apd": 0.05,
}

REQUIRED_SETUPS = ((1, 1), (0, 1))

# A table the mode reads with fewer counts than this gives an unreliable
# statistical error (one count gives 0 under any method); analyze reports
# flag such a record "low_counts".
LOW_COUNTS = 20

# most resamples bootstrap_negativity_error draws: each takes about 280
# bytes at the peak in strict mode (its draws, calibrated cells and
# estimate), so 2**18 of them take about 75 MB, and a count that asks for
# more is refused before any draw
BOOTSTRAP_MAX = 2**18


@dataclass(frozen=True)
class ExperimentRecord:
    """Count tables of one experimental configuration plus metadata.

    tables maps setup -> CountTable; calibration holds four positive
    per-detector normalization factors in D00, D01, D10, D11 order.
    """

    tables: dict
    calibration: tuple = (1.0, 1.0, 1.0, 1.0)
    theta_deg: float | None = None
    phi_deg: float | None = None
    source: str = "counts"
    flags: tuple = ()

    def __post_init__(self):
        clean = {}
        for key, table in dict(self.tables).items():
            setup = validate_setup(key)
            if not isinstance(table, CountTable):
                raise TypeError(f"setup {setup}: expected a CountTable")
            if table.setup != setup:
                raise ValueError(f"table filed under {setup} was measured at {table.setup}")
            clean[setup] = table
        for req in REQUIRED_SETUPS:
            if req not in clean:
                raise ValueError(f"record must contain setups {REQUIRED_SETUPS}, missing {req}")
        object.__setattr__(self, "tables", clean)
        cal = tuple(self.calibration)
        if len(cal) != 4:
            raise ValueError("calibration must be four positive factors")
        for c in cal:
            _require_in_range("calibration", c)
        # no calibrated cell or table sum, resampled or not, exceeds this
        if max(cal) * max(table.total for table in clean.values()) == float("inf"):
            raise ValueError(f"calibration overflows the calibrated counts, got {cal}")
        object.__setattr__(self, "calibration", tuple(float(c) for c in cal))
        object.__setattr__(self, "flags", tuple(self.flags))


def _check_mode(mode, choices=("rss", "sum")):
    if mode not in choices:
        raise ValueError(f"mode must be {' or '.join(map(repr, choices))}, got {mode!r}")


def _components(components) -> tuple:
    """Components as checked (name, relative_error, times_used) triples."""
    comps = tuple((str(n), float(e), int(t)) for n, e, t in components)
    for name, err, times in comps:
        _require_in_range(f"{name}: relative error", err, 1.0, zero_ok=True)
        _require_in_range(f"{name}: times used", times, zero_ok=True)
    return comps


@dataclass(frozen=True)
class ErrorBudget:
    """Propagated error of one reconstructed quantity.

    component_errors lists (name, relative_error, times_used) for the
    optics on the relevant detection path; total_error is the combined
    relative error under the stated mode. statistical_error and
    systematic_error are absolute values attached by analyze.
    """

    component_errors: tuple
    total_error: float
    mode: str = "rss"
    statistical_error: float = 0.0
    systematic_error: float = 0.0

    def __post_init__(self):
        _check_mode(self.mode)
        for label in ("total_error", "statistical_error", "systematic_error"):
            _require_in_range(label, getattr(self, label), zero_ok=True)
        comps = _components(self.component_errors)
        object.__setattr__(self, "component_errors", comps)
        for name, err, times in comps:
            if self.total_error < err * np.sqrt(times) - 1e-12:
                raise ValueError(f"total error smaller than the {name} contribution")

    def combined_error(self) -> float:
        """Absolute statistical and systematic contributions combined."""
        if self.mode == "sum":
            return self.statistical_error + self.systematic_error
        return float(np.hypot(self.statistical_error, self.systematic_error))


_new_error_budget = _trusted(ErrorBudget)


def error_budget(components, mode: str = "rss") -> ErrorBudget:
    """Total relative error of components listed as (name, error, times).

    mode "rss" reads the budget formula as a root-sum-square,
    sqrt(sum error_i^2 x times_i); mode "sum" reads it literally as
    sum_i sqrt(error_i^2 x times_i) = sum_i error_i sqrt(times_i).
    """
    _check_mode(mode)
    comps = _components(components)
    if mode == "sum":
        total = float(sum(err * np.sqrt(times) for _, err, times in comps))
    else:
        total = float(np.sqrt(sum(err**2 * times for _, err, times in comps)))
    return ErrorBudget(component_errors=comps, total_error=total, mode=mode)


def path_components(a1: int, a2: int):
    """Optics traversed on the way to detector D_{a1,a2}.

    One preparation waveplate and one analysis waveplate, the two
    splitter passages (reflected for outcome 1, transmitted for 0), and
    the detector itself.
    """
    if a1 not in (0, 1) or a2 not in (0, 1):
        raise ValueError("outcomes must be 0 or 1")
    splitters = {"pbs_reflect": 0, "pbs_transmit": 0}
    for bit in (a1, a2):
        splitters["pbs_reflect" if bit else "pbs_transmit"] += 1
    comps = [("hwp", COMPONENT_ERRORS["hwp"], 2)]
    for name in ("pbs_reflect", "pbs_transmit"):
        if splitters[name]:
            comps.append((name, COMPONENT_ERRORS[name], splitters[name]))
    comps.append(("apd", COMPONENT_ERRORS["apd"], 1))
    return tuple(comps)


# analyze's systematic budget of each cell of w (row-major) and error mode
_PATH_BUDGETS = {(cell, mode): error_budget(path_components(*divmod(cell, 2)), mode)
                 for cell in range(4) for mode in ("rss", "sum")}


def estimate_probs(rec: ExperimentRecord, mode: str = "lab") -> ProbabilitySet:
    """Reconstruct the three context distributions from measured counts.

    lab mode takes the first-measurement probabilities from the joint
    table's a2-marginal; strict mode requires a directly measured (1,0)
    table and uses its a2 = 0 column. The second-measurement
    probabilities always come from the a1 = 0 row of the (0,1) table,
    which is where photons land with the first splitter removed.
    """
    return ProbabilitySet(*_split(_read_record(rec, mode)[1][0]))


def estimate_calibration(reference: CountTable) -> tuple:
    """Per-detector factors from the equal-flux reference setting.

    With a diagonally polarized input and both splitters in, every
    detector nominally receives a quarter of the photons; deviations
    measure relative efficiency. The factors scale each detector's
    counts to the reference mean. A reference of any setup other than
    (1, 1), both splitters in, is refused.
    """
    if reference.setup != (1, 1):
        raise ValueError(
            f"reference table must have setup (1, 1), both splitters in, got {reference.setup}"
        )
    counts = reference.counts.ravel().astype(float)
    if np.any(counts <= 0):
        raise ValueError("reference table must have counts at every detector")
    return tuple(counts.mean() / counts)


def _is_cell(value) -> bool:
    """Whether value is a whole number in [0, 2**63), without rounding it."""
    if not isinstance(value, numbers.Integral):
        real = isinstance(value, numbers.Real) and math.isfinite(value)
        if not (real and value == int(value)):
            return False
    return 0 <= value < 2**63


def dark_count_correction(rec: ExperimentRecord, dark_counts) -> ExperimentRecord:
    """Subtract measured per-detector dark counts from every table.

    Each of the four dark counts must be a whole number in [0, 2**63),
    the range of a table cell. Cells that would go negative are clamped
    to zero and the record is flagged "dark_clamped". Totals are
    recomputed from the corrected cells.
    """
    dark = np.asarray(dark_counts, dtype=object)
    if dark.shape != (4,) or any(isinstance(d, numbers.Real) and d < 0 for d in dark):
        raise ValueError("dark_counts must be four nonnegative integers")
    if not all(_is_cell(d) for d in dark):
        raise ValueError(f"dark_counts must be whole numbers below 2**63, got {dark.tolist()}")
    dark = np.array(dark.tolist(), dtype=np.int64).reshape(2, 2)
    clamped = False
    tables = {}
    for setup, table in rec.tables.items():
        reduced = table.counts - dark
        if np.any(reduced < 0):
            clamped = True
            reduced = np.clip(reduced, 0, None)
        tables[setup] = CountTable(setup=setup, counts=reduced, total=int(reduced.sum()))
    flags = rec.flags + ("dark_clamped",) if clamped and "dark_clamped" not in rec.flags else rec.flags
    return replace(rec, tables=tables, flags=flags)


def _read_setups(mode: str) -> tuple:
    """The tables a mode reads: (1,1) and (0,1), plus (1,0) in strict mode."""
    _check_mode(mode, ("lab", "strict"))
    return REQUIRED_SETUPS + ((1, 0),) if mode == "strict" else REQUIRED_SETUPS


def reads_low_counts(rec: ExperimentRecord, mode: str = "lab", statistical_error=None) -> bool:
    """Whether a table the mode reads holds fewer than LOW_COUNTS counts, or
    the statistical_error given for rec (delta-method or bootstrap; None for
    no error) is exactly 0, as it is for tables with all their counts in
    one cell at any total."""
    return statistical_error == 0.0 or any(
        setup in rec.tables and rec.tables[setup].total < LOW_COUNTS
        for setup in _read_setups(mode)
    )


# the cells of each table that the estimate reads (row-major indices), the
# part of the table they form, and where they go in the _split layout
_READ_CELLS = {
    (1, 1): ((0, 1, 2, 3), "the table", 4),
    (0, 1): ((0, 1), "the a1 = 0 row", 2),
    (1, 0): ((0, 2), "the a2 = 0 column", 0),
}


def _estimate_matrix(mode: str) -> np.ndarray:
    """The (S, 4, 8) 0/1 map from the normalised cells of the S tables a mode
    reads to the estimate; p_t1 is the a2-marginal of (1,1) in lab mode."""
    setups = _read_setups(mode)
    m = np.zeros((len(setups), 4, 8))
    for k, (cells, _, start) in enumerate(_READ_CELLS[s] for s in setups):
        m[k, cells, range(start, start + len(cells))] = 1.0
    if mode == "lab":
        m[0, range(4), (0, 0, 1, 1)] = 1.0
    return m


_ESTIMATE = {mode: _estimate_matrix(mode) for mode in ("lab", "strict")}
_READ_MASK = {mode: m.any(axis=2) * 1.0 for mode, m in _ESTIMATE.items()}  # 1.0 on cells read
# per mode, the gradient of -w_k in the normalised cells, (4, S, 4) for k row-major
_GRADIENTS = {mode: -np.moveaxis(m @ _EQ1_MATRIX[:, :4], 2, 0) for mode, m in _ESTIMATE.items()}


def _normalised(counts, calibration, mode: str) -> tuple:
    """The calibrated cells c*n of an (N, S, 4) stack, 0 on cells not read,
    divided by their sum c.n where it is positive, and c.n (N, S)."""
    q = counts * (_READ_MASK[mode] * calibration)
    norm = q.sum(axis=2)
    np.divide(q, norm[..., None], out=q, where=norm[..., None] > 0)
    return q, norm


def _estimate_rows(counts, calibration, mode: str = "lab") -> tuple:
    """The (N, 8) estimates (_split layout), the (N,) mask of the records read
    and the _normalised cells of an (N, S, 4) stack of records, each the
    row-major tables of _read_setups(mode); a refused row is no estimate."""
    q, norm = _normalised(counts, calibration, mode)
    return q.reshape(len(q), -1) @ _ESTIMATE[mode].reshape(-1, 8), norm.all(axis=1), (q, norm)


def _refuse(setups, tables):
    """Raise the estimate's ValueError at the first of tables, the row-major
    counts of the first setups, that it cannot read, or else at the setup
    after the last table, which is missing."""
    for setup, n in zip(setups, tables):
        cells, part, _ = _READ_CELLS[setup]
        if not n.any():
            raise ValueError(f"setup {setup}: table holds no counts")
        if not n[list(cells)].any():
            raise ValueError(f"setup {setup}: no counts in {part}")
    raise ValueError(f"record is missing the required setup {setups[len(tables)]}")


def _read_record(rec: ExperimentRecord, mode: str = "lab") -> tuple:
    """rec's tables as a stack of one, its (1, 8) estimate and _normalised cells;
    raises at the first table, in _read_setups order, missing or refused."""
    setups = _read_setups(mode)
    tables = [rec.tables[s].counts.ravel() if s in rec.tables else np.zeros(4, int) for s in setups]
    counts = np.array([tables])
    p, ok, normalised = _estimate_rows(counts, rec.calibration, mode)
    if not ok[0]:
        # every record holds REQUIRED_SETUPS: only (1, 0), read last, can be missing
        _refuse(setups, [n for s, n in zip(setups, tables) if s in rec.tables])
    return counts, p, normalised


def negativity_standard_error(rec: ExperimentRecord, mode: str = "lab") -> float:
    """Standard error of the negativity from the exact multinomial covariance.

    Each table the mode reads is one multinomial draw at its own total N,
    with observed frequencies f, and the tables are independent, so their
    variances add. The estimate reads a table through its calibrated,
    normalised cells q = c*f / (c.f), taken over the cells it uses: all
    four of (1,1), whose a2-marginal is also p_t1 in lab mode, the a1 = 0
    row of (0,1) and, in strict mode, the a2 = 0 column of (1,0). With g
    the gradient of the negativity in q, from eq. (1), the delta method
    gives per table

        Var = (sum_i f_i h_i^2 - (sum_i f_i h_i)^2) / N,
        h_i = c_i (g_i - g.q) / (c.f)   (0 on cells the estimate skips).

    The negativity has a kink where a cell of w crosses 0. Any two cells
    of w sum to a probability (a row or column sum, or pj00 + pj11 and
    pj01 + pj10), so at most one cell is negative, and g is that of minus
    the smallest cell of analyze's w (the first of tied cells), the one
    its systematic budget follows. Where no cell is negative this still
    gives the error of that cell, so a zero negativity at the edge of the
    classical region does not get an error of 0 from the kink alone. A
    table with all its counts in one cell still gives 0; reads_low_counts
    flags such records.

    analyze's default statistical error: deterministic (no resampling, no
    seed), the one-record case of the batched _standard_errors. Raises
    where estimate_probs would.
    """
    return analyze(rec, mode)[1].statistical_error


def _standard_errors(counts, q, norm, calibration, mode: str, cells) -> np.ndarray:
    """negativity_standard_error of N records at once, record k taken along
    cell cells[k] (row-major) of w; _estimate_rows must accept every record
    of counts, and q, norm are the _normalised cells it read them from.
    numpy adds an axis this short from left to right, so each sum runs in
    cell order, then table order, as a loop over them does."""
    g = _GRADIENTS[mode].take(cells, axis=0)  # d negativity / d q, (N, S, 4)
    gq = (g * q).sum(axis=2, keepdims=True)
    total = counts.sum(axis=2, keepdims=True).astype(float)
    h = _READ_MASK[mode] * calibration * (g - gq) * total / norm[..., None]
    fh = counts / total * h  # f_i h_i
    fh_sum = fh.sum(axis=2)
    var = (((fh * h).sum(axis=2) - fh_sum * fh_sum) / total[..., 0]).sum(axis=1)
    # rounding can leave the zero variance of a one-cell table a hair below 0
    return np.sqrt(np.maximum(var, 0.0))


def bootstrap_negativity_error(
    rec: ExperimentRecord, mode: str = "lab", n_boot: int = 200, seed=0
) -> float:
    """Statistical error of the negativity by multinomial resampling.

    Each table the mode reads, (1,1) and (0,1) plus (1,0) in strict mode,
    is resampled n_boot times at its own total with cell probabilities
    given by the observed frequencies. All resamples are re-analyzed at
    once, as estimate_probs and oq_distribution would one by one, and the
    spread of their negativities is returned (sample standard deviation).
    n_boot is an integer from 2 to BOOTSTRAP_MAX and seed is a nonnegative
    integer. A resample that the estimate refuses, its (0,1) row or (1,0)
    column empty, is dropped.
    """
    if not isinstance(n_boot, numbers.Integral):
        raise ValueError(f"n_boot must be an integer, got {n_boot!r}")
    if n_boot < 2:
        raise ValueError("n_boot must be at least 2")
    if n_boot > BOOTSTRAP_MAX:
        raise ValueError(f"n_boot must be at most {BOOTSTRAP_MAX}, got {n_boot}")
    _check_seed(seed)
    tables = [rec.tables.get(setup) for setup in _read_setups(mode)]
    if any(table is None or table.total <= 0 for table in tables):
        raise ValueError("too few valid bootstrap resamples")
    rng = np.random.default_rng(seed)
    draws = (rng.multinomial(t.total, t.counts.ravel() / t.total, size=n_boot) for t in tables)
    p, valid = _estimate_rows(np.stack(list(draws), axis=1), rec.calibration, mode)[:2]
    if np.count_nonzero(valid) < 2:
        raise ValueError("too few valid bootstrap resamples")
    return float(np.std(_quasi_rows(p[valid])[1], ddof=1))


def analyze(
    rec: ExperimentRecord,
    mode: str = "lab",
    error_mode: str = "rss",
    n_boot: int | None = None,
    seed=0,
):
    """Full reconstruction: quasiprobability plus an error budget.

    Eq. (1) is evaluated once. The systematic budget follows the
    detection path of the smallest cell of w (the one carrying the
    negativity) and scales with the negativity itself. The statistical
    part is the delta-method error along that cell when n_boot is None,
    bootstrap_negativity_error(rec, mode, n_boot, seed) when n_boot is
    set, and 0 when n_boot is 0; seed is read only by the bootstrap.
    Returns (Quasiprobability, ErrorBudget).
    """
    counts, p, normalised = _read_record(rec, mode)
    q = oq_distribution(ProbabilitySet(*_split(p[0])))
    cell = int(np.argmin(q.w))
    _check_mode(error_mode)
    budget = _PATH_BUDGETS[cell, error_mode]
    if n_boot is None:
        statistical = float(_standard_errors(counts, *normalised, rec.calibration, mode, [cell])[0])
    elif isinstance(n_boot, numbers.Integral) and n_boot == 0:
        statistical = 0.0
    else:
        statistical = bootstrap_negativity_error(rec, mode, n_boot, seed)
    systematic = budget.total_error * q.negativity
    _require_in_range("statistical_error", statistical, zero_ok=True)
    _require_in_range("systematic_error", systematic, zero_ok=True)
    return q, _new_error_budget(budget.component_errors, budget.total_error, budget.mode,
                                statistical, systematic)


def record_from_csv(path, calibration=(1.0, 1.0, 1.0, 1.0), **metadata) -> ExperimentRecord:
    """Load an ExperimentRecord from a combined count CSV."""
    tables = count_tables_from_csv(path)
    return ExperimentRecord(tables=tables, calibration=calibration, **metadata)


def record_to_csv(rec: ExperimentRecord, path):
    """Write all tables of a record to one combined count CSV."""
    count_tables_to_csv([rec.tables[s] for s in SETUPS if s in rec.tables], path)


def _check_seed(seed):
    """Refuse a seed that is not a nonnegative integer, before any SeedSequence."""
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")


def simulate_record(rho, n_photons: int, det: DetectorModel | None = None, seed=0, **metadata):
    """simulate_counts of n_photons through every setup as one ExperimentRecord
    with metadata, setup k of SETUPS from SeedSequence(seed, spawn_key=(k,)),
    the child SeedSequence.spawn would give, built directly; seed is a
    nonnegative integer; the four runs are drawn in one batch."""
    _check_seed(seed)
    seeds = [np.random.SeedSequence(seed, spawn_key=(k,)) for k in range(len(SETUPS))]
    tables = _counting_runs(rho, SETUPS, n_photons, det, seeds)
    return ExperimentRecord(tables=dict(zip(SETUPS, tables)), **metadata)


# most points (angles times means) weakfield_scan may hold, at 2.2 KB a point
# for their generators and tables; a larger grid is refused before any seed
WEAKFIELD_POINTS_MAX = 2**16


def _weak_field_batch(thetas_deg, means, n_pulses, det, run_seeds):
    """weakfield_scan on a flat list of points, unchecked: point i at thetas_deg[i]
    and means[i], run_seeds[i] the seeds of its (1, 1) and (0, 1) runs."""
    theta = np.radians(np.asarray(thetas_deg, dtype=float))
    rho = _pure_states(theta, np.zeros_like(theta))
    joint, off = (
        _weakfield_counts(rho, means, setup, n_pulses, det, [s[k] for s in run_seeds])
        for k, setup in enumerate(REQUIRED_SETUPS)
    )
    dark = expected_dark_counts(det, n_pulses)
    # row 2i raw, 2i + 1 dark-corrected: the first refused row is the scan's first failure
    runs = np.stack((joint, off), axis=1)
    counts = np.stack((runs, np.maximum(runs - dark, 0)), axis=1).reshape(-1, 2, 4)
    p, ok = _estimate_rows(counts, (1.0, 1.0, 1.0, 1.0))[:2]
    if not ok.all():
        first = int(np.argmin(ok))
        point, tables = first // 2, ("raw", "dark-corrected")[first % 2]
        try:
            _refuse(REQUIRED_SETUPS, counts[first])
        except ValueError as exc:
            raise ValueError(f"point (theta {thetas_deg[point]:g}, mean {means[point]:g}), "
                             f"{tables} tables: {exc}") from None
    w, corrected, _, _ = _quasi_rows(p[1::2])
    return w, _quasi_rows(_probabilities(rho))[1], _quasi_rows(p[0::2])[1], corrected


def weakfield_scan(thetas_deg, means, n_pulses: int, det: DetectorModel | None = None, seed=0):
    """Weak-field runs of the pure states at thetas_deg (degrees, phi = 0)
    times the mean photon numbers means, every point in one batch.

    Point (i, j) runs setups (1, 1) and (0, 1), run k drawn as weakfield_run
    draws it, from SeedSequence(seed, spawn_key=(i, j, k)); the tables are
    read as analyze reads them, raw and dark-corrected. The corrected
    tables subtract expected_dark_counts(det, n_pulses) from every cell and
    clamp a cell at 0 with no flag, the clamp analyze --dark-counts flags
    as dark_clamped. The first point whose raw or corrected tables analyze
    would refuse raises its error for the whole scan, prefixed with the
    point's theta and mean and which tables it refused. Inputs, seed a
    nonnegative integer among them, are checked before any seed is built.
    Returns, on the (len(thetas_deg), len(means)) grid, the corrected w
    (..., 2, 2) and the exact, uncorrected and corrected negativity.
    """
    thetas = np.asarray(thetas_deg, dtype=float)
    if not np.isfinite(thetas).all():
        raise ValueError(f"thetas_deg must be finite, got {thetas[~np.isfinite(thetas)][0]}")
    for mean in means:
        _require_in_range("means", mean)
    _require_count("n_pulses", n_pulses)
    _check_seed(seed)
    shape = (len(thetas), len(means))
    if not all(shape):
        raise ValueError(f"thetas_deg and means give an empty {shape[0]} x {shape[1]} grid")
    if shape[0] * shape[1] > WEAKFIELD_POINTS_MAX:
        raise ValueError(
            f"thetas_deg and means give {shape[0]} x {shape[1]} = {shape[0] * shape[1]} "
            f"weak-field points, more than the {WEAKFIELD_POINTS_MAX} allowed"
        )
    theta, mean = (g.ravel() for g in np.meshgrid(thetas, means, indexing="ij"))
    keys = np.ndindex(shape)
    seeds = [[np.random.SeedSequence(seed, spawn_key=(i, j, k)) for k in (0, 1)] for i, j in keys]
    det = det if det is not None else DetectorModel()
    w, *negativities = _weak_field_batch(theta, mean, n_pulses, det, seeds)
    return w.reshape(shape + (2, 2)), *(c.reshape(shape) for c in negativities)
