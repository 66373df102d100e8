"""Reconstruction of quasiprobabilities and error bars from count tables.

The lab scheme needs two measured tables: the joint run (both splitters
in, setup (1,1)) and the second-measurement-only run (first splitter
out, setup (0,1)). First-measurement probabilities follow from the
joint table's a2-marginal; a strict mode instead demands a directly
measured (1,0) table so that marginal consistency can be tested rather
than assumed.

Counts are first scaled by per-detector calibration factors (relative
efficiency references measured with a diagonally polarized input, where
all four detectors nominally see the same flux), then normalized by the
table's own total, never by a nominal constant.

Error model: the statistical error of the negativity is its standard
error under the multinomial covariance of each table the mode reads,
carried through the linear estimate and eq. (1) by the delta method
(negativity_standard_error; exact, no resampling). A multinomial
bootstrap of the same tables (bootstrap_negativity_error) is kept as
its oracle and on request. The systematic error: each optical component
contributes a relative error and is counted once per traversal of the
detection path. The total follows sum_i sqrt(error_i^2 x times_i), read
either as a root-sum-square or as a literal sum of the rooted terms; both
are implemented and the mode is recorded alongside the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import mul

import numpy as np

from .contexts import SETUPS, ProbabilitySet, _split, validate_setup
from .oq import _EQ1_MATRIX, _quasi_rows, oq_distribution
from .photonsim import CountTable, _require_in_range, count_tables_from_csv, count_tables_to_csv

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


def _calibrated(table: CountTable, calibration) -> np.ndarray:
    return table.counts * np.asarray(calibration, dtype=float).reshape(2, 2)


def _require(rec: ExperimentRecord, setup):
    try:
        table = rec.tables[setup]
    except KeyError:
        raise ValueError(f"record is missing the required setup {setup}") from None
    if table.total <= 0:
        raise ValueError(f"setup {setup}: table holds no counts")
    return table


def estimate_probs(rec: ExperimentRecord, mode: str = "lab") -> ProbabilitySet:
    """Reconstruct the three context distributions from measured counts.

    lab mode takes the first-measurement probabilities from the joint
    table's a2-marginal; strict mode requires a directly measured (1,0)
    table and uses its a2 = 0 column. The second-measurement
    probabilities always come from the a1 = 0 row of the (0,1) table,
    which is where photons land with the first splitter removed.
    """
    _check_mode(mode, ("lab", "strict"))
    joint_cal = _calibrated(_require(rec, (1, 1)), rec.calibration)
    row = _calibrated(_require(rec, (0, 1)), rec.calibration)[0]
    if row.sum() <= 0:
        raise ValueError("setup (0, 1): no counts in the a1 = 0 row")
    col = None
    if mode == "strict":
        col = _calibrated(_require(rec, (1, 0)), rec.calibration)[:, 0]
        if col.sum() <= 0:
            raise ValueError("setup (1, 0): no counts in the a2 = 0 column")
    p = _estimate_rows(joint_cal[None], row[None], None if col is None else col[None])
    return ProbabilitySet(*_split(p[0]))


def _estimate_rows(joint, row, col=None) -> np.ndarray:
    """estimate_probs of N records at once, without its checks.

    joint holds the (N, 2, 2) calibrated (1,1) tables, row the (N, 2)
    calibrated a1 = 0 rows of (0,1) and col, in strict mode, the (N, 2)
    calibrated a2 = 0 columns of (1,0); each must have a positive sum.
    Returns (N, 8) probability vectors in the _split layout.
    """
    p_joint = joint / joint.sum(axis=(1, 2), keepdims=True)
    p_t2 = row / row.sum(axis=1, keepdims=True)
    p_t1 = p_joint.sum(axis=2) if col is None else col / col.sum(axis=1, keepdims=True)
    return np.concatenate((p_t1, p_t2, p_joint.reshape(-1, 4)), axis=1)


def estimate_calibration(reference: CountTable) -> tuple:
    """Per-detector factors from the equal-flux reference setting.

    With a diagonally polarized input and both splitters in, every
    detector nominally receives a quarter of the photons; deviations
    measure relative efficiency. The factors scale each detector's
    counts to the reference mean.
    """
    counts = reference.counts.ravel().astype(float)
    if np.any(counts <= 0):
        raise ValueError("reference table must have counts at every detector")
    return tuple(counts.mean() / counts)


def dark_count_correction(rec: ExperimentRecord, dark_counts) -> ExperimentRecord:
    """Subtract measured per-detector dark counts from every table.

    Cells that would go negative are clamped to zero and the record is
    flagged "dark_clamped". Totals are recomputed from the corrected
    cells.
    """
    dark = np.asarray(dark_counts, dtype=np.int64)
    if dark.shape != (4,) or np.any(dark < 0):
        raise ValueError("dark_counts must be four nonnegative integers")
    dark = dark.reshape(2, 2)
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


def reads_low_counts(rec: ExperimentRecord, mode: str = "lab") -> bool:
    """Whether a table the mode reads holds fewer than LOW_COUNTS counts."""
    return any(
        setup in rec.tables and rec.tables[setup].total < LOW_COUNTS
        for setup in _read_setups(mode)
    )


# the cells of each table that the estimate reads (row-major indices), and
# the part of the table they form
_READ_CELLS = {
    (1, 1): ((0, 1, 2, 3), "the table"),
    (0, 1): ((0, 1), "the a1 = 0 row"),
    (1, 0): ((0, 2), "the a2 = 0 column"),
}

# eq. (1) as Python floats: column k holds the derivatives of w_k (row-major)
# in the probabilities, p in the _split layout
_W_COLUMNS = _EQ1_MATRIX[:, :4].T.tolist()


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
    the smallest cell, the one analyze's systematic budget follows. Where
    no cell is negative this still gives the error of that cell, so a
    zero negativity at the edge of the classical region does not get an
    error of 0 from the kink alone. A table with all its counts in one
    cell still gives 0; reads_low_counts flags such records.

    Deterministic (no resampling, no seed) and computed on Python floats.
    Raises ValueError where estimate_probs would.
    """
    cal = rec.calibration
    reads = []
    for setup in _read_setups(mode):
        table = _require(rec, setup)
        cells, part = _READ_CELLS[setup]
        n = table.counts.ravel().tolist()
        norm = 0.0
        for i in cells:
            norm += cal[i] * n[i]
        if norm <= 0:
            raise ValueError(f"setup {setup}: no counts in {part}")
        reads.append((n, table.total, cells, norm, [cal[i] * n[i] / norm for i in cells]))
    joint, row, *first = (q for *_, q in reads)
    p_t1 = first[0] if first else [joint[0] + joint[1], joint[2] + joint[3]]
    p = p_t1 + row + joint
    w = [sum(map(mul, p, col)) for col in _W_COLUMNS]
    # d negativity / d p: any two cells of w sum to a probability, so at
    # most one is negative, and it is the smallest
    grad = [-d for d in _W_COLUMNS[min(range(4), key=w.__getitem__)]]
    g_joint = grad[4:] if first else [grad[4 + i] + grad[i // 2] for i in range(4)]
    var = 0.0
    for (n, total, cells, norm, q), g in zip(reads, (g_joint, grad[2:4], grad[0:2])):
        gq = sum(map(mul, g, q))
        fh = fh2 = 0.0  # sums of f_i h_i and f_i h_i^2
        for i, gi in zip(cells, g):
            f = n[i] / total
            h = cal[i] * (gi - gq) * total / norm
            fh += f * h
            fh2 += f * h * h
        var += (fh2 - fh * fh) / total
    # rounding can leave the zero variance of a one-cell table a hair below 0
    return math.sqrt(max(var, 0.0))


def bootstrap_negativity_error(
    rec: ExperimentRecord, mode: str = "lab", n_boot: int = 200, seed=0
) -> float:
    """Statistical error of the negativity by multinomial resampling.

    Each table the mode reads, (1,1) and (0,1) plus (1,0) in strict mode,
    is resampled n_boot times at its own total with cell probabilities
    given by the observed frequencies. All resamples are re-analyzed at
    once, as estimate_probs and oq_distribution would one by one, and the
    spread of their negativities is returned (sample standard deviation).
    A resample that estimate_probs would reject, because the a1 = 0 row
    of (0,1) or, in strict mode, the a2 = 0 column of (1,0) drew no
    counts, is dropped.
    """
    if n_boot < 2:
        raise ValueError("n_boot must be at least 2")
    tables = [rec.tables.get(setup) for setup in _read_setups(mode)]
    if any(table is None or table.total <= 0 for table in tables):
        raise ValueError("too few valid bootstrap resamples")
    rng = np.random.default_rng(seed)
    cal = np.asarray(rec.calibration, dtype=float).reshape(2, 2)
    joint, off, *first = [
        rng.multinomial(t.total, t.counts.ravel() / t.total, size=n_boot).reshape(-1, 2, 2) * cal
        for t in tables
    ]
    row = off[:, 0]  # the a1 = 0 row of (0,1)
    col = first[0][:, :, 0] if first else None  # the a2 = 0 column of (1,0)
    valid = row.sum(axis=1) > 0
    if col is not None:
        valid &= col.sum(axis=1) > 0
    if np.count_nonzero(valid) < 2:
        raise ValueError("too few valid bootstrap resamples")

    p = _estimate_rows(joint[valid], row[valid], None if col is None else col[valid])
    _, neg, _, _ = _quasi_rows(p)
    return float(np.std(neg, ddof=1))


def analyze(
    rec: ExperimentRecord,
    mode: str = "lab",
    error_mode: str = "rss",
    n_boot: int | None = None,
    seed=0,
):
    """Full reconstruction: quasiprobability plus an error budget.

    The systematic budget follows the detection path of the most
    negative cell (the one carrying the negativity) and scales with the
    negativity itself. The statistical part is negativity_standard_error
    when n_boot is None, bootstrap_negativity_error(rec, mode, n_boot,
    seed) when n_boot is set, and 0 when n_boot is 0; seed is read only
    by the bootstrap. Returns (Quasiprobability, ErrorBudget).
    """
    ps = estimate_probs(rec, mode)
    q = oq_distribution(ps)
    a1, a2 = np.unravel_index(np.argmin(q.w), (2, 2))
    budget = error_budget(path_components(int(a1), int(a2)), error_mode)
    if n_boot is None:
        statistical = negativity_standard_error(rec, mode)
    elif n_boot:
        statistical = bootstrap_negativity_error(rec, mode, n_boot, seed)
    else:
        statistical = 0.0
    return q, replace(
        budget,
        statistical_error=statistical,
        systematic_error=budget.total_error * q.negativity,
    )


def record_from_csv(path, calibration=(1.0, 1.0, 1.0, 1.0), **metadata) -> ExperimentRecord:
    """Load an ExperimentRecord from a combined count CSV."""
    tables = count_tables_from_csv(path)
    return ExperimentRecord(tables=tables, calibration=calibration, **metadata)


def record_to_csv(rec: ExperimentRecord, path):
    """Write all tables of a record to one combined count CSV."""
    count_tables_to_csv([rec.tables[s] for s in SETUPS if s in rec.tables], path)
