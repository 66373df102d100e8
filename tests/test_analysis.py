import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oqlab import qcore
from oqlab import analysis, photonsim
from oqlab.analysis import (
    BOOTSTRAP_MAX,
    COMPONENT_ERRORS,
    LOW_COUNTS,
    ErrorBudget,
    ExperimentRecord,
    analyze,
    bootstrap_negativity_error,
    dark_count_correction,
    error_budget,
    estimate_calibration,
    estimate_probs,
    negativity_standard_error,
    path_components,
    reads_low_counts,
    record_from_csv,
    record_to_csv,
)
from oqlab.contexts import SETUPS, ProbabilitySet, context_table
from oqlab.oq import MAX_NEGATIVITY, oq_distribution
from oqlab.photonsim import CountTable, DetectorModel, simulate_counts

from helpers import read_reference, standard_error_reference


def tab(setup, cells):
    counts = np.asarray(cells, dtype=np.int64)
    return CountTable(setup=setup, counts=counts, total=int(counts.sum()))


# measured count examples used throughout: detector counts per setting at
# three preparation angles, with the first splitter in ("on") and out ("off")
BENCH_COUNTS = {
    0: ([[4955, 5018], [16, 11]], [[5058, 4940], [2, 0]]),
    45: ([[4152, 4262], [791, 795]], [[8470, 1529], [0, 1]]),
    90: ([[2430, 2593], [2411, 2567]], [[9972, 28], [0, 0]]),
}


def bench_record(theta):
    on, off = BENCH_COUNTS[theta]
    return ExperimentRecord(
        tables={(1, 1): tab((1, 1), on), (0, 1): tab((0, 1), off)},
        theta_deg=float(theta),
    )


def exact_record(rho, n=10_000, with_first=False):
    """Tables whose counts are exactly proportional to the true probabilities.

    Only valid for states with rational context probabilities.
    """
    table = context_table(rho)
    joint = np.rint(table.p_joint * n).astype(np.int64)
    off = np.rint(np.array([table.p_t2, [0.0, 0.0]]) * n).astype(np.int64)
    tables = {
        (1, 1): tab((1, 1), joint),
        (0, 1): tab((0, 1), off),
    }
    if with_first:
        first = np.rint(np.column_stack([table.p_t1, [0.0, 0.0]]) * n).astype(np.int64)
        tables[(1, 0)] = tab((1, 0), first)
    return ExperimentRecord(tables=tables)


class TestExperimentRecord:
    def test_stores_tables_and_metadata(self):
        rec = bench_record(45)
        assert set(rec.tables) == {(1, 1), (0, 1)}
        assert rec.theta_deg == 45.0
        assert rec.calibration == (1.0, 1.0, 1.0, 1.0)
        assert rec.flags == ()

    def test_requires_the_lab_scheme_setups(self):
        with pytest.raises(ValueError, match="missing"):
            ExperimentRecord(tables={(1, 1): tab((1, 1), [[1, 1], [1, 1]])})

    def test_rejects_a_table_that_is_not_a_count_table(self):
        with pytest.raises(TypeError, match=r"^setup \(1, 1\): expected a CountTable$"):
            ExperimentRecord(tables={(1, 1): [[1, 1], [1, 1]], (0, 1): tab((0, 1), [[1, 1], [1, 1]])})

    def test_rejects_mislabeled_table(self):
        good = tab((1, 1), [[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="measured at"):
            ExperimentRecord(tables={(1, 1): good, (0, 1): tab((1, 1), [[1, 0], [0, 0]])})

    def test_rejects_bad_calibration(self):
        tables = {(1, 1): tab((1, 1), [[1, 1], [1, 1]]), (0, 1): tab((0, 1), [[1, 1], [0, 0]])}
        with pytest.raises(ValueError, match="calibration"):
            ExperimentRecord(tables=tables, calibration=(1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="calibration"):
            ExperimentRecord(tables=tables, calibration=(1.0, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="calibration overflows the calibrated counts"):
            ExperimentRecord(tables=tables, calibration=(1.0, 1e308, 1.0, 1.0))
        for bad in (np.nan, np.inf, -np.inf):
            message = f"calibration must be finite and positive, got {bad}"
            with pytest.raises(ValueError, match=message):
                ExperimentRecord(tables=tables, calibration=(1.0, 1.0, bad, 1.0))


class TestEstimateProbs:
    def test_bench_counts_at_45(self):
        ps = estimate_probs(bench_record(45))
        np.testing.assert_allclose(
            ps.p_joint, [[0.4152, 0.4262], [0.0791, 0.0795]], atol=1e-12
        )
        np.testing.assert_allclose(ps.p_t1, [0.8414, 0.1586], atol=1e-12)
        np.testing.assert_allclose(ps.p_t2, [8470 / 9999, 1529 / 9999], atol=1e-12)

    def test_exact_counts_recover_context_table(self):
        # mixed state with rational context probabilities throughout
        rho = qcore.make_mixed_state(0.0, np.pi, 0.2)
        ps = estimate_probs(exact_record(rho))
        table = context_table(rho)
        np.testing.assert_allclose(ps.p_joint, table.p_joint, atol=1e-12)
        np.testing.assert_allclose(ps.p_t1, table.p_t1, atol=1e-12)
        np.testing.assert_allclose(ps.p_t2, table.p_t2, atol=1e-12)

    def test_strict_mode_reads_the_measured_first_table(self):
        rec = exact_record(qcore.make_mixed_state(0.0, np.pi, 0.2), with_first=True)
        # skew the directly measured first-measurement table so the two
        # modes must disagree
        skewed = dict(rec.tables)
        skewed[(1, 0)] = tab((1, 0), [[7000, 0], [3000, 0]])
        rec = ExperimentRecord(tables=skewed)
        lab = estimate_probs(rec, mode="lab")
        strict = estimate_probs(rec, mode="strict")
        np.testing.assert_allclose(lab.p_t1, [0.6, 0.4], atol=1e-12)
        np.testing.assert_allclose(strict.p_t1, [0.7, 0.3], atol=1e-12)
        np.testing.assert_allclose(strict.p_joint, lab.p_joint, atol=1e-15)

    def test_strict_mode_requires_the_first_table(self):
        with pytest.raises(ValueError, match=r"missing the required setup \(1, 0\)"):
            estimate_probs(bench_record(45), mode="strict")
        # tables are refused in reading order: (1,1) and (0,1) before the missing (1,0)
        for joint, off, message in (
            ([[0, 0], [0, 0]], [[1, 1], [0, 0]], "setup (1, 1): table holds no counts"),
            ([[1, 0], [0, 0]], [[0, 0], [3, 0]], "setup (0, 1): no counts in the a1 = 0 row"),
        ):
            rec = ExperimentRecord(tables={(1, 1): tab((1, 1), joint), (0, 1): tab((0, 1), off)})
            with pytest.raises(ValueError) as exc:
                estimate_probs(rec, mode="strict")
            assert str(exc.value) == message

    def test_zero_total_is_degenerate(self):
        rec = ExperimentRecord(
            tables={(1, 1): tab((1, 1), [[0, 0], [0, 0]]), (0, 1): tab((0, 1), [[1, 1], [0, 0]])}
        )
        with pytest.raises(ValueError, match="no counts"):
            estimate_probs(rec)

    def test_empty_reference_row_is_degenerate(self):
        rec = ExperimentRecord(
            tables={(1, 1): tab((1, 1), [[3, 3], [2, 2]]), (0, 1): tab((0, 1), [[0, 0], [5, 5]])}
        )
        with pytest.raises(ValueError, match="a1 = 0 row"):
            estimate_probs(rec)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            estimate_probs(bench_record(45), mode="bayes")

    def test_calibration_rescales_counts(self):
        on, off = BENCH_COUNTS[45]
        rec = bench_record(45)
        scaled = ExperimentRecord(
            tables={
                (1, 1): tab((1, 1), np.array(on) * [[2, 3], [4, 5]]),
                (0, 1): tab((0, 1), np.array(off) * [[2, 3], [4, 5]]),
            },
            calibration=(1 / 2, 1 / 3, 1 / 4, 1 / 5),
        )
        ref = estimate_probs(rec)
        got = estimate_probs(scaled)
        np.testing.assert_allclose(got.p_joint, ref.p_joint, atol=1e-12)
        np.testing.assert_allclose(got.p_t1, ref.p_t1, atol=1e-12)
        np.testing.assert_allclose(got.p_t2, ref.p_t2, atol=1e-12)


class TestEstimateCalibration:
    def test_equal_flux_reference_flattens_efficiencies(self):
        # diagonal input: every detector nominally sees 2500 of 10^4;
        # simulated efficiencies skew the reference and the factors undo it
        eff = np.array([0.9, 1.0, 0.8, 1.1])
        reference = tab((1, 1), np.rint(2500 * eff).reshape(2, 2))
        factors = estimate_calibration(reference)
        rec = ExperimentRecord(
            tables={(1, 1): reference, (0, 1): tab((0, 1), [[5000, 5000], [0, 0]])},
            calibration=factors,
        )
        ps = estimate_probs(rec)
        np.testing.assert_allclose(ps.p_joint, 0.25, atol=1e-3)

    def test_rejects_dead_detector(self):
        with pytest.raises(ValueError, match="every detector"):
            estimate_calibration(tab((1, 1), [[100, 100], [0, 100]]))

    @pytest.mark.parametrize("setup", [(0, 0), (0, 1), (1, 0)])
    def test_rejects_reference_of_another_setup(self, setup):
        message = f"setup (1, 1), both splitters in, got {setup}"
        with pytest.raises(ValueError, match=re.escape(message)):
            estimate_calibration(tab(setup, [[2500, 2500], [2500, 2500]]))

    def test_rejects_dark_filled_run_with_splitters_out(self):
        # darks fill every detector of a (0, 0) run, so only the setup
        # rule stops it from passing as a reference
        det = DetectorModel(dark_rate_hz=2e5)
        table = simulate_counts(qcore.make_pure_state(0.3), (0, 0), 10_000, det=det, seed=1)
        assert np.all(table.counts > 0)
        with pytest.raises(ValueError, match=re.escape("got (0, 0)")):
            estimate_calibration(table)


class TestDarkCorrection:
    def test_zero_darks_is_identity(self):
        rec = bench_record(45)
        out = dark_count_correction(rec, [0, 0, 0, 0])
        for setup in rec.tables:
            np.testing.assert_array_equal(out.tables[setup].counts, rec.tables[setup].counts)
        assert out.flags == ()

    def test_subtracts_per_detector_and_recomputes_totals(self):
        rec = bench_record(45)
        out = dark_count_correction(rec, [10, 20, 30, 40])
        np.testing.assert_array_equal(
            out.tables[(1, 1)].counts, [[4142, 4242], [761, 755]]
        )
        assert out.tables[(1, 1)].total == 4142 + 4242 + 761 + 755

    def test_clamps_and_flags(self):
        rec = bench_record(45)
        out = dark_count_correction(rec, [0, 0, 0, 100])
        # the off table has a single count at D11
        assert out.tables[(0, 1)].counts[1, 1] == 0
        assert "dark_clamped" in out.flags

    def test_correction_restores_a_dark_contaminated_record(self):
        rho = qcore.make_mixed_state(0.0, np.pi, 0.2)
        clean = exact_record(rho, n=100_000)
        dark = np.full(4, 500)
        dirty_tables = {
            setup: tab(setup, t.counts + dark.reshape(2, 2))
            for setup, t in clean.tables.items()
        }
        dirty = ExperimentRecord(tables=dirty_tables)
        restored = dark_count_correction(dirty, dark)
        ps = estimate_probs(restored)
        np.testing.assert_allclose(ps.p_joint, context_table(rho).p_joint, atol=1e-12)

    def test_rejects_bad_darks(self):
        rec = bench_record(45)
        with pytest.raises(ValueError, match="nonnegative"):
            dark_count_correction(rec, [-1, 0, 0, 0])
        with pytest.raises(ValueError, match="four"):
            dark_count_correction(rec, [1, 2, 3])

    @pytest.mark.parametrize(
        "dark",
        [(0.5, 0, 0, 0), (0, 1.9, 0, 0), ("3", 0, 0, 0), "3", (0, 0, float("inf"), 0),
         (0, 0, 0, float("nan")), (2**63, 0, 0, 0), (99999999999999999999, 0, 0, 0),
         (0, 1e300, 0, 0), (-float("inf"), 0, 0, 0), np.array([0.25, 0, 0, 0])],
    )
    def test_refuses_what_is_not_a_whole_count(self, dark):
        # once truncated (0.5 to 0, 1.9 to 1), parsed ("3") or an OverflowError
        with pytest.raises(ValueError, match="dark_counts"):
            dark_count_correction(bench_record(45), dark)

    @pytest.mark.parametrize(
        "dark",
        [(2**63 - 1, 0, 0, 0), (3.0, 0, 0, 0), np.array([3, 0, 0, 0]), np.array([3.0, 0, 0, 0]),
         (np.int32(3), np.float64(0.0), 0, 0)],
    )
    def test_takes_whole_numbers_of_any_type(self, dark):
        out = dark_count_correction(bench_record(45), dark)
        assert out.tables[(1, 1)].counts[0, 0] == max(4152 - int(dark[0]), 0)


class TestErrorBudget:
    def test_single_component(self):
        for mode in ("rss", "sum"):
            assert error_budget([("apd", 0.05, 1)], mode).total_error == pytest.approx(0.05)

    def test_two_components_under_both_readings(self):
        comps = [("hwp", 0.011, 1), ("apd", 0.05, 1)]
        assert error_budget(comps, "rss").total_error == pytest.approx(0.0512, abs=5e-5)
        assert error_budget(comps, "sum").total_error == pytest.approx(0.061, abs=1e-12)

    def test_times_used_scales_inside_the_root(self):
        budget = error_budget([("pbs_reflect", 0.05, 2)], "rss")
        assert budget.total_error == pytest.approx(0.05 * np.sqrt(2), abs=1e-12)
        budget = error_budget([("pbs_reflect", 0.05, 2)], "sum")
        assert budget.total_error == pytest.approx(0.05 * np.sqrt(2), abs=1e-12)

    def test_empty_budget_is_zero(self):
        assert error_budget([], "rss").total_error == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="mode"):
            error_budget([], "quadrature")
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            error_budget([("x", 1.0, 1)])
        with pytest.raises(ValueError, match="nonnegative"):
            error_budget([("x", 0.1, -1)])

    def test_total_dominates_each_contribution(self):
        with pytest.raises(ValueError, match="contribution"):
            ErrorBudget(component_errors=(("apd", 0.05, 4),), total_error=0.05)

    @pytest.mark.parametrize("field", ["total_error", "statistical_error", "systematic_error"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1])
    def test_rejects_bad_error_values(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
            ErrorBudget(component_errors=(), **{"total_error": 0.0, field: value})

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            ErrorBudget(component_errors=(), total_error=0.0, mode="quadrature")

    def test_dataclass_checks_components_as_error_budget_does(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            ErrorBudget(component_errors=(("x", np.nan, 1),), total_error=0.5)
        with pytest.raises(ValueError, match="nonnegative"):
            ErrorBudget(component_errors=(("x", 0.1, -1),), total_error=0.5)

    def test_combined_error_modes(self):
        budget = ErrorBudget(
            component_errors=(), total_error=0.0, mode="rss",
            statistical_error=3.0, systematic_error=4.0,
        )
        assert budget.combined_error() == pytest.approx(5.0)
        both = ErrorBudget(
            component_errors=(), total_error=0.0, mode="sum",
            statistical_error=3.0, systematic_error=4.0,
        )
        assert both.combined_error() == pytest.approx(7.0)


class TestPathComponents:
    def test_transmitted_path(self):
        assert path_components(0, 0) == (
            ("hwp", 0.011, 2),
            ("pbs_transmit", 0.001, 2),
            ("apd", 0.05, 1),
        )

    def test_double_reflected_path_is_worst(self):
        comps = path_components(1, 1)
        assert ("pbs_reflect", 0.05, 2) in comps
        totals = {
            (a1, a2): error_budget(path_components(a1, a2), "rss").total_error
            for a1 in (0, 1) for a2 in (0, 1)
        }
        assert max(totals, key=totals.get) == (1, 1)
        assert totals[(1, 1)] == pytest.approx(
            np.sqrt(2 * 0.011**2 + 2 * 0.05**2 + 0.05**2), abs=1e-12
        )

    def test_mixed_path_uses_both_splitter_errors(self):
        comps = dict((name, (err, times)) for name, err, times in path_components(0, 1))
        assert comps["pbs_reflect"] == (0.05, 1)
        assert comps["pbs_transmit"] == (0.001, 1)

    def test_rejects_bad_outcomes(self):
        with pytest.raises(ValueError, match="outcomes"):
            path_components(2, 0)

    def test_component_table_matches_bench_values(self):
        assert COMPONENT_ERRORS == {
            "hwp": 0.011, "pbs_reflect": 0.05, "pbs_transmit": 0.001, "apd": 0.05,
        }


class TestAnalyze:
    def test_bench_45_negativity_in_band(self):
        q, budget = analyze(bench_record(45), seed=0)
        assert 0.09 <= q.negativity <= 0.11
        np.testing.assert_allclose(
            q.w,
            [[0.59159235423542355, 0.24980764576457645],
             [0.25549235423542357, -0.09689235423542355]],
            atol=1e-12,
        )
        # agrees with the ideal-theory maximum within the stated errors
        assert abs(q.negativity - 0.103) <= budget.combined_error()

    def test_bench_0_consistent_with_zero(self):
        q, budget = analyze(bench_record(0), seed=0)
        assert q.negativity <= 2 * budget.combined_error()

    def test_bench_90_negativity_is_zero(self):
        q, budget = analyze(bench_record(90), seed=0)
        assert q.negativity == 0.0
        assert budget.systematic_error == 0.0

    def test_ideal_simulation_converges_to_theory(self):
        rho = qcore.make_pure_state(np.pi / 4)
        det = DetectorModel.ideal()
        tables = {
            setup: simulate_counts(rho, setup, 1_000_000, det=det, seed=100 + i)
            for i, setup in enumerate([(1, 1), (0, 1)])
        }
        q, budget = analyze(ExperimentRecord(tables=tables), seed=1)
        assert q.negativity == pytest.approx(MAX_NEGATIVITY, abs=2e-3)
        assert 1e-4 <= budget.statistical_error <= 1e-3

    def test_budget_follows_the_most_negative_cell(self):
        q, budget = analyze(bench_record(45), n_boot=0)
        # negativity sits at D11, the doubly reflected path
        assert ("pbs_reflect", 0.05, 2) in budget.component_errors
        assert budget.systematic_error == pytest.approx(
            budget.total_error * q.negativity, abs=1e-15
        )

    def test_scale_invariance(self):
        on, off = BENCH_COUNTS[45]
        scaled = ExperimentRecord(
            tables={
                (1, 1): tab((1, 1), np.array(on) * 13),
                (0, 1): tab((0, 1), np.array(off) * 13),
            }
        )
        q_ref, _ = analyze(bench_record(45), n_boot=0)
        q_scaled, _ = analyze(scaled, n_boot=0)
        np.testing.assert_allclose(q_scaled.w, q_ref.w, atol=1e-12)
        assert q_scaled.negativity == pytest.approx(q_ref.negativity, abs=1e-12)

    def test_strict_equals_lab_for_consistent_tables(self):
        rec = exact_record(qcore.make_mixed_state(0.0, np.pi, 0.2), with_first=True)
        q_lab, _ = analyze(rec, mode="lab", n_boot=0)
        q_strict, _ = analyze(rec, mode="strict", n_boot=0)
        np.testing.assert_allclose(q_strict.w, q_lab.w, atol=1e-12)


def per_resample_bootstrap(rec, mode="lab", n_boot=200, seed=0):
    """Reference for bootstrap_negativity_error that re-analyzes one resample at a time.

    Resamples every table of the record, builds a record from the
    resample and runs estimate_probs and oq_distribution on it, skipping
    resamples that estimate_probs rejects.
    """
    if n_boot < 2:
        raise ValueError("n_boot must be at least 2")
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(n_boot):
        tables = {}
        for setup, table in rec.tables.items():
            p = table.counts.ravel() / table.total
            counts = rng.multinomial(table.total, p).reshape(2, 2)
            tables[setup] = CountTable(setup=setup, counts=counts, total=int(counts.sum()))
        try:
            ps = estimate_probs(replace(rec, tables=tables), mode)
        except ValueError:
            continue
        values.append(oq_distribution(ps).negativity)
    if len(values) < 2:
        raise ValueError("too few valid bootstrap resamples")
    return float(np.std(values, ddof=1))


def strict_bench_record():
    """bench_record(45) plus a first-measurement-only (1,0) table near its p_t1."""
    rec = bench_record(45)
    return replace(rec, tables={**rec.tables, (1, 0): tab((1, 0), [[8512, 9], [1466, 13]])})


RATIONAL_STATE = qcore.state_from_bloch(0.6, 0.0, 0.6)


class TestBootstrap:
    @pytest.mark.parametrize(
        "make,mode",
        [
            (lambda: bench_record(0), "lab"),
            (lambda: bench_record(45), "lab"),
            (lambda: replace(bench_record(45), calibration=(1.2, 0.9, 1.1, 0.8)), "lab"),
            (strict_bench_record, "strict"),
            (lambda: exact_record(RATIONAL_STATE, n=2_000, with_first=True), "lab"),
            (lambda: exact_record(RATIONAL_STATE, n=2_000, with_first=True), "strict"),
        ],
        ids=["bench0", "bench45", "bench45-calibrated", "bench45-strict", "exact", "exact-strict"],
    )
    def test_matches_per_resample_reference(self, make, mode):
        # independent seeds: at 4000 resamples each spread estimate is good
        # to about 1%, so 10% is several standard errors
        rec = make()
        batched = bootstrap_negativity_error(rec, mode, n_boot=4000, seed=5)
        reference = per_resample_bootstrap(rec, mode, n_boot=4000, seed=6)
        assert batched == pytest.approx(reference, rel=0.1)

    @pytest.mark.parametrize("mode", ["lab", "strict"])
    def test_replayed_draws_match_the_scalar_pipeline(self, mode):
        # the same draws, one table the mode reads at a time, re-analyzed
        # one by one; small rows and columns make some resamples invalid
        rec = ExperimentRecord(
            tables={(1, 1): tab((1, 1), [[40, 30], [20, 10]]),
                    (0, 1): tab((0, 1), [[1, 0], [2, 0]]),
                    (1, 0): tab((1, 0), [[2, 5], [1, 3]])},
            calibration=(1.2, 0.9, 1.1, 0.8),
        )
        n_boot = 300
        setups = [(1, 1), (0, 1)] + ([(1, 0)] if mode == "strict" else [])
        rng = np.random.default_rng(4)
        draws = {
            s: rng.multinomial(rec.tables[s].total, rec.tables[s].counts.ravel() / rec.tables[s].total,
                               size=n_boot).reshape(-1, 2, 2)
            for s in setups
        }
        values = []
        for i in range(n_boot):
            tables = {s: tab(s, draws[s][i]) for s in setups}
            try:
                ps = estimate_probs(replace(rec, tables=tables), mode)
            except ValueError:
                continue
            values.append(oq_distribution(ps).negativity)
        assert 2 <= len(values) < n_boot
        expected = np.std(values, ddof=1)
        batched = bootstrap_negativity_error(rec, mode, n_boot=n_boot, seed=4)
        assert batched == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_refuses_more_than_the_cap_before_drawing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no generator may be built")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for n_boot in (BOOTSTRAP_MAX + 1, 2**63):
            with pytest.raises(ValueError, match=f"n_boot must be at most {BOOTSTRAP_MAX}"):
                bootstrap_negativity_error(strict_bench_record(), "strict", n_boot=n_boot)

    def test_cap_bounds_the_memory_of_a_run(self):
        # the cap's comment: about 340 bytes a resample at the peak, so 90 MB
        n_boot = 2**14
        tracemalloc.start()
        try:
            bootstrap_negativity_error(strict_bench_record(), "strict", n_boot=n_boot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak * (BOOTSTRAP_MAX / n_boot) < 120e6

    def test_lab_mode_reads_only_its_two_tables(self):
        rec = bench_record(45)
        empty = np.zeros((2, 2), dtype=np.int64)
        padded = replace(
            rec, tables={**rec.tables, (0, 0): tab((0, 0), empty), (1, 0): tab((1, 0), empty)}
        )
        with np.errstate(all="raise"):
            value = bootstrap_negativity_error(padded, seed=9)
        assert value == bootstrap_negativity_error(rec, seed=9)

    @pytest.mark.parametrize(
        "rec,mode",
        [
            # the a1 = 0 row of (0,1) is empty in every resample
            (ExperimentRecord(tables={(1, 1): tab((1, 1), [[5, 5], [5, 5]]),
                                      (0, 1): tab((0, 1), [[0, 0], [3, 4]])}), "lab"),
            # so is the a2 = 0 column of (1,0)
            (replace(bench_record(45), tables={**bench_record(45).tables,
                                               (1, 0): tab((1, 0), [[0, 7], [0, 2]])}), "strict"),
            # strict mode without a (1,0) table
            (bench_record(45), "strict"),
        ],
        ids=["empty-row", "empty-column", "no-first-table"],
    )
    def test_all_resamples_dropped_raises(self, rec, mode):
        for boot in (bootstrap_negativity_error, per_resample_bootstrap):
            with pytest.raises(ValueError, match="too few valid bootstrap resamples"):
                boot(rec, mode, n_boot=50)

    def test_error_shrinks_with_counts(self):
        # state with rational probabilities and genuine negativity 0.05
        rho = qcore.state_from_bloch(0.6, 0.0, 0.6)
        small = bootstrap_negativity_error(exact_record(rho, n=1_000), seed=3)
        large = bootstrap_negativity_error(exact_record(rho, n=100_000), seed=3)
        assert large < small

    def test_deterministic_for_fixed_seed(self):
        rec = bench_record(45)
        a = bootstrap_negativity_error(rec, seed=7)
        b = bootstrap_negativity_error(rec, seed=7)
        assert a == b

    @pytest.mark.parametrize("seed", [-1, 1.5], ids=["negative", "fraction"])
    def test_refuses_a_seed_that_is_not_a_nonnegative_integer(self, monkeypatch, seed):
        def refuse(*args, **kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        rec = bench_record(45)
        message = f"seed must be a nonnegative integer, got {seed!r}"
        for call in (lambda: bootstrap_negativity_error(rec, n_boot=10, seed=seed),
                     lambda: analyze(rec, n_boot=10, seed=seed)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message

    def test_rejects_tiny_resample_count(self):
        with pytest.raises(ValueError, match="n_boot"):
            bootstrap_negativity_error(bench_record(45), n_boot=1)

    @pytest.mark.parametrize("n_boot", [2.5, float("nan"), "10", 10.0, 0.0])
    def test_refuses_a_count_that_is_not_an_integer(self, monkeypatch, n_boot):
        def refuse(*args, **kwargs):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        rec = bench_record(45)
        for call in (lambda: bootstrap_negativity_error(rec, n_boot=n_boot),
                     lambda: analyze(rec, n_boot=n_boot)):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == f"n_boot must be an integer, got {n_boot!r}"

    def test_takes_a_numpy_integer_count(self):
        rec = bench_record(45)
        assert (bootstrap_negativity_error(rec, n_boot=np.int64(50), seed=3)
                == bootstrap_negativity_error(rec, n_boot=50, seed=3))
        assert analyze(rec, n_boot=np.int64(0))[1].statistical_error == 0.0


def delta_method_reference(rec, mode="lab", step=1e-6, cell=None):
    """The delta-method standard error by finite differences and explicit covariances.

    Differentiates minus cell k (row-major) of w, by default its smallest,
    estimated from calibrated frequencies the way estimate_probs does and
    passed through oq_distribution, by central differences in each read
    table's frequencies f, and contracts that gradient with the table's
    multinomial covariance (diag(f) - f f^T) / N. Empty cells carry no
    variance, so they are not perturbed.
    """
    setups = [(1, 1), (0, 1)] + ([(1, 0)] if mode == "strict" else [])
    cal = np.reshape(rec.calibration, (2, 2))
    freqs = [rec.tables[s].counts / rec.tables[s].total for s in setups]

    def w_of(fs):
        joint, off, *first = [f * cal for f in fs]
        p_joint = joint / joint.sum()
        p_t1 = first[0][:, 0] / first[0][:, 0].sum() if first else p_joint.sum(axis=1)
        p_t2 = off[0] / off[0].sum()
        return oq_distribution(ProbabilitySet(p_t1, p_t2, p_joint)).w.ravel()

    k = np.argmin(w_of(freqs)) if cell is None else cell
    var = 0.0
    for t, setup in enumerate(setups):
        f = freqs[t].ravel()
        grad = np.zeros(4)
        for i in np.flatnonzero(f):
            up = [x.copy() for x in freqs]
            down = [x.copy() for x in freqs]
            up[t].flat[i] += step
            down[t].flat[i] -= step
            grad[i] = -(w_of(up)[k] - w_of(down)[k]) / (2 * step)
        var += grad @ ((np.diag(f) - np.outer(f, f)) / rec.tables[setup].total) @ grad
    return float(np.sqrt(var))


CALIBRATION = (1.0, 1.1, 0.9, 1.05)


def rounded_record(theta_deg, n):
    """Tables of n counts each, rounded from the exact probabilities at theta.

    Holds (1,1), (0,1) and (1,0), calibrated by CALIBRATION.
    """
    table = context_table(qcore.make_pure_state(np.radians(theta_deg)))
    cells = {
        (1, 1): table.p_joint,
        (0, 1): [table.p_t2, [0.0, 0.0]],
        (1, 0): np.column_stack([table.p_t1, [0.0, 0.0]]),
    }
    return ExperimentRecord(
        tables={s: tab(s, np.rint(np.asarray(p) * n)) for s, p in cells.items()},
        calibration=CALIBRATION,
    )


# two tables whose w has tied smallest cells, w00 = w01
TIED_RECORD = ExperimentRecord(tables={(1, 1): tab((1, 1), [[1, 2], [3, 4]]),
                                       (0, 1): tab((0, 1), [[2, 2], [1, 2]])})


@st.composite
def tie_prone_records(draw):
    """(record, mode): tables of a few counts a cell, so that cells of w often
    tie, under unit calibration or CALIBRATION, in lab or strict mode."""
    cells = st.lists(st.integers(0, 4), min_size=4, max_size=4)
    tables = {s: tab(s, np.reshape(draw(cells), (2, 2))) for s in ((1, 1), (0, 1), (1, 0))}
    calibration = draw(st.sampled_from([(1.0, 1.0, 1.0, 1.0), CALIBRATION]))
    rec = ExperimentRecord(tables=tables, calibration=calibration)
    return rec, draw(st.sampled_from(["lab", "strict"]))


class TestStandardError:
    @pytest.mark.parametrize("mode", ["lab", "strict"])
    @pytest.mark.parametrize("theta", [30, 45, 60, 120])
    @pytest.mark.parametrize("n", [100, 10_000])
    def test_matches_a_long_bootstrap(self, mode, theta, n):
        # 5000 resamples pin the bootstrap spread to about 1%
        rec = rounded_record(theta, n)
        boot = bootstrap_negativity_error(rec, mode, n_boot=5000, seed=0)
        assert negativity_standard_error(rec, mode) == pytest.approx(boot, rel=0.03)

    @pytest.mark.parametrize(
        "make,mode",
        [
            (lambda: bench_record(0), "lab"),
            (lambda: bench_record(45), "lab"),
            (lambda: bench_record(90), "lab"),
            (lambda: replace(bench_record(45), calibration=CALIBRATION), "lab"),
            (strict_bench_record, "strict"),
            (lambda: replace(strict_bench_record(), calibration=CALIBRATION), "strict"),
            (lambda: exact_record(RATIONAL_STATE, n=2_000, with_first=True), "strict"),
            # on the diamond edge: no cell negative, the smallest is 0
            (lambda: exact_record(qcore.state_from_bloch(0.5, 0.0, 0.5), n=2_000), "lab"),
            # strays in the a1 = 1 row of (0,1), which the estimate skips
            (lambda: ExperimentRecord(
                tables={(1, 1): tab((1, 1), [[415, 426], [79, 80]]),
                        (0, 1): tab((0, 1), [[847, 153], [60, 40]])},
                calibration=CALIBRATION), "lab"),
        ],
        ids=["bench0", "bench45", "bench90", "bench45-calibrated", "bench45-strict",
             "bench45-strict-calibrated", "exact-strict", "diamond-edge", "row-strays"],
    )
    def test_matches_finite_difference_reference(self, make, mode):
        rec = make()
        value = negativity_standard_error(rec, mode)
        assert value > 0
        assert value == pytest.approx(delta_method_reference(rec, mode), rel=1e-7)

    def test_one_count_per_table_gives_zero_and_is_flagged(self):
        rec = ExperimentRecord(tables={(1, 1): tab((1, 1), [[0, 0], [0, 1]]),
                                       (0, 1): tab((0, 1), [[1, 0], [0, 0]])})
        q, budget = analyze(rec)
        assert q.negativity == 0.5 > MAX_NEGATIVITY
        assert budget.statistical_error == 0.0
        assert reads_low_counts(rec)

    def test_low_counts_threshold_on_the_tables_read(self):
        big = tab((1, 1), [[400, 400], [100, 100]])
        for n, flagged in ((LOW_COUNTS - 1, True), (LOW_COUNTS, False)):
            row = tab((0, 1), [[n - 1, 1], [0, 0]])
            assert reads_low_counts(ExperimentRecord(tables={(1, 1): big, (0, 1): row})) is flagged
        rec = ExperimentRecord(tables={(1, 1): big, (0, 1): tab((0, 1), [[800, 200], [0, 0]]),
                                       (1, 0): tab((1, 0), [[3, 0], [2, 0]])})
        assert not reads_low_counts(rec, "lab")
        assert reads_low_counts(rec, "strict")

    def test_low_counts_on_an_error_of_zero(self):
        # no table read is small, so only a given error of exactly 0 flags
        rec = ExperimentRecord(tables={(1, 1): tab((1, 1), [[5000, 0], [0, 0]]),
                                       (0, 1): tab((0, 1), [[3000, 0], [0, 0]])})
        assert analyze(rec)[1].statistical_error == 0.0
        assert not reads_low_counts(rec)
        assert reads_low_counts(rec, "lab", 0.0)
        assert not reads_low_counts(rec, "lab", 1e-300)
        assert not reads_low_counts(rec, "lab", None)

    @pytest.mark.parametrize("mode", ["lab", "strict"])
    def test_rejects_what_estimate_probs_rejects(self, mode):
        recs = [
            ExperimentRecord(tables={(1, 1): tab((1, 1), [[5, 5], [5, 5]]),
                                     (0, 1): tab((0, 1), [[0, 0], [3, 4]])}),
            replace(bench_record(45), tables={**bench_record(45).tables,
                                              (1, 0): tab((1, 0), [[0, 7], [0, 2]])}),
            ExperimentRecord(tables={(1, 1): tab((1, 1), [[0, 0], [0, 0]]),
                                     (0, 1): tab((0, 1), [[3, 0], [0, 0]])}),
        ]
        for rec in recs:
            try:
                estimate_probs(rec, mode)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    negativity_standard_error(rec, mode)
            else:
                assert negativity_standard_error(rec, mode) > 0

    def test_default_analyze_uses_it_whatever_the_seed(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the default error must not resample")

        monkeypatch.setattr(analysis, "bootstrap_negativity_error", refuse)
        for rec, mode in ((bench_record(45), "lab"), (strict_bench_record(), "strict")):
            expected = negativity_standard_error(rec, mode)
            for seed in (0, 1, 12345):
                _, budget = analyze(rec, mode, seed=seed)
                assert budget.statistical_error == expected

    def test_bootstrap_on_request(self):
        rec = bench_record(45)
        _, budget = analyze(rec, n_boot=300, seed=4)
        assert budget.statistical_error == bootstrap_negativity_error(rec, n_boot=300, seed=4)
        _, budget = analyze(rec, n_boot=0)
        assert budget.statistical_error == 0.0

    def test_tied_cells_take_the_budget_cell(self):
        # w00 and w01 tie at 0.15 (0.15000000000000002 in both), and the
        # budget follows the first: the error is taken along w00 too, not
        # along the w01 (0.17211914478058507) that a second, Python-float
        # evaluation of eq. (1) picked
        rec = TIED_RECORD
        q, budget = analyze(rec)
        assert q.w.ravel().tolist() == [0.15000000000000002] * 2 + [0.35] * 2
        assert budget.component_errors == path_components(0, 0)
        assert budget.statistical_error == 0.15692354826475216
        assert negativity_standard_error(rec) == budget.statistical_error
        assert budget.statistical_error == pytest.approx(
            delta_method_reference(rec, cell=0), rel=1e-7)

    @settings(max_examples=300, deadline=None)
    @given(case=tie_prone_records())
    @example(case=(TIED_RECORD, "lab"))
    def test_error_follows_the_reported_smallest_cell(self, case):
        rec, mode = case
        try:
            q, budget = analyze(rec, mode)
        except ValueError:
            assume(False)
        cell = int(np.argmin(q.w))
        assert budget.component_errors == path_components(*divmod(cell, 2))
        assert negativity_standard_error(rec, mode) == budget.statistical_error
        assert budget.statistical_error == pytest.approx(
            delta_method_reference(rec, mode, cell=cell), rel=1e-6, abs=1e-9)


# a cell: often 0, so that empty tables, rows and columns are common
cell = st.one_of(st.sampled_from([0, 0, 0, 1, 2, 7]), st.integers(0, 2**60))
factor = st.one_of(st.just(1.0), st.floats(1e-3, 1e3))


@st.composite
def read_batches(draw):
    """(mode, calibration, counts): an (N, S, 4) stack of the S tables the mode reads."""
    mode = draw(st.sampled_from(["lab", "strict"]))
    n = draw(st.integers(1, 12))
    setups = analysis._read_setups(mode)
    flat = draw(st.lists(cell, min_size=4 * n * len(setups), max_size=4 * n * len(setups)))
    counts = np.array(flat, dtype=np.int64).reshape(n, len(setups), 4)
    return mode, tuple(draw(st.lists(factor, min_size=4, max_size=4))), counts


def stack_record(mode, calibration, tables):
    """The ExperimentRecord of one row of a stack."""
    setups = analysis._read_setups(mode)
    recs = {s: tab(s, c.reshape(2, 2)) for s, c in zip(setups, tables)}
    # lab records carry a (1, 0) table too, which they must not read
    recs.setdefault((1, 0), tab((1, 0), [[0, 0], [0, 0]]))
    return ExperimentRecord(tables=recs, calibration=calibration)


def check_stack(mode, calibration, counts):
    """_estimate_rows and _standard_errors on a stack against each record
    alone and against the Python-float loops of read_reference and
    standard_error_reference."""
    p, ok, normalised = analysis._estimate_rows(counts, calibration, mode)
    assert p.shape == (len(counts), 8) and ok.shape == (len(counts),)
    accepted, cells, errors = [], [], []
    for k, tables in enumerate(counts):
        rec = stack_record(mode, calibration, tables)
        try:
            reads, reference = read_reference(rec, mode)
        except ValueError as exc:
            assert not ok[k]
            with pytest.raises(ValueError) as refused:
                estimate_probs(rec, mode)
            assert str(refused.value) == str(exc)
            continue
        assert ok[k]
        alone, _, _ = analysis._estimate_rows(tables[None], calibration, mode)
        ps = estimate_probs(rec, mode)
        assert p[k].tobytes() == alone[0].tobytes() == np.array(reference).tobytes()
        assert np.concatenate((ps.p_t1, ps.p_t2, ps.p_joint.ravel())).tobytes() == p[k].tobytes()
        q, budget = analyze(rec, mode)
        cell = int(np.argmin(q.w))
        # n_i / total is an exact quotient in the loop, a float one in numpy
        if max(sum(n) for n, *_ in reads) < 2**53:
            assert standard_error_reference(reads, cell, calibration) == budget.statistical_error
        accepted.append(k)
        cells.append(cell)
        errors.append(budget.statistical_error)
    if accepted:
        stacked = analysis._standard_errors(
            counts[accepted], *(a[accepted] for a in normalised), calibration, mode, cells)
        assert stacked.tobytes() == np.array(errors).tobytes()


class TestReaders:
    # the scalar reader is the Python-float loop of helpers.read_reference
    @settings(max_examples=300, deadline=None)
    @given(batch=read_batches())
    def test_batched_reader_is_the_scalar_reader(self, batch):
        check_stack(*batch)

    @pytest.mark.parametrize("mode", ["lab", "strict"])
    def test_batched_reader_on_a_large_stack(self, mode):
        # numpy may reduce a long stack differently from a short one
        rng = np.random.default_rng(8)
        n = 3000
        shape = (n, len(analysis._read_setups(mode)), 4)
        counts = rng.integers(0, 3, size=shape) * rng.integers(1, 2**50, size=shape)
        calibration = tuple(rng.uniform(0.2, 5.0, size=4))
        _, ok, _ = analysis._estimate_rows(counts, calibration, mode)
        assert 0 < np.count_nonzero(ok) < n
        check_stack(mode, calibration, counts)

    @pytest.mark.parametrize("mode", ["lab", "strict"])
    @pytest.mark.parametrize("calibration", [(1.0, 1.0, 1.0, 1.0), CALIBRATION])
    def test_stacked_errors_take_each_row_along_its_cell(self, mode, calibration):
        # small tables, so that cells of w often tie; every row along each
        # of the four cells of w, against the finite-difference reference
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 6, size=(40, len(analysis._read_setups(mode)), 4))
        _, ok, (q, norm) = analysis._estimate_rows(counts, calibration, mode)
        counts, q, norm = counts[ok], q[ok], norm[ok]
        for cell in range(4):
            errors = analysis._standard_errors(
                counts, q, norm, calibration, mode, [cell] * len(counts))
            for tables, error in zip(counts, errors):
                rec = stack_record(mode, calibration, tables)
                assert error == pytest.approx(
                    delta_method_reference(rec, mode, cell=cell), rel=1e-6, abs=1e-9)
                reads, _ = read_reference(rec, mode)
                assert error == standard_error_reference(reads, cell, calibration)

    def test_analyze_reads_the_record_once(self, monkeypatch):
        # one stack of one record, and the bootstrap's resamples in one more
        calls = []
        read = analysis._estimate_rows

        def counting_read(counts, calibration, mode="lab"):
            calls.append(counts.shape)
            return read(counts, calibration, mode)

        monkeypatch.setattr(analysis, "_estimate_rows", counting_read)
        for rec, mode in ((bench_record(45), "lab"), (strict_bench_record(), "strict")):
            setups = len(analysis._read_setups(mode))
            for n_boot in (None, 0, 50):
                calls.clear()
                analyze(rec, mode, n_boot=n_boot)
                assert calls == [(1, setups, 4)] + ([(50, setups, 4)] if n_boot else [])

    def test_analyze_normalises_once_and_builds_no_budget(self, monkeypatch):
        # the delta error reuses the reader's cells, and the budget is a copy
        # of a checked constant, so neither runs again per record
        normalised, post_inits = [], []
        normalise, post_init = analysis._normalised, ErrorBudget.__post_init__

        def counting_normalise(*args):
            normalised.append(1)
            return normalise(*args)

        def counting_post_init(self):
            post_inits.append(1)
            post_init(self)

        monkeypatch.setattr(analysis, "_normalised", counting_normalise)
        monkeypatch.setattr(ErrorBudget, "__post_init__", counting_post_init)
        for rec, mode in ((bench_record(45), "lab"), (strict_bench_record(), "strict")):
            for error_mode in ("rss", "sum"):
                normalised.clear()
                analyze(rec, mode, error_mode)
                assert normalised == [1]
        assert post_inits == []

    @pytest.mark.parametrize("error_mode", ["rss", "sum"])
    @pytest.mark.parametrize("n_boot", [None, 0, 30])
    def test_budget_is_the_checked_path_budget(self, error_mode, n_boot):
        # the four angles put the negativity in each of the four cells of w
        cells = set()
        for theta in (45, 135, 225, 315):
            rho = qcore.make_pure_state(np.radians(theta))
            rec = analysis.simulate_record(rho, 10_000, DetectorModel(), seed=theta)
            q, budget = analyze(rec, "lab", error_mode, n_boot, seed=2)
            cell = int(np.argmin(q.w))
            cells.add(cell)
            expected = replace(
                error_budget(path_components(*divmod(cell, 2)), error_mode),
                statistical_error=budget.statistical_error,
                systematic_error=budget.total_error * q.negativity,
            )
            assert type(budget) is ErrorBudget
            assert vars(budget) == vars(expected)
            assert [type(v) for v in vars(budget).values()] == [
                type(v) for v in vars(expected).values()]
        assert cells == {0, 1, 2, 3}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1e-3])
    def test_a_bad_error_still_fails_the_budget_check(self, monkeypatch, bad):
        monkeypatch.setattr(analysis, "_standard_errors", lambda *args: np.array([bad]))
        with pytest.raises(ValueError) as exc:
            analyze(bench_record(45))
        assert str(exc.value) == f"statistical_error must be finite and nonnegative, got {bad}"


class TestCsvGlue:
    def test_record_round_trip(self, tmp_path):
        rec = bench_record(45)
        path = tmp_path / "record.csv"
        record_to_csv(rec, path)
        loaded = record_from_csv(path, theta_deg=45.0)
        assert set(loaded.tables) == set(rec.tables)
        for setup in rec.tables:
            np.testing.assert_array_equal(loaded.tables[setup].counts, rec.tables[setup].counts)
        q_a, _ = analyze(rec, n_boot=0)
        q_b, _ = analyze(loaded, n_boot=0)
        np.testing.assert_allclose(q_b.w, q_a.w, atol=1e-15)


class NoRandom:
    """numpy without np.random: building a SeedSequence fails the test."""

    def __getattr__(self, name):
        if name == "random":
            raise AssertionError("a SeedSequence was built")
        return getattr(np, name)


class TestDrivers:
    @pytest.mark.parametrize("seed", [0, 5, 2**40])
    @pytest.mark.parametrize(
        "det", [DetectorModel.ideal(), DetectorModel()], ids=["ideal", "bench"]
    )
    def test_simulate_record_runs_the_spawned_children(self, det, seed):
        rho = qcore.make_pure_state(np.radians(30.0), np.radians(10.0))
        rec = analysis.simulate_record(rho, 10_000, det, seed, theta_deg=30.0, source="simulated")
        assert (rec.theta_deg, rec.source) == (30.0, "simulated")
        assert list(rec.tables) == list(SETUPS)
        for setup, child in zip(SETUPS, np.random.SeedSequence(seed).spawn(4)):
            expected = simulate_counts(rho, setup, 10_000, det=det, seed=child)
            np.testing.assert_array_equal(rec.tables[setup].counts, expected.counts)
            assert rec.tables[setup].total == expected.total

    def test_simulate_record_builds_the_operators_once(self, monkeypatch):
        # one operator build for the four setups, and one generator per setup
        builds, generators = [], []
        build, default_rng = photonsim._effective_operators, np.random.default_rng

        def counting_build(setup, *args):
            builds.append(np.shape(setup))
            return build(setup, *args)

        def counting_rng(seed):
            generators.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(photonsim, "_effective_operators", counting_build)
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        analysis.simulate_record(qcore.make_pure_state(0.3), 1000, DetectorModel(), 4)
        assert builds == [(4, 2)]
        assert [s.spawn_key for s in generators] == [(k,) for k in range(4)]

    @pytest.mark.parametrize(
        "thetas,means,pulses,message",
        [
            ([0.0, np.nan], [0.1], 1000, "thetas_deg must be finite, got nan"),
            ([np.inf], [0.1], 1000, "thetas_deg must be finite, got inf"),
            ([45.0, -np.inf], [0.1], 1000, "thetas_deg must be finite, got -inf"),
            ([45.0], [np.nan], 1000, "means must be finite and positive, got nan"),
            ([45.0], [0.1, np.inf], 1000, "means must be finite and positive, got inf"),
            ([45.0], [0.0], 1000, "means must be finite and positive, got 0.0"),
            ([45.0], [-0.1], 1000, "means must be finite and positive, got -0.1"),
            ([45.0], [0.1], 0, "n_pulses must lie in [1, 2**63), got 0"),
            ([45.0], [0.1], 1000.7, "n_pulses must be an integer, got 1000.7"),
            ([45.0], [0.1], 2**63, f"n_pulses must lie in [1, 2**63), got {2**63}"),
            ([], [0.1], 1000, "thetas_deg and means give an empty 0 x 1 grid"),
            ([45.0, 90.0], [], 1000, "thetas_deg and means give an empty 2 x 0 grid"),
            (
                np.zeros(analysis.WEAKFIELD_POINTS_MAX // 2 + 1), [0.1, 0.2], 1000,
                f"thetas_deg and means give {analysis.WEAKFIELD_POINTS_MAX // 2 + 1} x 2 = "
                f"{analysis.WEAKFIELD_POINTS_MAX + 2} weak-field points, more than the "
                f"{analysis.WEAKFIELD_POINTS_MAX} allowed",
            ),
        ],
        ids=["nan-theta", "inf-theta", "minus-inf-theta", "nan-mean", "inf-mean", "zero-mean",
             "negative-mean", "no-pulses", "fractional-pulses", "too-many-pulses", "no-thetas",
             "no-means", "over-the-cap"],
    )
    def test_weakfield_scan_refuses_before_any_seed(
        self, monkeypatch, thetas, means, pulses, message
    ):
        monkeypatch.setattr(analysis, "np", NoRandom())
        with pytest.raises(ValueError) as exc:
            analysis.weakfield_scan(thetas, means, pulses, DetectorModel(), seed=3)
        assert str(exc.value) == message

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, None, "3", [1, 2]],
                             ids=["negative", "fraction", "float", "none", "text", "list"])
    def test_drivers_refuse_a_seed_that_is_not_a_nonnegative_integer(self, monkeypatch, seed):
        monkeypatch.setattr(analysis, "np", NoRandom())
        message = f"seed must be a nonnegative integer, got {seed!r}"
        with pytest.raises(ValueError) as exc:
            analysis.simulate_record(qcore.make_pure_state(0.3), 100, DetectorModel(), seed)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            analysis.weakfield_scan([45.0], [0.1], 1000, DetectorModel(), seed)
        assert str(exc.value) == message

    @pytest.mark.parametrize("n", [10.5, 100.0])
    def test_simulate_record_refuses_a_photon_count_that_is_not_an_integer(self, n):
        # a fraction was once truncated: 10.5 photons drew 10 per setup
        with pytest.raises(ValueError) as exc:
            analysis.simulate_record(qcore.make_pure_state(0.3), n, DetectorModel(), 1)
        assert str(exc.value) == f"n_photons must be an integer, got {n!r}"

    def test_drivers_take_integer_seeds_of_any_type(self):
        rho = qcore.make_pure_state(0.3)
        expected = analysis.simulate_record(rho, 100, seed=7)
        for seed in (np.int64(7), np.uint8(7)):
            rec = analysis.simulate_record(rho, 100, seed=seed)
            for setup in SETUPS:
                np.testing.assert_array_equal(rec.tables[setup].counts,
                                              expected.tables[setup].counts)

    def test_weakfield_scan_grid_and_appended_means(self):
        # a point's seeds depend on its own key only, so appending a mean
        # leaves the points already there as they were
        det = DetectorModel.ideal(dark_rate_hz=1.0e3)
        thetas = [0.0, 30.0, 45.0]
        short = analysis.weakfield_scan(thetas, [0.006], 50_000, det, seed=4)
        long = analysis.weakfield_scan(thetas, [0.006, 0.1], 50_000, det, seed=4)
        assert [c.shape for c in long] == [(3, 2, 2, 2), (3, 2), (3, 2), (3, 2)]
        for a, b in zip(short, long):
            np.testing.assert_allclose(a, b[:, :1], rtol=0, atol=1e-15)
