import dataclasses
import functools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from oqlab import photonsim, qcore
from oqlab.contexts import SETUPS, context_table, sequential_probs, single_probs
from oqlab.correlation import _merge, _StartStopAccumulator, g2_zero, start_stop_histogram
from oqlab.photonsim import (
    NS_PER_S,
    ClickStream,
    CountTable,
    DetectorModel,
    HeraldedSPDC,
    SingleEmitter,
    WeakCoherent,
    _categories,
    _click_rate_bound_hz,
    _draw_misalignment,
    _poisson_times,
    _renewal_times,
    _weakfield_counts,
    _with_darks_and_jitter,
    _write_csv,
    and_gate,
    count_tables_from_csv,
    count_tables_to_csv,
    dark_click_prob,
    detection_probs,
    expected_counts,
    expected_dark_counts,
    generate_click_streams,
    simulate_counts,
    weakfield_run,
)

from helpers import random_density_matrix


class TestDetectorModel:
    def test_bench_defaults(self):
        det = DetectorModel()
        assert det.efficiency == (1.0, 1.0, 1.0, 1.0)
        assert det.dark_rate_hz == 1.0e3
        assert det.pbs_reflect_leak == 0.05
        assert det.pbs_transmit_leak == 0.001
        assert det.waveplate_angle_error_deg == 0.5
        assert det.coincidence_window_ns == 5.5
        assert det.timing_jitter_ns == 0.61

    def test_ideal_is_noise_free(self):
        det = DetectorModel.ideal()
        assert det.dark_rate_hz == 0.0
        assert det.pbs_reflect_leak == 0.0
        assert det.pbs_transmit_leak == 0.0
        assert det.waveplate_angle_error_deg == 0.0
        assert det.timing_jitter_ns == 0.0

    def test_ideal_accepts_overrides(self):
        det = DetectorModel.ideal(dark_rate_hz=50.0)
        assert det.dark_rate_hz == 50.0
        assert det.pbs_reflect_leak == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"efficiency": (1.0, 1.0, 1.0)},
            {"efficiency": (1.0, 0.0, 1.0, 1.0)},
            {"efficiency": (1.0, 1.1, 1.0, 1.0)},
            {"dark_rate_hz": -1.0},
            {"pbs_reflect_leak": 0.5},
            {"pbs_transmit_leak": -0.01},
            {"coincidence_window_ns": 0.0},
            {"pulse_window_ns": -1.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            DetectorModel(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(DetectorModel)])
    def test_rejects_non_finite_parameters(self, field, value):
        arg = (1.0, value, 1.0, 1.0) if field == "efficiency" else value
        with pytest.raises(ValueError, match=field):
            DetectorModel(**{field: arg})


def _da_probs_rotated(rho, basis_rot):
    """Born probabilities in a D/A basis rotated by basis_rot radians."""
    c = np.cos(np.pi / 4 + basis_rot)
    s = np.sin(np.pi / 4 + basis_rot)
    ket_d = np.array([c, s], dtype=complex)
    ket_a = np.array([-s, c], dtype=complex)
    pd = (ket_d.conj() @ rho @ ket_d).real
    pa = (ket_a.conj() @ rho @ ket_a).real
    return np.clip(np.array([pd, pa]), 0.0, None)


def per_arm_detection_probs(rho, setup, det, misalignment=None):
    """Reference for detection_probs that follows the photon arm by arm.

    Rotates the state, collapses it at the first splitter, leaks it
    between arms and outcomes, and measures each arm in its own rotated
    basis, looping over arms and outcomes.
    """
    rho = qcore.validate_state(rho)
    n1, n2 = setup
    prep_rot, arm_rots = misalignment if misalignment is not None else (0.0, (0.0, 0.0))
    if prep_rot != 0.0:
        rho = qcore.rotate_polarization(rho, prep_rot)

    fr, ft = det.pbs_reflect_leak, det.pbs_transmit_leak
    flip = np.array([[1.0 - fr, fr], [ft, 1.0 - ft]])

    if n1 == 1:
        p1 = np.clip(np.diag(rho).real, 0.0, None)
        arm_pols = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
        weights = p1[:, None] * flip
    else:
        arm_pols = (rho,)
        weights = np.array([[1.0, 0.0]])

    probs = np.zeros((2, 2))
    if n2 == 1:
        for pol, warm in zip(arm_pols, weights):
            for arm in (0, 1):
                if warm[arm] == 0.0:
                    continue
                pda = _da_probs_rotated(pol, arm_rots[arm])
                probs[arm, :] += warm[arm] * (pda @ flip)
    else:
        probs[:, 0] = weights.sum(axis=0)

    probs *= np.asarray(det.efficiency).reshape(2, 2)
    lost = max(0.0, 1.0 - probs.sum())
    return probs, lost


REFERENCE_CASE_DETECTORS = {
    "bench": DetectorModel(),
    # leaks, efficiencies and plate errors far above the bench values, so
    # every term of the model moves the probabilities visibly
    "skewed": DetectorModel(efficiency=(0.55, 0.85, 1.0, 1.0), pbs_reflect_leak=0.3,
                            pbs_transmit_leak=0.2, waveplate_angle_error_deg=20.0),
}


class TestDetectionProbsReference:
    """The effective-operator detection_probs against the per-arm loop."""

    @pytest.mark.parametrize("det_name", sorted(REFERENCE_CASE_DETECTORS))
    @pytest.mark.parametrize("setup", SETUPS)
    def test_matches_per_arm_reference(self, setup, det_name):
        det = REFERENCE_CASE_DETECTORS[det_name]
        rng = np.random.default_rng(sum(setup) + 10 * setup[0] + len(det_name))
        rhos = np.stack([random_density_matrix(rng) for _ in range(200)])
        draws = [_draw_misalignment(det, rng) for _ in range(200)]
        ref = [per_arm_detection_probs(rho, setup, det, mis) for rho, mis in zip(rhos, draws)]
        ref_probs = np.stack([p for p, _ in ref])
        ref_lost = np.array([lost for _, lost in ref])

        single = [detection_probs(rho, setup, det, mis) for rho, mis in zip(rhos, draws)]
        np.testing.assert_allclose(np.stack([p for p, _ in single]), ref_probs, rtol=0, atol=1e-15)
        np.testing.assert_allclose([lost for _, lost in single], ref_lost, rtol=0, atol=1e-15)

        prep = np.array([mis[0] for mis in draws])
        arms = np.array([mis[1] for mis in draws])
        probs, lost = detection_probs(rhos, setup, det, (prep, arms))
        assert probs.shape == (200, 2, 2) and lost.shape == (200,)
        np.testing.assert_allclose(probs, ref_probs, rtol=0, atol=1e-15)
        np.testing.assert_allclose(lost, ref_lost, rtol=0, atol=1e-15)

    def test_aligned_stack_broadcasts_one_state_per_row(self):
        rng = np.random.default_rng(3)
        rhos = np.stack([random_density_matrix(rng) for _ in range(6)]).reshape(2, 3, 2, 2)
        probs, lost = detection_probs(rhos, (1, 1), DetectorModel())
        assert probs.shape == (2, 3, 2, 2) and lost.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            ref, ref_lost = per_arm_detection_probs(rhos[idx], (1, 1), DetectorModel())
            np.testing.assert_allclose(probs[idx], ref, rtol=0, atol=1e-15)
            assert lost[idx] == pytest.approx(ref_lost, abs=1e-15)

    def test_stack_rejects_an_unphysical_state_by_name(self):
        rhos = np.stack([qcore.make_pure_state(0.3), np.diag([1.5, -0.5]).astype(complex)])
        with pytest.raises(ValueError, match="positive semidefinite"):
            detection_probs(rhos, (1, 1), DetectorModel())


class TestDetectionProbs:
    def test_ideal_matches_exact_contexts(self):
        rng = np.random.default_rng(7)
        det = DetectorModel.ideal()
        for _ in range(20):
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            rho = qcore.make_pure_state(theta, phi)
            table = context_table(rho)

            probs, lost = detection_probs(rho, (1, 1), det)
            np.testing.assert_allclose(probs, sequential_probs(rho), atol=1e-12)
            assert lost < 1e-12

            probs, _ = detection_probs(rho, (1, 0), det)
            np.testing.assert_allclose(probs[:, 0], table.p_t1, atol=1e-12)
            np.testing.assert_allclose(probs[:, 1], 0.0, atol=1e-12)

            probs, _ = detection_probs(rho, (0, 1), det)
            np.testing.assert_allclose(probs[0, :], single_probs(rho, "DA"), atol=1e-12)
            np.testing.assert_allclose(probs[1, :], 0.0, atol=1e-12)

            probs, _ = detection_probs(rho, (0, 0), det)
            np.testing.assert_allclose(probs, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_reflect_leak_moves_h_photons_to_wrong_arm(self):
        rho = qcore.make_pure_state(0.0)
        wrong = []
        for leak in (0.0, 0.02, 0.05, 0.2):
            det = DetectorModel.ideal(pbs_reflect_leak=leak)
            probs, _ = detection_probs(rho, (1, 0), det)
            wrong.append(probs[1, 0])
            assert probs[1, 0] == pytest.approx(leak, abs=1e-12)
        assert all(b > a for a, b in zip(wrong, wrong[1:]))

    def test_transmit_leak_moves_v_photons_to_wrong_arm(self):
        rho = qcore.make_pure_state(np.pi)
        det = DetectorModel.ideal(pbs_transmit_leak=0.03)
        probs, _ = detection_probs(rho, (1, 0), det)
        assert probs[0, 0] == pytest.approx(0.03, abs=1e-12)
        assert probs[1, 0] == pytest.approx(0.97, abs=1e-12)

    def test_leaked_photon_keeps_collapsed_polarization(self):
        # an H photon leaked into the reflect arm still projects like H at
        # the analysis stage: it splits 50:50 over D/A there, and the
        # analysis splitter leaks again with the same reflect probability
        rho = qcore.make_pure_state(0.0)
        det = DetectorModel.ideal(pbs_reflect_leak=0.1)
        probs, _ = detection_probs(rho, (1, 1), det)
        assert probs[1, 0] == pytest.approx(0.1 * (0.5 * 0.9), abs=1e-12)
        assert probs[1, 1] == pytest.approx(0.1 * (0.5 * 0.1 + 0.5), abs=1e-12)
        assert probs[1, :].sum() == pytest.approx(0.1, abs=1e-12)

    def test_efficiency_thins_each_detector(self):
        rho = qcore.make_pure_state(np.pi / 2)
        det = DetectorModel.ideal(efficiency=(0.5, 1.0, 0.25, 1.0))
        ref, _ = detection_probs(rho, (1, 1), DetectorModel.ideal())
        probs, lost = detection_probs(rho, (1, 1), det)
        np.testing.assert_allclose(probs, ref * [[0.5, 1.0], [0.25, 1.0]], atol=1e-12)
        assert lost == pytest.approx(1.0 - probs.sum(), abs=1e-12)

    def test_preparation_misalignment_rotates_the_state(self):
        rho = qcore.make_pure_state(np.pi / 3)
        delta = 0.013
        det = DetectorModel.ideal()
        probs, _ = detection_probs(rho, (1, 1), det, misalignment=(delta, (0.0, 0.0)))
        expected = sequential_probs(qcore.rotate_polarization(rho, delta))
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_arm_misalignment_rotates_that_basis_only(self):
        rho = qcore.make_pure_state(np.pi / 3)
        alpha = 0.021
        det = DetectorModel.ideal()
        probs, _ = detection_probs(rho, (0, 1), det, misalignment=(0.0, (alpha, 0.0)))
        ket_d = np.array([np.cos(np.pi / 4 + alpha), np.sin(np.pi / 4 + alpha)])
        pd = ket_d @ rho.real @ ket_d
        assert probs[0, 0] == pytest.approx(pd, abs=1e-12)
        assert probs[0, 1] == pytest.approx(1.0 - pd, abs=1e-12)


class TestSimulateCounts:
    def test_deterministic_for_fixed_seed(self):
        rho = qcore.make_pure_state(np.pi / 4)
        a = simulate_counts(rho, (1, 1), 10_000, seed=5)
        b = simulate_counts(rho, (1, 1), 10_000, seed=5)
        c = simulate_counts(rho, (1, 1), 10_000, seed=6)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_ideal_run_tracks_exact_probabilities(self):
        rho = qcore.make_pure_state(np.pi / 4)
        det = DetectorModel.ideal()
        n = 100_000
        table = simulate_counts(rho, (1, 1), n, det=det, seed=11)
        probs, _ = detection_probs(rho, (1, 1), det)
        assert table.total == n
        sigma = np.sqrt(n * probs * (1 - probs))
        assert np.all(np.abs(table.counts - n * probs) <= 4 * sigma + 1)

    def test_h_photons_never_reach_reflect_arm_when_ideal(self):
        table = simulate_counts(qcore.make_pure_state(0.0), (1, 1), 50_000,
                                det=DetectorModel.ideal(), seed=3)
        assert table.counts[1, 0] == 0
        assert table.counts[1, 1] == 0

    def test_dark_counts_accumulate_over_integration_window(self):
        det = DetectorModel.ideal(dark_rate_hz=1.0e6, integration_time_s=1.0e-3)
        table = simulate_counts(qcore.make_pure_state(0.0), (0, 0), 100, det=det, seed=9)
        strays = table.total - 100
        # four detectors at mean 1000 darks each
        assert 3600 <= strays <= 4400

    def test_monte_carlo_error_scales_as_inverse_sqrt(self):
        rho = qcore.make_pure_state(np.pi / 4)
        det = DetectorModel.ideal()
        probs, _ = detection_probs(rho, (1, 1), det)
        sizes = np.array([1_000, 10_000, 100_000])
        errors = []
        for n in sizes:
            devs = []
            for rep in range(20):
                table = simulate_counts(rho, (1, 1), int(n), det=det, seed=1000 + rep)
                devs.append(np.abs(table.counts / table.total - probs).mean())
            errors.append(np.mean(devs))
        slope = np.polyfit(np.log10(sizes), np.log10(errors), 1)[0]
        assert -0.6 <= slope <= -0.4

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError, match="n_photons"):
            simulate_counts(qcore.make_pure_state(0.0), (1, 1), 0)

    @pytest.mark.parametrize("n", [0, -1, 2**63, 10**30])
    def test_rejects_photon_count_out_of_range(self, n):
        message = f"n_photons must lie in [1, 2**63), got {n}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_counts(qcore.make_pure_state(0.0), (1, 1), n)

    @pytest.mark.parametrize("n", [2.9, 10.0, np.float64(100.0), "10", None])
    def test_rejects_photon_count_that_is_not_an_integer(self, n):
        # a fraction was once truncated: 2.9 photons drew 2
        with pytest.raises(ValueError) as exc:
            simulate_counts(qcore.make_pure_state(0.0), (1, 1), n)
        assert str(exc.value) == f"n_photons must be an integer, got {n!r}"

    @pytest.mark.parametrize("n", [np.int64(100), np.uint16(100), np.int8(100)])
    def test_takes_photon_counts_of_any_integer_type(self, n):
        rho = qcore.make_pure_state(0.4)
        expected = simulate_counts(rho, (1, 1), 100, seed=3)
        table = simulate_counts(rho, (1, 1), n, seed=3)
        np.testing.assert_array_equal(table.counts, expected.counts)

    def test_rejects_counts_past_int64_instead_of_wrapping(self):
        # both values at the detector's caps: a dark mean of 1e18 per detector
        det = DetectorModel(dark_rate_hz=1e12, integration_time_s=1e6)
        rho = qcore.make_pure_state(np.pi / 4)
        with pytest.raises(ValueError, match=re.escape("setup (1, 1): counts reach 2**63")):
            simulate_counts(rho, (1, 1), 2**63 - 1, det)
        # far below the limit the same detector still counts
        table = simulate_counts(rho, (1, 1), 10**6, det, seed=2)
        assert table.total == sum(table.counts.ravel().tolist()) > 4 * 10**18 - 10**10

    @pytest.mark.parametrize(
        "n,seed,rho,setup,message",
        [
            (0, -1, np.eye(2), (2, 0), "n_photons must lie in [1, 2**63), got 0"),
            (10, -1, np.eye(2), (2, 0), "expected non-negative integer"),
            (10, 1, np.eye(2), (2, 0), "density matrix"),
            (10, 1, np.eye(2) / 2, (2, 0), "setup must be one of"),
            (10, 1, np.eye(2) / 2, "ab", "got 'ab'"),
        ],
        ids=["photons", "seed", "state", "setup", "setup-text"],
    )
    def test_refuses_photons_then_seed_then_state_then_setup(self, n, seed, rho, setup, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_counts(rho, setup, n, seed=seed)

    def test_refuses_a_stack_of_states(self):
        # a stack once passed, its runs' probabilities drawn as one table
        rho = qcore.make_pure_state(0.3)
        with pytest.raises(ValueError, match=re.escape("density matrix must be 2x2")):
            simulate_counts(np.stack([rho, rho]), (1, 1), 100)


class TestCountingRuns:
    @pytest.mark.parametrize("det", [DetectorModel.ideal(), DetectorModel()], ids=["ideal", "bench"])
    def test_each_run_is_its_one_run_draw(self, det):
        # the batch against the one-run case, run for run, any setup order
        rho = qcore.make_pure_state(0.7, 0.3)
        setups = [(1, 1), (0, 0), (1, 1), (0, 1), (1, 0)]
        seeds = [5, 2**40, np.random.SeedSequence(3, spawn_key=(1,)), 0, 9]
        tables = photonsim._counting_runs(rho, setups, 20_000, det, seeds)
        for table, setup, seed in zip(tables, setups, seeds):
            alone = photonsim._counting_runs(rho, [setup], 20_000, det, [seed])[0]
            assert table.setup == alone.setup == setup
            assert table.counts.tobytes() == alone.counts.tobytes()
            assert type(table.total) is int and table.total == alone.total

    def test_refuses_at_the_first_setup_that_is_not_one(self):
        rho = qcore.make_pure_state(0.3)
        with pytest.raises(ValueError, match=re.escape("got (1, 2)")):
            photonsim._counting_runs(rho, [(1, 1), (1, 2), (3, 0)], 100, None, [1, 2, 3])

    def test_refuses_at_the_first_run_past_int64(self):
        det = DetectorModel(dark_rate_hz=1e12, integration_time_s=1e6)
        rho = qcore.make_pure_state(0.3)
        with pytest.raises(ValueError, match=re.escape("setup (0, 1): counts reach 2**63")):
            photonsim._counting_runs(rho, [(0, 1), (1, 1)], 2**63 - 1, det, [1, 2])


def literal_misalignment(det, rng):
    """The plate offsets as two Generator.uniform calls, the way they were
    first written: the reference _draw_misalignment must match bit for bit."""
    err = math.radians(det.waveplate_angle_error_deg)
    prep = rng.uniform(-2 * err, 2 * err)
    arms = 2.0 * rng.uniform(-err, err, size=2)
    return prep, (arms[0], arms[1])


class TestDrawMisalignment:
    @pytest.mark.parametrize("det", [
        DetectorModel(),
        DetectorModel.ideal(),
        DetectorModel(waveplate_angle_error_deg=3.0),
    ], ids=["bench", "ideal", "3deg"])
    def test_matches_two_uniform_calls_bit_for_bit(self, det):
        for seed in range(1000):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            prep, arms = _draw_misalignment(det, rng)
            ref_prep, ref_arms = literal_misalignment(det, ref)
            got = np.array([prep, *arms])
            want = np.array([ref_prep, *ref_arms])
            # equal bits, so -0.0 and 0.0 are told apart
            assert got.tobytes() == want.tobytes(), seed
            # the generator is left where the two calls leave it
            assert rng.random() == ref.random()

    def test_ideal_offsets_are_positive_zero(self):
        for seed in range(1000):
            prep, arms = _draw_misalignment(DetectorModel.ideal(), np.random.default_rng(seed))
            assert all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in (prep, *arms))


# the scales of the timing chain: a 0.05 s g2 chunk, the emitter's mean
# exponential wait and dead time, and the bench detector's jitter
CHUNK_NS = 0.05 * NS_PER_S
MEAN_WAIT_NS = NS_PER_S / SingleEmitter().excitation_rate_hz
DEAD_NS = SingleEmitter().excited_lifetime_ns
JITTER_NS = DetectorModel().timing_jitter_ns
DRAW_SIZES = [0, 1, 7, 19_000, 120_000]


def _generator_pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def assert_same_draws(got, want, rng, ref):
    """Equal bits (so -0.0 and 0.0 are told apart), and both generators left
    in the same state."""
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


class TestBulkDrawIdentities:
    """The timing chain draws through numpy's bulk fills (random,
    standard_exponential, standard_normal) scaled in place. Each must repeat
    the Generator.uniform, exponential or normal call it stands for bit for
    bit, and leave the generator where that call leaves it."""

    @pytest.mark.parametrize("size", DRAW_SIZES)
    @pytest.mark.parametrize("seed", range(5))
    def test_random_scaled_is_uniform(self, seed, size):
        rng, ref = _generator_pair(seed)
        got = rng.random(size)
        got *= CHUNK_NS
        assert_same_draws(got, ref.uniform(0.0, CHUNK_NS, size), rng, ref)

    @pytest.mark.parametrize("size", DRAW_SIZES)
    @pytest.mark.parametrize("seed", range(5))
    def test_standard_exponential_scaled_is_exponential(self, seed, size):
        rng, ref = _generator_pair(seed)
        got = rng.standard_exponential(size)
        got *= MEAN_WAIT_NS
        assert_same_draws(got, ref.exponential(MEAN_WAIT_NS, size), rng, ref)

    @pytest.mark.parametrize("size", DRAW_SIZES)
    @pytest.mark.parametrize("seed", range(5))
    def test_dead_time_added_in_place_is_dead_time_plus_exponential(self, seed, size):
        rng, ref = _generator_pair(seed)
        got = rng.standard_exponential(size)
        got *= MEAN_WAIT_NS
        got += DEAD_NS
        assert_same_draws(got, DEAD_NS + ref.exponential(MEAN_WAIT_NS, size), rng, ref)

    @pytest.mark.parametrize("size", DRAW_SIZES)
    @pytest.mark.parametrize("seed", range(5))
    def test_standard_normal_scaled_is_normal_jitter(self, seed, size):
        times = np.sort(np.random.default_rng(100 + seed).random(size) * CHUNK_NS)
        rng, ref = _generator_pair(seed)
        got = rng.standard_normal(size)
        got *= JITTER_NS
        got += times
        assert_same_draws(got, times + ref.normal(0.0, JITTER_NS, size), rng, ref)


def literal_poisson_times(rate_hz, duration_ns, rng):
    """_poisson_times through Generator.uniform, the way it was first written."""
    return np.sort(rng.uniform(0.0, duration_ns, rng.poisson(rate_hz * duration_ns / NS_PER_S)))


def literal_renewal_times(dead_ns, rate_hz, duration_ns, rng):
    """_renewal_times through Generator.exponential, the way it was first written."""
    mean_exp_ns = NS_PER_S / rate_hz
    expect = duration_ns / (dead_ns + mean_exp_ns)
    times = np.cumsum(dead_ns + rng.exponential(mean_exp_ns, size=int(expect * 1.2 + 100)))
    while times.size and times[-1] < duration_ns:
        more = dead_ns + rng.exponential(mean_exp_ns, size=int(expect * 0.2 + 100))
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[:np.searchsorted(times, duration_ns)]


def literal_darks_and_jitter(times, det, duration_ns, rng):
    """_with_darks_and_jitter through Generator.normal and uniform, the way
    it was first written."""
    if det.timing_jitter_ns > 0.0 and times.size:
        times = times + rng.normal(0.0, det.timing_jitter_ns, times.size)
    n_dark = rng.poisson(det.dark_rate_hz * duration_ns / NS_PER_S)
    if n_dark:
        times = np.concatenate([times, rng.uniform(0.0, duration_ns, n_dark)])
    return np.sort(times, kind="stable")


class TestTimingDrawsKeepTheirBits:
    """The timing chain's draw helpers against their first, literal forms."""

    @pytest.mark.parametrize("rate_hz,duration_ns", [
        (3.8e5, CHUNK_NS), (1.0e3, CHUNK_NS), (1.0e3, 1.0), (0.0, CHUNK_NS)])
    def test_poisson_times(self, rate_hz, duration_ns):
        for seed in range(5):
            rng, ref = _generator_pair(seed)
            assert_same_draws(_poisson_times(rate_hz, duration_ns, rng),
                              literal_poisson_times(rate_hz, duration_ns, ref), rng, ref)

    @pytest.mark.parametrize("dead_ns,rate_hz,duration_ns", [
        (DEAD_NS, 2.0e6, CHUNK_NS), (0.0, 2.0e6, 1.0e5), (5.5, 2.0e5, CHUNK_NS),
        (DEAD_NS, 2.0e6, 1.0)])
    def test_renewal_times(self, dead_ns, rate_hz, duration_ns):
        for seed in range(5):
            rng, ref = _generator_pair(seed)
            assert_same_draws(_renewal_times(dead_ns, rate_hz, duration_ns, rng),
                              literal_renewal_times(dead_ns, rate_hz, duration_ns, ref), rng, ref)

    def test_renewal_times_top_up(self):
        # a real first draw always reaches the duration; with every wait
        # half its mean it falls short, and the top-up draws run
        class HalfWaits:
            def standard_exponential(self, n):
                return np.full(n, 0.5)

            def exponential(self, scale, size):
                return np.full(size, 0.5 * scale)

        duration_ns = 1000 * (DEAD_NS + MEAN_WAIT_NS)
        got = _renewal_times(DEAD_NS, 2.0e6, duration_ns, HalfWaits())
        want = literal_renewal_times(DEAD_NS, 2.0e6, duration_ns, HalfWaits())
        assert got.tobytes() == want.tobytes()
        # more than the 1,300 waits of the first draw
        assert got.size > 1300

    @pytest.mark.parametrize("det", [
        DetectorModel(), DetectorModel.ideal(), DetectorModel(timing_jitter_ns=5.0, dark_rate_hz=1e6)],
        ids=["bench", "ideal", "jitter-5-dark-1e6"])
    @pytest.mark.parametrize("size", [0, 7, 19_000])
    def test_darks_and_jitter(self, det, size):
        for seed in range(5):
            times = np.sort(np.random.default_rng(100 + seed).random(size) * CHUNK_NS)
            rng, ref = _generator_pair(seed)
            assert_same_draws(_with_darks_and_jitter(times, det, CHUNK_NS, rng),
                              literal_darks_and_jitter(times, det, CHUNK_NS, ref), rng, ref)


class TestExpectedCounts:
    DET = DetectorModel(efficiency=(0.9, 0.8, 1.0, 0.7), dark_rate_hz=2.0e3)
    MIS = (0.004, (-0.003, 0.002))

    @pytest.mark.parametrize("setup", SETUPS)
    def test_one_state_is_n_probs_plus_dark_mean(self, setup):
        rho = qcore.state_from_bloch(0.3, -0.4, 0.5)
        n = 12_345
        probs, _ = detection_probs(rho, setup, self.DET, self.MIS)
        # 2e3 Hz over the default 1e-3 s window
        expected = n * probs + 2.0
        got = expected_counts(rho, setup, self.DET, n, self.MIS)
        assert got.shape == (2, 2)
        np.testing.assert_array_equal(got, expected)

    def test_stack_matches_each_state(self):
        rng = np.random.default_rng(4)
        rho = np.stack([random_density_matrix(rng) for _ in range(6)]).reshape(2, 3, 2, 2)
        got = expected_counts(rho, (1, 1), self.DET, 1000.0)
        assert got.shape == (2, 3, 2, 2)
        for idx in np.ndindex(2, 3):
            probs, _ = detection_probs(rho[idx], (1, 1), self.DET)
            np.testing.assert_allclose(got[idx], 1000.0 * probs + 2.0, rtol=1e-15, atol=0)

    def test_ideal_detector_has_no_dark_floor(self):
        rho = qcore.make_pure_state(0.0)
        got = expected_counts(rho, (1, 1), DetectorModel.ideal(), 100)
        np.testing.assert_allclose(got, [[50.0, 50.0], [0.0, 0.0]], atol=1e-12)

    @pytest.mark.parametrize("n", [-1, math.nan, math.inf])
    def test_rejects_bad_photon_number(self, n):
        with pytest.raises(ValueError, match="n must be finite and nonnegative"):
            expected_counts(qcore.make_pure_state(0.0), (1, 1), DetectorModel(), n)


def _counting_sampler(probs_of):
    """simulate_counts with its probabilities taken from probs_of.

    Draws the misalignment first and the darks last, as simulate_counts
    does, so a faithful probs_of reproduces it draw for draw.
    """

    def sample(rho, setup, n_photons, det, seed):
        rng = np.random.default_rng(seed)
        mis = _draw_misalignment(det, rng)
        probs = probs_of(rho, setup, det, mis).ravel()
        pvals = np.append(probs, max(0.0, 1.0 - probs.sum()))
        counts = rng.multinomial(n_photons, pvals / pvals.sum())[:4]
        dark_mean = det.dark_rate_hz * det.integration_time_s
        if dark_mean > 0.0:
            counts = counts + rng.poisson(dark_mean, size=4)
        return CountTable(setup=setup, counts=counts.reshape(2, 2), total=int(counts.sum()))

    return sample


WRONG_COUNTING_SAMPLERS = {
    "leak ignored": _counting_sampler(lambda rho, setup, det, mis: detection_probs(
        rho, setup, dataclasses.replace(det, pbs_reflect_leak=0.0, pbs_transmit_leak=0.0), mis)[0]),
    "efficiency ignored": _counting_sampler(lambda rho, setup, det, mis: detection_probs(
        rho, setup, dataclasses.replace(det, efficiency=(1.0, 1.0, 1.0, 1.0)), mis)[0]),
    "misalignment ignored": _counting_sampler(
        lambda rho, setup, det, mis: detection_probs(rho, setup, det)[0]),
    "D00 and D01 swapped": _counting_sampler(
        lambda rho, setup, det, mis: detection_probs(rho, setup, det, mis)[0].ravel()[[1, 0, 2, 3]]
    ),
}

EXACT_MEAN_DETECTORS = {
    "ideal": DetectorModel.ideal(),
    "bench": DetectorModel(),
    "bench-efficiency": DetectorModel(efficiency=(0.55, 0.85, 1.0, 1.0)),
}
EXACT_MEAN_PHOTONS = 1_000_000


def _exact_mean_failures(sampler):
    """Cases (detector, setup) where a cell lies beyond 5 sigma of its exact mean.

    The mean of cell k is n p_k + dark_mean, with p_k from detection_probs
    at the misalignment the run's seed draws; the variance is the
    multinomial n p_k (1 - p_k) plus the Poisson dark_mean.
    """
    rho = qcore.state_from_bloch(0.5, 0.2, 0.6)
    n = EXACT_MEAN_PHOTONS
    failed = []
    for det_name, det in EXACT_MEAN_DETECTORS.items():
        for i, setup in enumerate(SETUPS):
            seed = 100 + i
            mis = _draw_misalignment(det, np.random.default_rng(seed))
            p, _ = detection_probs(rho, setup, det, mis)
            dark_mean = det.dark_rate_hz * det.integration_time_s
            sigma = np.sqrt(n * p * (1.0 - p) + dark_mean)
            counts = sampler(rho, setup, n, det, seed).counts
            mean = expected_counts(rho, setup, det, n, mis)
            if np.any(np.abs(counts - mean) > 5.0 * sigma):
                failed.append((det_name, setup))
    return failed


class TestExactMeans:
    """simulate_counts against the exact multinomial mean of every cell."""

    def test_every_cell_within_five_sigma(self):
        assert _exact_mean_failures(simulate_counts) == []

    def test_faithful_reimplementation_draws_the_same_tables(self):
        sampler = _counting_sampler(
            lambda rho, setup, det, mis: detection_probs(rho, setup, det, mis)[0]
        )
        rho = qcore.state_from_bloch(0.5, 0.2, 0.6)
        for setup in SETUPS:
            a = sampler(rho, setup, 1000, DetectorModel(), 5)
            b = simulate_counts(rho, setup, 1000, DetectorModel(), 5)
            np.testing.assert_array_equal(a.counts, b.counts)

    @pytest.mark.parametrize(
        "name,expected",
        [
            # the leaks act in every setup with a splitter in, on both
            # nonideal detectors
            ("leak ignored", [(d, s) for d in ("bench", "bench-efficiency") for s in SETUPS[1:]]),
            ("efficiency ignored", [("bench-efficiency", s) for s in SETUPS]),
            # the plate offsets turn nothing when both splitters are out, and
            # the ideal detector has none; elsewhere these seeds' offsets
            # are large enough to show (over 20 other seed sets, 4 to 6 of
            # the 6 cases failed)
            ("misalignment ignored",
             [(d, s) for d in ("bench", "bench-efficiency") for s in SETUPS[1:]]),
            # after the H/V collapse of setup (1, 1) the H arm splits evenly
            # over D/A, so D00 and D01 share one mean there unless leaks or
            # efficiencies tell them apart
            ("D00 and D01 swapped",
             [(d, s) for d in EXACT_MEAN_DETECTORS for s in SETUPS if (d, s) != ("ideal", (1, 1))]),
        ],
    )
    def test_wrong_samplers_fail_where_their_fault_shows(self, name, expected):
        assert _exact_mean_failures(WRONG_COUNTING_SAMPLERS[name]) == expected


def per_pulse_weakfield_run(theta, phi, src, setup, n_pulses, det, seed):
    """Reference for weakfield_run that simulates every pulse.

    Same model and the same first draw from the seed (the misalignment);
    time and memory grow with n_pulses.
    """
    rng = np.random.default_rng(seed)
    mis = _draw_misalignment(det, rng)
    probs, lost = detection_probs(qcore.make_pure_state(theta, phi), setup, det, mis)
    pvals = np.append(probs.ravel(), lost)
    pvals /= pvals.sum()

    photon_count = rng.poisson(src.mean_photons_per_pulse, n_pulses)
    clicks = np.zeros((n_pulses, 4), dtype=bool)

    single = np.flatnonzero(photon_count == 1)
    if single.size:
        dest = rng.choice(5, size=single.size, p=pvals)
        hit = dest < 4
        clicks[single[hit], dest[hit]] = True

    multi = np.flatnonzero(photon_count >= 2)
    if multi.size:
        per_det = rng.multinomial(photon_count[multi], pvals)
        clicks[multi] = per_det[:, :4] > 0

    p_dark = dark_click_prob(det)
    if p_dark > 0.0:
        clicks |= rng.random((n_pulses, 4)) < p_dark

    keep = clicks.sum(axis=1) == 1
    fired = np.argmax(clicks[keep], axis=1)
    counts = np.bincount(fired, minlength=4).reshape(2, 2)
    return CountTable(setup=setup, counts=counts, total=int(keep.sum()))


REFERENCE_DETECTORS = {
    "ideal": DetectorModel.ideal(),
    "bench": DetectorModel(),
    "high-dark": DetectorModel(dark_rate_hz=2.0e5),
}


class TestWeakFieldRun:
    @pytest.mark.parametrize("det_name", sorted(REFERENCE_DETECTORS))
    @pytest.mark.parametrize("setup", [(1, 1), (0, 1), (0, 0)])
    @pytest.mark.parametrize("mean", [0.006, 0.1, 5.0])
    def test_matches_per_pulse_reference(self, mean, setup, det_name):
        det = REFERENCE_DETECTORS[det_name]
        src = WeakCoherent(mean_photons_per_pulse=mean)
        n = 200_000
        cells = []
        for sampler in (weakfield_run, per_pulse_weakfield_run):
            # the same seed on both sides gives the same misalignment draw
            table = sampler(np.pi / 3, 0.2, src, setup, n, det=det, seed=17)
            cells.append(np.append(table.counts.ravel(), n - table.total))
        pooled = (cells[0] + cells[1]) / (2 * n)
        sigma = np.sqrt(2 * n * pooled * (1 - pooled))
        assert np.all(np.abs(cells[0] - cells[1]) <= 5 * sigma)

    @pytest.mark.parametrize("setup", SETUPS)
    def test_stack_matches_one_run_at_a_time(self, setup):
        det = DetectorModel(dark_rate_hz=2.0e5)
        thetas = np.linspace(0.0, np.pi, 7)
        means = np.array([0.001, 0.006, 0.1, 0.5, 2.0, 0.05, 0.3])
        seeds = np.random.SeedSequence(8).spawn(7)
        rho = np.stack([qcore.make_pure_state(t, 0.4) for t in thetas])
        stacked = _weakfield_counts(rho, means, setup, 300_000, det, seeds)
        for i in range(7):
            one = weakfield_run(thetas[i], 0.4, WeakCoherent(means[i]), setup, 300_000, det=det,
                                seed=seeds[i])
            np.testing.assert_array_equal(stacked[i], one.counts.ravel())

    def test_certain_dark_clicks_keep_no_pulse(self):
        det = DetectorModel.ideal(dark_rate_hz=1.0e12)
        assert dark_click_prob(det) == 1.0
        for sampler in (weakfield_run, per_pulse_weakfield_run):
            table = sampler(np.pi / 4, 0.0, WeakCoherent(), (1, 1), 10_000, det=det, seed=3)
            assert table.total == 0
            assert not np.any(table.counts)

    def test_expected_dark_counts_never_exceed_the_pulses(self):
        det = DetectorModel.ideal(dark_rate_hz=1.0e12)
        # n * 1.0 rounds to the float 2**63, one past the largest int64
        assert round(float(2**63 - 1)) == 2**63
        np.testing.assert_array_equal(expected_dark_counts(det, 2**63 - 1), [2**63 - 1] * 4)
        np.testing.assert_array_equal(expected_dark_counts(det, 10), [10] * 4)
        bench = DetectorModel()
        assert expected_dark_counts(bench, 10**6).tolist() == [round(10**6 * dark_click_prob(bench))] * 4

    def test_cost_does_not_grow_with_pulses(self):
        n = 10**9
        # a first call pays one-off lazy imports; time the steady state
        weakfield_run(np.pi / 4, 0.0, WeakCoherent(), (1, 1), 1, seed=6)
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            table = weakfield_run(np.pi / 4, 0.0, WeakCoherent(), (1, 1), n, seed=6)
            elapsed = time.perf_counter() - t0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1
        assert peak < 100_000
        assert 0 < table.total < n

    def test_deterministic_for_fixed_seed(self):
        src = WeakCoherent()
        a = weakfield_run(np.pi / 4, 0.0, src, (1, 1), 50_000, seed=2)
        b = weakfield_run(np.pi / 4, 0.0, src, (1, 1), 50_000, seed=2)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert a.total == b.total

    def test_small_mean_reproduces_single_photon_statistics(self):
        det = DetectorModel.ideal()
        src = WeakCoherent(mean_photons_per_pulse=6.0e-3)
        table = weakfield_run(np.pi / 4, 0.0, src, (1, 1), 4_000_000, det=det, seed=21)
        probs, _ = detection_probs(qcore.make_pure_state(np.pi / 4), (1, 1), det)
        freq = table.counts / table.total
        # total variation distance against the exact single-photon cells
        assert 0.5 * np.abs(freq - probs).sum() < 0.02
        assert 0 < table.total < 4_000_000

    def test_post_selection_keeps_single_click_pulses_only(self):
        # with a large mean most pulses have several clicks and are dropped
        det = DetectorModel.ideal()
        busy = weakfield_run(np.pi / 4, 0.0, WeakCoherent(mean_photons_per_pulse=5.0),
                             (1, 1), 20_000, det=det, seed=4)
        assert busy.total < 20_000 * 0.35

    def test_dark_clicks_land_in_empty_cells(self):
        det = DetectorModel.ideal(dark_rate_hz=1.0e3)
        src = WeakCoherent(mean_photons_per_pulse=6.0e-3)
        n = 400_000
        table = weakfield_run(0.0, 0.0, src, (0, 0), n, det=det, seed=31)
        # photons all land on D00; darks alone populate the other cells
        p_dark = dark_click_prob(det)
        expect = n * p_dark
        strays = table.counts[0, 1] + table.counts[1, 0] + table.counts[1, 1]
        assert (expect - 4 * np.sqrt(expect)) * 3 * 0.8 <= strays <= (expect + 4 * np.sqrt(expect)) * 3

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mean_photons_per_pulse", "pulse_rate_hz"])
    def test_rejects_non_finite_source(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and nonnegative"):
            WeakCoherent(**{field: value})

    def test_rejects_wrong_source_type(self):
        with pytest.raises(TypeError, match="WeakCoherent"):
            weakfield_run(0.0, 0.0, SingleEmitter(), (1, 1), 100)

    @pytest.mark.parametrize("n", [0, 2**63])
    def test_rejects_pulse_count_out_of_range(self, n):
        with pytest.raises(ValueError, match="n_pulses"):
            weakfield_run(0.0, 0.0, WeakCoherent(), (1, 1), n)

    @pytest.mark.parametrize("n", [1000.7, 1000.0, "1000"])
    def test_rejects_pulse_count_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError) as exc:
            weakfield_run(0.0, 0.0, WeakCoherent(), (1, 1), n)
        assert str(exc.value) == f"n_pulses must be an integer, got {n!r}"

    def test_expected_dark_counts_helper(self):
        det = DetectorModel(dark_rate_hz=1.0e3, pulse_window_ns=125.0)
        darks = expected_dark_counts(det, 1_000_000)
        assert darks.shape == (4,)
        assert np.all(darks == round(1_000_000 * dark_click_prob(det)))
        assert darks[0] == pytest.approx(125, abs=1)


class TestContainers:
    def test_count_table_validates(self):
        with pytest.raises(ValueError, match="total"):
            CountTable(setup=(1, 1), counts=np.ones((2, 2), dtype=int), total=5)
        with pytest.raises(ValueError, match="nonnegative"):
            CountTable(setup=(1, 1), counts=np.array([[-1, 0], [0, 0]]), total=-1)
        with pytest.raises(ValueError, match="setup"):
            CountTable(setup=(2, 0), counts=np.zeros((2, 2), dtype=int), total=0)

    def test_click_stream_validates(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            ClickStream(np.array([2.0, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            ClickStream(np.array([0.0, np.nan]))
        with pytest.raises(ValueError, match="one-dimensional"):
            ClickStream(np.zeros((2, 2)))


class TestAndGate:
    def test_fires_only_within_window(self):
        a = ClickStream(np.array([0.0, 10.0, 20.0]), detector="a")
        b = ClickStream(np.array([0.4, 15.0, 19.0]), detector="b")
        out = and_gate(a, b, 0.5)
        np.testing.assert_allclose(out.times_ns, [0.4])
        assert out.detector == "a&b"

    def test_output_time_is_later_edge(self):
        a = ClickStream(np.array([5.0]))
        b = ClickStream(np.array([4.2]))
        out = and_gate(a, b, 2.0)
        np.testing.assert_allclose(out.times_ns, [5.0])

    def test_every_fire_has_partners_within_window(self):
        rng = np.random.default_rng(13)
        ta = np.sort(rng.uniform(0, 1e4, 300))
        tb = np.sort(rng.uniform(0, 1e4, 300))
        window = 3.0
        out = and_gate(ClickStream(ta), ClickStream(tb), window)
        for t in out.times_ns:
            da = np.min(np.abs(ta - t))
            db = np.min(np.abs(tb - t))
            assert da <= window and db <= window
            assert min(da, db) < 1e-9

    def test_wider_window_fires_at_least_as_often(self):
        rng = np.random.default_rng(17)
        ta = np.sort(rng.uniform(0, 1e5, 2000))
        tb = np.sort(rng.uniform(0, 1e5, 2000))
        counts = [
            and_gate(ClickStream(ta), ClickStream(tb), w).times_ns.size
            for w in (0.5, 2.0, 8.0, 32.0)
        ]
        assert all(b >= a for a, b in zip(counts, counts[1:]))

    @settings(max_examples=300, deadline=None)
    @given(a=st.lists(st.integers(0, 40), max_size=50),
           b=st.lists(st.integers(0, 40), max_size=50),
           window=st.sampled_from([0.5, 1.0, 2.5, 10.0]), scale=st.sampled_from([1.0, 0.1, 0.25]))
    def test_output_is_the_sorted_reference(self, a, b, window, scale):
        # whole-number grids, scaled, give many ties within and across the
        # streams; each a-click pairs with its nearest b-click, the earlier
        # one on a tie, and fires at the later edge when within the window
        ta = np.sort(np.array(a, dtype=float)) * scale
        tb = np.sort(np.array(b, dtype=float)) * scale
        out = and_gate(ClickStream(ta), ClickStream(tb), window).times_ns
        fires = []
        for t in ta if tb.size else []:
            nearest = tb[np.argmin(np.abs(tb - t))]
            if abs(nearest - t) <= window:
                fires.append(max(t, nearest))
        assert np.all(np.diff(out) >= 0)
        np.testing.assert_array_equal(out, np.sort(np.array(fires, dtype=float)))

    def test_empty_inputs(self):
        empty = ClickStream(np.empty(0))
        full = ClickStream(np.array([1.0, 2.0]))
        assert and_gate(empty, full, 1.0).times_ns.size == 0
        assert and_gate(full, empty, 1.0).times_ns.size == 0

    def test_rejects_bad_window(self):
        for window in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="window_ns"):
                and_gate(ClickStream(np.array([1.0])), ClickStream(np.array([1.0])), window)


# every timing-layer entry point that takes a positive duration or width,
# with the name its message gives
TIMING_PARAMETERS = {
    "and_gate": ("window_ns", lambda v: and_gate(ClickStream(np.array([1.0])),
                                                 ClickStream(np.array([1.0])), v)),
    "generate_click_streams": ("duration_s", lambda v: generate_click_streams(WeakCoherent(), v)),
    "accumulator-bin-width": ("bin_width_ns", lambda v: _StartStopAccumulator(v, 20.0)),
    "accumulator-max-delay": ("max_delay_ns", lambda v: _StartStopAccumulator(0.5, v)),
    "g2_zero": ("window_ns", lambda v: g2_zero(start_stop_histogram(
        ClickStream(np.array([1.0])), ClickStream(np.array([2.0]))), v)),
}


@pytest.mark.parametrize("value", [0.0, -1.0, -0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("site", sorted(TIMING_PARAMETERS))
def test_timing_parameters_share_one_message(site, value):
    name, call = TIMING_PARAMETERS[site]
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value) == f"{name} must be finite and positive, got {value}"


def _thin(times, prob, rng):
    if prob >= 1.0:
        return times
    return times[rng.random(times.size) < prob]


def per_photon_click_streams(src, duration_s, det, seed, shared_branch=False):
    """Reference for generate_click_streams that follows every photon.

    A Poisson or renewal photon (or pair) stream, a fair coin per photon
    for its branch, one efficiency coin per detected photon, Gaussian
    jitter on every click, uniform darks and a re-sort; time and memory
    grow with the photon number. shared_branch=True is a deliberate fault:
    both channels are cut from the photons of branch 0.
    """
    rng = np.random.default_rng(seed)
    duration_ns = duration_s * NS_PER_S
    if isinstance(src, HeraldedSPDC):
        pairs = _renewal_times(det.coincidence_window_ns, src.pair_rate_hz, duration_ns, rng)
        photons = _thin(pairs, src.herald_efficiency, rng)
        idler = ClickStream(_with_darks_and_jitter(photons, det, duration_ns, rng), "i")
    elif isinstance(src, WeakCoherent):
        photons = _poisson_times(src.mean_photons_per_pulse * src.pulse_rate_hz, duration_ns, rng)
    else:
        photons = _renewal_times(src.excited_lifetime_ns, src.excitation_rate_hz, duration_ns, rng)
    branch = rng.integers(0, 2, size=photons.size)
    streams = []
    for i in (0, 1):
        t = _thin(photons[branch == (0 if shared_branch else i)], det.efficiency[i], rng)
        t = _with_darks_and_jitter(t, det, duration_ns, rng)
        if isinstance(src, HeraldedSPDC):
            streams.append(and_gate(ClickStream(t, f"s{i}"), idler, det.coincidence_window_ns))
        else:
            streams.append(ClickStream(t, str(i)))
    return streams


# rates high enough that a short run fills the start-stop histogram
REFERENCE_SOURCES = {
    "coherent": (WeakCoherent(mean_photons_per_pulse=1.0), 0.05),
    "emitter": (SingleEmitter(), 0.1),
    "spdc": (HeraldedSPDC(pair_rate_hz=2.0e7), 0.02),
}
CLICK_DETECTORS = {
    "ideal": DetectorModel.ideal(),
    "bench": DetectorModel(),
    "lossy-dark": DetectorModel(efficiency=(0.55, 0.85, 1.0, 1.0), dark_rate_hz=2.0e5),
}
CLICK_CASES = [(s, d) for s in sorted(REFERENCE_SOURCES) for d in sorted(CLICK_DETECTORS)]


def _click_summary(streams):
    """Per-channel click counts and the start-stop histogram counts."""
    counts = np.array([s.times_ns.size for s in streams])
    return counts, start_stop_histogram(*streams).counts


@functools.cache
def _reference_summary(source, detector):
    src, duration = REFERENCE_SOURCES[source]
    streams = per_photon_click_streams(src, duration, CLICK_DETECTORS[detector], seed=71)
    return _click_summary(streams)


def _disagreement(generator, source, detector):
    """The checks a generator fails against the per-photon reference.

    Click counts must agree per channel within 5 pooled two-sample sigma,
    and the histograms must pass a two-sample chi-square test at p = 1e-3.
    Each bin with any counts adds (a - b)^2 / (a + b), which given a + b
    has mean 1 when both sides share one expectation.
    """
    src, duration = REFERENCE_SOURCES[source]
    counts, hist = _click_summary(generator(src, duration, CLICK_DETECTORS[detector], seed=72))
    ref_counts, ref_hist = _reference_summary(source, detector)
    failed = []
    if np.any(np.abs(counts - ref_counts) > 5 * np.sqrt(counts + ref_counts)):
        failed.append("counts")
    used = hist + ref_hist > 0
    chi2 = np.sum((hist - ref_hist)[used] ** 2 / (hist + ref_hist)[used])
    if stats.chi2.sf(chi2, used.sum()) < 1e-3:
        failed.append("histogram")
    return failed


def _exact_generator(src, duration_s, det, seed):
    return generate_click_streams(src, duration_s, det=det, seed=seed)


def _no_darks(src, duration_s, det, seed):
    det = dataclasses.replace(det, dark_rate_hz=0.0)
    return generate_click_streams(src, duration_s, det=det, seed=seed)


def _efficiency_ignored(src, duration_s, det, seed):
    det = dataclasses.replace(det, efficiency=(1.0, 1.0, 1.0, 1.0))
    return generate_click_streams(src, duration_s, det=det, seed=seed)


def _shared_stream(src, duration_s, det, seed):
    return per_photon_click_streams(src, duration_s, det, seed, shared_branch=True)


def _emitter_without_dead_time(src, duration_s, det, seed):
    if isinstance(src, SingleEmitter):
        src = dataclasses.replace(src, excited_lifetime_ns=0.0)
    return generate_click_streams(src, duration_s, det=det, seed=seed)


# each deliberately wrong generator and the number of the nine cases it must
# fail: every case where its fault shows. Darks and losses show in lossy-dark
# only, dead time in the emitter cases only, and shared photons wherever
# jitter or darks tell a photon's two copies apart (all but ideal); in the
# ideal cases the start-stop histogram skips a copy at delay 0
WRONG_GENERATORS = {
    "no-darks": (_no_darks, 3),
    "efficiency-ignored": (_efficiency_ignored, 3),
    "shared-stream": (_shared_stream, 6),
    "emitter-without-dead-time": (_emitter_without_dead_time, 3),
}


class TestClickStreams:
    @pytest.mark.parametrize("source,detector", CLICK_CASES)
    def test_matches_per_photon_reference(self, source, detector):
        assert _disagreement(_exact_generator, source, detector) == []

    @pytest.mark.parametrize("name", sorted(WRONG_GENERATORS))
    def test_reference_check_rejects_wrong_generators(self, name):
        generator, least = WRONG_GENERATORS[name]
        failed = [case for case in CLICK_CASES if _disagreement(generator, *case)]
        assert len(failed) >= least, failed

    def test_weak_coherent_clicks_stay_in_the_run(self):
        duration = 0.01
        for stream in generate_click_streams(WeakCoherent(0.5), duration, seed=3):
            assert stream.times_ns.size > 1000
            assert stream.times_ns[0] >= 0.0
            assert stream.times_ns[-1] < duration * NS_PER_S

    def test_deterministic_for_fixed_seed(self):
        for src in (WeakCoherent(), SingleEmitter(), HeraldedSPDC()):
            a0, a1 = generate_click_streams(src, 0.01, seed=8)
            b0, b1 = generate_click_streams(src, 0.01, seed=8)
            np.testing.assert_array_equal(a0.times_ns, b0.times_ns)
            np.testing.assert_array_equal(a1.times_ns, b1.times_ns)

    def test_weak_coherent_interarrivals_are_exponential(self):
        src = WeakCoherent(mean_photons_per_pulse=0.1)
        det = DetectorModel.ideal()
        s0, _ = generate_click_streams(src, 0.1, det=det, seed=23)
        gaps = np.diff(s0.times_ns)
        assert gaps.size > 10_000
        result = stats.kstest(gaps, "expon", args=(0.0, gaps.mean()))
        assert result.pvalue > 0.01

    def test_weak_coherent_branch_rate(self):
        src = WeakCoherent(mean_photons_per_pulse=0.1)
        det = DetectorModel.ideal()
        duration = 0.1
        s0, s1 = generate_click_streams(src, duration, det=det, seed=29)
        expect = src.mean_photons_per_pulse * src.pulse_rate_hz * duration / 2
        for s in (s0, s1):
            assert abs(s.times_ns.size - expect) <= 5 * np.sqrt(expect)

    def test_one_shot_memory_per_click(self):
        # a one-shot weak-coherent draw of about 10^6 clicks: the labelled
        # stream (9 bytes a click), the channels (8) and the split's blocks.
        # Its traced peak was 21.0 bytes a click when each channel was cut
        # from the stream in one piece
        tracemalloc.start()
        try:
            s0, s1 = generate_click_streams(WeakCoherent(1.0), 0.25, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        times, in_1, _ = s0._labelled
        assert times.size > 900_000
        assert peak <= 18.0 * times.size
        # the channels split over many blocks are the stream's own clicks
        assert s0.times_ns.tobytes() == times[~in_1].tobytes()
        assert s1.times_ns.tobytes() == times[in_1].tobytes()

    def test_emitter_never_fires_twice_within_lifetime(self):
        src = SingleEmitter(excited_lifetime_ns=4.0)
        det = DetectorModel.ideal()
        s0, s1 = generate_click_streams(src, 0.02, det=det, seed=37)
        merged = np.sort(np.concatenate([s0.times_ns, s1.times_ns]))
        assert merged.size > 10_000
        assert np.min(np.diff(merged)) >= src.excited_lifetime_ns

    def test_emitter_close_pairs_need_jitter_tails(self):
        src = SingleEmitter(excited_lifetime_ns=4.0)
        det = DetectorModel.ideal(timing_jitter_ns=0.61)
        s0, s1 = generate_click_streams(src, 0.02, det=det, seed=41)
        merged = np.sort(np.concatenate([s0.times_ns, s1.times_ns]))
        close = np.sum(np.diff(merged) < 0.1 * src.excited_lifetime_ns)
        # a sub-lifetime gap needs a several-sigma jitter excursion
        assert close <= 1e-3 * merged.size

    def test_spdc_gate_rate_tracks_heralding(self):
        src = HeraldedSPDC(pair_rate_hz=2.0e5, herald_efficiency=0.8)
        det = DetectorModel.ideal(timing_jitter_ns=0.61)
        duration = 0.5
        g0, g1 = generate_click_streams(src, duration, det=det, seed=43)
        expect = src.pair_rate_hz * src.herald_efficiency * duration / 2
        for g in (g0, g1):
            assert abs(g.times_ns.size - expect) <= 5 * np.sqrt(expect)
        assert g0.detector == "s0&i"

    def test_spdc_branches_anticorrelated_within_window(self):
        src = HeraldedSPDC()
        det = DetectorModel.ideal(timing_jitter_ns=0.2)
        g0, g1 = generate_click_streams(src, 0.5, det=det, seed=47)
        # every gate fire comes from a distinct pair, and pairs resolve at
        # the coincidence window, so cross-branch spacings stay near or
        # above the window
        idx = np.searchsorted(g1.times_ns, g0.times_ns)
        idx = np.clip(idx, 0, g1.times_ns.size - 1)
        nearest = np.abs(g1.times_ns[idx] - g0.times_ns)
        frac_close = np.mean(nearest < 0.5 * det.coincidence_window_ns)
        assert frac_close < 1e-3

    def test_rejects_unknown_source_and_bad_duration(self):
        with pytest.raises(TypeError, match="source"):
            generate_click_streams(object(), 0.1)
        for duration in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="duration"):
                generate_click_streams(WeakCoherent(), duration)

    @pytest.mark.parametrize(
        "src",
        [WeakCoherent(), WeakCoherent(mean_photons_per_pulse=2.0), SingleEmitter(),
         SingleEmitter(excited_lifetime_ns=500.0, excitation_rate_hz=1e8), HeraldedSPDC(),
         HeraldedSPDC(pair_rate_hz=1e9, herald_efficiency=1.0)],
        ids=repr,
    )
    @pytest.mark.parametrize("det", [DetectorModel(), DetectorModel.ideal()],
                             ids=["bench", "ideal"])
    def test_click_rate_bound_holds(self, src, det):
        duration = 0.01
        bound = _click_rate_bound_hz(src, det) * duration
        for stream in generate_click_streams(src, duration, det=det, seed=53):
            clicks = stream.times_ns.size
            assert clicks <= bound + 5 * math.sqrt(bound)
            if isinstance(src, WeakCoherent):
                # a weak-coherent channel is its own Poisson process: near tight
                assert clicks >= 0.5 * bound

    def test_zero_pair_rate_draws_only_darks(self):
        det = DetectorModel.ideal(dark_rate_hz=1e4)
        src = HeraldedSPDC(pair_rate_hz=0.0)
        assert _click_rate_bound_hz(src, det) == det.dark_rate_hz
        # a gate output needs a dark signal and a dark idler click within
        # one window, about 0.1 of them per stream here
        for stream in generate_click_streams(src, 0.1, det=det, seed=59):
            assert stream.times_ns.size <= 3

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "cls,field",
        [
            (SingleEmitter, "excited_lifetime_ns"),
            (SingleEmitter, "excitation_rate_hz"),
            (HeraldedSPDC, "pair_rate_hz"),
            (HeraldedSPDC, "herald_efficiency"),
        ],
    )
    def test_timing_sources_reject_non_finite_fields(self, cls, field, value):
        with pytest.raises(ValueError, match=field):
            cls(**{field: value})


def per_branch_emitter_channels(src, duration_s, det, seed):
    """The emitter's channels with each branch drawn on its own: the renewal
    emissions, one uniform per emission as its branch (_categories), then
    per branch its jitter, darks and a stable sort (_with_darks_and_jitter),
    with the draws of generate_click_streams in their order."""
    rng = np.random.default_rng(seed)
    duration_ns = duration_s * NS_PER_S
    times = _renewal_times(src.excited_lifetime_ns, src.excitation_rate_hz, duration_ns, rng)
    branches = _categories(times.size, [e / 2 for e in det.efficiency[:2]], rng)
    return [_with_darks_and_jitter(times.compress(b), det, duration_ns, rng) for b in branches]


# every path of the emitter's labelled stream: darks merged in, none, lost
# emissions, darks outnumbering the emissions, an empty run, and jitter
# wide enough against the gaps to put the emissions out of order, with
# neither losses nor darks, with both, and with darks outnumbering them
EMITTER_CASES = {
    "bench": (SingleEmitter(), DetectorModel(), 0.05),
    "ideal": (SingleEmitter(), DetectorModel.ideal(), 0.05),
    "lossy": (SingleEmitter(), DetectorModel(efficiency=(0.55, 0.85, 1.0, 1.0),
                                             dark_rate_hz=2.0e5), 0.05),
    "dark-1e7": (SingleEmitter(), DetectorModel(dark_rate_hz=1e7), 0.01),
    "empty": (SingleEmitter(), DetectorModel(), 1e-9),
    "out-of-order": (SingleEmitter(excited_lifetime_ns=0.0),
                     DetectorModel.ideal(timing_jitter_ns=5.0), 0.01),
    "out-of-order-lossy": (SingleEmitter(excited_lifetime_ns=0.0),
                           DetectorModel(efficiency=(0.55, 0.85, 1.0, 1.0), dark_rate_hz=2.0e5,
                                         timing_jitter_ns=5.0), 0.01),
    "out-of-order-dark-1e7": (SingleEmitter(excited_lifetime_ns=0.0),
                              DetectorModel(dark_rate_hz=1e7, timing_jitter_ns=5.0), 0.002),
}


class TestEmitterStream:
    """The single emitter drawn as one labelled click stream."""

    @pytest.mark.parametrize("block,whole", [(7, 0), (photonsim._BLOCK, photonsim._WHOLE)])
    @pytest.mark.parametrize("case", sorted(EMITTER_CASES))
    def test_stream_holds_the_per_branch_channels(self, case, block, whole, monkeypatch):
        src, det, duration = EMITTER_CASES[case]
        monkeypatch.setattr(photonsim, "_BLOCK", block)
        monkeypatch.setattr(photonsim, "_WHOLE", whole)
        for seed in range(3):
            s0, s1 = generate_click_streams(src, duration, det=det, seed=seed)
            times, in_1, k = s0._labelled
            assert s1._labelled[0] is times and s1._labelled[1] is in_1
            assert (k, s1._labelled[2]) == (0, 1)
            # each channel is its clicks in the stream, and the clicks it
            # was cut from when each branch was drawn on its own, bit for bit
            reference = per_branch_emitter_channels(src, duration, det, seed)
            for stream, clicks, ref in zip((s0, s1), (times[~in_1], times[in_1]), reference):
                assert stream.times_ns.tobytes() == clicks.tobytes() == ref.tobytes()
            # the merge of the two channels: the same times, and the same
            # labels but within runs of equal times
            merged, is_stop = _merge(s0.times_ns, s1.times_ns)
            assert times.tobytes() == merged.tobytes()
            starts = np.flatnonzero(np.diff(times, prepend=-np.inf))
            if times.size:
                np.testing.assert_array_equal(np.add.reduceat(in_1, starts),
                                              np.add.reduceat(is_stop, starts))
        emissions = _renewal_times(src.excited_lifetime_ns, src.excitation_rate_hz,
                                   duration * NS_PER_S, np.random.default_rng(2)).size
        if case == "empty":
            assert times.size == emissions == 0
        elif case == "lossy":
            # with a fifth of the clicks darks, fewer clicks than emissions
            assert times.size < emissions
        elif case == "dark-1e7":
            assert times.size > 5 * emissions


class TestCsvRoundTrip:
    def test_count_tables_round_trip(self, tmp_path):
        rho = qcore.make_pure_state(np.pi / 4)
        tables = [
            simulate_counts(rho, setup, 10_000, det=DetectorModel.ideal(), seed=i)
            for i, setup in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)])
        ]
        path = tmp_path / "counts.csv"
        count_tables_to_csv(tables, path)
        loaded = count_tables_from_csv(path)
        assert set(loaded) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for table in tables:
            np.testing.assert_array_equal(loaded[table.setup].counts, table.counts)

    def test_csv_has_schema_comment_and_header(self, tmp_path):
        path = tmp_path / "counts.csv"
        table = CountTable(setup=(1, 1), counts=np.arange(4).reshape(2, 2), total=6)
        count_tables_to_csv([table], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[1] == "n1,n2,a1,a2,counts"
        assert lines[2] == "1,1,0,0,0"

    def test_blank_lines_are_skipped(self, tmp_path):
        tables = [CountTable(setup=(1, 1), counts=np.arange(4).reshape(2, 2), total=6),
                  CountTable(setup=(0, 1), counts=np.array([[3, 0], [1, 2]]), total=6)]
        plain, spaced = tmp_path / "plain.csv", tmp_path / "spaced.csv"
        count_tables_to_csv(tables, plain)
        spaced.write_text("\n" + "\n \t\n".join(plain.read_text().splitlines()) + "\n\n")
        read, expected = count_tables_from_csv(spaced), count_tables_from_csv(plain)
        assert list(read) == list(expected) == [(0, 1), (1, 1)]
        for setup, table in expected.items():
            np.testing.assert_array_equal(read[setup].counts, table.counts)
            assert read[setup].total == table.total

    def test_table_writer_lines(self, tmp_path):
        # schema line, meta lines in order, header, then every block's rows,
        # numbers as their shortest round-trip repr
        path = tmp_path / "table.csv"
        rows = [[0.1, 1 / 3, 7], [-2.5e-300, 1e16, 0]]
        _write_csv(path, "a,b,c", iter([rows[:1], [], rows[1:]]),
                   meta=[("baseline", 0.1), ("low_statistics", "true")])
        assert path.read_text() == (
            "# schema_version=1\n# baseline=0.1\n# low_statistics=true\na,b,c\n"
            "0.1,0.3333333333333333,7\n-2.5e-300,1e+16,0\n"
        )
        _write_csv(path, "a,b,c", [])
        assert path.read_text() == "# schema_version=1\na,b,c\n"

    @pytest.mark.parametrize("version", ["2", "0", "", "1.0"])
    def test_other_schema_version_is_refused(self, tmp_path, version):
        path = tmp_path / "counts.csv"
        path.write_text(f"# schema_version={version}\nn1,n2,a1,a2,counts\n1,1,0,0,5\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line 1: schema_version {version} is not supported, expected 1")):
            count_tables_from_csv(path)

    def test_schema_line_is_checked_wherever_it_stands(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("n1,n2,a1,a2,counts\n1,1,0,0,5\n#  schema_version = 2\n")
        with pytest.raises(ValueError, match="line 3: schema_version 2"):
            count_tables_from_csv(path)

    @pytest.mark.parametrize("head", ["#schema_version = 1\n", "# baseline=2\n"])
    def test_current_schema_line_and_other_comments_read(self, tmp_path, head):
        path = tmp_path / "counts.csv"
        path.write_text(head + "n1,n2,a1,a2,counts\n1,1,0,0,5\n")
        assert count_tables_from_csv(path)[(1, 1)].counts[0, 0] == 5

    def test_duplicate_rows_accumulate(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("n1,n2,a1,a2,counts\n1,1,0,0,3\n1,1,0,0,4\n")
        loaded = count_tables_from_csv(path)
        assert loaded[(1, 1)].counts[0, 0] == 7

    @pytest.mark.parametrize(
        "content,message",
        [
            ("", "line 1"),
            ("time,det\n", "expected header"),
            ("n1,n2,a1,a2,counts\n1,1,0,0\n", "expected 5 fields"),
            ("n1,n2,a1,a2,counts\n1,1,0,0,xyz\n", "non-integer"),
            ("n1,n2,a1,a2,counts\n3,1,0,0,5\n", "out of range"),
            ("n1,n2,a1,a2,counts\n1,1,0,0,-2\n", "negative"),
            ("n1,n2,a1,a2,counts\n1,1,0,0,10000000000000000000\n",
             r"line 2: setup \(1, 1\) counts reach 2\*\*63"),
            ("n1,n2,a1,a2,counts\n1,1,0,0,4611686018427387904\n1,1,1,1,4611686018427387904\n",
             r"line 3: setup \(1, 1\) counts reach 2\*\*63"),
            ("n1,n2,a1,a2,counts\n# only comments\n", "no data rows"),
        ],
    )
    def test_malformed_csv_reports_line(self, tmp_path, content, message):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        with pytest.raises(ValueError, match=message):
            count_tables_from_csv(path)

    def test_read_tables_are_checked_tables(self, tmp_path):
        # the reader's own checks stand in for CountTable's, up to cells of 2**62
        cells = {(1, 1): [2**62 - 5, 0, 3, 2**60], (0, 1): [7, 2**61, 0, 0], (1, 0): [0, 0, 0, 0]}
        path = tmp_path / "counts.csv"
        lines = ["n1,n2,a1,a2,counts"] + [
            f"{n1},{n2},{k // 2},{k % 2},{c}" for (n1, n2), row in cells.items()
            for k, c in enumerate(row)]
        path.write_text("\n".join(lines) + "\n")
        loaded = count_tables_from_csv(path)
        assert list(loaded) == sorted(cells)
        for setup, row in cells.items():
            checked = CountTable(setup=setup, counts=np.reshape(row, (2, 2)), total=sum(row))
            table = loaded[setup]
            assert table.setup == checked.setup and type(table.setup[0]) is int
            assert table.counts.dtype == checked.counts.dtype == np.int64
            assert table.counts.shape == (2, 2)
            assert table.counts.tobytes() == checked.counts.tobytes()
            assert type(table.total) is int and table.total == checked.total

    def test_error_names_the_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# schema_version=1\nn1,n2,a1,a2,counts\n1,1,0,0,5\n1,1,9,0,5\n")
        with pytest.raises(ValueError, match="line 4"):
            count_tables_from_csv(path)
