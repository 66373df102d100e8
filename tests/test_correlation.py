import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from oqlab import cli, correlation
from oqlab.correlation import (
    MAX_HALF_BINS,
    G2Histogram,
    _StartStopAccumulator,
    _tally,
    dip_width,
    g2_zero,
    start_stop_histogram,
)
from oqlab.photonsim import (
    NS_PER_S,
    ClickStream,
    DetectorModel,
    HeraldedSPDC,
    SingleEmitter,
    WeakCoherent,
    generate_click_streams,
)


def poisson_stream(rate_per_ns, duration_ns, rng, label="p"):
    n = rng.poisson(rate_per_ns * duration_ns)
    return ClickStream(np.sort(rng.uniform(0, duration_ns, n)), detector=label)


class TestHistogramStructure:
    def test_bins_are_symmetric_about_zero(self):
        rng = np.random.default_rng(3)
        a = poisson_stream(2e-4, 1e8, rng)
        b = poisson_stream(2e-4, 1e8, rng)
        hist = start_stop_histogram(a, b, bin_width_ns=0.5, max_delay_ns=20.0)
        assert hist.tau_ns.size == 80
        np.testing.assert_allclose(hist.tau_ns[0], -19.75)
        np.testing.assert_allclose(hist.tau_ns[-1], 19.75)
        np.testing.assert_allclose(hist.tau_ns, -hist.tau_ns[::-1])
        assert hist.counts.dtype == np.int64
        assert hist.bin_width_ns == 0.5

    def test_rejects_bad_binning(self):
        a = ClickStream(np.array([1.0]))
        with pytest.raises(ValueError, match="positive"):
            start_stop_histogram(a, a, bin_width_ns=0.0)
        with pytest.raises(ValueError, match="positive"):
            start_stop_histogram(a, a, max_delay_ns=-1.0)
        with pytest.raises(ValueError, match="two bins"):
            start_stop_histogram(a, a, bin_width_ns=10.0, max_delay_ns=15.0)

    def test_caps_the_bins_per_side(self):
        acc = _StartStopAccumulator(1.0, float(MAX_HALF_BINS))
        assert acc.histogram().counts.size == 2 * MAX_HALF_BINS
        for bin_width, max_delay in [(1.0, MAX_HALF_BINS + 0.5), (0.5, 1e12),
                                     (1e-300, 20.0), (1e-300, 1e308)]:
            with pytest.raises(ValueError, match="max_delay_ns / bin_width_ns") as err:
                _StartStopAccumulator(bin_width, max_delay)
            assert str(MAX_HALF_BINS) in str(err.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["bin_width_ns", "max_delay_ns"])
    def test_rejects_non_finite_binning(self, field, value):
        a = ClickStream(np.array([1.0]))
        with pytest.raises(ValueError, match=field):
            start_stop_histogram(a, a, **{field: value})

    def test_empty_streams_are_flagged_not_fatal(self):
        empty = ClickStream(np.empty(0))
        hist = start_stop_histogram(empty, empty)
        assert hist.low_statistics
        assert hist.baseline == 0.0
        np.testing.assert_array_equal(hist.counts, 0)
        np.testing.assert_array_equal(hist.g2, 0.0)
        assert np.isnan(g2_zero(hist))
        assert dip_width(hist) == 0.0


def jittered_chunks(lengths_ns, rate_per_ns, jitter_ns, rng):
    """(start, length, a, b) chunks on one clock: each channel is uniform
    clicks in [start, start + length) with Gaussian jitter, so clicks spill
    across chunk boundaries both ways; b also echoes a third of a 1.2 ns
    later, so the histogram has a peak as well as a flat part."""
    chunks = []
    starts = np.concatenate([[0.0], np.cumsum(lengths_ns)[:-1]])
    for start, length in zip(starts, lengths_ns):
        def draw():
            n = rng.poisson(rate_per_ns * length)
            return start + rng.uniform(0.0, length, n)
        a = draw()
        b = np.concatenate([draw(), a[: a.size // 3] + 1.2])
        chunks.append((start, length, *(
            np.sort(t + rng.normal(0.0, jitter_ns, t.size)) for t in (a, b))))
    return chunks


class TestAccumulator:
    """The chunked start-stop accumulator against the one-shot histogram."""

    @pytest.mark.parametrize(
        "lengths_ns",
        [
            [5.0] * 400,  # far shorter than max_delay + guard
            [40.0] * 50,  # just longer
            [1000.0] * 5,
            # mixed lengths, two of them 0 (empty chunks)
            [700.0, 3.0, 0.0, 250.0, 35.0, 0.0, 1.5, 900.0, 60.0, 8.0],
        ],
    )
    @pytest.mark.parametrize("jitter_ns", [0.0, 0.61, 3.0])
    def test_counts_equal_whole_record(self, lengths_ns, jitter_ns):
        rng = np.random.default_rng(len(lengths_ns) + int(10 * jitter_ns))
        chunks = jittered_chunks(lengths_ns, 0.3, jitter_ns, rng)
        acc = _StartStopAccumulator(0.5, 20.0, guard_ns=20.0 * jitter_ns + 1.0)
        for start, length, a, b in chunks:
            acc.add(a, b, end_ns=start + length)
        hist = acc.histogram()

        whole_a = np.sort(np.concatenate([c[2] for c in chunks]))
        whole_b = np.sort(np.concatenate([c[3] for c in chunks]))
        ref = start_stop_histogram(ClickStream(whole_a), ClickStream(whole_b), 0.5, 20.0)
        assert ref.counts.sum() > 1000
        np.testing.assert_array_equal(hist.counts, ref.counts)
        np.testing.assert_array_equal(hist.tau_ns, ref.tau_ns)
        np.testing.assert_array_equal(hist.g2, ref.g2)
        assert hist.baseline == ref.baseline
        assert hist.low_statistics == ref.low_statistics

    @pytest.mark.parametrize("channel", [0, 1])
    def test_click_before_tallied_range_raises(self, channel):
        acc = _StartStopAccumulator(0.5, 20.0, guard_ns=1.0)
        acc.add(np.array([10.0, 50.0, 90.0]), np.array([12.0, 95.0]), end_ns=100.0)
        late = [np.array([120.0]), np.array([121.0])]
        # 60 ns is before 100 - 1 ns, where this chunk's tally may reach
        late[channel] = np.array([60.0, 120.0])
        with pytest.raises(ValueError, match="before"):
            acc.add(*late, end_ns=200.0)

    def test_no_chunk_follows_the_histogram(self):
        acc = _StartStopAccumulator(0.5, 20.0)
        acc.add(np.array([1.0]), np.array([2.0]), end_ns=10.0)
        acc.histogram()
        with pytest.raises(ValueError, match="before"):
            acc.add(np.array([1e12]), np.array([1e12]))


def forward_delays(a, b, max_delay_ns):
    """Delay from each a-click to the next b-click, capped at max_delay_ns,
    by one binary search per click: the reference for the merge tally."""
    idx = np.searchsorted(b, a, side="right")
    ok = idx < b.size
    delays = b[idx[ok]] - a[ok]
    return delays[delays <= max_delay_ns]


def reference_delays(a, b, na, nb, max_delay_ns):
    """The delays _tally must give, sorted: a[:na] to b, then b[:nb] to a negated."""
    pos = forward_delays(a[:na], b, max_delay_ns)
    neg = forward_delays(b[:nb], a, max_delay_ns)
    return np.sort(np.concatenate([pos, -neg]))


class ReferenceAccumulator(_StartStopAccumulator):
    """The accumulator with each chunk tallied by two binary searches."""

    def add(self, start_ns, stop_ns, end_ns=math.inf):
        a = self._merge(self._held[0], start_ns)
        b = self._merge(self._held[1], stop_ns)
        self._horizon_ns = end_ns - self._guard_ns
        cut = self._horizon_ns - self._max_delay_ns
        na, nb = np.searchsorted(a, cut), np.searchsorted(b, cut)
        pos = forward_delays(a[:na], b, self._max_delay_ns)
        neg = forward_delays(b[:nb], a, self._max_delay_ns)
        self._counts += np.histogram(np.concatenate([pos, -neg]), bins=self._edges)[0]
        self._held = (a[na:].copy(), b[nb:].copy())


def merge_ranks(first, second):
    """Merged position less own rank of each click of first and of second,
    in one stable merge that puts first's clicks first on ties."""
    in_second = np.argsort(np.concatenate((first, second)), kind="stable") >= first.size
    return (np.flatnonzero(~in_second) - np.arange(first.size),
            np.flatnonzero(in_second) - np.arange(second.size))


def wrong_next_clicks(start_first, stop_first):
    """A _next_clicks that takes each side's indices from one merge with no
    tie fix-up: the start clicks placed first on ties (the count of stop
    clicks before them, searchsorted side "left") or last ("right"), and
    likewise the stop clicks."""
    def next_clicks(a, b, block_a, block_b):
        sa, sb = a[block_a], b[block_b]
        ia = merge_ranks(sa, sb)[0] if start_first else merge_ranks(sb, sa)[1]
        ib = merge_ranks(sb, sa)[0] if stop_first else merge_ranks(sa, sb)[1]
        return ia + block_b.start, ib + block_a.start
    return next_clicks


WRONG_MERGES = {
    # a tie counted as delay 0 on both sides
    "tie-as-zero": wrong_next_clicks(start_first=True, stop_first=True),
    # start clicks with searchsorted side "left"
    "start-side-left": wrong_next_clicks(start_first=True, stop_first=False),
    # the right merge order without the stop-click tie fix-up
    "no-tie-fixup": wrong_next_clicks(start_first=False, stop_first=True),
}


def tied_chunks(seed):
    """jittered_chunks from -10 ns, rounded to a 0.25 ns grid: sorted chunk
    feeds with clicks tied across the channels, repeated within one, before
    0, and spilling across chunk boundaries."""
    rng = np.random.default_rng(seed)
    chunks = jittered_chunks([37.0, 0.0, 5.0, 180.0, 64.0, 2.5, 300.0], 0.8, 0.61, rng)
    return [(start - 10.0, length, np.round(a * 4) / 4 - 10.0, np.round(b * 4) / 4 - 10.0)
            for start, length, a, b in chunks]


def assert_chunked_matches_reference(chunks, bin_width_ns=0.5, max_delay_ns=20.0, guard_ns=14.0):
    """The accumulator and the reference, fed the same chunks, agree bin for bin."""
    accs = [cls(bin_width_ns, max_delay_ns, guard_ns=guard_ns)
            for cls in (_StartStopAccumulator, ReferenceAccumulator)]
    for start, length, a, b in chunks:
        for acc in accs:
            acc.add(a, b, end_ns=start + length)
    hist, ref = (acc.histogram() for acc in accs)
    np.testing.assert_array_equal(hist.counts, ref.counts)
    np.testing.assert_array_equal(hist.g2, ref.g2)
    return int(ref.counts.sum())


@st.composite
def click_pair(draw, min_size=0, max_size=60):
    """Two sorted channels on a 0.25 ns grid, from -5 ns on."""
    grid = st.integers(-20, 160).map(lambda k: k * 0.25)
    times = st.lists(grid, min_size=min_size, max_size=max_size)
    return tuple(np.sort(np.array(draw(times), dtype=float)) for _ in range(2))


class TestMergeTally:
    """The merge tally against two binary searches per chunk."""

    @settings(max_examples=400, deadline=None)
    @given(pair=click_pair(min_size=1), cut=st.integers(-24, 170).map(lambda k: k * 0.25),
           block=st.sampled_from([1, 2, 3, 5, 2**14]),
           max_delay=st.sampled_from([0.5, 3.0, 20.0, 1e9]))
    def test_delays_equal_binary_search(self, pair, cut, block, max_delay):
        a, b = pair
        na, nb = np.searchsorted(a, cut), np.searchsorted(b, cut)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlation, "MERGE_BLOCK", block)
            got = np.sort(_tally(a, b, na, nb, max_delay))
        np.testing.assert_array_equal(got, reference_delays(a, b, na, nb, max_delay))
        assert not np.any(got == 0.0)

    @settings(max_examples=150, deadline=None)
    @given(pair=click_pair(max_size=120),
           cuts=st.lists(st.integers(-20, 170).map(lambda k: k * 0.25), max_size=6),
           block=st.sampled_from([1, 4, 2**14]))
    def test_chunked_feeds_equal_reference(self, pair, cuts, block):
        # chunks split at grid times; a click on a split goes to the later chunk
        a, b = pair
        ends = sorted(set(cuts))
        bounds = [-10.0, *ends, math.inf]
        chunks = [
            (lo, hi - lo, a[(a >= lo) & (a < hi)], b[(b >= lo) & (b < hi)])
            for lo, hi in zip(bounds, bounds[1:])
        ]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlation, "MERGE_BLOCK", block)
            assert_chunked_matches_reference(chunks, bin_width_ns=0.25, max_delay_ns=6.0,
                                             guard_ns=0.0)

    @pytest.mark.parametrize("block", [7, 2**14])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_chunks_with_ties_equal_reference(self, seed, block, monkeypatch):
        monkeypatch.setattr(correlation, "MERGE_BLOCK", block)
        chunks = tied_chunks(seed)
        a = np.concatenate([c[2] for c in chunks])
        b = np.concatenate([c[3] for c in chunks])
        # the streams have what the test is for
        assert np.intersect1d(a, b).size > 20
        assert np.unique(a).size < a.size and a.min() < 0.0
        assert assert_chunked_matches_reference(chunks) > 200

    @pytest.mark.parametrize(
        "a,b",
        [([], []), ([], [1.0]), ([1.0], []), ([1.0], [1.0]), ([1.0], [2.0]),
         ([2.0], [1.0]), ([-3.0, -3.0], [-3.0]), ([0.0, 0.0, 0.0], [0.0, 0.5, 0.5])],
    )
    def test_empty_and_one_click_channels(self, a, b):
        # one chunk, as start_stop_histogram feeds it
        a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        assert_chunked_matches_reference([(0.0, math.inf, a, b)])

    @pytest.mark.parametrize("merge", sorted(WRONG_MERGES))
    def test_wrong_merges_fail(self, merge, monkeypatch):
        monkeypatch.setattr(correlation, "_next_clicks", WRONG_MERGES[merge])
        with pytest.raises(AssertionError):
            assert_chunked_matches_reference(tied_chunks(0))

    @pytest.mark.parametrize("held", [False, True], ids=["first-chunk", "with-held-clicks"])
    def test_peak_memory_within_reference(self, held):
        det = DetectorModel()
        streams = [
            generate_click_streams(SingleEmitter(), 0.05, det=det, seed=seed)
            for seed in (1, 2)
        ]
        chunk_ns = 0.05 * NS_PER_S

        def peak(cls):
            acc = cls(0.5, 20.0, guard_ns=20.0 * det.timing_jitter_ns + 1.0)
            if held:
                acc.add(streams[0][0].times_ns, streams[0][1].times_ns, end_ns=chunk_ns)
            a, b = (s.times_ns + held * chunk_ns for s in streams[1])
            tracemalloc.start()
            try:
                acc.add(a, b, end_ns=(1 + held) * chunk_ns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert streams[1][0].times_ns.size > 40_000
        assert peak(_StartStopAccumulator) <= 1.1 * peak(ReferenceAccumulator)


class TestNormalization:
    def test_independent_poisson_streams_normalize_to_one(self):
        rng = np.random.default_rng(11)
        a = poisson_stream(2e-4, 1e9, rng, "a")
        b = poisson_stream(2e-4, 1e9, rng, "b")
        hist = start_stop_histogram(a, b, bin_width_ns=0.5, max_delay_ns=20.0)
        assert not hist.low_statistics
        # accidental level: N_start * rate_stop * bin width
        expect = a.times_ns.size * 2e-4 * 0.5
        assert hist.baseline == pytest.approx(expect, rel=0.1)
        # the baseline is itself a 16-bin estimate, so the normalized mean
        # carries its ~5% statistical noise
        assert abs(hist.g2.mean() - 1.0) < 0.15
        result = stats.chisquare(hist.counts, f_exp=hist.counts.mean())
        assert result.pvalue > 0.01

    def test_baseline_comes_from_outer_fifth_only(self):
        # a strong correlation bump near tau = -1.2 ns must not shift the
        # baseline, which only reads the outer fifth of the delay range
        rng = np.random.default_rng(19)
        a = poisson_stream(1e-4, 1e9, rng, "a")
        extra = np.sort(rng.choice(a.times_ns, size=a.times_ns.size // 2, replace=False) + 1.2)
        b_times = np.sort(np.concatenate([poisson_stream(1e-4, 1e9, rng).times_ns, extra]))
        hist = start_stop_histogram(ClickStream(b_times, "b"), a, bin_width_ns=0.5, max_delay_ns=20.0)
        tail = np.abs(hist.tau_ns) >= 16.0
        assert hist.baseline == pytest.approx(hist.counts[tail].mean(), abs=1e-9)
        bump = np.argmin(np.abs(hist.tau_ns - (-1.25)))
        assert hist.g2[bump] > 3.0

    def test_g2_zero_averages_the_window_bins(self):
        hist = G2Histogram(
            tau_ns=np.array([-0.75, -0.25, 0.25, 0.75]),
            counts=np.array([10, 2, 4, 10]),
            g2=np.array([1.0, 0.2, 0.4, 1.0]),
            bin_width_ns=0.5,
            baseline=10.0,
            low_statistics=False,
        )
        assert g2_zero(hist, window_ns=1.0) == pytest.approx(0.3)
        assert g2_zero(hist, window_ns=2.0) == pytest.approx(0.65)
        assert dip_width(hist, threshold=0.5) == pytest.approx(1.0)

    def test_g2_zero_rejects_bad_window(self):
        rng = np.random.default_rng(23)
        hist = start_stop_histogram(poisson_stream(2e-4, 1e7, rng), poisson_stream(2e-4, 1e7, rng))
        for window in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive"):
                g2_zero(hist, window_ns=window)
        with pytest.raises(ValueError, match="narrower"):
            g2_zero(hist, window_ns=0.1)


class TestAntibunching:
    def test_emitter_dip_is_deep_and_wide(self):
        src = SingleEmitter(excited_lifetime_ns=4.0)
        det = DetectorModel.ideal(timing_jitter_ns=0.61)
        s0, s1 = generate_click_streams(src, 0.2, det=det, seed=51)
        hist = start_stop_histogram(s0, s1, bin_width_ns=0.5, max_delay_ns=25.0)
        assert not hist.low_statistics
        assert g2_zero(hist, window_ns=5.5) < 0.5
        center = np.abs(hist.tau_ns) < 2.0
        assert hist.g2[center].mean() < 0.05
        tail = np.abs(hist.tau_ns) > 20.0
        assert abs(hist.g2[tail].mean() - 1.0) < 0.1

    def test_jitter_broadens_the_dip_transition(self):
        # FWHM of a smoothed rectangular dip is invariant, but the spread
        # between the 25% and 75% crossings grows with the jitter
        src = SingleEmitter(excited_lifetime_ns=4.0)
        softness = []
        for jitter in (0.0, 0.61, 2.0):
            det = DetectorModel.ideal(timing_jitter_ns=jitter)
            s0, s1 = generate_click_streams(src, 2.0, det=det, seed=57)
            hist = start_stop_histogram(s0, s1, bin_width_ns=0.5, max_delay_ns=25.0)
            softness.append(dip_width(hist, 0.75) - dip_width(hist, 0.25))
        assert softness[0] < softness[1] < softness[2]
        assert softness[2] - softness[0] > 5.0

    def test_spdc_gates_antibunch(self):
        src = HeraldedSPDC()
        det = DetectorModel()
        g0, g1 = generate_click_streams(src, 2.0, det=det, seed=61)
        hist = start_stop_histogram(g0, g1, bin_width_ns=0.5, max_delay_ns=20.0)
        assert not hist.low_statistics
        assert g2_zero(hist, window_ns=det.coincidence_window_ns) < 0.1

    def test_weak_coherent_shows_no_dip(self):
        src = WeakCoherent(mean_photons_per_pulse=0.1)
        det = DetectorModel()
        s0, s1 = generate_click_streams(src, 5.0, det=det, seed=67)
        hist = start_stop_histogram(s0, s1, bin_width_ns=0.5, max_delay_ns=20.0)
        assert abs(g2_zero(hist, window_ns=5.5) - 1.0) < 0.1


# a weak-coherent source bright enough that a 0.2 s run fills every bin
# with a few hundred counts, under two detectors: the bench model and one
# whose branch losses and darks move the channel rates apart
ORACLE_SOURCE = WeakCoherent(mean_photons_per_pulse=1.0)
ORACLE_DETECTORS = {
    "bench": DetectorModel(),
    "lossy-dark": DetectorModel(efficiency=(0.55, 0.85, 1.0, 1.0), dark_rate_hz=2.0e5),
}
ORACLE_DURATION_S = 0.2
ORACLE_SEEDS = range(6)


def coherent_expected_counts(tau_ns, bin_width_ns, n_start, n_stop, det, src=ORACLE_SOURCE):
    """Closed-form expected start-stop histogram of a weak-coherent source.

    Channel i is a Poisson process at r_i = mean * pulse_rate *
    efficiency[i] / 2 + dark rate, so the delay from a start click to the
    next stop click is exponential at the stop rate r, and the bin [l, u)
    expects N_start (e^{-r l} - e^{-r u}); the negative side swaps the
    channels.
    """
    r_start, r_stop = (
        (src.mean_photons_per_pulse * src.pulse_rate_hz * e / 2 + det.dark_rate_hz) / NS_PER_S
        for e in det.efficiency[:2]
    )
    lo, hi = np.abs(tau_ns) - bin_width_ns / 2, np.abs(tau_ns) + bin_width_ns / 2
    positive = tau_ns > 0
    n = np.where(positive, n_start, n_stop)
    r = np.where(positive, r_stop, r_start)
    return n * (np.exp(-r * lo) - np.exp(-r * hi))


def oracle_fit(counts, expected):
    """(chi-square per bin, max |z|) of counts against their expectation."""
    z = (counts - expected) / np.sqrt(expected)
    return float(np.mean(z**2)), float(np.max(np.abs(z)))


# 80 bins: chi2/dof has sd 0.16 per seed and 0.065 pooled over six seeds,
# and 80 Gaussian bins reach |z| = 4.5 once in about 2,000 runs
MAX_CHI2_DOF = 1.6
MAX_POOLED_CHI2_DOF = 1.3
MAX_ABS_Z = 4.5


def assert_fits_oracle(fits):
    chi2_dof, max_z = np.array(fits).T
    assert np.all(chi2_dof < MAX_CHI2_DOF), fits
    assert chi2_dof.mean() < MAX_POOLED_CHI2_DOF, fits
    assert np.all(max_z < MAX_ABS_Z), fits


def one_shot_fit(det, seed, generator_det=None):
    """Oracle fit under det of a run drawn with generator_det (default det)."""
    s0, s1 = generate_click_streams(
        ORACLE_SOURCE, ORACLE_DURATION_S, det=generator_det or det, seed=seed
    )
    hist = start_stop_histogram(s0, s1)
    expected = coherent_expected_counts(
        hist.tau_ns, hist.bin_width_ns, s0.times_ns.size, s1.times_ns.size, det
    )
    return oracle_fit(hist.counts, expected)


class TestCoherentOracle:
    """Weak-coherent histograms bin by bin against their closed form."""

    @pytest.mark.parametrize("detector", sorted(ORACLE_DETECTORS))
    def test_one_shot_histogram(self, detector):
        det = ORACLE_DETECTORS[detector]
        assert_fits_oracle([one_shot_fit(det, seed) for seed in ORACLE_SEEDS])

    @pytest.mark.parametrize("detector", sorted(ORACLE_DETECTORS))
    def test_chunked_g2_command(self, detector, tmp_path, monkeypatch, capsys):
        det = ORACLE_DETECTORS[detector]
        src_cfg = tmp_path / "source.cfg"
        src_cfg.write_text("kind = weak-coherent\nmean_photons_per_pulse = 1.0\n")
        det_cfg = tmp_path / "det.cfg"
        efficiency = ",".join(map(str, det.efficiency))
        det_cfg.write_text(f"efficiency = {efficiency}\ndark_rate_hz = {det.dark_rate_hz}\n")
        clicks = np.zeros(2, dtype=np.int64)
        real = cli.generate_click_streams

        def counting(*args, **kwargs):
            streams = real(*args, **kwargs)
            clicks[:] += [s.times_ns.size for s in streams]
            return streams

        monkeypatch.setattr(cli, "generate_click_streams", counting)
        out = tmp_path / "hist.csv"
        fits = []
        for seed in ORACLE_SEEDS:
            clicks[:] = 0
            code = cli.main(["g2", "--source", str(src_cfg), "--det", str(det_cfg),
                             "--duration", str(ORACLE_DURATION_S), "--seed", str(seed),
                             "--out", str(out)])
            assert code == 0
            rows = np.loadtxt(out, delimiter=",", comments="#", skiprows=4)
            expected = coherent_expected_counts(rows[:, 0], 0.5, clicks[0], clicks[1], det)
            fits.append(oracle_fit(rows[:, 1], expected))
        capsys.readouterr()
        assert_fits_oracle(fits)

    @pytest.mark.parametrize(
        "fault", [{"dark_rate_hz": 0.0}, {"efficiency": (1.0, 1.0, 1.0, 1.0)}],
        ids=["no-darks", "efficiency-ignored"],
    )
    def test_rejects_wrong_generators(self, fault):
        det = ORACLE_DETECTORS["lossy-dark"]
        wrong = dataclasses.replace(det, **fault)
        for seed in ORACLE_SEEDS:
            chi2_dof, max_z = one_shot_fit(det, seed, generator_det=wrong)
            assert chi2_dof >= MAX_CHI2_DOF or max_z >= MAX_ABS_Z
