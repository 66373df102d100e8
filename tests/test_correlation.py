import dataclasses
import inspect
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from oqlab import cli, correlation
from oqlab.correlation import (
    MAX_HALF_BINS,
    G2Histogram,
    _half_bins,
    _labelled_clicks,
    _merge,
    _outer_bin,
    _StartStopAccumulator,
    _tally,
    coherent_expected_counts,
    dip_width,
    g2_zero,
    g2_zero_error,
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
        for chunk in chunks:
            feed(acc, *chunk)
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
        feed(acc, 0.0, 100.0, np.array([10.0, 50.0, 90.0]), np.array([12.0, 95.0]))
        late = [np.array([120.0]), np.array([121.0])]
        # 60 ns is before 100 - 1 ns, where this chunk's tally may reach
        late[channel] = np.array([60.0, 120.0])
        with pytest.raises(ValueError, match="before"):
            feed(acc, 100.0, 100.0, *late)

    def test_no_chunk_follows_the_histogram(self):
        acc = _StartStopAccumulator(0.5, 20.0)
        feed(acc, 0.0, 10.0, np.array([1.0]), np.array([2.0]))
        acc.histogram()
        with pytest.raises(ValueError, match="before"):
            feed(acc, 0.0, math.inf, np.array([1e12]), np.array([1e12]))


def forward_delays(a, b, max_delay_ns):
    """Delay from each a-click to the next b-click, capped at max_delay_ns,
    by one binary search per click: the reference for the labelled tally."""
    idx = np.searchsorted(b, a, side="right")
    ok = idx < b.size
    delays = b[idx[ok]] - a[ok]
    return delays[delays <= max_delay_ns]


def reference_delays(a, b, na, nb, max_delay_ns):
    """The delays the tally must give, sorted: a[:na] to b, then b[:nb] to a negated."""
    pos = forward_delays(a[:na], b, max_delay_ns)
    neg = forward_delays(b[:nb], a, max_delay_ns)
    return np.sort(np.concatenate([pos, -neg]))


class ReferenceAccumulator(_StartStopAccumulator):
    """The accumulator with each chunk tallied by two binary searches, its
    clicks held back per channel, all on the whole record's clock."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._channels = (np.empty(0), np.empty(0))

    def add(self, start_ns, stop_ns, end_ns=math.inf):
        if min([*start_ns[:1], *stop_ns[:1]], default=math.inf) < self._horizon_ns:
            raise ValueError("chunk brings a click before the tallied range")
        a, b = (np.sort(np.concatenate((held, new)))
                for held, new in zip(self._channels, (start_ns, stop_ns)))
        self._horizon_ns = end_ns - self._guard_ns
        cut = self._horizon_ns - self.span_ns
        na, nb = np.searchsorted(a, cut), np.searchsorted(b, cut)
        pos = forward_delays(a[:na], b, self.span_ns)
        neg = forward_delays(b[:nb], a, self.span_ns)
        self._counts += np.histogram(np.concatenate([pos, -neg]), bins=self._edges)[0]
        self._channels = (a[na:].copy(), b[nb:].copy())


def feed(acc, start, length, a, b):
    """Add the chunk [start, start + length) of the channels a and b of a
    record: merged on the chunk's own clock to the accumulator, as they are
    to the reference."""
    if isinstance(acc, ReferenceAccumulator):
        acc.add(a, b, end_ns=start + length)
    else:
        acc.add(*_merge(a - start, b - start), length)


def mutant_tally(old, new):
    """correlation._tally with its one occurrence of old replaced by new."""
    source = inspect.getsource(correlation._tally)
    assert source.count(old) == 1, old
    namespace = dict(vars(correlation))
    exec(source.replace(old, new), namespace)
    return namespace["_tally"]


# each a deliberately wrong tally, as the edit that makes it
TALLY_MUTANTS = {
    # a click tied with one of the other label counted as a zero delay
    "tie-as-zero": ("(gap > 0.0)", "(gap >= 0.0)"),
    # the search ends at the first later click, whatever its label
    "first-later-click": ("open_ = in_range & ~hit", "open_ = in_range & (gap == 0.0)"),
    # the forward steps alone: a click still open after them is dropped
    "no-fallback": ("    if near.size:\n", "    if False:\n"),
}


BIN_WIDTHS = [0.5, 0.3, 0.7]  # the last two: 20 ns is no whole number of bins


def bin_edges(bin_width_ns):
    return _StartStopAccumulator(bin_width_ns, 20.0)._edges


def binned(bin_width_ns, delays):
    """The bin counts the accumulator gives delays, with the tally of its one
    chunk made to return them."""
    acc = _StartStopAccumulator(bin_width_ns, 20.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(correlation, "_tally", lambda *args: np.asarray(delays, dtype=float))
        acc.add(np.array([0.0]), np.array([False]))
    return acc._counts, acc._edges


class TestBinning:
    """The accumulator's bins against np.histogram(delays, bins=edges): each
    bin holds its lower edge, the outer bin its upper edge too, and NaN or a
    delay outside the edges is dropped."""

    @pytest.mark.parametrize("bin_width_ns", BIN_WIDTHS)
    def test_edges_and_their_neighbours(self, bin_width_ns):
        edges = bin_edges(bin_width_ns)
        values = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [-edges[-1], edges[-1], np.nan, -np.inf, np.inf, -1e3, 1e3, -3 * edges[-1], 0.0],
        ])
        counts, _ = binned(bin_width_ns, values)
        np.testing.assert_array_equal(counts, np.histogram(values, bins=edges)[0])
        # all but the two values just outside the outer edges, the five far
        # out of range and NaN
        assert counts.sum() == values.size - 2 - 5 - 1

    @pytest.mark.parametrize("bin_width_ns", BIN_WIDTHS)
    def test_a_delay_on_an_inner_edge_counts_in_the_bin_above(self, bin_width_ns):
        edges = bin_edges(bin_width_ns)
        for i, edge in enumerate(edges):
            counts, _ = binned(bin_width_ns, [edge])
            # the outer bin is closed: its upper edge counts in it
            assert counts[min(i, counts.size - 1)] == counts.sum() == 1

    @pytest.mark.parametrize("bin_width_ns", BIN_WIDTHS)
    def test_out_of_range_and_nan_are_dropped(self, bin_width_ns):
        edges = bin_edges(bin_width_ns)
        outside = [np.nan, -np.inf, np.inf, np.nextafter(edges[0], -np.inf),
                   np.nextafter(edges[-1], np.inf), 1e300, -1e300]
        counts, _ = binned(bin_width_ns, outside)
        assert not counts.any()

    @settings(max_examples=200, deadline=None)
    @given(bin_width_ns=st.sampled_from(BIN_WIDTHS),
           delays=st.lists(st.one_of(st.floats(-25.0, 25.0),
                                     st.integers(-70, 70).map(lambda k: k * 0.1),
                                     st.floats(allow_nan=True, allow_infinity=True)),
                           max_size=200))
    def test_random_delays_match_np_histogram(self, bin_width_ns, delays):
        counts, edges = binned(bin_width_ns, delays)
        np.testing.assert_array_equal(counts, np.histogram(np.array(delays, dtype=float),
                                                           bins=edges)[0])

    @pytest.mark.parametrize("bin_width_ns", BIN_WIDTHS)
    def test_merged_streams_keep_their_counts(self, bin_width_ns):
        # two streams from elsewhere, merged, at 0.3 clicks per ns each
        rng = np.random.default_rng(int(10 * bin_width_ns))
        a = np.sort(rng.uniform(0.0, 2e4, 6000))
        b = np.sort(np.concatenate([rng.uniform(0.0, 2e4, 5000), a[::7] + 1.2]))
        hist = start_stop_histogram(ClickStream(a), ClickStream(b), bin_width_ns, 20.0)
        edges = bin_edges(bin_width_ns)
        delays = reference_delays(a, b, a.size, b.size, edges[-1])
        assert delays.size > 1000
        np.testing.assert_array_equal(hist.counts, np.histogram(delays, bins=edges)[0])


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
    for chunk in chunks:
        for acc in accs:
            feed(acc, *chunk)
    hist, ref = (acc.histogram() for acc in accs)
    np.testing.assert_array_equal(hist.counts, ref.counts)
    np.testing.assert_array_equal(hist.g2, ref.g2)
    return int(ref.counts.sum())


GRID = st.integers(-20, 160).map(lambda k: k * 0.25)


@st.composite
def click_pair(draw, min_size=0, max_size=60):
    """Two sorted channels on a 0.25 ns grid, from -5 ns on."""
    times = st.lists(GRID, min_size=min_size, max_size=max_size)
    return tuple(np.sort(np.array(draw(times), dtype=float)) for _ in range(2))


@st.composite
def pushed_feeds(draw):
    """(chunks, guard_ns): a click pair cut into chunks at grid times, each
    click fed with the chunk that holds it pushed up to guard_ns later, as
    jitter pushes a chunk's clicks back across its start."""
    a, b = draw(click_pair(max_size=120))
    bounds = [-10.0, *sorted(set(draw(st.lists(GRID, max_size=6)))), math.inf]
    guard_ns = draw(st.sampled_from([0.0, 0.5, 2.0]))

    def chunk_index(t):
        shares = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        push = guard_ns * np.array(draw(st.lists(shares, min_size=t.size, max_size=t.size)))
        return np.searchsorted(bounds, t + push, side="right") - 1

    ka, kb = chunk_index(a), chunk_index(b)
    chunks = [(lo, hi - lo, a[ka == k], b[kb == k])
              for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]
    return chunks, guard_ns


class TestMergeTally:
    """The merge and labelled tally against two binary searches per chunk."""

    @settings(max_examples=400, deadline=None)
    @given(pair=click_pair(min_size=1), cut=st.integers(-24, 170).map(lambda k: k * 0.25),
           block=st.sampled_from([1, 2, 3, 5, 2**14]),
           max_delay=st.sampled_from([0.5, 3.0, 20.0, 1e9]))
    def test_delays_equal_binary_search(self, pair, cut, block, max_delay):
        # block sets the blocks of the merge and of the tally's first pass
        a, b = pair
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlation, "MERGE_BLOCK", block)
            mp.setattr(correlation, "TALLY_BLOCK", block)
            times, is_stop = _merge(a, b)
            m = np.searchsorted(times, cut)
            got = np.sort(_tally(times, is_stop, 0, m, max_delay))
        np.testing.assert_array_equal(times, np.sort(np.concatenate(pair)))
        np.testing.assert_array_equal(np.sort(times[is_stop]), b)
        na, nb = np.searchsorted(a, cut), np.searchsorted(b, cut)
        np.testing.assert_array_equal(got, reference_delays(a, b, na, nb, max_delay))
        assert not np.any(got == 0.0)

    @settings(max_examples=300, deadline=None)
    @given(pair=click_pair(min_size=1), cut=st.integers(-24, 170).map(lambda k: k * 0.25),
           seed=st.integers(0, 2**32 - 1), steps=st.sampled_from([1, 4]),
           max_delay=st.sampled_from([0.5, 3.0, 20.0]))
    def test_delays_ignore_label_order_among_ties(self, pair, cut, seed, steps, max_delay):
        # the emitter's stream orders tied clicks by emission, not start first
        times, is_stop = _merge(*pair)
        run = np.concatenate(([0], np.cumsum(np.diff(times) != 0.0)))
        order = np.lexsort((np.random.default_rng(seed).random(times.size), run))
        shuffled = is_stop[order]
        m = np.searchsorted(times, cut)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlation, "FORWARD_STEPS", steps)
            got = [np.sort(_tally(times, labels, 0, m, max_delay)) for labels in (is_stop, shuffled)]
        np.testing.assert_array_equal(*got)

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

    @settings(max_examples=300, deadline=None)
    @given(feeds=pushed_feeds(), max_delay=st.sampled_from([0.5, 3.0, 6.0]),
           steps=st.sampled_from([1, 4]), block=st.sampled_from([2, 2**16]))
    def test_pushed_back_feeds_equal_reference(self, feeds, max_delay, steps, block):
        # ties across and within channels, held clicks, and clicks a chunk
        # brings before the last ones held from the one before
        chunks, guard_ns = feeds
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(correlation, "FORWARD_STEPS", steps)
            mp.setattr(correlation, "TALLY_BLOCK", block)
            assert_chunked_matches_reference(chunks, bin_width_ns=0.25, max_delay_ns=max_delay,
                                             guard_ns=guard_ns)
        a = np.sort(np.concatenate([c[2] for c in chunks]))
        b = np.sort(np.concatenate([c[3] for c in chunks]))
        hist = start_stop_histogram(ClickStream(a), ClickStream(b), 0.25, max_delay)
        expected = np.histogram(reference_delays(a, b, a.size, b.size, max_delay),
                                bins=np.append(hist.tau_ns - 0.125, hist.tau_ns[-1] + 0.125))[0]
        np.testing.assert_array_equal(hist.counts, expected)

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

    @pytest.mark.parametrize("mutant", sorted(TALLY_MUTANTS))
    def test_wrong_tallies_fail(self, mutant, monkeypatch):
        monkeypatch.setattr(correlation, "_tally", mutant_tally(*TALLY_MUTANTS[mutant]))
        with pytest.raises(AssertionError):
            assert_chunked_matches_reference(tied_chunks(0))

    @staticmethod
    def dead_channel_seconds(cls, a, b):
        """(counts, least of three run times) of one chunk fed to cls."""
        times = []
        for _ in range(3):
            acc = cls(10.0, 1000.0)
            t0 = time.perf_counter()
            feed(acc, 0.0, math.inf, a, b)
            hist = acc.histogram()
            times.append(time.perf_counter() - t0)
        return hist.counts, min(times)

    @pytest.mark.parametrize("unbounded", [False, True], ids=["tally", "unbounded-scan"])
    def test_dead_channel_costs_linear_time(self, unbounded, monkeypatch):
        # 20,000 start clicks at 1 per ns and 5 stop clicks: every start
        # click has 10^3 more of its own channel within max_delay
        rng = np.random.default_rng(5)
        a = np.sort(rng.uniform(0.0, 2.0e4, 20_000))
        b = np.sort(rng.uniform(0.0, 2.0e4, 5))
        if unbounded:
            # forward steps until every click is resolved, with no binary
            # search: right, but about 10^3 steps over every start click
            monkeypatch.setattr(correlation, "FORWARD_STEPS", 10**6)
        counts, seconds = self.dead_channel_seconds(_StartStopAccumulator, a, b)
        ref_counts, ref_seconds = self.dead_channel_seconds(ReferenceAccumulator, a, b)
        np.testing.assert_array_equal(counts, ref_counts)
        assert counts.sum() > 1000
        fast = seconds <= 10 * ref_seconds + 0.01
        assert fast != unbounded, (seconds, ref_seconds)

    @pytest.mark.parametrize("held", [False, True], ids=["first-chunk", "with-held-clicks"])
    def test_peak_memory_within_reference(self, held):
        det = DetectorModel()
        streams = [
            generate_click_streams(SingleEmitter(), 0.05, det=det, seed=seed)
            for seed in (1, 2)
        ]
        chunk_ns = 0.05 * NS_PER_S

        def peak(cls, merged=False):
            acc = cls(0.5, 20.0, guard_ns=20.0 * det.timing_jitter_ns + 1.0)
            if held:
                feed(acc, 0.0, chunk_ns, *(s.times_ns for s in streams[0]))
            # each chunk on its own clock, the reference's on the record's
            a, b = (s.times_ns for s in streams[1])
            if cls is ReferenceAccumulator:
                a, b = a + held * chunk_ns, b + held * chunk_ns
            stream = _merge(a, b) if merged else None
            tracemalloc.start()
            try:
                if merged:
                    acc.add(*stream, chunk_ns)
                elif cls is ReferenceAccumulator:
                    acc.add(a, b, end_ns=(1 + held) * chunk_ns)
                else:
                    acc.add(*_merge(a, b), chunk_ns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert streams[1][0].times_ns.size > 40_000
        # the merge and the labelled tally against two binary searches
        assert peak(_StartStopAccumulator) <= 1.1 * peak(ReferenceAccumulator)
        # the tally of a labelled stream takes about the stream's own size
        clicks = sum(s.times_ns.size for s in streams[1])
        assert peak(_StartStopAccumulator, merged=True) <= 1.1 * 9 * clicks

    def test_emitter_chunk_peak_memory(self):
        # one default g2 chunk of the emitter in cmd_g2's own expression,
        # which frees the channels before the tally: the draw, the channel
        # split and the tally of the labelled stream. Its traced peak is
        # 17.9 bytes a click (seed 1), set by the draw
        det = DetectorModel()

        def chunk_peak(seed):
            acc = _StartStopAccumulator(0.5, 20.0, guard_ns=20.0 * det.timing_jitter_ns + 1.0)
            tracemalloc.start()
            try:
                acc.add(*_labelled_clicks(*generate_click_streams(SingleEmitter(), 0.05,
                                                                  det=det, seed=seed)),
                        0.05 * NS_PER_S)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunk_peak(0)  # first calls make lasting allocations of their own
        peak = chunk_peak(1)
        clicks = sum(s.times_ns.size for s in generate_click_streams(SingleEmitter(), 0.05,
                                                                     det=det, seed=1))
        assert clicks > 90_000
        assert peak <= 20.0 * clicks


class TestLabelledClicks:
    """The one click stream a pair of channels is tallied as."""

    def test_channels_of_one_draw_share_their_stream(self):
        for src in (WeakCoherent(0.5), SingleEmitter(), HeraldedSPDC(pair_rate_hz=2.0e7)):
            s0, s1 = generate_click_streams(src, 0.01, seed=3)
            times, is_stop = _labelled_clicks(s0, s1)
            assert times is s0._labelled[0] is s1._labelled[0]
            assert np.all(np.diff(times) >= 0.0)
            np.testing.assert_array_equal(times[~is_stop], s0.times_ns)
            np.testing.assert_array_equal(times[is_stop], s1.times_ns)
            # the channels the other way round: the same times, labels negated
            swapped, stop_is_0 = _labelled_clicks(s1, s0)
            assert swapped is times
            np.testing.assert_array_equal(stop_is_0, ~is_stop)

    def test_other_pairs_are_merged(self):
        w0, w1 = generate_click_streams(WeakCoherent(0.5), 0.01, seed=3)
        v0, _ = generate_click_streams(WeakCoherent(0.5), 0.01, seed=4)
        _, e1 = generate_click_streams(SingleEmitter(), 0.01, seed=3)
        assert ClickStream._labelled is None
        # a public copy keeps no stream
        assert dataclasses.replace(w1)._labelled is None
        for a, b in [(w0, w0), (w0, v0), (dataclasses.replace(w0), w1), (e1, w0)]:
            times, is_stop = _labelled_clicks(a, b)
            assert times is not w0._labelled[0]
            np.testing.assert_array_equal(times, np.sort(np.concatenate([a.times_ns, b.times_ns])))
            np.testing.assert_array_equal(times[~is_stop], a.times_ns)
            np.testing.assert_array_equal(times[is_stop], b.times_ns)

    def test_oracle_is_for_weak_coherent_sources(self):
        with pytest.raises(TypeError, match="WeakCoherent"):
            coherent_expected_counts(SingleEmitter(), DetectorModel(), [0.25], 0.5, 10, 10)


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

    def test_g2_zero_rejects_a_window_past_the_outer_bin_edge(self):
        hist = G2Histogram(
            tau_ns=np.array([-0.75, -0.25, 0.25, 0.75]),
            counts=np.array([10, 2, 4, 10]),
            g2=np.array([1.0, 0.2, 0.4, 1.0]),
            bin_width_ns=0.5,
            baseline=10.0,
            low_statistics=False,
        )
        # the bins end at |tau| = 1, so a window of 2 ns is the widest taken
        for window in (2.001, 3.0, 1e9):
            for estimate in (g2_zero, g2_zero_error):
                with pytest.raises(ValueError, match=r"past the outer bin edge at \|tau\| = 1 ns"):
                    estimate(hist, window_ns=window)

    def test_window_rule_reads_the_bins_before_they_are_made(self):
        # g2 checks its window against _outer_bin before the accumulator
        # exists: the outermost centre and outer edge are the floats the
        # accumulator's bins hold, and the innermost centres sit at half a
        # bin, so the rule refuses what it refused on the bins themselves
        rng = np.random.default_rng(29)
        for _ in range(300):
            bin_width = 10 ** rng.uniform(-3, 3)
            max_delay = bin_width * rng.uniform(2, 5000)
            acc = _StartStopAccumulator(bin_width, max_delay)
            distance = np.abs(acc.tau_ns)
            assert _outer_bin(bin_width, _half_bins(bin_width, max_delay)) == (
                float(distance.max()), acc.span_ns)
            assert distance.min() == bin_width / 2

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


def oracle_streams(det, seed):
    return generate_click_streams(ORACLE_SOURCE, ORACLE_DURATION_S, det=det, seed=seed)


def one_shot_fit(det, seed, generate=oracle_streams, bin_width_ns=0.5):
    """Oracle fit under det of a run drawn by generate(det, seed)."""
    s0, s1 = generate(det, seed)
    hist = start_stop_histogram(s0, s1, bin_width_ns=bin_width_ns)
    expected = coherent_expected_counts(
        ORACLE_SOURCE, det, hist.tau_ns, hist.bin_width_ns, s0.times_ns.size, s1.times_ns.size
    )
    return oracle_fit(hist.counts, expected)


def half_labelled_streams(det, seed):
    """The labelled draw with each click put in channel 1 at probability
    1/2, whatever the efficiencies: a deliberately wrong generator."""
    times = oracle_streams(det, seed)[0]._labelled[0]
    in_1 = np.random.default_rng(seed).random(times.size) < 0.5
    return ClickStream(times[~in_1], "0"), ClickStream(times[in_1], "1")


# each deliberately wrong generator of the oracle source
WRONG_ORACLE_GENERATORS = {
    "no-darks": lambda det, seed: oracle_streams(dataclasses.replace(det, dark_rate_hz=0.0), seed),
    "efficiency-ignored": lambda det, seed: oracle_streams(
        dataclasses.replace(det, efficiency=(1.0, 1.0, 1.0, 1.0)), seed),
    "half-labels": half_labelled_streams,
}


class TestCoherentOracle:
    """Weak-coherent histograms bin by bin against their closed form."""

    @pytest.mark.parametrize("name,inputs", [
        ("bin_width_ns", (math.nan, 10, 10)),
        ("bin_width_ns", (-0.5, 10, 10)),
        ("bin_width_ns", (0.0, 10, 10)),
        ("bin_width_ns", (math.inf, 10, 10)),
        ("n_start", (0.5, -1, 10)),
        ("n_start", (0.5, math.nan, 10)),
        ("n_stop", (0.5, 10, -3)),
        ("n_stop", (0.5, 10, math.inf)),
    ])
    def test_oracle_checks_its_inputs(self, name, inputs):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            coherent_expected_counts(WeakCoherent(), DetectorModel(), [-0.25, 0.25], *inputs)

    def test_oracle_takes_zero_clicks(self):
        expected = coherent_expected_counts(WeakCoherent(), DetectorModel(), [-0.25, 0.25],
                                            0.5, 0, 0)
        np.testing.assert_array_equal(expected, [0.0, 0.0])

    @pytest.mark.parametrize("detector", sorted(ORACLE_DETECTORS))
    def test_one_shot_histogram(self, detector):
        det = ORACLE_DETECTORS[detector]
        assert_fits_oracle([one_shot_fit(det, seed) for seed in ORACLE_SEEDS])

    @pytest.mark.parametrize("bin_width", [0.3, 0.7])
    @pytest.mark.parametrize("detector", sorted(ORACLE_DETECTORS))
    def test_outer_bins_are_whole(self, detector, bin_width):
        # 20 ns is no whole number of these bins: the outer bin on each side
        # reaches past it and must hold every delay in its range
        det = ORACLE_DETECTORS[detector]
        assert_fits_oracle([one_shot_fit(det, seed, bin_width_ns=bin_width)
                            for seed in ORACLE_SEEDS])

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
            expected = coherent_expected_counts(ORACLE_SOURCE, det, rows[:, 0], 0.5, *clicks)
            fits.append(oracle_fit(rows[:, 1], expected))
        capsys.readouterr()
        assert_fits_oracle(fits)

    @pytest.mark.parametrize("fault", sorted(WRONG_ORACLE_GENERATORS))
    def test_rejects_wrong_generators(self, fault):
        det = ORACLE_DETECTORS["lossy-dark"]
        for seed in ORACLE_SEEDS:
            chi2_dof, max_z = one_shot_fit(det, seed, WRONG_ORACLE_GENERATORS[fault])
            assert chi2_dof >= MAX_CHI2_DOF or max_z >= MAX_ABS_Z
