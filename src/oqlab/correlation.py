"""Start-stop correlation histograms and g2 extraction.

The histogram collects, for every click of the start channel, the delay
to the next click of the stop channel (positive side), and symmetrically
the delay from each stop click to the next start click (negative side).
At click rates well below one per delay range this start-stop record is
an unbiased estimate of the cross-correlation. A click with no click of
the other channel after it adds nothing, and neither does a click tied
with one of the other channel: each side looks for the next click
strictly after, so a zero delay is counted on neither side.

Both lookups come from a linear merge of the two sorted channels: a
stable argsort of their concatenation, stop clicks first, which timsort
does in linear time. A click's merged position less its own rank is the
count of clicks of the other channel before it, and so the index of the
next one. For a stop click tied with a start click the merge order puts
the start click after it, so such stop clicks alone are looked up again
by binary search. A chunk is merged in blocks, split at times common to
both channels, that end at every MERGE_BLOCK-th click of either channel,
so the merge's temporaries stay small.

Normalization uses the histogram's own far tail: bins with |tau| in the
outer fifth of the delay range average to the accidental level of an
uncorrelated pair of streams, so dividing by that mean sets g2 = 1 at
large delay without needing the absolute rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .photonsim import ClickStream, _require_in_range

TAIL_FRACTION = 0.8

# most bins a histogram may have on each side of tau = 0 (40 by default); a
# larger ceil(max_delay_ns / bin_width_ns) is refused before any allocation
MAX_HALF_BINS = 2**20

# clicks per channel between the ends of the tally's merge blocks; a block
# this size keeps the argsort's input and permutation (256 KB each) in cache
MERGE_BLOCK = 2**14


@dataclass(frozen=True)
class G2Histogram:
    """Normalized start-stop histogram.

    tau_ns are bin centers, counts the raw start-stop tallies, g2 the
    tail-normalized values. low_statistics marks a histogram whose tail
    is empty (no baseline to normalize against); its g2 values are zero
    and downstream numbers should not be trusted.
    """

    tau_ns: np.ndarray
    counts: np.ndarray
    g2: np.ndarray
    bin_width_ns: float
    baseline: float
    low_statistics: bool

    def __post_init__(self):
        object.__setattr__(self, "tau_ns", np.asarray(self.tau_ns, dtype=float))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        object.__setattr__(self, "g2", np.asarray(self.g2, dtype=float))


def _next_clicks(a, b, block_a: slice, block_b: slice):
    """Index of the next b-click after each of a[block_a], and of the next
    a-click after each of b[block_b]; the array's size where none follows.

    Equal to searchsorted(b, a[block_a], "right") and searchsorted(a,
    b[block_b], "right"), from one merge of the two blocks. The blocks
    must hold the clicks of both channels in one time range, so that a
    count within the blocks plus the other block's start is a count over
    the whole channel.
    """
    sa, sb = a[block_a], b[block_b]
    # b first, so a stop click equal to a start click sorts before it; the
    # permutation is dropped as soon as its labels are read
    is_a = np.argsort(np.concatenate((sb, sa)), kind="stable") >= sb.size
    # merged position less own rank: the count of b <= a_i ...
    ia = np.flatnonzero(is_a)
    ia -= np.arange(sa.size)
    ia += block_b.start
    # ... and of a < b_j, which misses the a-clicks tied with b_j
    ib = np.flatnonzero(~is_a)
    del is_a
    ib -= np.arange(sb.size)
    ib += block_a.start
    tied = np.flatnonzero(a.take(ib, mode="clip") == sb)
    if tied.size:
        ib.put(tied, np.searchsorted(a, sb.take(tied), side="right"))
    return ia, ib


def _delays(a, b, idx, max_delay_ns):
    """Delays b[idx] - a up to max_delay_ns, for the a-clicks with idx < b.size."""
    # idx never decreases, so the clicks with a next click are a prefix
    n = int(np.searchsorted(idx, b.size))
    delays = b.take(idx[:n])
    delays -= a[:n]
    return delays.compress(delays <= max_delay_ns)


def _tally(a, b, na, nb, max_delay_ns):
    """Delays from each of a[:na] to the next b-click (positive) and from
    each of b[:nb] to the next a-click (negative), up to max_delay_ns.

    a[:na] and b[:nb] must be the clicks before one time, the cut.
    """
    # blocks end at every MERGE_BLOCK-th click of either channel and at the
    # cut, each the clicks of both channels in [previous end, end)
    ends = np.concatenate((a[MERGE_BLOCK:na:MERGE_BLOCK], b[MERGE_BLOCK:nb:MERGE_BLOCK]))
    ends.sort()
    block_ends = zip(
        [*np.searchsorted(a, ends).tolist(), na], [*np.searchsorted(b, ends).tolist(), nb]
    )
    delays = []
    i0 = j0 = 0
    for i1, j1 in block_ends:
        ia, ib = _next_clicks(a, b, slice(i0, i1), slice(j0, j1))
        delays.append(_delays(a[i0:i1], b, ia, max_delay_ns))
        delays.append(-_delays(b[j0:j1], a, ib, max_delay_ns))
        i0, j0 = i1, j1
    return np.concatenate(delays)


class _StartStopAccumulator:
    """Start-stop histogram fed with consecutive chunks of two channels.

    Each add() takes one chunk of both channels as sorted times on a
    common clock, plus the time end_ns before which no later chunk brings
    a click (less a guard_ns margin, for clicks that detector jitter
    pushes back across the chunk boundary). A click is tallied once every
    click within max_delay_ns after it is known, so its delay is the one
    start_stop_histogram finds on the whole record. The clicks not yet
    tallied are held back and merged into the next chunk; the rest of the
    chunk is dropped. A chunk that brings a click before the range
    already tallied raises ValueError, since its delays could no longer
    be counted right.

    Each add() finds the next click after every click it tallies by the
    block merge of the module docstring, so a chunk costs time linear in
    its clicks and memory set by MERGE_BLOCK. The delays are the ones a
    binary search per click gives: each runs to the next click of the
    other channel strictly after, so a tie adds no zero delay.
    """

    def __init__(self, bin_width_ns: float, max_delay_ns: float, guard_ns: float = 0.0):
        _require_in_range("bin_width_ns", bin_width_ns)
        _require_in_range("max_delay_ns", max_delay_ns)
        if max_delay_ns < 2 * bin_width_ns:
            raise ValueError("max_delay_ns must span at least two bins")
        if max_delay_ns / bin_width_ns > MAX_HALF_BINS:
            raise ValueError(
                f"max_delay_ns / bin_width_ns must be at most {MAX_HALF_BINS} bins per "
                f"side, got {max_delay_ns} / {bin_width_ns}"
            )
        half_bins = int(np.ceil(max_delay_ns / bin_width_ns))
        self._edges = bin_width_ns * np.arange(-half_bins, half_bins + 1)
        self._counts = np.zeros(2 * half_bins, dtype=np.int64)
        self._bin_width_ns = float(bin_width_ns)
        self._max_delay_ns = max_delay_ns
        self._guard_ns = guard_ns
        self._horizon_ns = -math.inf
        self._held = (np.empty(0), np.empty(0))

    def _merge(self, held, times):
        if times.size and times[0] < self._horizon_ns:
            raise ValueError(
                f"chunk brings a click at {times[0]} ns, before {self._horizon_ns} ns "
                "where the histogram is already tallied"
            )
        if not held.size:
            return times
        if not times.size:
            return held
        merged = np.concatenate((held, times))
        # jitter may push a chunk's first clicks before the last held ones
        return merged if held[-1] <= times[0] else np.sort(merged, kind="stable")

    def add(self, start_ns, stop_ns, end_ns: float = math.inf):
        """Tally one chunk; end_ns = inf marks the last one."""
        a = self._merge(self._held[0], start_ns)
        b = self._merge(self._held[1], stop_ns)
        self._horizon_ns = end_ns - self._guard_ns
        cut = self._horizon_ns - self._max_delay_ns
        na = int(np.searchsorted(a, cut))
        nb = int(np.searchsorted(b, cut))
        if a.size and b.size:
            delays = _tally(a, b, na, nb, self._max_delay_ns)
            self._counts += np.histogram(delays, bins=self._edges)[0]
        # copies, so the chunk's arrays are freed
        self._held = (a[na:].copy(), b[nb:].copy())

    @property
    def tau_ns(self) -> np.ndarray:
        """Centres of the histogram's bins."""
        return 0.5 * (self._edges[:-1] + self._edges[1:])

    def histogram(self) -> G2Histogram:
        """Normalized histogram of the whole record; no chunk may follow."""
        self.add(np.empty(0), np.empty(0))
        counts = self._counts
        centers = self.tau_ns
        tail = np.abs(centers) >= TAIL_FRACTION * self._max_delay_ns
        baseline = counts[tail].mean() if np.any(tail) else 0.0
        low = baseline <= 0.0
        g2 = counts / baseline if not low else np.zeros_like(counts, dtype=float)
        return G2Histogram(
            tau_ns=centers,
            counts=counts,
            g2=g2,
            bin_width_ns=self._bin_width_ns,
            baseline=float(baseline),
            low_statistics=bool(low),
        )


def start_stop_histogram(
    start: ClickStream,
    stop: ClickStream,
    bin_width_ns: float = 0.5,
    max_delay_ns: float = 20.0,
) -> G2Histogram:
    """Two-sided start-stop histogram between two click streams.

    Returns bins covering (-max_delay_ns, max_delay_ns); tau = 0 falls on
    a bin edge so the two sides stay symmetric.
    """
    acc = _StartStopAccumulator(bin_width_ns, max_delay_ns)
    acc.add(start.times_ns, stop.times_ns)
    return acc.histogram()


def _window(tau_ns, window_ns: float) -> np.ndarray:
    """Mask of the bins, by their centres tau_ns, with |tau| <= window_ns / 2."""
    _require_in_range("window_ns", window_ns)
    sel = np.abs(tau_ns) <= window_ns / 2 + 1e-9
    if not np.any(sel):
        raise ValueError("window_ns is narrower than one histogram bin")
    return sel


def g2_zero(hist: G2Histogram, window_ns: float = 5.5) -> float:
    """Mean normalized coincidence level over |tau| <= window_ns / 2.

    Returns nan for a histogram flagged low_statistics.
    """
    sel = _window(hist.tau_ns, window_ns)
    if hist.low_statistics:
        return float("nan")
    return float(hist.g2[sel].mean())


def g2_zero_error(hist: G2Histogram, window_ns: float = 5.5) -> float:
    """Poisson counting error of g2_zero, ignoring the baseline's own error.

    g2_zero is the window's raw count n over baseline x bins, so its
    error is sqrt(n) over the same. An empty window is given the error of
    one count, as sqrt(0) = 0 would claim an exact zero. Returns nan for a
    histogram flagged low_statistics.
    """
    sel = _window(hist.tau_ns, window_ns)
    if hist.low_statistics:
        return float("nan")
    n = max(int(hist.counts[sel].sum()), 1)
    return float(math.sqrt(n) / (hist.baseline * np.count_nonzero(sel)))


def dip_width(hist: G2Histogram, threshold: float = 0.2) -> float:
    """Total width (ns) of the bins suppressed below threshold.

    A crude but monotone measure of the antibunching dip extent; zero
    for a flat or flagged histogram.
    """
    if hist.low_statistics:
        return 0.0
    return float(hist.bin_width_ns * np.sum(hist.g2 < threshold))
