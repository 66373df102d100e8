"""Start-stop correlation histograms and g2 extraction.

The histogram collects, for every click of the start channel, the delay
to the next click of the stop channel (positive side), and symmetrically
the delay from each stop click to the next start click (negative side).
At click rates well below one per delay range this start-stop record is
an unbiased estimate of the cross-correlation. A click with no click of
the other channel after it adds nothing, and neither does a click tied
with one of the other channel: each side looks for the next click
strictly after, so a zero delay is counted on neither side. The bins are
whole: max_delay_ns is rounded up to whole bins, and every delay up to
that outer edge is tallied, so the outermost bins fill like the rest.

The tally reads both channels as one time-sorted click stream with a
label per click. A click can have a delay in range only if the next
click of the stream is that close, and one diff finds those
few clicks. Each is resolved exactly: FORWARD_STEPS steps along the
stream to the first later click of the other label, then, for a click
still open, a binary search in the other label's clicks. The cost is
linear in the clicks for every input, however the labels fall.

Every run of a built-in source is drawn in this form to begin with
(photonsim.generate_click_streams), and its two channels keep the stream.
Any other pair of channels, such as streams from elsewhere, goes through
one stable merge of the two sorted channels (a stable argsort of their
concatenation, which timsort does in linear time), done in blocks split
at times common to both channels that end at every MERGE_BLOCK-th click
of either channel, so the merge's temporaries stay small. The merge puts
start clicks first among equal times, a drawn stream may put either
first; the tally's delays do not depend on that order, as a tie is never
a delay. A long record is tallied chunk by chunk, each on its own clock
(_StartStopAccumulator).

Normalization uses the histogram's own far tail: bins with |tau| in the
outer fifth of the delay range average to the accidental level of an
uncorrelated pair of streams, so dividing by that mean sets g2 = 1 at
large delay without needing the absolute rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .photonsim import NS_PER_S, ClickStream, WeakCoherent, _coherent_rates_hz, _require_in_range

TAIL_FRACTION = 0.8

# most bins a histogram may have on each side of tau = 0 (40 by default); a
# larger ceil(max_delay_ns / bin_width_ns) is refused before any allocation
MAX_HALF_BINS = 2**20

# clicks per channel between the ends of the merge's blocks; a block this
# size keeps the argsort's input and permutation at 64 KB each, so that the
# merge's temporaries do not grow with the channels
MERGE_BLOCK = 2**12

# clicks the tally steps along the stream from a near click before it looks
# the next click of the other label up by binary search
FORWARD_STEPS = 4

# clicks per block of the tally's first pass, so that its gaps (512 KB) do
# not grow with a one-shot record
TALLY_BLOCK = 2**16


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


def _merge(start_ns, stop_ns):
    """Both channels' clicks as one time-sorted stream, and a label per
    click that is True for a stop click.

    A stable merge (start clicks first on ties), in blocks that each hold
    the clicks of both channels in one time range.
    """
    na, nb = start_ns.size, stop_ns.size
    times = np.empty(na + nb)
    is_stop = np.empty(na + nb, dtype=bool)
    ends = np.concatenate((start_ns[MERGE_BLOCK::MERGE_BLOCK], stop_ns[MERGE_BLOCK::MERGE_BLOCK]))
    ends.sort()
    block_ends = zip(
        [*np.searchsorted(start_ns, ends).tolist(), na],
        [*np.searchsorted(stop_ns, ends).tolist(), nb],
    )
    i0 = j0 = 0
    for i1, j1 in block_ends:
        block = np.concatenate((start_ns[i0:i1], stop_ns[j0:j1]))
        order = np.argsort(block, kind="stable")
        k0, k1 = i0 + j0, i1 + j1
        block.take(order, out=times[k0:k1])
        np.greater_equal(order, i1 - i0, out=is_stop[k0:k1])
        i0, j0 = i1, j1
    return times, is_stop


def _labelled_clicks(start: ClickStream, stop: ClickStream):
    """(times, is_stop): the clicks of both streams as one time-sorted
    stream, and a label per click that is True for a stop click.

    Two channels of one generate_click_streams call that share their
    labelled stream (see ClickStream) return it as it is, or its labels
    negated when the channels come in the other order; any other pair is
    merged. The shared times are the streams' own array, not a copy.
    """
    a, b = start._labelled, stop._labelled
    if a is not None and b is not None and a[0] is b[0] and a[2] != b[2]:
        times, in_1, channel = a
        return times, (~in_1 if channel else in_1)
    return _merge(start.times_ns, stop.times_ns)


def _tally(times, is_stop, lo, m, max_delay_ns):
    """Delays from each of the clicks times[lo:m] to the next click of the
    other label strictly after it, up to max_delay_ns: positive from a
    start click, negative from a stop click.

    times must hold every click within max_delay_ns after those.
    """
    # only a click whose next click is this close can have a delay in range
    near = np.concatenate([
        k + np.flatnonzero(np.diff(times[k:min(k + TALLY_BLOCK, m) + 1]) <= max_delay_ns)
        for k in range(lo, m, TALLY_BLOCK)
    ] or [np.empty(0, dtype=np.intp)])
    at, from_stop = times.take(near), is_stop.take(near)
    delays = [np.empty(0)]
    for step in range(1, FORWARD_STEPS + 1):
        if not near.size:
            return np.concatenate(delays)
        # near is sorted, so the clicks with no click step places on are its tail
        keep = int(np.searchsorted(near, times.size - step))
        near, at, from_stop = near[:keep], at[:keep], from_stop[:keep]
        nxt = near + step
        gap = times.take(nxt)
        gap -= at
        in_range = gap <= max_delay_ns
        # the first later click of the other label ends the search; a tie is not later
        hit = in_range & (gap > 0.0) & (is_stop.take(nxt) != from_stop)
        delays.append(np.where(from_stop, -gap, gap).compress(hit))
        open_ = in_range & ~hit
        near, at, from_stop = near.compress(open_), at.compress(open_), from_stop.compress(open_)
    if near.size:
        # the rest by binary search in the other label's clicks
        for label, sign in ((False, 1.0), (True, -1.0)):
            t = at.compress(from_stop == label)
            if not t.size:
                continue
            others = times.compress(is_stop != label)
            idx = np.searchsorted(others, t, side="right")
            ok = idx < others.size
            gap = others.take(idx.compress(ok))
            gap -= t.compress(ok)
            delays.append(sign * gap.compress(gap <= max_delay_ns))
    return np.concatenate(delays)


def _half_bins(bin_width_ns: float, max_delay_ns: float) -> int:
    """Bins on each side of tau = 0: max_delay_ns rounded up to whole bins
    of bin_width_ns. Refuses a width or delay that is not finite and
    positive, fewer than two bins and more than MAX_HALF_BINS a side,
    before any bin is made."""
    _require_in_range("bin_width_ns", bin_width_ns)
    _require_in_range("max_delay_ns", max_delay_ns)
    if max_delay_ns < 2 * bin_width_ns:
        raise ValueError("max_delay_ns must span at least two bins")
    if max_delay_ns / bin_width_ns > MAX_HALF_BINS:
        raise ValueError(
            f"max_delay_ns / bin_width_ns must be at most {MAX_HALF_BINS} bins per "
            f"side, got {max_delay_ns} / {bin_width_ns}"
        )
    return int(np.ceil(max_delay_ns / bin_width_ns))


def _edges(bin_width_ns: float, lo: int, hi: int) -> np.ndarray:
    """The bin edges k * bin_width_ns for k from lo to hi."""
    return bin_width_ns * np.arange(lo, hi + 1)


def _centres(edges) -> np.ndarray:
    """Centres of the bins between consecutive edges."""
    return 0.5 * (edges[:-1] + edges[1:])


def _outer_bin(bin_width_ns: float, half_bins: int):
    """(tau_ns, edge_ns) of the outermost bin of a histogram of half_bins
    bins a side: its centre, as the histogram's tau_ns holds it, and its
    outer edge, the accumulator's span_ns. Made without the bins."""
    edges = _edges(bin_width_ns, half_bins - 1, half_bins)
    return float(_centres(edges)[0]), float(edges[1])


class _StartStopAccumulator:
    """Start-stop histogram fed with consecutive chunks of one record.

    Each add() takes one chunk as one time-sorted labelled click stream
    (_labelled_clicks) on the chunk's own clock: its clicks fall in
    [0, length_ns), and detector jitter may push them at most guard_ns
    past either end. A click is tallied once every click within span_ns
    after it is known, so its delay is the one start_stop_histogram finds
    on the whole record. The clicks not yet tallied are held back, moved
    length_ns earlier onto the next chunk's clock and tallied with its
    first clicks; the rest of the chunk is dropped. So no time the tally
    sees exceeds one chunk and the guard, and a delay is rounded at that
    scale however long the record. A chunk that brings a click before
    -guard_ns, where the tally may already have reached, raises
    ValueError, since its delays could no longer be counted right.

    Each chunk is tallied as in the module docstring, in time linear in
    its clicks and with temporaries set by TALLY_BLOCK. The delays are the
    ones a binary search per click gives: each runs to the next click of
    the other channel strictly after, so a tie adds no zero delay. span_ns
    is the outer edge of the bins, max_delay_ns rounded up to whole bins.
    """

    def __init__(self, bin_width_ns: float, max_delay_ns: float, guard_ns: float = 0.0):
        half_bins = _half_bins(bin_width_ns, max_delay_ns)
        self._edges = _edges(bin_width_ns, -half_bins, half_bins)
        self._counts = np.zeros(2 * half_bins, dtype=np.int64)
        self._bin_width_ns = float(bin_width_ns)
        self.span_ns = float(self._edges[-1])
        self._guard_ns = guard_ns
        self._horizon_ns = -math.inf
        self._held = (np.empty(0), np.empty(0, dtype=bool))

    def add(self, times_ns, is_stop, length_ns: float = math.inf):
        """Tally one chunk: one time-sorted click stream on the chunk's clock
        and a label per click, True for a stop click. length_ns = inf marks
        the last chunk.

        The delays are binned by one searchsorted in the edges and one
        bincount, which repeats np.histogram(delays, bins=edges) count for
        count: each bin holds its lower edge, the outer bin its upper edge
        too, and NaN or a delay outside the edges is dropped.
        """
        if times_ns.size and times_ns[0] < self._horizon_ns:
            raise ValueError(
                f"chunk brings a click at {times_ns[0]} ns, before {self._horizon_ns} ns "
                "where the histogram is already tallied"
            )
        cut = length_ns - self._guard_ns - self.span_ns
        held, held_stop = self._held
        delays = []
        lo = 0
        if held.size:
            # the held clicks, and the chunk's clicks that jitter put before
            # the last of them, are tallied on a short stream that reaches
            # span_ns past them; the chunk's later clicks never look back
            lo = int(np.searchsorted(times_ns, held[-1]))
            hi = int(np.searchsorted(times_ns, held[-1] + self.span_ns, side="right"))
            edge = np.concatenate((held, times_ns[:hi]))
            edge_stop = np.concatenate((held_stop, is_stop[:hi]))
            if lo:
                order = np.argsort(edge, kind="stable")
                edge, edge_stop = edge.take(order), edge_stop.take(order)
            k = min(held.size + lo, int(np.searchsorted(edge, cut)))
            delays.append(_tally(edge, edge_stop, 0, k, self.span_ns))
            if k < held.size + lo:
                # the cut falls among them (a chunk shorter than the delay
                # range and guard), so all from the cut on is held
                times_ns = np.concatenate((edge[k:], times_ns[hi:]))
                is_stop = np.concatenate((edge_stop[k:], is_stop[hi:]))
                lo = 0
        m = int(np.searchsorted(times_ns, cut))
        delays.append(_tally(times_ns, is_stop, lo, m, self.span_ns))
        delays = np.concatenate(delays)
        if delays.size:
            # bin k - 1 for the k edges at or below a delay; a delay on the
            # outer edge, which finds them all, goes back to the last bin
            at = np.searchsorted(self._edges, delays, side="right")
            self._counts += np.bincount(at, minlength=self._edges.size + 1)[1:-1]
            self._counts[-1] += np.count_nonzero(delays == self.span_ns)
        # on the next chunk's clock, as new arrays, so the chunk's are freed
        self._held = (times_ns[m:] - length_ns, is_stop[m:].copy())
        self._horizon_ns = -self._guard_ns if length_ns < math.inf else math.inf

    @property
    def tau_ns(self) -> np.ndarray:
        """Centres of the histogram's bins."""
        return _centres(self._edges)

    def histogram(self) -> G2Histogram:
        """Normalized histogram of the whole record; no chunk may follow."""
        self.add(np.empty(0), np.empty(0, dtype=bool))
        counts = self._counts
        centers = self.tau_ns
        tail = np.abs(centers) >= TAIL_FRACTION * self.span_ns
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

    Returns whole bins covering (-max_delay_ns, max_delay_ns), the outer
    ones reaching past it when it is no whole number of bins; tau = 0
    falls on a bin edge so the two sides stay symmetric.
    """
    acc = _StartStopAccumulator(bin_width_ns, max_delay_ns)
    acc.add(*_labelled_clicks(start, stop))
    return acc.histogram()


def coherent_expected_counts(src, det, tau_ns, bin_width_ns: float, n_start, n_stop):
    """Expected start-stop histogram of a weak-coherent run, in closed form.

    Channel i is a Poisson process at r_i = mean * pulse_rate *
    efficiency[i] / 2 + dark rate, so the delay from a start click to the
    next stop click is exponential at the stop rate r, and the bin [l, u)
    of |tau| expects N_start (e^{-r l} - e^{-r u}) for N_start start
    clicks; the negative side swaps the channels. tau_ns are the bin
    centres. Clicks within the delay range of the run's end, which have
    no next click to find, are left out of the count, a relative bias of
    about max_delay / duration. bin_width_ns must be finite and above 0,
    the click counts n_start and n_stop finite and at least 0.
    """
    if not isinstance(src, WeakCoherent):
        raise TypeError(f"the closed form holds for a WeakCoherent source, not {src!r}")
    _require_in_range("bin_width_ns", bin_width_ns)
    _require_in_range("n_start", n_start, zero_ok=True)
    _require_in_range("n_stop", n_stop, zero_ok=True)
    r_start, r_stop = (r / NS_PER_S for r in _coherent_rates_hz(src, det))
    tau_ns = np.asarray(tau_ns, dtype=float)
    lo, hi = np.abs(tau_ns) - bin_width_ns / 2, np.abs(tau_ns) + bin_width_ns / 2
    positive = tau_ns > 0
    n = np.where(positive, n_start, n_stop)
    r = np.where(positive, r_stop, r_start)
    return n * (np.exp(-r * lo) - np.exp(-r * hi))


def _window_rule(bin_width_ns: float, outer_tau_ns: float, window_ns: float):
    """Refuse a g2(0) window, |tau| <= window_ns / 2, that holds no bin or
    reaches past the outer bin edge.

    The bins are bin_width_ns wide with tau = 0 on an edge, so the
    innermost are centred at |tau| = bin_width_ns / 2, and the outer edge
    is outer_tau_ns, the outermost centre, plus half a bin. A wider window
    would average the tail bins that set the baseline and name a range
    the histogram never covered.
    """
    _require_in_range("window_ns", window_ns)
    if bin_width_ns / 2 > window_ns / 2 + 1e-9:
        raise ValueError("window_ns is narrower than one histogram bin")
    edge = outer_tau_ns + bin_width_ns / 2
    if window_ns / 2 > edge + 1e-9:
        raise ValueError(f"window_ns reaches past the outer bin edge at |tau| = {edge:g} ns")


def _window(tau_ns, bin_width_ns: float, window_ns: float) -> np.ndarray:
    """Mask of the bins, by their centres tau_ns, with |tau| <= window_ns / 2,
    once _window_rule takes the window."""
    distance = np.abs(tau_ns)
    _window_rule(bin_width_ns, float(distance.max()), window_ns)
    return distance <= window_ns / 2 + 1e-9


def g2_zero(hist: G2Histogram, window_ns: float = 5.5) -> float:
    """Mean normalized coincidence level over |tau| <= window_ns / 2.

    Returns nan for a histogram flagged low_statistics. Raises ValueError
    for a window narrower than one bin or reaching past the outer bin edge.
    """
    sel = _window(hist.tau_ns, hist.bin_width_ns, window_ns)
    if hist.low_statistics:
        return float("nan")
    return float(hist.g2[sel].mean())


def g2_zero_error(hist: G2Histogram, window_ns: float = 5.5) -> float:
    """Poisson counting error of g2_zero, ignoring the baseline's own error.

    g2_zero is the window's raw count n over baseline x bins, so its
    error is sqrt(n) over the same. An empty window is given the error of
    one count, as sqrt(0) = 0 would claim an exact zero. Returns nan for a
    histogram flagged low_statistics; the window is checked as g2_zero
    checks it.
    """
    sel = _window(hist.tau_ns, hist.bin_width_ns, window_ns)
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
