"""Start-stop correlation histograms and g2 extraction.

The histogram collects, for every click of the start channel, the delay
to the next click of the stop channel (positive side), and symmetrically
the delay from each stop click to the next start click (negative side).
At click rates well below one per delay range this start-stop record is
an unbiased estimate of the cross-correlation.

Normalization uses the histogram's own far tail: bins with |tau| in the
outer fifth of the delay range average to the accidental level of an
uncorrelated pair of streams, so dividing by that mean sets g2 = 1 at
large delay without needing the absolute rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .photonsim import ClickStream

TAIL_FRACTION = 0.8


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


def _forward_delays(a, b, max_delay_ns):
    """Delay from each a-click to the next b-click, capped at max_delay_ns."""
    idx = np.searchsorted(b, a, side="right")
    ok = idx < b.size
    delays = b[idx[ok]] - a[ok]
    return delays[delays <= max_delay_ns]


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
    """

    def __init__(self, bin_width_ns: float, max_delay_ns: float, guard_ns: float = 0.0):
        for name, value in (("bin_width_ns", bin_width_ns), ("max_delay_ns", max_delay_ns)):
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if max_delay_ns < 2 * bin_width_ns:
            raise ValueError("max_delay_ns must span at least two bins")
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
        return np.sort(np.concatenate([held, times]), kind="stable")

    def add(self, start_ns, stop_ns, end_ns: float = math.inf):
        """Tally one chunk; end_ns = inf marks the last one."""
        a = self._merge(self._held[0], start_ns)
        b = self._merge(self._held[1], stop_ns)
        self._horizon_ns = end_ns - self._guard_ns
        cut = self._horizon_ns - self._max_delay_ns
        na = np.searchsorted(a, cut)
        nb = np.searchsorted(b, cut)
        pos = _forward_delays(a[:na], b, self._max_delay_ns)
        neg = _forward_delays(b[:nb], a, self._max_delay_ns)
        self._counts += np.histogram(np.concatenate([pos, -neg]), bins=self._edges)[0]
        # copies, so the chunk's arrays are freed
        self._held = (a[na:].copy(), b[nb:].copy())

    def histogram(self) -> G2Histogram:
        """Normalized histogram of the whole record; no chunk may follow."""
        self.add(np.empty(0), np.empty(0))
        counts = self._counts
        centers = 0.5 * (self._edges[:-1] + self._edges[1:])
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


def _window(hist: G2Histogram, window_ns: float) -> np.ndarray:
    """Mask of the bins with |tau| <= window_ns / 2."""
    if not (0.0 < window_ns < math.inf):
        raise ValueError(f"window_ns must be finite and positive, got {window_ns}")
    sel = np.abs(hist.tau_ns) <= window_ns / 2 + 1e-9
    if not np.any(sel):
        raise ValueError("window_ns is narrower than one histogram bin")
    return sel


def g2_zero(hist: G2Histogram, window_ns: float = 5.5) -> float:
    """Mean normalized coincidence level over |tau| <= window_ns / 2.

    Returns nan for a histogram flagged low_statistics.
    """
    sel = _window(hist, window_ns)
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
    sel = _window(hist, window_ns)
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
