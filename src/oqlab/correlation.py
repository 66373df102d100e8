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
    for name, value in (("bin_width_ns", bin_width_ns), ("max_delay_ns", max_delay_ns)):
        if not (0.0 < value < math.inf):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if max_delay_ns < 2 * bin_width_ns:
        raise ValueError("max_delay_ns must span at least two bins")
    half_bins = int(np.ceil(max_delay_ns / bin_width_ns))
    edges = bin_width_ns * np.arange(-half_bins, half_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])

    ta, tb = start.times_ns, stop.times_ns
    pos = _forward_delays(ta, tb, max_delay_ns)
    neg = _forward_delays(tb, ta, max_delay_ns)
    counts, _ = np.histogram(np.concatenate([pos, -neg]), bins=edges)

    tail = np.abs(centers) >= TAIL_FRACTION * max_delay_ns
    baseline = counts[tail].mean() if np.any(tail) else 0.0
    low = baseline <= 0.0
    g2 = counts / baseline if not low else np.zeros_like(counts, dtype=float)
    return G2Histogram(
        tau_ns=centers,
        counts=counts,
        g2=g2,
        bin_width_ns=float(bin_width_ns),
        baseline=float(baseline),
        low_statistics=bool(low),
    )


def g2_zero(hist: G2Histogram, window_ns: float = 5.5) -> float:
    """Mean normalized coincidence level over |tau| <= window_ns / 2.

    Returns nan for a histogram flagged low_statistics.
    """
    if not (0.0 < window_ns < math.inf):
        raise ValueError(f"window_ns must be finite and positive, got {window_ns}")
    sel = np.abs(hist.tau_ns) <= window_ns / 2 + 1e-9
    if not np.any(sel):
        raise ValueError("window_ns is narrower than one histogram bin")
    if hist.low_statistics:
        return float("nan")
    return float(hist.g2[sel].mean())


def dip_width(hist: G2Histogram, threshold: float = 0.2) -> float:
    """Total width (ns) of the bins suppressed below threshold.

    A crude but monotone measure of the antibunching dip extent; zero
    for a flat or flagged histogram.
    """
    if hist.low_statistics:
        return 0.0
    return float(hist.bin_width_ns * np.sum(hist.g2 < threshold))
