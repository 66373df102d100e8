"""Stochastic photon-counting simulation of the polarization setups.

Sources (heralded pair source, two-level emitter, attenuated pulsed
laser) feed the measurement train of `contexts` through an imperfect
optics and detection model. Counting runs produce CountTable objects;
timing runs produce ClickStream objects for correlation analysis.

Imperfection model
------------------
* Waveplate misalignment is systematic: one offset per optical element is
  drawn once per run, uniform within the stated operating error. A plate
  offset delta rotates the prepared polarization by 2*delta, and an
  analysis-plate offset rotates the measurement basis of its arm by
  2*delta.
* Polarizing-splitter leakage flips the routing of a photon: a
  transmit-bound photon exits the reflected port with probability
  pbs_reflect_leak, a reflect-bound photon exits the transmitted port
  with probability pbs_transmit_leak. The photon keeps its projected
  polarization, only the path label is wrong.
* Detection efficiency thins each detector independently; dark counts are
  Poisson per detector (per integration window for counting runs, per
  pulse gate for pulsed post-selection runs).

Given the misalignment draw, the optics and detectors act on one photon
as an effective POVM: four real symmetric operators E_k, one per
detector, fold in the prepared-state rotation (as R^T E_k R), the rotated
analysis bases, the leaks and the efficiencies, and a photon of state rho
lands on detector k with probability Tr[E_k rho]. The package's one
operator builder, contexts._effective_operators, makes them in closed
form; detection_probs applies them to one state or a whole stack with
one matmul, and the rest, 1 - sum_k Tr[E_k rho], is the photon lost.

Every run is drawn from its exact distribution, not photon by photon. A
counting run is one multinomial over the detectors, as photons are
independent given the systematic draw; a record's runs are drawn in one
batch, each from its own generator. A weak-coherent timing channel i is,
by the splitting and superposition theorems, an independent Poisson
process at r_i = mean * pulse_rate * efficiency[i] / 2 + dark_rate_hz.
By superposition and thinning the pair is one Poisson process at
r_0 + r_1 whose clicks each fall in channel 1 with probability
r_1 / (r_0 + r_1), drawn as one Poisson count of sorted uniform times in
[0, duration) and one uniform per click as its label; Gaussian jitter
would leave it Poisson apart from clicks spilling over the ends, so none
is drawn. Emitter and SPDC emissions, which are not Poisson, each take
one uniform draw as their branch-and-detection label, and their clicks
carry explicit jitter and darks. An emitter run is drawn as one labelled
stream too: its clicks are the jittered emissions, sorted with their
labels where jitter puts one before an earlier one, with the darks merged
in.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from . import qcore
from .contexts import _effective_operators, _trusted, validate_setup

NS_PER_S = 1.0e9

# clicks or emissions per block of a labelled stream's channel split and
# an emitter run's jitter: their index temporaries (at most 128 KB) do not
# grow with a one-shot run, and in a g2 chunk they fit in the memory the
# emitter's renewal draw leaves (_emitter_stream)
_BLOCK = 2**14
# the most clicks _channels splits in one piece, one compress per channel,
# which costs less per click than the block loop: a weak-coherent g2 chunk
# (about 19,000 clicks) is one piece, while a 0.05 s emitter chunk (about
# 100,000) is split in blocks
_WHOLE = 2**16


# ---------------------------------------------------------------------------
# parameter bundles


def _require_count(name: str, n):
    """Reject a photon or pulse count that is not an integer in [1, 2**63)."""
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if not 1 <= n < 2**63:
        raise ValueError(f"{name} must lie in [1, 2**63), got {n}")


def _require_in_range(name: str, value, high: float = math.inf, *, zero_ok=False, high_ok=False):
    """Reject a number from outside that is not finite and in range.

    The range runs from 0 to high, each end excluded unless zero_ok or
    high_ok. NaN, infinities and values that do not compare with numbers,
    such as a string from a config file, fail with a message that names
    name, value and the range.
    """
    try:
        above = 0.0 <= value if zero_ok else 0.0 < value
        if above and (value <= high if high_ok else value < high):
            return
    except TypeError:
        pass
    if high < math.inf:
        rule = f"lie in {'[' if zero_ok else '('}0, {high:g}{']' if high_ok else ')'}"
    else:
        rule = f"be finite and {'nonnegative' if zero_ok else 'positive'}"
    raise ValueError(f"{name} must {rule}, got {value}")


@dataclass(frozen=True)
class DetectorModel:
    """Optics and detection imperfections, defaults at the bench values.

    efficiency : per-detector detection probability, order (D00, D01,
        D10, D11)
    dark_rate_hz : dark count rate per detector
    pbs_reflect_leak : probability that a transmit-bound photon exits the
        reflected port
    pbs_transmit_leak : probability that a reflect-bound photon exits the
        transmitted port
    waveplate_angle_error_deg : operating error of the waveplate settings
    coincidence_window_ns : AND-gate coincidence window for timing runs
    timing_jitter_ns : Gaussian detector jitter of emitter and SPDC timing runs
    integration_time_s : dark-count accumulation window of a counting run
    pulse_window_ns : detection gate per pulse for post-selected runs
    """

    efficiency: tuple = (1.0, 1.0, 1.0, 1.0)
    dark_rate_hz: float = 1.0e3
    pbs_reflect_leak: float = 0.05
    pbs_transmit_leak: float = 0.001
    waveplate_angle_error_deg: float = 0.5
    coincidence_window_ns: float = 5.5
    timing_jitter_ns: float = 0.61
    integration_time_s: float = 1.0e-3
    pulse_window_ns: float = 125.0

    def __post_init__(self):
        eff = np.atleast_1d(self.efficiency)
        if eff.shape != (4,):
            raise ValueError(f"efficiency must be four values in (0, 1], got {self.efficiency}")
        for e in eff:
            _require_in_range("efficiency", e, 1.0, high_ok=True)
        object.__setattr__(self, "efficiency", tuple(float(e) for e in eff))
        for name in ("pbs_reflect_leak", "pbs_transmit_leak"):
            _require_in_range(name, getattr(self, name), 0.5, zero_ok=True)
        _require_in_range("waveplate_angle_error_deg", self.waveplate_angle_error_deg, zero_ok=True)
        # caps far beyond any detector keep the dark mean of a counting run
        # below numpy's Poisson limit (9.2e18) and jittered click times
        # finite, so generated click streams need no check
        for name, high in (("dark_rate_hz", 1e12), ("timing_jitter_ns", 1e9),
                           ("integration_time_s", 1e6)):
            _require_in_range(name, getattr(self, name), high, zero_ok=True, high_ok=True)
        for name in ("coincidence_window_ns", "pulse_window_ns"):
            _require_in_range(name, getattr(self, name))

    @classmethod
    def ideal(cls, **overrides) -> "DetectorModel":
        """Noise-free model: unit efficiency, no darks, no leaks, no jitter."""
        base = cls(
            efficiency=(1.0, 1.0, 1.0, 1.0),
            dark_rate_hz=0.0,
            pbs_reflect_leak=0.0,
            pbs_transmit_leak=0.0,
            waveplate_angle_error_deg=0.0,
            timing_jitter_ns=0.0,
        )
        return replace(base, **overrides) if overrides else base


@dataclass(frozen=True)
class WeakCoherent:
    """Attenuated pulsed laser: Poisson photon number per pulse."""

    mean_photons_per_pulse: float = 6.0e-3
    pulse_rate_hz: float = 3.8e6

    def __post_init__(self):
        _require_in_range("mean_photons_per_pulse", self.mean_photons_per_pulse, zero_ok=True)
        _require_in_range("pulse_rate_hz", self.pulse_rate_hz, zero_ok=True)


@dataclass(frozen=True)
class SingleEmitter:
    """Phenomenological two-level emitter.

    Emissions form a renewal process: after each photon the emitter is
    unavailable for one excited-state lifetime and is then re-excited
    after an exponential waiting time with the given rate. Only the
    correlation shape matters here, not microscopic photophysics.
    """

    excited_lifetime_ns: float = 4.0
    excitation_rate_hz: float = 2.0e6

    def __post_init__(self):
        _require_in_range("excited_lifetime_ns", self.excited_lifetime_ns, zero_ok=True)
        _require_in_range("excitation_rate_hz", self.excitation_rate_hz)


@dataclass(frozen=True)
class HeraldedSPDC:
    """Heralded pair source feeding the AND-gate coincidence scheme.

    Pair emissions are Poissonian at pair_rate with at most one usable
    pair per coincidence window: the gating electronics cannot resolve a
    second pair inside one AND window, and heralded operation presumes
    one photon per gate. The herald arm detects a pair with probability
    herald_efficiency; unheralded pairs open no gate.
    """

    pair_rate_hz: float = 2.0e5
    herald_efficiency: float = 0.8

    def __post_init__(self):
        _require_in_range("pair_rate_hz", self.pair_rate_hz, zero_ok=True)
        _require_in_range(
            "herald_efficiency", self.herald_efficiency, 1.0, zero_ok=True, high_ok=True
        )


# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class CountTable:
    """Integer detector counts of one measurement run.

    counts is indexed [a1, a2] following the detector labels D_{a1,a2};
    with the first splitter out (n1 = 0) real photons land on row a1 = 0
    and any row-1 entries are dark or leakage strays.

    The results of simulate_counts and count_tables_from_csv skip __post_init__.
    """

    setup: tuple
    counts: np.ndarray
    total: int

    def __post_init__(self):
        object.__setattr__(self, "setup", validate_setup(self.setup))
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (2, 2) or np.min(counts) < 0:
            raise ValueError("counts must be a nonnegative (2, 2) table")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(self.total))
        if self.total != int(counts.sum()):
            raise ValueError("total must equal the sum of counts")


_new_count_table = _trusted(CountTable)


@dataclass(frozen=True)
class ClickStream:
    """Sorted detection times (ns) of one detector channel.

    The results of generate_click_streams and and_gate skip __post_init__.
    The two weak-coherent or single-emitter channels of one
    generate_click_streams call keep the stream they were cut from as
    _labelled: (times, in_1, k), the clicks of both channels in time order,
    a label per click that is True for channel 1, and the stream's own
    channel k. Both share the arrays, and correlation._labelled_clicks
    reads them instead of merging the channels again. Clicks at equal
    times may come in either channel order. A stream so kept holds 9 bytes
    per click of both channels on top of the channel's own 8 per click, so
    long as either channel is alive; dataclasses.replace(stream) gives a
    copy that shares times_ns but not the labelled stream.
    """

    times_ns: np.ndarray
    detector: str = "0"
    _labelled = None  # not a field

    def __post_init__(self):
        t = np.asarray(self.times_ns, dtype=float)
        if t.ndim != 1:
            raise ValueError("times_ns must be one-dimensional")
        if t.size and (not np.all(np.isfinite(t)) or np.any(np.diff(t) < 0)):
            raise ValueError("times_ns must be finite and nondecreasing")
        object.__setattr__(self, "times_ns", t)
        object.__setattr__(self, "detector", str(self.detector))


_new_click_stream = _trusted(ClickStream, "_labelled")


# ---------------------------------------------------------------------------
# counting runs


def _draw_misalignment(det: DetectorModel, rng):
    """The run's plate offsets: uniform(-2 err, 2 err) for the preparation,
    twice uniform(-err, err) for each arm.

    One rng.random(3) call takes the place of the two Generator.uniform
    calls, whose low + (high - low) * u it repeats on the same doubles, so
    the offsets and the generator's next draw keep their bits.
    """
    err = math.radians(det.waveplate_angle_error_deg)
    u0, u1, u2 = rng.random(3).tolist()
    # preparation plates rotate the polarization by twice the setting error
    low, high = -2 * err, 2 * err
    prep = low + (high - low) * u0
    low, high = -err, err
    return prep, (2.0 * (low + (high - low) * u1), 2.0 * (low + (high - low) * u2))


def detection_probs(rho, setup, det: DetectorModel, misalignment=None):
    """Exact per-detector landing probabilities for one run or a stack.

    Returns (probs, lost) where probs is the (..., 2, 2) probability of a
    photon being counted at detector D_{a1,a2} and lost the (...)
    probability of no count. misalignment is the (prep_rotation,
    arm_rotations) pair drawn once per run; None means perfectly
    aligned. rho is one state or a (..., 2, 2) stack, setup one setup or
    an (N, 2) sequence of them, prep_rotation a scalar or a (...) array
    and arm_rotations a (..., 2) array; their leading shapes broadcast.

    The detector is an effective POVM: four operators E_k
    (contexts._effective_operators) fold in the rotated preparation, the
    rotated analysis bases, the splitter leaks and the efficiencies, so
    probs is Tr[E_k rho], one matmul of the flattened rho with round-off
    below zero clipped.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim > 2 and rho.shape[-2:] == (2, 2):
        qcore._validate_states(rho.reshape(-1, 2, 2))
    else:
        rho = qcore.validate_state(rho)
    setup = [validate_setup(s) for s in setup] if np.ndim(setup) == 2 else validate_setup(setup)
    prep, arms = misalignment if misalignment is not None else (0.0, (0.0, 0.0))
    leaks = (det.pbs_reflect_leak, det.pbs_transmit_leak)
    ops = _effective_operators(setup, prep, arms, leaks, det.efficiency)
    # E_k is real and symmetric, so Tr[E_k rho] = sum_ij (E_k)_ij Re rho_ij
    p = (rho.real.reshape(rho.shape[:-2] + (1, 4)) @ ops)[..., 0, :]
    probs = np.maximum(p, 0.0).reshape(p.shape[:-1] + (2, 2))
    return probs, np.maximum(0.0, 1.0 - probs.sum(axis=(-2, -1)))


def expected_counts(rho, setup, det: DetectorModel, n, misalignment=None):
    """Mean (..., 2, 2) table of a counting run of n photons.

    Cell k holds n Tr[E_k rho] from detection_probs, at the given
    misalignment, plus the dark mean dark_rate_hz * integration_time_s
    that simulate_counts adds to every detector.
    """
    _require_in_range("n", n, zero_ok=True)
    probs, _ = detection_probs(rho, setup, det, misalignment)
    return n * probs + det.dark_rate_hz * det.integration_time_s


def _counting_runs(rho, setups, n_photons: int, det: DetectorModel | None, seeds) -> list:
    """CountTables of runs of one state, run i through setups[i] and drawing from
    default_rng(seeds[i]) its misalignment, then, after one detection_probs call
    for all runs, its multinomial and darks. Checks n_photons, seeds, state, setups."""
    _require_count("n_photons", n_photons)
    det = det if det is not None else DetectorModel()
    rngs = [np.random.default_rng(seed) for seed in seeds]
    prep, arms = zip(*(_draw_misalignment(det, rng) for rng in rngs))
    rho = qcore.validate_state(rho)
    setups = [validate_setup(setup) for setup in setups]
    probs, lost = detection_probs(rho, setups, det, (np.array(prep), np.array(arms)))
    pvals = np.concatenate((probs.reshape(-1, 4), lost.reshape(-1, 1)), axis=1)
    pvals /= pvals.sum(axis=1, keepdims=True)
    dark_mean = det.dark_rate_hz * det.integration_time_s
    tables = []
    for setup, rng, p in zip(setups, rngs, pvals):
        counts = rng.multinomial(int(n_photons), p)[:4]
        # Python ints, so photons and darks past int64 are caught, not wrapped
        total = sum(counts.tolist())
        if dark_mean > 0.0:
            darks = rng.poisson(dark_mean, size=4)
            total += sum(darks.tolist())
            if total >= 2**63:
                raise ValueError(f"setup {setup}: counts reach 2**63")
            counts = counts + darks
        tables.append(_new_count_table(setup, counts.reshape(2, 2), total))
    return tables


def simulate_counts(rho, setup, n_photons: int, det: DetectorModel | None = None, seed=0) -> CountTable:
    """Counting run: n_photons identical photons through one setup.

    Photons are routed by the exact context probabilities perturbed by
    the detector model; dark counts accumulate over the integration
    window. Reproducible for a fixed seed; the one-run case of
    _counting_runs. Raises ValueError when photons and darks together
    reach 2**63, past what the int64 table holds.
    """
    return _counting_runs(rho, [setup], n_photons, det, [seed])[0]


def dark_click_prob(det: DetectorModel) -> float:
    """Dark click probability per detector within one pulse gate."""
    return 1.0 - math.exp(-det.dark_rate_hz * det.pulse_window_ns / NS_PER_S)


def expected_dark_counts(det: DetectorModel, n_pulses: int) -> np.ndarray:
    """Expected dark clicks per detector over a post-selected pulse run.

    Capped at n_pulses, which the float product can round past (to 2**63
    for the largest run).
    """
    return np.full(4, min(n_pulses, round(n_pulses * dark_click_prob(det))), dtype=np.int64)


def _weakfield_counts(rho, means, setup, n_pulses: int, det: DetectorModel, seeds) -> np.ndarray:
    """Single-click counts of N pulsed runs of one setup, as (N, 4) int64.

    Run i sends states rho[i] at mean photon number means[i] (already
    validated) and draws, from default_rng(seeds[i]), first its
    misalignment and then its table, as weakfield_run does. Everything
    between those draws runs on the whole stack: one detection_probs
    call, then the idle and single-click cells as arrays.
    """
    _require_count("n_pulses", n_pulses)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    prep, arms = zip(*(_draw_misalignment(det, rng) for rng in rngs))
    probs, _ = detection_probs(rho, setup, det, (np.array(prep), np.array(arms)))
    idle = np.exp(-np.asarray(means)[:, None] * probs.reshape(-1, 4)) * (1.0 - dark_click_prob(det))
    # row k of each run holds 1 - idle_k on the diagonal and idle_j elsewhere;
    # products, not quotients, so a detector that always clicks gives exact zeros
    single = np.where(np.eye(4, dtype=bool), 1.0 - idle[:, None, :], idle[:, None, :]).prod(axis=2)
    pvals = np.column_stack((single, np.maximum(0.0, 1.0 - single.sum(axis=1))))
    return np.array([rng.multinomial(int(n_pulses), p)[:4] for rng, p in zip(rngs, pvals)])


def weakfield_run(
    theta: float,
    phi: float,
    src: WeakCoherent,
    setup,
    n_pulses: int,
    det: DetectorModel | None = None,
    seed=0,
) -> CountTable:
    """Pulsed run with single-click post-selection.

    Per pulse the photon number is Poisson with the source mean; each
    photon routes independently; detectors are threshold devices (click
    or no click per pulse) and each detector can also dark-click within
    the pulse gate. Only pulses with exactly one click across the four
    detectors are retained; the returned total is the number of retained
    pulses.

    The retained table is drawn from its exact distribution rather than
    pulse by pulse. Poisson thinning makes the photon numbers reaching
    the detectors independent Poisson(mean * p_k), so detector k stays
    idle with probability q_k = exp(-mean * p_k) * (1 - p_dark),
    independently of the others, and the table is one multinomial draw
    over the cells (1 - q_k) * prod_{j != k} q_j plus a dropped cell.
    Cost and memory do not depend on n_pulses. This is the one-run case
    of _weakfield_counts, which the weak-field scan runs on all its
    points at once.
    """
    if not isinstance(src, WeakCoherent):
        raise TypeError("weakfield_run requires a WeakCoherent source")
    det = det if det is not None else DetectorModel()
    rho = qcore.make_pure_state(theta, phi)[None]
    counts = _weakfield_counts(rho, [src.mean_photons_per_pulse], setup, n_pulses, det, [seed])
    return CountTable(setup=setup, counts=counts[0].reshape(2, 2), total=int(counts.sum()))


# ---------------------------------------------------------------------------
# timing runs


def and_gate(a: ClickStream, b: ClickStream, window_ns: float) -> ClickStream:
    """Coincidence output of an AND gate with the given window.

    Fires once per a-click that has a b-click within window_ns; the
    output time is the later of the two edges.
    """
    _require_in_range("window_ns", window_ns)
    ta, tb = a.times_ns, b.times_ns
    if ta.size == 0 or tb.size == 0:
        return _new_click_stream(np.empty(0), f"{a.detector}&{b.detector}")
    idx = np.searchsorted(tb, ta)
    lo = np.clip(idx - 1, 0, tb.size - 1)
    hi = np.clip(idx, 0, tb.size - 1)
    pick = np.where(np.abs(tb[hi] - ta) < np.abs(tb[lo] - ta), hi, lo)
    nearest = tb[pick]
    fired = np.abs(nearest - ta) <= window_ns
    # nondecreasing already: the nearest click of a sorted stream never
    # moves back as the query time grows
    out = np.maximum(ta[fired], nearest[fired])
    return _new_click_stream(out, f"{a.detector}&{b.detector}")


def _categories(n: int, probs, rng):
    """Exclusive masks of n draws, one uniform each: mask k has probability probs[k]."""
    u = rng.random(n)
    below = [u < c for c in np.cumsum(probs)]
    return [below[0]] + [b ^ a for a, b in zip(below, below[1:])]


def _with_darks_and_jitter(times, det: DetectorModel, duration_ns: float, rng):
    """times with Gaussian jitter added and the Poisson darks
    (_poisson_times) joined to them, sorted.

    The jitter is rng.standard_normal scaled in place and the clicks added
    to it there: this repeats the loc + scale * z of Generator.normal
    (loc = 0) on the same doubles, so the clicks and the generator's next
    draw keep their bits.
    """
    if det.timing_jitter_ns > 0.0 and times.size:
        noise = rng.standard_normal(times.size)
        noise *= det.timing_jitter_ns
        noise += times
        times = noise
    darks = _poisson_times(det.dark_rate_hz, duration_ns, rng)
    if darks.size:
        times = np.concatenate([times, darks])
    # jittered clicks are nearly sorted and the darks are one short run
    # after them: the stable sort (timsort) merges runs in linear time
    return np.sort(times, kind="stable")


def _poisson_times(rate_hz: float, duration_ns: float, rng):
    """A Poisson process at rate_hz on [0, duration_ns): a Poisson count of
    sorted uniform times.

    The times are rng.random scaled in place, which repeats the
    low + (high - low) * u of Generator.uniform (low = 0) on the same
    doubles, so they and the generator's next draw keep their bits.
    """
    times = rng.random(rng.poisson(rate_hz * duration_ns / NS_PER_S))
    times *= duration_ns
    times.sort()
    return times


def _renewal_times(dead_ns: float, rate_hz: float, duration_ns: float, rng):
    """Poisson arrivals at rate_hz with a hard dead time after each event.

    A non-paralyzable dead time on a Poisson process is equivalent to a
    renewal process whose gaps are dead_ns plus an exponential wait, so
    the times can be drawn directly.

    The waits are rng.standard_exponential scaled in place, which repeats
    the scale * E of Generator.exponential on the same doubles, so the
    times and the generator's next draw keep their bits.
    """
    if rate_hz == 0.0:
        return np.empty(0)
    mean_exp_ns = NS_PER_S / rate_hz
    expect = duration_ns / (dead_ns + mean_exp_ns)
    gaps = rng.standard_exponential(int(expect * 1.2 + 100))
    # with a dead time near the float limit the times add up to inf, which
    # is past duration_ns like any other late time
    with np.errstate(over="ignore"):
        gaps *= mean_exp_ns
        gaps += dead_ns
        times = np.cumsum(gaps, out=gaps)
        while times.size and times[-1] < duration_ns:
            more = rng.standard_exponential(int(expect * 0.2 + 100))
            more *= mean_exp_ns
            more += dead_ns
            times = np.concatenate([times, times[-1] + np.cumsum(more, out=more)])
    return times[:np.searchsorted(times, duration_ns)]


def _renewal_rate_hz(dead_ns: float, rate_hz: float) -> float:
    """Mean event rate of _renewal_times: one event per dead_ns plus 1 / rate_hz."""
    return rate_hz / (1.0 + rate_hz * dead_ns / NS_PER_S)


def _coherent_rates_hz(src: WeakCoherent, det: DetectorModel):
    """Click rates in Hz of a weak-coherent source's two channels: branch i
    takes mean * pulse_rate / 2 photons per second, efficiency[i] of them
    click, and the darks add to that."""
    branch_hz = src.mean_photons_per_pulse * src.pulse_rate_hz / 2
    return tuple(branch_hz * e + det.dark_rate_hz for e in det.efficiency[:2])


def _click_rate_bound_hz(src, det: DetectorModel) -> float:
    """An upper bound on the mean rate in Hz of either channel's clicks in
    generate_click_streams, and of the emissions the clicks are drawn from.

    A weak-coherent channel is its own Poisson rate; an emitter or SPDC
    channel holds at most every emission, or every pair, plus its darks.
    """
    if isinstance(src, WeakCoherent):
        return max(_coherent_rates_hz(src, det))
    if isinstance(src, SingleEmitter):
        emissions = _renewal_rate_hz(src.excited_lifetime_ns, src.excitation_rate_hz)
    elif isinstance(src, HeraldedSPDC):
        emissions = _renewal_rate_hz(det.coincidence_window_ns, src.pair_rate_hz)
    else:
        raise TypeError(f"unsupported source model: {src!r}")
    return emissions + det.dark_rate_hz


def _channels(times, in_1):
    """The clicks of each label of a labelled stream, channel 0 (in_1
    False) first. A stream of more than _WHOLE clicks is taken in blocks
    of _BLOCK clicks, so that the index temporaries stay small however
    long it is; mode="clip" (every index is in range) writes into the
    channel itself, where the default mode would stage it in a copy."""
    if times.size <= _WHOLE:
        return times.compress(~in_1), times.compress(in_1)
    n_1 = int(np.count_nonzero(in_1))
    channels = np.empty(times.size - n_1), np.empty(n_1)
    filled = [0, 0]
    for lo in range(0, times.size, _BLOCK):
        block, labels = times[lo:lo + _BLOCK], in_1[lo:lo + _BLOCK]
        for k in (0, 1):
            at = (labels if k else ~labels).nonzero()[0]
            block.take(at, out=channels[k][filled[k]:filled[k] + at.size], mode="clip")
            filled[k] += at.size
            del at  # before the next block's indices are made
    return channels


def _emitter_stream(src: SingleEmitter, det: DetectorModel, duration_ns: float, rng):
    """(times, in_1): a single emitter's clicks of both channels as one
    time-sorted stream, and a label per click that is True for channel 1.

    The draws are those of _categories and _with_darks_and_jitter per
    branch, so each channel holds the clicks it would be cut from: the
    jitter is rng.standard_normal scaled in place, which repeats
    Generator.normal (loc = 0) on the same doubles, and the darks are
    _poisson_times. The jitter is added in the emission buffer in emission
    order and lost emissions are dropped. Where jitter puts an emission
    before an earlier one, the emissions are sorted with their labels
    before the darks are merged in. Clicks at equal times may come in
    either channel order.
    """
    emitted = _renewal_times(src.excited_lifetime_ns, src.excitation_rate_hz, duration_ns, rng)
    n = emitted.size
    # The stream gets its own buffer, with room for the darks (their mean
    # and 8 sigma) unless they outnumber the emissions. The renewal draw's
    # larger buffer is freed before the branch draw, and every later array
    # of the chunk fits in the memory it leaves, so that the heap's top
    # stays below glibc's trim threshold (twice that buffer) and a g2
    # chunk takes no fresh pages.
    dark_mean = 2 * det.dark_rate_hz * duration_ns / NS_PER_S
    room = int(dark_mean + 8 * math.sqrt(dark_mean)) + 16
    times = np.empty(n + (room if room <= n else 0))
    times[:n] = emitted
    del emitted
    c_0, c_1 = np.cumsum([e / 2 for e in det.efficiency[:2]])
    u = rng.random(n)
    in_1 = u >= c_0
    kept = u < c_1 if c_1 < 1.0 else None
    del u
    if kept is not None:
        in_1 &= kept
    n_1 = int(np.count_nonzero(in_1))
    n_kept = n if kept is None else int(np.count_nonzero(kept))
    jitter = det.timing_jitter_ns > 0.0
    darks = []
    for k, n_k in enumerate((n_kept - n_1, n_1)):
        if jitter and n_k:
            noise = rng.standard_normal(n_k)
            noise *= det.timing_jitter_ns
            used = 0
            for lo in range(0, n, _BLOCK):
                pick = in_1[lo:lo + _BLOCK] if k else ~in_1[lo:lo + _BLOCK]
                if not k and kept is not None:
                    pick &= kept[lo:lo + _BLOCK]
                at = lo + pick.nonzero()[0]
                times[at] += noise[used:used + at.size]
                used += at.size
            del noise
        darks.append(_poisson_times(det.dark_rate_hz, duration_ns, rng))
    if n_kept < n:
        times[:n_kept] = times[:n].compress(kept)
        in_1 = in_1.compress(kept)
    dark = np.concatenate(darks)
    dark_1 = np.arange(dark.size) >= darks[0].size
    emissions = times[:n_kept]
    if jitter and bool(np.any(emissions[1:] < emissions[:-1])):
        # jitter put some emissions before an earlier one: they are sorted
        # with their labels, equal times in emission order. The stable sort
        # in place moves the times as the stable argsort moves the labels,
        # with no gathered copy of them
        in_1 = in_1[np.argsort(emissions, kind="stable")]
        emissions.sort(kind="stable")
    if dark.size:
        order = np.argsort(dark, kind="stable")
        dark, dark_1 = dark.take(order), dark_1.take(order)
    end = n_kept + dark.size
    if end <= times.size:
        times[n_kept:end] = dark
        times = times[:end]
    else:
        times = np.concatenate((times[:n_kept], dark))
    if dark.size:
        # the labels with the darks' labels inserted where those fall; the
        # new array is made before its mask, so that freeing the mask
        # leaves no hole in front of it
        at = np.searchsorted(emissions, dark, side="right") + np.arange(dark.size)
        labels = np.empty(end, dtype=bool)
        is_emission = np.ones(end, dtype=bool)
        is_emission[at] = False
        labels[is_emission] = in_1
        labels[at] = dark_1
        in_1 = labels
        # timsort merges the darks' run into the emissions' run in place
        times.sort(kind="stable")
    return times, in_1


def generate_click_streams(src, duration_s: float, det: DetectorModel | None = None, seed=0):
    """Timed detection records of a source feeding a two-branch splitter.

    Returns two ClickStream objects, each drawn from its exact per-channel
    distribution (module docstring) with branch efficiencies 0 and 1 of
    the detector model and its dark rate:

    * WeakCoherent: one Poisson process per channel on [0, duration),
      drawn as their superposition with a label per click.
    * SingleEmitter: the renewal emission stream, each emission labelled
      detected in branch 0, detected in branch 1, or lost, drawn as one
      labelled stream (_emitter_stream).
    * HeraldedSPDC: the AND-gate outputs of each signal branch with the
      herald stream. Pairs come at most one per coincidence window, each
      labelled unheralded, heralded with its signal detected in branch 0
      or 1, or heralded with its signal lost.

    The two channels of a weak-coherent or emitter run keep the labelled
    stream they are split from (_channels) as _labelled (ClickStream), so
    the pair holds about 17 bytes per click where the channels alone
    would hold 8.
    """
    _require_in_range("duration_s", duration_s)
    det = det if det is not None else DetectorModel()
    rng = np.random.default_rng(seed)
    duration_ns = duration_s * NS_PER_S

    if isinstance(src, WeakCoherent):
        r0, r1 = _coherent_rates_hz(src, det)
        times = _poisson_times(r0 + r1, duration_ns, rng)
        # a click at all means r0 + r1 > 0
        in_1 = rng.random(times.size) < (r1 / (r0 + r1) if times.size else 0.0)
    elif isinstance(src, SingleEmitter):
        times, in_1 = _emitter_stream(src, det, duration_ns, rng)
    elif isinstance(src, HeraldedSPDC):
        pairs = _renewal_times(det.coincidence_window_ns, src.pair_rate_hz, duration_ns, rng)
        h = src.herald_efficiency
        probs = [1.0 - h, *(h * e / 2 for e in det.efficiency[:2])]
        unheralded, *signal = _categories(pairs.size, probs, rng)
        idler = _with_darks_and_jitter(pairs.compress(~unheralded), det, duration_ns, rng)
        idler = _new_click_stream(idler, "i")
        outputs = []
        for i in (0, 1):
            sig = _with_darks_and_jitter(pairs.compress(signal[i]), det, duration_ns, rng)
            sig = _new_click_stream(sig, f"s{i}")
            outputs.append(and_gate(sig, idler, det.coincidence_window_ns))
        return outputs
    else:
        raise TypeError(f"unsupported source model: {src!r}")
    return [_new_click_stream(t, str(k), (times, in_1, k))
            for k, t in enumerate(_channels(times, in_1))]


# ---------------------------------------------------------------------------
# serialization

COUNT_CSV_HEADER = "n1,n2,a1,a2,counts"
SCHEMA_VERSION = 1


def _write_csv(path, header: str, blocks, meta=()):
    """Write a table file: the schema line, a '# key=value' line per meta
    pair (str of the value, the repr for a float), the header, then the
    rows of each block as it arrives.

    A block is a sequence of rows of Python numbers (ndarray.tolist() gives
    them), each written as its repr: for a float, the shortest text that
    parses back to it, so re-read rows give the same values. No text of a
    block is held once it is written.
    """
    with open(path, "w") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n"
                 + "".join([f"# {key}={value}\n" for key, value in meta]) + header + "\n")
        for block in blocks:
            fh.write("".join([",".join(map(repr, row)) + "\n" for row in block]))


def count_tables_to_csv(tables, path):
    """Write CountTables as CSV rows n1,n2,a1,a2,counts (one file, any number of setups)."""
    _write_csv(path, COUNT_CSV_HEADER, [[
        (*table.setup, a1, a2, c)
        for table in tables
        for a1, row in enumerate(table.counts.tolist())
        for a2, c in enumerate(row)
    ]])


def count_tables_from_csv(path):
    """Read CountTables back from CSV; returns {setup: CountTable}.

    Raises ValueError with the offending line number on malformed rows and
    on a '# schema_version=' line of another version than SCHEMA_VERSION;
    a file with no schema line reads as the current version.
    """
    acc: dict[tuple, list] = {}
    seen_header = False
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, version = line[1:].partition("=")
                if key.strip() == "schema_version" and version.strip() != str(SCHEMA_VERSION):
                    raise ValueError(f"{path}: line {lineno}: schema_version {version.strip()} "
                                     f"is not supported, expected {SCHEMA_VERSION}")
                continue
            if not seen_header:
                if line.replace(" ", "") != COUNT_CSV_HEADER:
                    raise ValueError(
                        f"{path}: line {lineno}: expected header '{COUNT_CSV_HEADER}', got '{line}'"
                    )
                seen_header = True
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError(f"{path}: line {lineno}: expected 5 fields, got {len(parts)}")
            try:
                n1, n2, a1, a2, value = (int(p) for p in parts)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: non-integer field ({exc})") from None
            if (n1, n2) not in ((0, 0), (0, 1), (1, 0), (1, 1)) or a1 not in (0, 1) or a2 not in (0, 1):
                raise ValueError(f"{path}: line {lineno}: setup or outcome bits out of range")
            if value < 0:
                raise ValueError(f"{path}: line {lineno}: negative count")
            # Python ints, so a sum beyond int64 is caught, not wrapped
            cells = acc.setdefault((n1, n2), [0, 0, 0, 0])
            cells[2 * a1 + a2] += value
            if sum(cells) >= 2**63:
                raise ValueError(f"{path}: line {lineno}: setup {(n1, n2)} counts reach 2**63")
    if not seen_header:
        raise ValueError(f"{path}: line 1: empty file, expected header '{COUNT_CSV_HEADER}'")
    if not acc:
        raise ValueError(f"{path}: no data rows found")
    return {  # every field was checked above, line by line
        setup: _new_count_table(setup, np.array(cells, np.int64).reshape(2, 2), sum(cells))
        for setup, cells in sorted(acc.items())
    }
