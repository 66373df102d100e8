"""Command-line front end.

Subcommands: predict (exact quasiprobability at one setting), scan
(parameter sweeps written as CSV), simulate (Monte Carlo counting run
plus analysis report), g2 (timing run and correlation histogram), and
analyze (count CSVs to a JSON report). Each is one cmd_<name>(args): it
computes, writes its files, prints to sys.stdout and returns its payload.

Angles are degrees at this boundary and radians everywhere else. The
analysis drivers seed simulate's and the weak-field scan's runs from
--seed; g2 chunk k draws from SeedSequence(--seed, spawn_key=(k,)).

Exit codes: 0 success, 2 usage, 3 malformed or degenerate data, 4 I/O.
A data error names an entry of a config file or count CSV as 'path: line
N: <field> ...' and a flag as typed (the pulse and photon counts by their
library names). Every number from a flag or config file passes
photonsim's one range check, so NaN, infinities and values out of range,
such as a non-finite --calibration factor, exit 3 and write nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import qcore
from .analysis import (
    BOOTSTRAP_MAX,
    ExperimentRecord,
    analyze,
    dark_count_correction,
    reads_low_counts,
    simulate_record,
    weakfield_scan,
)
from .contexts import _probabilities, context_table
from .correlation import (
    _labelled_clicks,
    _StartStopAccumulator,
    _window,
    g2_zero,
    g2_zero_error,
)
from .oq import _quasi_rows, oq_distribution
from .photonsim import (
    NS_PER_S,
    SCHEMA_VERSION,
    DetectorModel,
    HeraldedSPDC,
    SingleEmitter,
    WeakCoherent,
    _click_rate_bound_hz,
    _require_in_range,
    _write_csv,
    count_tables_from_csv,
    count_tables_to_csv,
    generate_click_streams,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4

BUILTIN_DETECTORS = {
    "ideal": DetectorModel.ideal,
    "bench": DetectorModel,
    "dark-only": lambda: DetectorModel.ideal(dark_rate_hz=1.0e3),
}

SOURCE_KINDS = {
    "weak-coherent": WeakCoherent,
    "single-emitter": SingleEmitter,
    "heralded-spdc": HeraldedSPDC,
}


# ---------------------------------------------------------------------------
# config files


def load_config(path):
    """Parse a flat key = value config file.

    Returns {key: (value, line_number)}; values are floats, tuples of
    floats (comma separated), or bare strings. Malformed lines raise
    ValueError naming the line.
    """
    entries = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected 'key = value', got '{line}'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if not key or not value:
                raise ValueError(f"{path}: line {lineno}: empty key or value")
            if key in entries:
                raise ValueError(f"{path}: line {lineno}: duplicate key '{key}'")
            if "," in value:
                try:
                    parsed = tuple(float(p) for p in value.split(","))
                except ValueError:
                    raise ValueError(
                        f"{path}: line {lineno}: expected comma-separated numbers, got '{value}'"
                    ) from None
            else:
                try:
                    parsed = float(value)
                except ValueError:
                    parsed = value
            entries[key] = (parsed, lineno)
    return entries


def _configured(path, entries, base, what: str):
    """base with each config entry applied by its own dataclasses.replace,
    so a bad value is reported as 'path: line N: <field> ...' (no field's
    range depends on another's)."""
    fields = {f.name for f in dataclasses.fields(base)}
    for key, (value, lineno) in entries.items():
        if key not in fields:
            raise ValueError(f"{path}: line {lineno}: unknown {what} parameter '{key}'")
        try:
            base = dataclasses.replace(base, **{key: value})
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return base


def resolve_detector(name_or_path: str) -> DetectorModel:
    """Build a DetectorModel from a builtin name or a config file path."""
    if name_or_path in BUILTIN_DETECTORS:
        return BUILTIN_DETECTORS[name_or_path]()
    return _configured(name_or_path, load_config(name_or_path), DetectorModel(), "detector")


def resolve_source(name_or_path: str):
    """Build a source model from a builtin kind name or a config file path."""
    if name_or_path in SOURCE_KINDS:
        return SOURCE_KINDS[name_or_path]()
    entries = load_config(name_or_path)
    if "kind" not in entries:
        raise ValueError(f"{name_or_path}: missing required key 'kind'")
    kind, kind_line = entries.pop("kind")
    if kind not in SOURCE_KINDS:
        raise ValueError(
            f"{name_or_path}: line {kind_line}: unknown source kind '{kind}' "
            f"(expected one of {sorted(SOURCE_KINDS)})"
        )
    return _configured(name_or_path, entries, SOURCE_KINDS[kind](), kind)


def _flag_values(flag: str, text: str, convert=float, four=False, zero_ok=False) -> list:
    """The comma-separated numbers of a flag, four of them if four, each
    finite and above 0 (at least 0 with zero_ok); errors name the flag."""
    parts = text.split(",")
    if four and len(parts) != 4:
        raise ValueError(f"{flag} must be four comma-separated values, got '{text}'")
    try:
        values = [convert(p) for p in parts]
    except ValueError:
        kind = "integers" if convert is int else "numbers"
        raise ValueError(f"{flag} must be comma-separated {kind}, got '{text}'") from None
    for value in values:
        _require_in_range(flag, value, zero_ok=zero_ok)
    return values


# ---------------------------------------------------------------------------
# output helpers


def _json_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _quasi_payload(q, **fields) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "w": [[float(v) for v in row] for row in q.w],
        "negativity": float(q.negativity),
        "nsit_dev": [float(v) for v in q.nsit_dev],
        "aot_dev": [float(v) for v in q.aot_dev],
        **fields,
    }


def _counting_report(rec, fields: dict, mode="lab", error_mode="rss", n_boot=None, seed=0):
    """simulate's and analyze's report of rec: the command's own fields,
    analyze(rec, mode, error_mode, n_boot, seed) with its error and
    error_method, and rec's flags plus "low_counts" (reads_low_counts of
    rec and its delta or bootstrap error)."""
    q, budget = analyze(rec, mode, error_mode, n_boot, seed)
    error = {"statistical": float(budget.statistical_error),
             "systematic": float(budget.systematic_error),
             "total": float(budget.combined_error()), "mode": budget.mode}
    method = "delta" if n_boot is None else "bootstrap" if n_boot else "none"
    resolved = None if method == "none" else error["statistical"]
    low = ["low_counts"] if reads_low_counts(rec, mode, resolved) else []
    return _quasi_payload(q, **fields, error=error, error_method=method,
                          flags=[*rec.flags, *low])


def _write_text(path, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _require_writable_dir(path):
    """Raise the OSError that opening path for writing would raise if its
    directory is missing, is not a directory or is not writable. Nothing
    is created, so a run that fails after this check (exit 3) still leaves
    no file, and one that passes it draws before the file is opened."""
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif not os.access(directory, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


# ---------------------------------------------------------------------------
# subcommands


def _print_quasi_text(payload: dict):
    write = sys.stdout.write
    if "theta_deg" in payload:
        write(f"theta = {payload['theta_deg']:g} deg, phi = {payload.get('phi_deg', 0.0):g} deg\n")
    write("W:\n")
    for row in payload["w"]:
        write("  " + "  ".join(f"{v:+.6f}" for v in row) + "\n")
    write(f"negativity = {payload['negativity']:.6f}\n")
    write(f"nsit_dev = {max(payload['nsit_dev']):.6f}\n")
    write(f"aot_dev = {max(payload['aot_dev']):.6f}\n")
    if "error" in payload:
        err = payload["error"]
        write(f"error = {err['total']:.6f} (statistical {err['statistical']:.6f}, "
              f"systematic {err['systematic']:.6f}, {err['mode']})\n")
    if payload.get("flags"):
        write(f"flags = {', '.join(payload['flags'])}\n")


def cmd_predict(args) -> dict:
    rho = qcore.make_pure_state(math.radians(args.theta), math.radians(args.phi))
    q = oq_distribution(context_table(rho))
    payload = _quasi_payload(q, theta_deg=args.theta, phi_deg=args.phi)
    if args.json:
        sys.stdout.write(_json_report(payload))
    else:
        _print_quasi_text(payload)
    return payload


_QUASI_HEADER = "w00,w01,w10,w11,negativity,nsit_dev,aot_dev"


# the pure-grid and bloch-disk scans compute and write at most this many
# rows at a time, so their memory is set by one block, not by the grid
SCAN_BLOCK = 1024


def _block_bounds(n: int) -> list:
    """Bounds of nearly equal blocks that tile range(n) in order.

    Blocks hold at most SCAN_BLOCK rows and, for n >= 2, at least two: a
    one-row block would run eq. (1) as a matrix-vector product, whose
    last bits can differ from the matrix product of larger blocks. Only
    at SCAN_BLOCK = 2 and odd n does that leave one block of three rows.
    """
    k = max(1, min(-(-n // SCAN_BLOCK), n // 2))
    return [n * i // k for i in range(k + 1)]


# most points a scan axis may hold (8 MB of angles); a flag that asks for
# more is refused before the axis is built
SCAN_AXIS_MAX = 2**20


def _scan_axis(flag: str, value, start: float, stop: float, step: float) -> np.ndarray:
    """np.arange(start, stop + 1e-9, step), the axis that flag = value sets.

    An axis of more than SCAN_AXIS_MAX points is refused with an error
    naming the flag and the point count. The count is arange's own,
    ceil((stop + 1e-9 - start) / step), compared before the ceil so that
    an infinite quotient is refused too.
    """
    end = stop + 1e-9
    points = (end - start) / step
    if points > SCAN_AXIS_MAX:
        count = math.ceil(points) if math.isfinite(points) else points
        raise ValueError(
            f"{flag} {value:g} gives {count:.15g} points per axis, "
            f"more than the {SCAN_AXIS_MAX} allowed"
        )
    return np.arange(start, end, step)


def _quasi_columns(rho) -> np.ndarray:
    """Exact scan columns of an (N, 2, 2) state stack, in one batch.

    One vectorised state check, one kernel call and one evaluation of
    eq. (1) for all N states; returns (N, 7): w row-major, negativity,
    and the largest nsit and aot deviations.
    """
    w, neg, nsit, aot = _quasi_rows(_probabilities(qcore._validate_states(rho)))
    return np.column_stack((w.reshape(-1, 4), neg, nsit.max(axis=1), aot.max(axis=1)))


def _scan_blocks(n: int, m: int, rows):
    """The rows of an exact n x m scan in _block_bounds blocks, row i * m + j
    for point (i, j): rows(i, j) maps a block's index arrays to its leading
    columns and (N, 2, 2) states, whose _quasi_columns follow."""
    bounds = _block_bounds(n * m)
    for lo, hi in zip(bounds, bounds[1:]):
        i, j = np.divmod(np.arange(lo, hi), m)
        lead, rho = rows(i, j)
        yield np.column_stack((*lead, _quasi_columns(rho)))


def _scan_rows_pure_grid(args):
    thetas = _scan_axis("--theta-step", args.theta_step, 0.0, 90.0, args.theta_step)
    phis = _scan_axis("--phi-step", args.phi_step, 0.0, 90.0, args.phi_step)

    def rows(i, j):
        theta, phi = thetas[i], phis[j]
        return (theta, phi), qcore._pure_states(np.radians(theta), np.radians(phi))

    return "theta_deg,phi_deg," + _QUASI_HEADER, _scan_blocks(len(thetas), len(phis), rows)


def _scan_rows_bloch_disk(args):
    thetas = _scan_axis("--theta-step", args.theta_step, 0.0, 180.0, args.theta_step)
    # arange can overshoot 1 by round-off at the last step
    alphas = _scan_axis("--alpha-steps", args.alpha_steps, -1.0, 1.0, 1.0 / args.alpha_steps)
    alphas = np.clip(alphas, -1.0, 1.0)
    # make_mixed_state(t1, t1 + pi, alpha) for every (theta, alpha), theta
    # the outer loop: the two pure branches per theta, then the weights
    t1 = np.radians(thetas)
    first = qcore._pure_states(t1, np.zeros_like(t1))
    second = qcore._pure_states(t1 + math.pi, np.zeros_like(t1))
    w1 = ((1.0 + alphas) / 2.0)[:, None, None]
    w2 = ((1.0 - alphas) / 2.0)[:, None, None]

    def rows(i, j):
        rho = w1[j] * first[i] + w2[j] * second[i]
        # x and z as bloch_vector computes them, so these columns keep
        # their bytes
        x = np.trace(rho @ qcore.SIGMA_X, axis1=1, axis2=2).real
        z = np.trace(rho @ qcore.SIGMA_Z, axis1=1, axis2=2).real
        return (thetas[i], alphas[j], x, z), rho

    return "theta1_deg,alpha,x,z," + _QUASI_HEADER, _scan_blocks(len(thetas), len(alphas), rows)


def _scan_rows_weak_field(args):
    det = resolve_detector(args.det)
    means = _flag_values("--means", args.means)
    thetas = _scan_axis("--theta-step", args.theta_step, 0.0, 90.0, args.theta_step)
    _require_writable_dir(args.out)
    try:
        w, *negs = weakfield_scan(thetas, means, args.pulses, det, args.seed)
    except ValueError as exc:
        # the driver's grid cap, under the flags' names
        flags = f"--theta-step {args.theta_step:g} and --means"
        raise ValueError(str(exc).replace("thetas_deg and means", flags)) from None
    theta, mean = (g.ravel() for g in np.meshgrid(thetas, means, indexing="ij"))
    header = ("theta_deg,mean_photons,w00,w01,w10,w11,"
              "negativity_exact,negativity_uncorrected,negativity_corrected")
    # one block: every point is drawn and checked before the file opens
    return header, [np.column_stack((theta, mean, w.reshape(-1, 4), *(c.ravel() for c in negs)))]


def cmd_scan(args) -> None:
    _require_in_range("--theta-step", args.theta_step)
    _require_in_range("--phi-step", args.phi_step)
    _require_in_range("--alpha-steps", args.alpha_steps)
    builders = {
        "pure-grid": _scan_rows_pure_grid,
        "bloch-disk": _scan_rows_bloch_disk,
        "weak-field": _scan_rows_weak_field,
    }
    # a builder runs every check that can reject its scan before it
    # returns; the rows it yields are computed as the file is written, so
    # no table of the whole scan is ever held
    header, blocks = builders[args.kind](args)
    _write_csv(args.out, header, (block.tolist() for block in blocks))
    sys.stdout.write(f"wrote {args.out}\n")


def cmd_simulate(args) -> dict:
    det = resolve_detector(args.det)
    rho = qcore.make_pure_state(math.radians(args.theta), math.radians(args.phi))
    rec = simulate_record(rho, args.photons, det, args.seed,
                          theta_deg=args.theta, phi_deg=args.phi, source="simulated")
    fields = dict(theta_deg=args.theta, phi_deg=args.phi, seed=args.seed, n_photons=args.photons)
    # analysed before any file is written, so a run it rejects leaves none
    payload = _counting_report(rec, fields, error_mode=args.error_mode)
    os.makedirs(args.out_dir, exist_ok=True)
    files = [f"counts_{n1}{n2}.csv" for n1, n2 in rec.tables] + ["report.json"]
    for name, table in zip(files, rec.tables.values()):
        count_tables_to_csv([table], os.path.join(args.out_dir, name))
    _write_text(os.path.join(args.out_dir, "report.json"), _json_report(payload))
    _print_quasi_text(payload)
    sys.stdout.write(f"wrote {', '.join(files)} in {args.out_dir}\n")
    return payload


# g2 simulates its run as independent chunks (the last one shorter) of at
# most G2_CHUNK_S seconds and G2_CHUNK_CLICKS clicks per channel, so peak
# memory is set by one chunk, not by --duration or the source's rate.
# Every built-in source (the single emitter, near 2 MHz of emissions, is
# the fastest) keeps G2_CHUNK_S.
G2_CHUNK_S = 0.05
G2_CHUNK_CLICKS = 2**17
# most chunks a g2 run may take: 2^20 chunks of G2_CHUNK_S are 14.6 h of
# simulated time and hours of work, so a --duration that asks for more is
# refused before any click is drawn
G2_CHUNKS_MAX = 2**20


def _g2_chunks(duration_s, src, det, edge_ns: float, guard_ns: float):
    """Lengths in seconds of the chunks that tile [0, duration_s): G2_CHUNK_S,
    or the time src through det takes to reach G2_CHUNK_CLICKS clicks per
    channel if that is shorter, and the last one shorter still. Refused
    before a click is drawn: any chunk length short of edge_ns, the outer
    bin edge the tally holds clicks for, plus guard_ns, and more than
    G2_CHUNKS_MAX chunks, counted before the ceil so that an infinite
    quotient is refused too."""
    rate_hz = _click_rate_bound_hz(src, det)
    chunk_s, chunks = G2_CHUNK_S, f"chunks of {G2_CHUNK_S:g} s"
    if rate_hz * G2_CHUNK_S > G2_CHUNK_CLICKS:
        chunk_s = G2_CHUNK_CLICKS / rate_hz
        chunks = (f"source clicks at up to {rate_hz:.4g} Hz per channel, so chunks of "
                  f"{G2_CHUNK_CLICKS} clicks")
    if chunk_s * NS_PER_S < edge_ns + guard_ns:
        raise ValueError(
            f"{chunks} last {chunk_s * NS_PER_S:.4g} ns, shorter than the "
            f"{edge_ns:.4g} ns outer bin edge plus the {guard_ns:.4g} ns jitter guard"
        )
    count = duration_s / chunk_s
    if count > G2_CHUNKS_MAX:
        raise ValueError(
            f"--duration {duration_s:g} s takes {count:.4g} chunks of {chunk_s:g} s, more "
            f"than the {G2_CHUNKS_MAX} allowed"
        )
    n = max(1, math.ceil(count))
    while n > 1 and (n - 1) * chunk_s >= duration_s:
        n -= 1
    return itertools.chain(itertools.repeat(chunk_s, n - 1), [duration_s - (n - 1) * chunk_s])


def cmd_g2(args) -> dict:
    # every flag is checked before the run, so a bad one costs no click streams
    _require_in_range("--duration", args.duration)
    if args.window is not None:
        _require_in_range("--window", args.window)
    det = resolve_detector(args.det)
    src = resolve_source(args.source)
    # numpy's normal draws never leave about 14 sigma, so no jittered click
    # of a chunk lands more than 20 sigma + 1 ns before the chunk's start
    guard_ns = 20.0 * det.timing_jitter_ns + 1.0
    try:
        acc = _StartStopAccumulator(args.bin_width, args.max_delay, guard_ns=guard_ns)
    except ValueError as exc:
        # the accumulator's checks of the histogram flags, under the flags' names
        message = str(exc).replace("max_delay_ns", "--max-delay")
        raise ValueError(message.replace("bin_width_ns", "--bin-width")) from None
    # g2(0) averages the bins its window holds, so check that it holds one
    # and no more than the histogram covers
    window = args.window if args.window is not None else det.coincidence_window_ns
    try:
        _window(acc.tau_ns, args.bin_width, window)
    except ValueError as exc:
        name = "--window" if args.window is not None else "the detector's coincidence window"
        message = str(exc).replace("window_ns", f"{name} of {window:g} ns")
        flag, value = (("--bin-width", args.bin_width) if "narrower" in message
                       else ("--max-delay", args.max_delay))
        raise ValueError(f"{message} ({flag} {value:g} ns)") from None
    chunks = _g2_chunks(args.duration, src, det, acc.span_ns, guard_ns)
    _require_writable_dir(args.out)
    # each chunk restarts the source at 0 on its own clock, seeded by its
    # index the way the weak-field scan seeds each grid point; no chunk is
    # held while the next one is drawn
    for k, length_s in enumerate(chunks):
        seed = np.random.SeedSequence(args.seed, spawn_key=(k,))
        acc.add(*_labelled_clicks(*generate_click_streams(src, length_s, det=det, seed=seed)),
                length_s * NS_PER_S)
    hist = acc.histogram()
    value = g2_zero(hist, window_ns=window)
    error = g2_zero_error(hist, window_ns=window)
    # in _block_bounds blocks, as the scans, so no list of every row is held
    bounds = _block_bounds(hist.tau_ns.size)
    _write_csv(args.out, "tau_ns,counts,g2",
               (zip(*(c[lo:hi].tolist() for c in (hist.tau_ns, hist.counts, hist.g2)))
                for lo, hi in zip(bounds, bounds[1:])),
               meta=[("baseline", hist.baseline),
                     ("low_statistics", "true" if hist.low_statistics else "false")])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "g2_zero": None if np.isnan(value) else float(value),
        "g2_zero_error": None if np.isnan(error) else float(error),
        "window_ns": float(window),
        "low_statistics": bool(hist.low_statistics),
        "seed": args.seed,
        "out": args.out,
    }
    if payload["low_statistics"]:
        sys.stdout.write("g2(0) undefined: histogram flagged low statistics\n")
    else:
        sys.stdout.write(f"g2(0) = {payload['g2_zero']:.4f} ± {payload['g2_zero_error']:.4f} "
                         f"over |tau| <= {payload['window_ns'] / 2:g} ns\n")
    sys.stdout.write(f"wrote {args.out}\n")
    return payload


def cmd_analyze(args) -> dict:
    # 0 turns the bootstrap off; one resample has no spread
    if args.bootstrap is not None and not (args.bootstrap == 0 or args.bootstrap >= 2):
        raise ValueError(f"--bootstrap must be 0 or at least 2, got {args.bootstrap}")
    if args.bootstrap is not None and args.bootstrap > BOOTSTRAP_MAX:
        raise ValueError(f"--bootstrap must be at most {BOOTSTRAP_MAX}, got {args.bootstrap}")
    tables = {}
    for path in args.inputs:
        for setup, table in count_tables_from_csv(path).items():
            if setup in tables:
                raise ValueError(f"{path}: setup {setup} appears in more than one input")
            tables[setup] = table
    calibration = _flag_values("--calibration", args.calibration, four=True)
    rec = ExperimentRecord(tables=tables, calibration=calibration, source="file")
    if args.dark_counts is not None:
        darks = _flag_values("--dark-counts", args.dark_counts, int, four=True, zero_ok=True)
        rec = dark_count_correction(rec, darks)
    payload = _counting_report(rec, {"mode": args.mode}, args.mode, args.error_mode,
                               args.bootstrap, args.seed)
    # encoded once for both the --out file and stdout
    text = _json_report(payload)
    if args.out:
        _write_text(args.out, text)
    sys.stdout.write(text)
    return payload


# ---------------------------------------------------------------------------
# parser and dispatch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oqlab",
        description="Quasiprobability laboratory for sequential polarization measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="exact quasiprobability at one setting")
    p.add_argument("--theta", type=float, required=True, help="preparation angle in degrees")
    p.add_argument("--phi", type=float, default=0.0, help="preparation phase in degrees")
    p.add_argument("--json", action="store_true", help="print a JSON report")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("scan", help="write a parameter sweep as CSV")
    p.add_argument("--kind", choices=["pure-grid", "bloch-disk", "weak-field"], required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--theta-step", type=float, default=1.0, help="theta resolution in degrees")
    p.add_argument("--phi-step", type=float, default=1.0, help="phi resolution in degrees")
    p.add_argument("--alpha-steps", type=int, default=30,
                   help="mixing steps per unit, resolution 1/alpha-steps")
    p.add_argument("--means", default="0.001,0.006,0.1",
                   help="weak-field mean photon numbers, comma separated")
    p.add_argument("--pulses", type=int, default=1_000_000, help="weak-field pulses per point")
    p.add_argument("--det", default="dark-only",
                   help="weak-field detector: ideal, bench, dark-only, or config path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("simulate", help="Monte Carlo counting run with analysis report")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--photons", type=int, default=10_000)
    p.add_argument("--det", default="bench", help="ideal, bench, dark-only, or config path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".", help="directory for count CSVs and report.json")
    p.add_argument("--error-mode", choices=["rss", "sum"], default="rss")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("g2", help="timing run and start-stop correlation histogram")
    p.add_argument("--source", default="heralded-spdc",
                   help="weak-coherent, single-emitter, heralded-spdc, or config path")
    p.add_argument("--det", default="bench")
    p.add_argument("--duration", type=float, default=2.0, help="run length in seconds")
    p.add_argument("--bin-width", type=float, default=0.5, help="histogram bin in ns")
    p.add_argument("--max-delay", type=float, default=20.0, help="histogram range in ns")
    p.add_argument("--window", type=float, default=None,
                   help="g2(0) averaging window in ns (default: detector coincidence window)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output histogram CSV path")
    p.set_defaults(func=cmd_g2)

    p = sub.add_parser("analyze", help="turn count CSVs into a quasiprobability report")
    p.add_argument("inputs", nargs="+", help="count CSV files (combined or one per setup)")
    p.add_argument("--mode", choices=["lab", "strict"], default="lab")
    p.add_argument("--dark-counts", default=None,
                   help="per-detector dark counts to subtract, four comma-separated integers")
    p.add_argument("--calibration", default="1,1,1,1",
                   help="per-detector calibration factors, four comma-separated numbers")
    p.add_argument("--error-mode", choices=["rss", "sum"], default="rss")
    p.add_argument("--bootstrap", type=int, default=None,
                   help="take the statistical error from this many bootstrap resamples "
                        "instead of the exact multinomial covariance (0 disables it)")
    p.add_argument("--seed", type=int, default=0, help="bootstrap seed (read with --bootstrap)")
    p.add_argument("--out", default=None, help="also write the JSON report to this path")
    p.set_defaults(func=cmd_analyze)

    # argparse reads only -5 and -.5 as values and -1e-3 or -inf as an
    # unknown option: a token that may be a negative number goes to its
    # flag, whose checks judge it (--theta -inf exits 3)
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process.

    parse_args keeps no state in the parser, so one instance serves every
    call; build_parser() still returns a fresh one.
    """
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if "seed" in args:
            _require_in_range("--seed", args.seed, zero_ok=True)
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
