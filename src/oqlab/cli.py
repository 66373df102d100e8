"""Command-line front end.

Subcommands: predict (exact quasiprobability at one setting), scan
(parameter sweeps written as CSV), simulate (Monte Carlo counting run
plus analysis report), g2 (timing run and correlation histogram), and
analyze (count CSVs to a JSON report).

Angles are degrees at this boundary and radians everywhere else. Each
weak-field scan point draws from its own seed, spawned from the master
seed by its grid position.

Exit codes: 0 success, 2 usage, 3 malformed or degenerate data, 4 I/O.
A data error names an entry of a config file or count CSV as 'path: line
N: <field> ...' and a flag as typed (the pulse, photon and bootstrap counts
by their library names). Every number from a flag or config file passes
photonsim's one range check, so NaN, infinities and values out of range,
such as a non-finite --calibration factor, exit 3 and write nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import qcore
from .analysis import (
    ExperimentRecord,
    _estimate_rows,
    analyze,
    dark_count_correction,
    estimate_probs,
    reads_low_counts,
)
from .contexts import SETUPS, _probabilities, context_table
from .correlation import _StartStopAccumulator, g2_zero, g2_zero_error
from .oq import _quasi_rows, oq_distribution
from .photonsim import (
    NS_PER_S,
    SCHEMA_VERSION,
    CountTable,
    DetectorModel,
    HeraldedSPDC,
    SingleEmitter,
    WeakCoherent,
    _require_in_range,
    _weakfield_counts,
    count_tables_from_csv,
    count_tables_to_csv,
    expected_dark_counts,
    generate_click_streams,
    simulate_counts,
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


def _fmt(value) -> str:
    # shortest representation that parses back to the same float, so
    # emitted rows re-analyze to identical values
    return repr(float(value))


def _json_report(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _quasi_payload(q, theta_deg=None, phi_deg=None) -> dict:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "w": [[float(v) for v in row] for row in q.w],
        "negativity": float(q.negativity),
        "nsit_dev": [float(v) for v in q.nsit_dev],
        "aot_dev": [float(v) for v in q.aot_dev],
    }
    if theta_deg is not None:
        payload["theta_deg"] = float(theta_deg)
    if phi_deg is not None:
        payload["phi_deg"] = float(phi_deg)
    return payload


def _budget_payload(budget) -> dict:
    return {
        "statistical": float(budget.statistical_error),
        "systematic": float(budget.systematic_error),
        "total": float(budget.combined_error()),
        "mode": budget.mode,
    }


def _error_method(n_boot) -> str:
    """How analyze(..., n_boot=n_boot) takes the statistical error."""
    if n_boot is None:
        return "delta"
    return "bootstrap" if n_boot else "none"


def _write_text(path, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _write_table(path, header: str, table, chunk: int = 1024):
    """Write a scan CSV: schema line, header, then one row per table row.

    Rows are formatted and written `chunk` at a time, so no text of the
    whole table is ever held. tolist() yields Python floats, whose repr
    is _fmt.
    """
    with open(path, "w") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n{header}\n")
        for start in range(0, len(table), chunk):
            rows = table[start:start + chunk].tolist()
            fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


# ---------------------------------------------------------------------------
# subcommands


def cmd_predict(args) -> dict:
    theta = math.radians(args.theta)
    phi = math.radians(args.phi)
    q = oq_distribution(context_table(qcore.make_pure_state(theta, phi)))
    return _quasi_payload(q, args.theta, args.phi)


_QUASI_HEADER = "w00,w01,w10,w11,negativity,nsit_dev,aot_dev"


def _quasi_columns(rho) -> np.ndarray:
    """Exact scan columns of an (N, 2, 2) state stack, in one batch.

    One vectorised state check, one kernel call and one evaluation of
    eq. (1) for all N states; returns (N, 7): w row-major, negativity,
    and the largest nsit and aot deviations.
    """
    w, neg, nsit, aot = _quasi_rows(_probabilities(qcore._validate_states(rho)))
    return np.column_stack((w.reshape(-1, 4), neg, nsit.max(axis=1), aot.max(axis=1)))


def _pure_states(half_theta, phi) -> np.ndarray:
    """make_pure_state(2 * half_theta, phi) for arrays of angles, (N, 2, 2)."""
    amp = np.stack((np.cos(half_theta), np.exp(1j * phi) * np.sin(half_theta)), axis=1)
    return amp[:, :, None] * amp.conj()[:, None, :]


def _scan_rows_pure_grid(args):
    thetas = np.arange(0.0, 90.0 + 1e-9, args.theta_step)
    phis = np.arange(0.0, 90.0 + 1e-9, args.phi_step)
    # the whole grid, theta the outer loop
    theta, phi = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    rho = _pure_states(np.radians(theta) / 2, np.radians(phi))
    header = "theta_deg,phi_deg," + _QUASI_HEADER
    return header, np.column_stack((theta, phi, _quasi_columns(rho)))


def _scan_rows_bloch_disk(args):
    thetas = np.arange(0.0, 180.0 + 1e-9, args.theta_step)
    # arange can overshoot 1 by round-off at the last step
    alphas = np.clip(np.arange(-1.0, 1.0 + 1e-9, 1.0 / args.alpha_steps), -1.0, 1.0)
    # make_mixed_state(t1, t1 + pi, alpha) for every (theta, alpha), theta
    # the outer loop: the two pure branches per theta, then the weights
    t1 = [math.radians(theta) for theta in thetas]
    first = np.stack([qcore.make_pure_state(t) for t in t1])[:, None]
    second = np.stack([qcore.make_pure_state(t + math.pi) for t in t1])[:, None]
    w1 = ((1.0 + alphas) / 2.0)[None, :, None, None]
    w2 = ((1.0 - alphas) / 2.0)[None, :, None, None]
    rho = (w1 * first + w2 * second).reshape(-1, 2, 2)
    # x and z as bloch_vector computes them, so these columns keep their bytes
    x = np.trace(rho @ qcore.SIGMA_X, axis1=1, axis2=2).real
    z = np.trace(rho @ qcore.SIGMA_Z, axis1=1, axis2=2).real
    theta, alpha = (g.ravel() for g in np.meshgrid(thetas, alphas, indexing="ij"))
    header = "theta1_deg,alpha,x,z," + _QUASI_HEADER
    return header, np.column_stack((theta, alpha, x, z, _quasi_columns(rho)))


def _weak_field_batch(thetas_deg, means, pulses, det, seed_seqs):
    """Weak-field scan points in one batch: runs of setups (1, 1) and (0, 1).

    Point i is the pure state at thetas_deg[i] sent at mean photon number
    means[i] (validated by the caller); seed_seqs[i] spawns the seeds of
    its two runs. Each run draws from its own generator in the order
    weakfield_run uses; the rest runs on the whole stack: the runs' cells,
    dark subtraction with clamping, the lab-mode estimate and eq. (1) on
    the raw, corrected and exact probabilities. A point that analyze
    would reject goes through estimate_probs for its message, raw before
    corrected, in grid order. Returns (raw negativity, corrected
    _quasi_rows, exact negativity).
    """
    half = np.radians(np.asarray(thetas_deg, dtype=float)) / 2
    rho = _pure_states(half, np.zeros_like(half))
    seeds = [seq.spawn(2) for seq in seed_seqs]
    joint, off = (
        _weakfield_counts(rho, means, setup, pulses, det, [s[k] for s in seeds]).reshape(-1, 2, 2)
        for k, setup in enumerate(((1, 1), (0, 1)))
    )
    dark = expected_dark_counts(det, pulses).reshape(2, 2)
    runs = [(joint, off), (np.maximum(joint - dark, 0), np.maximum(off - dark, 0))]
    # estimate_probs accepts a record when its (1, 1) table and the a1 = 0
    # row of its (0, 1) table hold counts
    ok = np.logical_and.reduce(
        [(j.sum(axis=(1, 2)) > 0) & (o[:, 0].sum(axis=1) > 0) for j, o in runs]
    )
    if not ok.all():
        i = np.argmin(ok)
        for j, o in runs:
            tables = {
                setup: CountTable(setup=setup, counts=c[i], total=int(c[i].sum()))
                for setup, c in (((1, 1), j), ((0, 1), o))
            }
            estimate_probs(ExperimentRecord(tables=tables))
    (_, raw, _, _), corrected = (_quasi_rows(_estimate_rows(j, o[:, 0])) for j, o in runs)
    _, exact, _, _ = _quasi_rows(_probabilities(rho))
    return raw, corrected, exact


def _scan_rows_weak_field(args):
    det = resolve_detector(args.det)
    means = _flag_values("--means", args.means)
    header = (
        "theta_deg,mean_photons,w00,w01,w10,w11,"
        "negativity_exact,negativity_uncorrected,negativity_corrected"
    )
    thetas = np.arange(0.0, 90.0 + 1e-9, args.theta_step)
    theta, mean = (g.ravel() for g in np.meshgrid(thetas, means, indexing="ij"))
    seed_seqs = [
        np.random.SeedSequence(args.seed, spawn_key=(i, j))
        for i in range(len(thetas)) for j in range(len(means))
    ]
    raw, (w, corrected, _, _), exact = _weak_field_batch(theta, mean, args.pulses, det, seed_seqs)
    return header, np.column_stack((theta, mean, w.reshape(-1, 4), exact, raw, corrected))


def cmd_scan(args) -> str:
    _require_in_range("--theta-step", args.theta_step)
    _require_in_range("--phi-step", args.phi_step)
    _require_in_range("--alpha-steps", args.alpha_steps)
    builders = {
        "pure-grid": _scan_rows_pure_grid,
        "bloch-disk": _scan_rows_bloch_disk,
        "weak-field": _scan_rows_weak_field,
    }
    header, table = builders[args.kind](args)
    _write_table(args.out, header, table)
    return args.out


def cmd_simulate(args) -> dict:
    det = resolve_detector(args.det)
    theta = math.radians(args.theta)
    phi = math.radians(args.phi)
    rho = qcore.make_pure_state(theta, phi)
    seeds = np.random.SeedSequence(args.seed).spawn(len(SETUPS))
    tables = {
        setup: simulate_counts(rho, setup, args.photons, det=det, seed=seed)
        for setup, seed in zip(SETUPS, seeds)
    }
    rec = ExperimentRecord(
        tables=tables, theta_deg=args.theta, phi_deg=args.phi, source="simulated"
    )
    # analysed before any file is written, so a run it rejects leaves none
    q, budget = analyze(rec, error_mode=args.error_mode)
    os.makedirs(args.out_dir, exist_ok=True)
    paths = {}
    for setup, table in tables.items():
        name = f"counts_{setup[0]}{setup[1]}.csv"
        path = os.path.join(args.out_dir, name)
        count_tables_to_csv([table], path)
        paths[setup] = path
    payload = _quasi_payload(q, args.theta, args.phi)
    payload["seed"] = args.seed
    payload["n_photons"] = args.photons
    payload["error"] = _budget_payload(budget)
    payload["error_method"] = _error_method(None)
    report_path = os.path.join(args.out_dir, "report.json")
    _write_text(report_path, _json_report(payload))
    payload["files"] = sorted(os.path.basename(p) for p in paths.values()) + ["report.json"]
    return payload


# g2 simulates its run as independent chunks of this length in seconds
# (the last one shorter), so peak memory is set by one chunk, not by
# --duration
G2_CHUNK_S = 0.05


def _g2_chunks(duration_s):
    """(start, length) in seconds of the chunks that tile [0, duration_s)."""
    n = max(1, math.ceil(duration_s / G2_CHUNK_S))
    while n > 1 and (n - 1) * G2_CHUNK_S >= duration_s:
        n -= 1
    for k in range(n - 1):
        yield k * G2_CHUNK_S, G2_CHUNK_S
    start = (n - 1) * G2_CHUNK_S
    yield start, duration_s - start


def cmd_g2(args) -> dict:
    # every flag is checked before the run, so a bad one costs no click streams
    _require_in_range("--duration", args.duration)
    if args.window is not None:
        _require_in_range("--window", args.window)
    det = resolve_detector(args.det)
    src = resolve_source(args.source)
    # numpy's normal draws never leave about 14 sigma, so no jittered click
    # of a chunk lands more than 20 sigma + 1 ns before the chunk's start
    try:
        acc = _StartStopAccumulator(
            args.bin_width, args.max_delay, guard_ns=20.0 * det.timing_jitter_ns + 1.0
        )
    except ValueError as exc:
        # the accumulator's checks of the histogram flags, under the flags' names
        message = str(exc).replace("max_delay_ns", "--max-delay")
        raise ValueError(message.replace("bin_width_ns", "--bin-width")) from None
    # each chunk restarts the source at its start, seeded by its index the
    # way the weak-field scan seeds each grid point
    for k, (start_s, length_s) in enumerate(_g2_chunks(args.duration)):
        seed = np.random.SeedSequence(args.seed, spawn_key=(k,))
        streams = generate_click_streams(src, length_s, det=det, seed=seed)
        offset_ns = start_s * NS_PER_S
        acc.add(
            streams[0].times_ns + offset_ns,
            streams[1].times_ns + offset_ns,
            end_ns=offset_ns + length_s * NS_PER_S,
        )
        del streams
    hist = acc.histogram()
    window = args.window if args.window is not None else det.coincidence_window_ns
    value = g2_zero(hist, window_ns=window)
    error = g2_zero_error(hist, window_ns=window)
    lines = [
        f"# schema_version={SCHEMA_VERSION}",
        f"# baseline={_fmt(hist.baseline)}",
        f"# low_statistics={'true' if hist.low_statistics else 'false'}",
        "tau_ns,counts,g2",
    ]
    for tau, counts, g2 in zip(hist.tau_ns, hist.counts, hist.g2):
        lines.append(f"{_fmt(tau)},{int(counts)},{_fmt(g2)}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return {
        "schema_version": SCHEMA_VERSION,
        "g2_zero": None if np.isnan(value) else float(value),
        "g2_zero_error": None if np.isnan(error) else float(error),
        "window_ns": float(window),
        "low_statistics": bool(hist.low_statistics),
        "seed": args.seed,
        "out": args.out,
    }


def cmd_analyze(args) -> dict:
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
    q, budget = analyze(
        rec, mode=args.mode, error_mode=args.error_mode, n_boot=args.bootstrap, seed=args.seed
    )
    payload = _quasi_payload(q)
    payload["mode"] = args.mode
    payload["error"] = _budget_payload(budget)
    payload["error_method"] = _error_method(args.bootstrap)
    payload["flags"] = list(rec.flags)
    if reads_low_counts(rec, args.mode):
        payload["flags"].append("low_counts")
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
    p.set_defaults(func=_run_predict)

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
    p.set_defaults(func=_run_scan)

    p = sub.add_parser("simulate", help="Monte Carlo counting run with analysis report")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--photons", type=int, default=10_000)
    p.add_argument("--det", default="bench", help="ideal, bench, dark-only, or config path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".", help="directory for count CSVs and report.json")
    p.add_argument("--error-mode", choices=["rss", "sum"], default="rss")
    p.set_defaults(func=_run_simulate)

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
    p.set_defaults(func=_run_g2)

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
    p.set_defaults(func=_run_analyze)

    return parser


def _print_quasi_text(payload: dict, stream):
    w = payload["w"]
    if "theta_deg" in payload:
        stream.write(
            f"theta = {payload['theta_deg']:g} deg, phi = {payload.get('phi_deg', 0.0):g} deg\n"
        )
    stream.write("W:\n")
    for row in w:
        stream.write("  " + "  ".join(f"{v:+.6f}" for v in row) + "\n")
    stream.write(f"negativity = {payload['negativity']:.6f}\n")
    stream.write(f"nsit_dev = {max(payload['nsit_dev']):.6f}\n")
    stream.write(f"aot_dev = {max(payload['aot_dev']):.6f}\n")
    if "error" in payload:
        err = payload["error"]
        stream.write(
            f"error = {err['total']:.6f} "
            f"(statistical {err['statistical']:.6f}, systematic {err['systematic']:.6f}, "
            f"{err['mode']})\n"
        )


def _run_predict(args, out):
    payload = cmd_predict(args)
    if args.json:
        out.write(_json_report(payload))
    else:
        _print_quasi_text(payload, out)


def _run_scan(args, out):
    path = cmd_scan(args)
    out.write(f"wrote {path}\n")


def _run_simulate(args, out):
    payload = cmd_simulate(args)
    _print_quasi_text(payload, out)
    out.write(f"wrote {', '.join(payload['files'])} in {args.out_dir}\n")


def _run_g2(args, out):
    payload = cmd_g2(args)
    if payload["low_statistics"]:
        out.write("g2(0) undefined: histogram flagged low statistics\n")
    else:
        out.write(
            f"g2(0) = {payload['g2_zero']:.4f} ± {payload['g2_zero_error']:.4f} "
            f"over |tau| <= {payload['window_ns'] / 2:g} ns\n"
        )
    out.write(f"wrote {payload['out']}\n")


def _run_analyze(args, out):
    # encoded once for both the --out file and stdout
    text = _json_report(cmd_analyze(args))
    if args.out:
        _write_text(args.out, text)
    out.write(text)


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
        args.func(args, sys.stdout)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
