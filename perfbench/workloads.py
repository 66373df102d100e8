"""One benchmark pass in a fresh interpreter.

    python3 perfbench/workloads.py --workload NAME --seed N --workdir DIR
        --result FILE [--traced --spans FILE] [--probe]

The process imports numpy and oqlab and builds the CLI parser, notes the
monotonic and CPU time at which it is ready, then (unless --probe) builds the
workload's inputs from the seed, runs the timed region, records its peak
RSS, and checks every output against physics or exact identities. The
result is written to FILE as JSON; run.py aggregates the passes.

A timed segment (an op, or other timed work between ops) is recorded as
(monotonic start, monotonic end, process CPU seconds), so that run.py can
scale its CPU time by the CPU speed the probe (speed.py) saw meanwhile.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

import numpy as np

import oqlab
import oqlab.cli as cli

from sizes import (BLOCH_DISK_ROWS, G2_RUNS, PURE_GRID_ROWS, RECORDS, SCALAR_STATES,
                   WEAK_MEANS, WEAK_PULSES, WEAK_THETAS)
from spans import Tracer

TOL = 1e-12


def _start():
    return time.monotonic(), time.process_time()


def _stop(segments, start):
    segments.append((start[0], time.monotonic(), time.process_time() - start[1]))


def _cli(argv):
    """Run one oqlab command as a user would; its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except Exception:
            traceback.print_exc()
            return -1


def _read_rows(path, skip=2):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[skip:]]


def _child_seeds(rng, n):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


# ---------------------------------------------------------------------------
# exact-sweep: two default scans plus 8,192 scalar predictions

def exact_sweep_prepare(seed, workdir):
    # half pure, half mixed, built like acceptance criterion 03
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(SCALAR_STATES // 2):
        states.append(oqlab.make_pure_state(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)))
    for _ in range(SCALAR_STATES // 2):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        states.append(oqlab.state_from_bloch(*(direction * rng.uniform() ** (1.0 / 3.0))))
    return {
        "states": states,
        "grid": os.path.join(workdir, "pure_grid.csv"),
        "disk": os.path.join(workdir, "bloch_disk.csv"),
    }


def _predict_all(states, results, ops):
    for rho in states:
        t = _start()
        try:
            q = oqlab.oq_distribution(oqlab.context_table(rho))
        except Exception:
            traceback.print_exc()
            q = None
        _stop(ops, t)
        results.append(q)


def exact_sweep_run(inp):
    # the scalar predictions run in three chunks around the two scans, so
    # their latencies sample the whole pass rather than one stretch of it
    states = inp["states"]
    third = len(states) // 3
    results, ops, codes, scans = [], [], [], []
    for chunk, (kind, path) in zip(
        (states[:third], states[third:2 * third]),
        (("pure-grid", inp["grid"]), ("bloch-disk", inp["disk"])),
    ):
        _predict_all(chunk, results, ops)
        t = _start()
        codes.append(_cli(["scan", "--kind", kind, "--out", path]))
        _stop(scans, t)
    _predict_all(states[2 * third:], results, ops)
    items = PURE_GRID_ROWS + BLOCH_DISK_ROWS + SCALAR_STATES
    return {"codes": codes, "results": results}, ops, scans, items


def _rows_or_none(code, path):
    if code != 0:
        return None
    try:
        return _read_rows(path)
    except (OSError, ValueError):
        traceback.print_exc()
        return None


def exact_sweep_check(inp, out):
    failed = 0
    grid = _rows_or_none(out["codes"][0], inp["grid"])
    if grid is None or len(grid) != PURE_GRID_ROWS:
        failed += PURE_GRID_ROWS
    else:
        best = max(range(len(grid)), key=lambda i: grid[i][6])
        for i, (theta, phi, *_w, neg, _nsit, _aot) in enumerate(grid):
            t, p = math.radians(theta), math.radians(phi)
            exact = oqlab.negativity_region(math.sin(t) * math.cos(p), math.cos(t))
            bad = abs(neg - exact) > TOL
            if i == best:
                bad |= (theta, phi) != (45.0, 0.0) or abs(neg - oqlab.MAX_NEGATIVITY) > TOL
            failed += bad
    disk = _rows_or_none(out["codes"][1], inp["disk"])
    if disk is None or len(disk) != BLOCH_DISK_ROWS:
        failed += BLOCH_DISK_ROWS
    else:
        for row in disk:
            failed += abs(row[8] - oqlab.negativity_region(row[2], row[3])) > TOL
    for rho, q in zip(inp["states"], out["results"]):
        if q is None:
            failed += 1
            continue
        x, _, z = oqlab.bloch_vector(rho)
        failed += bool(
            np.max(np.abs(q.w - oqlab.oq_closed_form(x, z))) > TOL
            or abs(q.negativity - oqlab.negativity_region(x, z)) > TOL
        )
    return PURE_GRID_ROWS + BLOCH_DISK_ROWS + SCALAR_STATES, failed


# ---------------------------------------------------------------------------
# count-analysis: 100 records of simulate then lab-mode analyze

def count_analysis_prepare(seed, workdir):
    rng = np.random.default_rng(seed)
    thetas = rng.uniform(0.0, 180.0, size=RECORDS)
    sim_seeds = _child_seeds(rng, RECORDS)
    ana_seeds = _child_seeds(rng, RECORDS)
    return [
        (repr(float(theta)), str(s1), str(s2), os.path.join(workdir, f"rec{i:03d}"))
        for i, (theta, s1, s2) in enumerate(zip(thetas, sim_seeds, ana_seeds))
    ]


def count_analysis_run(records):
    codes, ops = [], []
    for theta, sim_seed, ana_seed, d in records:
        t = _start()
        code = _cli(["simulate", "--theta", theta, "--photons", "10000", "--det", "bench",
                     "--seed", sim_seed, "--out-dir", d])
        if code == 0:
            code = _cli(["analyze", os.path.join(d, "counts_11.csv"),
                         os.path.join(d, "counts_01.csv"), "--mode", "lab",
                         "--seed", ana_seed, "--out", os.path.join(d, "analysis.json")])
        _stop(ops, t)
        codes.append(code)
    return codes, ops, [], RECORDS


def count_analysis_check(records, codes):
    failed = 0
    for (_theta, _s1, _s2, d), code in zip(records, codes):
        if code != 0:
            failed += 1
            continue
        try:
            with open(os.path.join(d, "report.json")) as fh:
                report = json.load(fh)
            with open(os.path.join(d, "analysis.json")) as fh:
                analysis = json.load(fh)
        except (OSError, ValueError):
            traceback.print_exc()
            failed += 1
            continue
        err = analysis["error"]
        failed += not (
            analysis["negativity"] == report["negativity"]
            and math.isfinite(err["total"])
            and math.isfinite(err["statistical"])
        )
    return RECORDS, failed


# ---------------------------------------------------------------------------
# weak-field-sweep: one scan of 21 points, 42 runs of 10^6 pulses

def weak_field_prepare(seed, workdir):
    (scan_seed,) = _child_seeds(np.random.default_rng(seed), 1)
    return {"seed": str(scan_seed), "out": os.path.join(workdir, "weak_field.csv")}


def weak_field_run(inp):
    # no --threads and no OQLAB_THREADS: the scan runs at its default
    t = _start()
    code = _cli(["scan", "--kind", "weak-field", "--theta-step", "15",
                 "--means", ",".join(map(str, WEAK_MEANS)), "--pulses", str(WEAK_PULSES),
                 "--det", "dark-only", "--seed", inp["seed"], "--out", inp["out"]])
    ops = []
    _stop(ops, t)
    return code, ops, [], 2 * len(WEAK_THETAS) * len(WEAK_MEANS) * WEAK_PULSES


def weak_field_check(inp, code):
    points = len(WEAK_THETAS) * len(WEAK_MEANS)
    rows = _rows_or_none(code, inp["out"])
    expected = [(t, m) for t in WEAK_THETAS for m in WEAK_MEANS]
    if rows is None or [(r[0], r[1]) for r in rows] != expected:
        return points, points
    failed = 0
    for theta, mean, *_w, exact, raw, corrected in rows:
        t = math.radians(theta)
        bad = not all(map(math.isfinite, (exact, raw, corrected)))
        bad |= abs(exact - oqlab.negativity_region(math.sin(t), math.cos(t))) > TOL
        if mean == 0.006:
            bad |= abs(corrected - exact) > 0.02  # acceptance criterion 07 tolerance
        if mean == 0.1 and theta == 45.0:
            bad |= raw < 0.09
        failed += bad
    return points, failed


# ---------------------------------------------------------------------------
# g2-timing: weak-coherent 20 s from a config file, emitter and SPDC 2 s each

def g2_prepare(seed, workdir):
    cfg = os.path.join(workdir, "weak_coherent.cfg")
    with open(cfg, "w") as fh:
        fh.write("kind = weak-coherent\nmean_photons_per_pulse = 0.1\n")
    seeds = _child_seeds(np.random.default_rng(seed), len(G2_RUNS))
    return [
        (cfg if source.endswith(".cfg") else source, duration, str(s),
         os.path.join(workdir, f"g2_{i}.csv"))
        for i, ((source, duration), s) in enumerate(zip(G2_RUNS, seeds))
    ]


def g2_run(runs):
    clicks = [0]
    counted_fn = cli.generate_click_streams

    def counted(*args, **kwargs):
        streams = counted_fn(*args, **kwargs)
        clicks[0] += sum(s.times_ns.size for s in streams)
        return streams

    cli.generate_click_streams = counted
    try:
        codes, ops = [], []
        for source, duration, seed, out in runs:
            t = _start()
            codes.append(_cli(["g2", "--source", source, "--duration", duration,
                               "--seed", seed, "--out", out]))
            _stop(ops, t)
    finally:
        cli.generate_click_streams = counted_fn
    return codes, ops, [], clicks[0]


def _read_histogram(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta = dict(line[1:].strip().split("=", 1) for line in lines[:3])
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[4:]])
    return oqlab.G2Histogram(
        tau_ns=rows[:, 0], counts=rows[:, 1].astype(np.int64), g2=rows[:, 2],
        bin_width_ns=float(rows[1, 0] - rows[0, 0]),
        baseline=float(meta["baseline"]),
        low_statistics=meta["low_statistics"] == "true",
    )


# A g2 condition fails only when g2(0) is beyond its bound by more than
# G2_Z counting errors. The zero-delay window of a 2 s heralded run holds a
# handful of coincidences, and the 20 s coherent estimate has a spread of
# about 0.02 over seeds, so the bare point estimate crosses 0.1 on about
# one heralded run in 200 and leaves 1 +- 0.05 on about one coherent run
# in 40 of a correct program (means 0.028 and 1.007).
G2_Z = 4.0


def _g2_zero_error(hist, window):
    """Counting error of g2_zero: the window's coincidences taken as Poisson."""
    sel = np.abs(hist.tau_ns) <= window / 2 + 1e-9
    return math.sqrt(hist.counts[sel].sum()) / (hist.baseline * sel.sum())


def g2_check(runs, codes):
    # acceptance criterion 08's conditions, per source, within G2_Z errors
    window = oqlab.DetectorModel().coincidence_window_ns
    failed = 0
    for (source, _d, _s, out), code in zip(runs, codes):
        if code != 0:
            failed += 1
            continue
        try:
            hist = _read_histogram(out)
        except (OSError, ValueError, KeyError, IndexError):
            traceback.print_exc()
            failed += 1
            continue
        if hist.low_statistics:
            failed += 1
            continue
        value = oqlab.g2_zero(hist, window_ns=window)
        slack = G2_Z * _g2_zero_error(hist, window)
        if source == "single-emitter":
            ok = value < 0.5 + slack and 4.0 <= oqlab.dip_width(hist, threshold=0.5) <= 12.0
        elif source == "heralded-spdc":
            ok = value < 0.1 + slack
        else:
            ok = abs(value - 1.0) <= 0.05 + slack
        failed += not ok
    return len(runs), failed


WORKLOADS = {
    "exact-sweep": (exact_sweep_prepare, exact_sweep_run, exact_sweep_check),
    "count-analysis": (count_analysis_prepare, count_analysis_run, count_analysis_check),
    "weak-field-sweep": (weak_field_prepare, weak_field_run, weak_field_check),
    "g2-timing": (g2_prepare, g2_run, g2_check),
}


def main(argv=None) -> int:
    cli.build_parser()
    ready, ready_cpu = time.monotonic(), time.process_time()

    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir")
    ap.add_argument("--result", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args(argv)

    result = {"ready_monotonic": ready, "ready_cpu_s": ready_cpu,
              "numpy": np.__version__, "oqlab_file": oqlab.__file__}
    if not args.probe:
        prepare, run, check = WORKLOADS[args.workload]
        tracer = Tracer(args.run_id) if args.traced else None
        if tracer is not None:
            result["bindings"] = len(tracer.install())
        inputs = prepare(args.seed, args.workdir)
        origin_ns = time.perf_counter_ns()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        outputs, ops, other, items = run(inputs)
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        attempted, failed = check(inputs, outputs)
        result.update(wall_s=wall, items=int(items), ops=ops, other=other,
                      peak_rss_mb=rss_mb,
                      attempted=int(attempted), failed=int(failed))
        if tracer is not None:
            result["layers"] = tracer.layer_totals()
            if args.spans:
                tracer.write(args.spans, origin_ns)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
