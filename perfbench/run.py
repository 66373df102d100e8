"""oqlab benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/ with nothing built or installed. Every pass of the workload runs in
a fresh single-threaded interpreter (perfbench/workloads.py), one after
another, until the next pass would end after S seconds. The driver, every
pass and a CPU speed probe (perfbench/speed.py) share one CPU; each timed
CPU time is scaled to the probe's reference speed. With --trace 0 the last
stdout line holds the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of traced passes, alternated with untraced passes so
that the tracing overhead is measured in the same run. The line before it
records the machine. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from sizes import OPS_PER_PASS
from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "workloads.py")
PROBE = os.path.join(HERE, "speed.py")

MIN_PASSES = {0: 3, 1: 4}
SETUP_PROBES = 10
PASS_TIMEOUT_S = 120.0

LAYER_METRICS = {
    "qcore": ("calls", "self_s", "us_per_call"),
    "contexts": ("calls", "self_s", "us_per_call"),
    "oq": ("calls", "self_s", "us_per_call"),
    "analysis.estimate": ("calls", "self_s"),
    "analysis.bootstrap": ("calls", "self_s", "resamples", "valid_frac"),
    "analysis.analyze": ("self_s",),
    "photonsim.weakfield": ("calls", "self_s", "pulses", "ns_per_pulse", "kept_frac"),
    "photonsim.timing": ("calls", "self_s", "clicks", "ns_per_click", "array_mb"),
    "correlation": ("calls", "self_s", "ns_per_click"),
    "photonsim.count": ("calls", "self_s"),
    "photonsim.io": ("calls", "self_s", "bytes"),
    "cli": ("calls", "self_s"),
}
UNITS = {
    "calls": "count", "self_s": "s", "us_per_call": "us", "resamples": "count",
    "valid_frac": "frac", "pulses": "count", "ns_per_pulse": "ns", "kept_frac": "frac",
    "clicks": "count", "ns_per_click": "ns", "array_mb": "MB", "bytes": "B",
}


def child_env():
    env = dict(os.environ)
    env.pop("OQLAB_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = SRC
    return env


def spawn(args, workdir, name, env):
    """Run one worker process; returns (launch monotonic, result dict or None)."""
    result_path = os.path.join(workdir, f"{name}.json")
    launch = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--result", result_path, *args],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {name} timed out", file=sys.stderr)
        return launch, None
    if proc.returncode != 0:
        print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
        return launch, None
    with open(result_path) as fh:
        result = json.load(fh)
    if os.path.dirname(os.path.abspath(result["oqlab_file"])) != os.path.join(SRC, "oqlab"):
        raise SystemExit(f"perfbench: oqlab imported from {result['oqlab_file']}, not {SRC}")
    return launch, result


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def host_noise(repeats=7):
    """Spread of one fixed CPU-bound loop timed repeatedly in this process."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        sum(i * i for i in range(200_000))
        times.append(time.perf_counter() - t)
    med = statistics.median(times)
    return {"loop_ms": [round(t * 1e3, 3) for t in times],
            "spread_frac": (max(times) - min(times)) / med}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def layer_metrics(traced):
    """Per-layer metrics, averaged per traced pass."""
    n = len(traced)
    metrics = {}
    for layer, names in LAYER_METRICS.items():
        tot = {k: sum(p["layers"][layer][k] for p in traced) for k in traced[0]["layers"][layer]}
        calls, self_s = tot["calls"], tot["self_s"]
        derived = {
            "calls": calls / n,
            "self_s": self_s / n,
            "us_per_call": self_s * 1e6 / calls if calls else 0.0,
            "resamples": tot["resamples"] / n,
            "valid_frac": tot["valid"] / tot["resamples"] if tot["resamples"] else 0.0,
            "pulses": tot["pulses"] / n,
            "ns_per_pulse": self_s * 1e9 / tot["pulses"] if tot["pulses"] else 0.0,
            "kept_frac": tot["kept"] / tot["pulses"] if tot["pulses"] else 0.0,
            "clicks": tot["clicks"] / n,
            "ns_per_click": self_s * 1e9 / tot["clicks"] if tot["clicks"] else 0.0,
            "array_mb": max(p["layers"][layer]["array_mb"] for p in traced),
            "bytes": tot["bytes"] / n,
        }
        for name in names:
            metrics[f"{layer}.{name}"] = {"value": derived[name], "unit": UNITS[name]}
    return metrics


def start_probe(path, env):
    """Start the speed probe on the driver's CPU; returns once it is sampling."""
    probe = subprocess.Popen([sys.executable, PROBE, path], cwd=ROOT, env=env,
                             stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    if probe.stdout.readline().strip() != b"ready":
        probe.wait()
        raise SystemExit("perfbench: the speed probe did not start")
    return probe


def stop_probe(probe, path):
    """Stop the probe, wait for it and return its samples."""
    probe.send_signal(signal.SIGTERM)
    try:
        probe.wait(timeout=30)
    except subprocess.TimeoutExpired:
        probe.kill()
        probe.wait()
    probe.stdout.close()
    with open(path) as fh:
        return json.load(fh)


def scaled_times(passes, speed):
    """Scale each pass's segments to the reference speed, in place."""
    for p in passes:
        p["ops_ref_s"] = [speed.scale(*seg) for seg in p["ops"]]
        p["time_ref_s"] = sum(p["ops_ref_s"]) + sum(speed.scale(*seg) for seg in p["other"])


def timing_metrics(untraced, setups):
    # every pass runs the same inputs, so each op is taken at its median over the passes
    ops = [statistics.median(t) for t in zip(*(p["ops_ref_s"] for p in untraced))]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "items_per_s": {"value": statistics.median(p["items"] / p["time_ref_s"] for p in untraced),
                        "unit": "1/s"},
        "op_p50_ms": {"value": percentile(ops, 50) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": percentile(ops, 90) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in untraced),
                        "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="oqlab benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(OPS_PER_PASS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "oqlab", "__init__.py")):
        print(f"perfbench: no oqlab package under {SRC}", file=sys.stderr)
        return 2

    start = time.monotonic()
    # the speed probe and every pass inherit this one CPU
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    machine = {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "host_noise": host_noise(),
    }
    passes, probes = [], []
    attempted = failed = 0
    speed_path = os.path.join(workdir, "speed.json")
    probe = start_probe(speed_path, env)
    try:
        # the first interpreter start may compile bytecode; it is not counted
        launch, warm = spawn(["--probe"], workdir, "warmup", env)
        if warm is None:
            print("perfbench: the package does not import", file=sys.stderr)
            return 3
        machine["numpy"] = warm["numpy"]
        if not args.trace:
            for i in range(SETUP_PROBES):
                launch, res = spawn(["--probe"], workdir, f"probe{i}", env)
                if res is not None:
                    probes.append((launch, res))
        walls = []
        while True:
            k = len(passes)
            traced = bool(args.trace) and k % 2 == 1
            name = f"pass{k}"
            cmd = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir,
                   "--run-id", f"{args.workload}-seed{args.seed}-{name}"]
            if traced:
                cmd += ["--traced", "--spans", os.path.join(OUT, f"{args.workload}.spans.json")]
            t = time.monotonic()
            launch, res = spawn(cmd, workdir, name, env)
            walls.append(time.monotonic() - t)
            if res is None:
                attempted += OPS_PER_PASS[args.workload]
                failed += OPS_PER_PASS[args.workload]
                res = {"failed_pass": True}
            else:
                probes.append((launch, res))
                attempted += res["attempted"]
                failed += res["failed"]
            res["traced"] = traced
            passes.append(res)
            elapsed = time.monotonic() - start
            if (len(passes) >= MIN_PASSES[args.trace]
                    and elapsed + statistics.median(walls) > args.seconds):
                break
    finally:
        samples = stop_probe(probe, speed_path)
        shutil.rmtree(workdir, ignore_errors=True)

    speed = Speed(samples)
    good = [p for p in passes if "failed_pass" not in p]
    scaled_times(good, speed)
    correct = failed == 0 and len(good) == len(passes)
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    if args.trace:
        if len(traced) < 2 or len(untraced) < 2:
            print("perfbench: fewer than two traced and two untraced passes completed",
                  file=sys.stderr)
            return 1
        metrics = layer_metrics(traced)
        time_t = statistics.median(p["time_ref_s"] for p in traced)
        time_u = [p["time_ref_s"] for p in untraced]
        self_total = sum(sum(layer["self_s"] for layer in p["layers"].values()) for p in traced)
        metrics["trace.overhead_frac"] = {
            "value": time_t / statistics.median(time_u) - 1.0, "unit": "frac"}
        metrics["trace.noise_frac"] = {
            "value": (max(time_u) - min(time_u)) / statistics.median(time_u), "unit": "frac"}
        metrics["trace.coverage_frac"] = {
            "value": self_total / sum(p["wall_s"] for p in traced), "unit": "frac"}
    else:
        if not untraced or not probes:
            print("perfbench: no pass completed", file=sys.stderr)
            return 1
        setups = [speed.scale(launch, res["ready_monotonic"], res["ready_cpu_s"])
                  for launch, res in probes]
        metrics = timing_metrics(untraced, setups)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "setup_samples": [(launch, res["ready_monotonic"], res["ready_cpu_s"])
                          for launch, res in probes],
        "speed_samples": len(samples),
        "passes": passes,
        "ops_timed": sum(len(p["ops"]) for p in untraced),
        "failed_frac": failed / attempted,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{args.workload}.trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"machine": machine, "ops_timed": record["ops_timed"],
                      "passes": len(passes), "failed_frac": record["failed_frac"]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
