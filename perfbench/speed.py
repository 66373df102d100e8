"""CPU speed probe for the oqlab benchmark.

    python3 perfbench/speed.py OUT

Runs one fixed chunk of interpreter work over and over at low priority
(nice 10) on the CPU it inherits, and records when each chunk ended
(monotonic clock) and the CPU seconds it took. On SIGTERM it writes the
samples to OUT as JSON and exits. The driver pins itself, this probe and
every pass to one CPU; the scheduler then interleaves the probe's chunks
with the pass in slices of a millisecond or two, dozens of times a
second, so the probe sees the CPU at the speed the pass sees it. It takes
about a tenth of the CPU's time, which a pass's CPU time does not count.

`Speed` turns the samples into a factor that scales a CPU time measured
in [start, end] to the time it would take at the reference speed, at
which one chunk takes CHUNK_REF_S.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import sys
import time

CHUNK_REF_S = 1.0e-3
PAD_S = 0.25
MIN_SAMPLES = 4
NICE = 10

_RECORD = {f"k{i}": [i, i * 0.5, "x" * (i % 7)] for i in range(60)}


def chunk():
    """About a millisecond of integer arithmetic, JSON and string formatting.

    A mix, because on a loaded host a pure arithmetic loop and the
    package's dict-, string- and call-heavy code slow down by different
    amounts.
    """
    total = sum(i * i for i in range(10_000))
    for _ in range(4):
        json.loads(json.dumps(_RECORD))
        total += len("".join(f"{k}={v[1]:.3f}," for k, v in _RECORD.items()))
    return total


class Speed:
    def __init__(self, samples):
        samples = sorted(samples)
        if len(samples) < 2:
            raise ValueError("too few speed samples")
        # the work rate 1/c (chunks per CPU second) of a chunk that ended at
        # t[i] stands for the interval (t[i-1], t[i]]; cum[i] integrates it
        self.t = [t for t, _ in samples]
        self.rate = [1.0 / c for _, c in samples]
        self.cum = [0.0]
        for i in range(1, len(samples)):
            self.cum.append(self.cum[-1] + (self.t[i] - self.t[i - 1]) * self.rate[i])

    def _integral(self, x):
        i = bisect.bisect_left(self.t, x)
        if i == 0:
            return 0.0
        return self.cum[i] - (self.t[i] - x) * self.rate[i]

    def factor(self, start, end):
        """Reference seconds per CPU second over [start, end].

        The rate is averaged over time (the probe runs far more chunks
        while the CPU is otherwise idle than while a pass runs) within
        PAD_S of the interval, widened until MIN_SAMPLES chunks ended in it.
        """
        pad = PAD_S
        while True:
            lo = max(start - pad, self.t[0])
            hi = min(end + pad, self.t[-1])
            n = bisect.bisect_right(self.t, hi) - bisect.bisect_left(self.t, lo)
            if n >= MIN_SAMPLES or (lo == self.t[0] and hi == self.t[-1]):
                break
            pad *= 2
        if hi <= lo:
            raise ValueError(f"no speed samples near [{start}, {end}]")
        return CHUNK_REF_S * (self._integral(hi) - self._integral(lo)) / (hi - lo)

    def scale(self, start, end, cpu_s):
        return cpu_s * self.factor(start, end)


def main(out) -> int:
    os.nice(NICE)
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    samples = []
    clock, cpu = time.monotonic, time.thread_time
    print("ready", flush=True)
    while not stop:
        c = cpu()
        chunk()
        c = cpu() - c
        samples.append((clock(), c))
    with open(out, "w") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
