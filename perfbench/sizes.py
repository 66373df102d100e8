"""Workload sizes, shared by the driver (run.py) and the pass worker
(workloads.py). It imports nothing, so the driver reads the sizes without
importing numpy or oqlab.
"""

# exact-sweep: two default scans plus scalar predictions
PURE_GRID_ROWS = 91 * 91
BLOCH_DISK_ROWS = 181 * 61
SCALAR_STATES = 8192

# count-analysis: records of simulate then lab-mode analyze
RECORDS = 100

# weak-field-sweep: one scan over these points
WEAK_THETAS = (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)
WEAK_MEANS = (0.001, 0.006, 0.1)
WEAK_PULSES = 1_000_000

# g2-timing: (source, duration in s) per g2 command
G2_RUNS = (
    ("weak_coherent.cfg", "20"),
    ("single-emitter", "2"),
    ("heralded-spdc", "2"),
)

# output checks each pass attempts; a pass whose process dies is charged all
OPS_PER_PASS = {
    "exact-sweep": PURE_GRID_ROWS + BLOCH_DISK_ROWS + SCALAR_STATES,
    "count-analysis": RECORDS,
    "weak-field-sweep": len(WEAK_THETAS) * len(WEAK_MEANS),
    "g2-timing": len(G2_RUNS),
}
