"""Acceptance suite: one test per shipping criterion.

Each test asserts the numerical requirement at its stated tolerance and
the runtime budget, and prints a single summary line (visible with
pytest -s or -rA). Stochastic checks run under fixed seeds; the seeds
are frozen here so the suite is deterministic.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np

from oqlab import analysis, cli, qcore
from oqlab.analysis import ExperimentRecord, analyze
from oqlab.contexts import ProbabilitySet, context_table
from oqlab.correlation import dip_width, g2_zero, start_stop_histogram
from oqlab.oq import (
    MAX_NEGATIVITY,
    negativity_region,
    oq_closed_form,
    oq_distribution,
)
from oqlab.photonsim import (
    DetectorModel,
    HeraldedSPDC,
    SingleEmitter,
    WeakCoherent,
    generate_click_streams,
    simulate_counts,
)

# Measured reference counts at theta = 0, 45, 90 degrees (phi = 0),
# roughly 1e4 photons per run; the same bench values test_analysis uses.
BENCH_COUNTS = {
    0: {(1, 1): [[4955, 5018], [16, 11]], (0, 1): [[5058, 4940], [2, 0]]},
    45: {(1, 1): [[4152, 4262], [791, 795]], (0, 1): [[8470, 1529], [0, 1]]},
    90: {(1, 1): [[2430, 2593], [2411, 2567]], (0, 1): [[9972, 28], [0, 0]]},
}


def _report(number, label, elapsed, budget=None):
    line = f"criterion {number} PASS: {label} in {elapsed:.2f} s"
    if budget is not None:
        line += f" (budget {budget:g} s)"
    print(line)


def _bench_table(theta_deg, setup):
    from oqlab.photonsim import CountTable

    counts = np.array(BENCH_COUNTS[theta_deg][setup])
    return CountTable(setup=setup, counts=counts, total=int(counts.sum()))


def test_criterion_01_peak_prediction_and_grid_maximum():
    budget = 1.0
    t0 = time.perf_counter()

    args = cli.build_parser().parse_args(["predict", "--theta", "45", "--phi", "0"])
    payload = cli.cmd_predict(args)
    assert abs(payload["negativity"] - MAX_NEGATIVITY) <= 1e-12
    assert abs(payload["w"][1][1] - (1 - math.sqrt(2)) / 4) <= 1e-12

    best = (-1.0, None)
    for theta in range(91):
        for phi in range(91):
            rho = qcore.make_pure_state(math.radians(theta), math.radians(phi))
            q = oq_distribution(context_table(rho))
            if q.negativity > best[0]:
                best = (q.negativity, (theta, phi))
    assert best[1] == (45, 0)
    assert abs(best[0] - MAX_NEGATIVITY) <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(1, "peak prediction and 1-degree grid maximum", elapsed, budget)


def test_criterion_02_formula_structure_on_random_probability_sets():
    budget = 5.0
    t0 = time.perf_counter()

    rng = np.random.default_rng(2)
    for _ in range(10_000):
        ps = ProbabilitySet(
            p_t1=rng.dirichlet((1.0, 1.0)),
            p_t2=rng.dirichlet((1.0, 1.0)),
            p_joint=rng.dirichlet((1.0, 1.0, 1.0, 1.0)).reshape(2, 2),
        )
        q = oq_distribution(ps)
        assert abs(q.w.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(q.w.sum(axis=1) - ps.p_t1)) <= 1e-12
        assert np.max(np.abs(q.w.sum(axis=0) - ps.p_t2)) <= 1e-12
        if q.negativity > 1e-12:
            assert max(q.nsit_dev.max(), q.aot_dev.max()) > 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(2, "normalization, marginals, and negativity witnesses", elapsed, budget)


def test_criterion_03_pipeline_matches_closed_form():
    budget = 5.0
    t0 = time.perf_counter()

    rng = np.random.default_rng(3)
    states = []
    for _ in range(500):
        states.append(
            qcore.make_pure_state(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi))
        )
    for _ in range(500):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        vec = direction * rng.uniform() ** (1.0 / 3.0)
        states.append(qcore.state_from_bloch(*vec))

    for rho in states:
        x, _, z = qcore.bloch_vector(rho)
        q = oq_distribution(context_table(rho))
        assert np.max(np.abs(q.w - oq_closed_form(x, z))) <= 1e-12
        assert abs(q.negativity - negativity_region(x, z)) <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(3, "pipeline equals closed form on 1000 random states", elapsed, budget)


def test_criterion_04_disk_scan_zero_region(tmp_path):
    budget = 10.0
    t0 = time.perf_counter()

    out = str(tmp_path / "disk.csv")
    args = cli.build_parser().parse_args(["scan", "--kind", "bloch-disk", "--out", out])
    cli.cmd_scan(args)

    with open(out) as fh:
        lines = fh.read().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    assert len(rows) == 181 * 61
    for row in rows:
        x, z, n = row[2], row[3], row[8]
        assert abs(n - negativity_region(x, z)) <= 1e-12
        if abs(x) + abs(z) > 1.0 + 1e-12:
            assert n > 1e-12
        else:
            assert n <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(4, "negativity vanishes exactly on the |x|+|z|<=1 disk region", elapsed, budget)


def test_criterion_05_bench_counts_reproduced_and_reanalyzed():
    budget = 10.0
    t0 = time.perf_counter()

    det = DetectorModel()
    seeds = iter(np.random.SeedSequence(0).spawn(6))
    for theta_deg, per_setup in BENCH_COUNTS.items():
        rho = qcore.make_pure_state(math.radians(theta_deg))
        for setup, ref in per_setup.items():
            ref = np.asarray(ref, dtype=float)
            total = ref.sum()
            sim = simulate_counts(rho, setup, 10_000, det=det, seed=next(seeds))
            phat = ref / total
            sigma = np.sqrt(total * phat * (1.0 - phat))
            # statistical band plus the 5 percent systematic allowance
            tol = 4.0 * sigma + 0.05 * total
            assert np.all(np.abs(sim.counts - ref) <= tol), (theta_deg, setup)

    rec = ExperimentRecord(
        tables={s: _bench_table(45, s) for s in [(1, 1), (0, 1)]}, theta_deg=45.0
    )
    q, _ = analyze(rec, n_boot=0)
    assert 0.09 <= q.negativity <= 0.11

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(5, "simulated counts match bench tables; bench negativity in band", elapsed, budget)


def test_criterion_06_waveplate_preparation_fidelity():
    budget = 1.0
    t0 = time.perf_counter()

    for theta in np.linspace(0.0, math.pi, 19):
        for phi in np.linspace(0.0, 2 * math.pi, 19):
            target = qcore.make_pure_state(theta, phi)
            prepared = qcore.prepare_via_waveplates(theta, phi)
            assert qcore.fidelity(prepared, target) >= 1.0 - 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(6, "waveplate preparation fidelity on a 19x19 grid", elapsed, budget)


def test_criterion_07_weak_field_dark_count_correction():
    budget = 60.0
    t0 = time.perf_counter()

    det = DetectorModel.ideal(dark_rate_hz=1.0e3)
    pulses = 1_000_000

    def points(thetas, mean, seed):
        # (raw, dark-corrected, exact) negativity per theta, point i seeded
        # by spawn key (i,)
        seqs = [np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(len(thetas))]
        _, exact, raw, corr = analysis._weak_field_batch(
            thetas, [mean] * len(thetas), pulses, det, [seq.spawn(2) for seq in seqs]
        )
        return raw, corr, exact

    raw, corr, _ = points([45.0], 6e-3, 20)
    assert corr[0] > raw[0]

    raw, _, _ = points([44.0, 45.0], 0.1, 21)
    assert np.all(raw >= 0.09)

    _, corr, exact = points([0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0], 6e-3, 22)
    assert np.all(np.abs(corr - exact) <= 0.02)

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(7, "dark-count correction restores the weak-field profile", elapsed, budget)


def test_criterion_08_photon_statistics_benchmarks():
    budget = 120.0
    t0 = time.perf_counter()

    det = DetectorModel()

    s0, s1 = generate_click_streams(
        WeakCoherent(mean_photons_per_pulse=0.1), 60.0, det=det, seed=30
    )
    value = g2_zero(start_stop_histogram(s0, s1))
    assert abs(value - 1.0) <= 0.05

    s0, s1 = generate_click_streams(HeraldedSPDC(), 2.0, det=det, seed=31)
    assert g2_zero(start_stop_histogram(s0, s1)) < 0.1

    s0, s1 = generate_click_streams(SingleEmitter(), 2.0, det=det, seed=32)
    hist = start_stop_histogram(s0, s1)
    assert g2_zero(hist) < 0.5
    # rectangular recovery dip: full width about twice the excited lifetime
    assert 4.0 <= dip_width(hist, threshold=0.5) <= 12.0

    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _report(8, "coherent, heralded, and emitter correlation benchmarks", elapsed, budget)


def test_criterion_09_byte_identical_reruns(tmp_path, capsys):
    t0 = time.perf_counter()

    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        code = cli.main(
            ["simulate", "--theta", "45", "--photons", "2000", "--seed", "5",
             "--out-dir", d]
        )
        assert code == 0
    capsys.readouterr()
    names = ["counts_00.csv", "counts_01.csv", "counts_10.csv", "counts_11.csv",
             "report.json"]
    for name in names:
        a = Path(os.path.join(dirs[0], name)).read_bytes()
        b = Path(os.path.join(dirs[1], name)).read_bytes()
        assert a == b, name

    hists = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    payloads = []
    for out in hists:
        args = cli.build_parser().parse_args(
            ["g2", "--source", "heralded-spdc", "--duration", "0.2", "--seed", "6",
             "--out", out]
        )
        payload = cli.cmd_g2(args)
        payload.pop("out")
        payloads.append(payload)
    assert Path(hists[0]).read_bytes() == Path(hists[1]).read_bytes()
    assert json.dumps(payloads[0], sort_keys=True) == json.dumps(payloads[1], sort_keys=True)

    elapsed = time.perf_counter() - t0
    _report(9, "simulate and g2 reruns are byte identical", elapsed)
