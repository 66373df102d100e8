"""Command-line interface: argument handling, file formats, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oqlab
from oqlab import analysis, cli, qcore
from oqlab.contexts import context_table
from oqlab.oq import MAX_NEGATIVITY, negativity, oq_distribution
from oqlab.analysis import ExperimentRecord, analyze, dark_count_correction
from oqlab.correlation import G2Histogram, g2_zero_error
from oqlab.photonsim import (
    CountTable,
    WeakCoherent,
    count_tables_to_csv,
    expected_dark_counts,
    weakfield_run,
)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_scan_csv(path):
    """Return (header_fields, rows) with rows as lists of floats."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh]
    assert lines[0] == "# schema_version=1"
    header = lines[1].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[2:] if line]
    return header, rows


class TestPredict:
    def test_max_negativity_setting(self):
        args = cli.build_parser().parse_args(["predict", "--theta", "45", "--phi", "0"])
        payload = cli.cmd_predict(args)
        assert payload["negativity"] == pytest.approx(MAX_NEGATIVITY, abs=1e-12)
        assert payload["w"][1][1] == pytest.approx((1 - math.sqrt(2)) / 4, abs=1e-12)
        assert payload["w"][0][0] == pytest.approx((1 + math.sqrt(2)) / 4, abs=1e-12)

    def test_json_output_round_trips(self, capsys):
        code, out, _ = run_cli(["predict", "--theta", "30", "--phi", "10", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["theta_deg"] == 30.0
        w = np.array(payload["w"])
        assert w.shape == (2, 2)
        assert negativity(w) == pytest.approx(payload["negativity"], abs=1e-12)

    def test_text_output_mentions_negativity(self, capsys):
        code, out, _ = run_cli(["predict", "--theta", "45"], capsys)
        assert code == 0
        assert "negativity = 0.103553" in out

    def test_non_finite_angle_is_data_error(self, capsys):
        code, _, err = run_cli(["predict", "--theta", "inf"], capsys)
        assert code == 3
        assert "finite" in err


class TestScanPureGrid:
    def test_format_and_ordering(self, tmp_path, capsys):
        out = str(tmp_path / "grid.csv")
        code, _, _ = run_cli(
            ["scan", "--kind", "pure-grid", "--theta-step", "15", "--phi-step", "15",
             "--out", out],
            capsys,
        )
        assert code == 0
        header, rows = parse_scan_csv(out)
        assert header == ["theta_deg", "phi_deg", "w00", "w01", "w10", "w11",
                          "negativity", "nsit_dev", "aot_dev"]
        assert len(rows) == 7 * 7
        # theta is the outer loop
        assert rows[0][:2] == [0.0, 0.0]
        assert rows[1][:2] == [0.0, 15.0]
        assert rows[7][:2] == [15.0, 0.0]
        thetas = [r[0] for r in rows]
        assert thetas == sorted(thetas)

    def test_rows_reproduce_their_negativity(self, tmp_path, capsys):
        out = str(tmp_path / "grid.csv")
        run_cli(["scan", "--kind", "pure-grid", "--theta-step", "9", "--phi-step", "30",
                 "--out", out], capsys)
        _, rows = parse_scan_csv(out)
        for row in rows:
            w = np.array(row[2:6]).reshape(2, 2)
            assert abs(w.sum() - 1.0) < 1e-9
            assert negativity(w) == pytest.approx(row[6], abs=1e-9)

    def test_deterministic_bytes(self, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        for out in (a, b):
            run_cli(["scan", "--kind", "pure-grid", "--theta-step", "10", "--phi-step", "10",
                     "--out", out], capsys)
        assert Path(a).read_bytes() == Path(b).read_bytes()


class TestScanBlochDisk:
    def test_columns_and_bloch_coordinates(self, tmp_path, capsys):
        out = str(tmp_path / "disk.csv")
        code, _, _ = run_cli(
            ["scan", "--kind", "bloch-disk", "--theta-step", "45", "--alpha-steps", "2",
             "--out", out],
            capsys,
        )
        assert code == 0
        header, rows = parse_scan_csv(out)
        assert header[:4] == ["theta1_deg", "alpha", "x", "z"]
        assert len(rows) == 5 * 5
        for row in rows:
            theta1, alpha, x, z = row[:4]
            assert x == pytest.approx(alpha * math.sin(math.radians(theta1)), abs=1e-9)
            assert z == pytest.approx(alpha * math.cos(math.radians(theta1)), abs=1e-9)

    def test_negativity_matches_diamond_boundary(self, tmp_path, capsys):
        out = str(tmp_path / "disk.csv")
        run_cli(["scan", "--kind", "bloch-disk", "--theta-step", "15", "--alpha-steps", "5",
                 "--out", out], capsys)
        _, rows = parse_scan_csv(out)
        for row in rows:
            x, z, n = row[2], row[3], row[8]
            expected = max(0.0, (abs(x) + abs(z) - 1.0) / 4.0)
            assert n == pytest.approx(expected, abs=1e-9)


def scalar_columns(rho):
    """The exact scan columns of one state by the N = 1 pipeline."""
    q = oq_distribution(context_table(rho))
    return [*q.w.ravel(), q.negativity, q.nsit_dev.max(), q.aot_dev.max()]


class TestScanBatchMatchesScalar:
    def test_pure_grid(self, tmp_path, capsys):
        out = str(tmp_path / "grid.csv")
        code, _, _ = run_cli(["scan", "--kind", "pure-grid", "--theta-step", "7.5",
                              "--phi-step", "22.5", "--out", out], capsys)
        assert code == 0
        _, rows = parse_scan_csv(out)
        assert [r[:2] for r in rows] == [[t, p] for t in np.arange(0.0, 90.1, 7.5)
                                         for p in np.arange(0.0, 90.1, 22.5)]
        for theta, phi, *cells in rows:
            rho = qcore.make_pure_state(math.radians(theta), math.radians(phi))
            np.testing.assert_allclose(cells, scalar_columns(rho), rtol=0, atol=1e-15)

    # 9 steps per unit: the last alpha of arange(-1, 1, 1/9) overshoots 1
    # by round-off, which the grid clips to 1
    @pytest.mark.parametrize("alpha_steps", ["4", "9"])
    def test_bloch_disk(self, tmp_path, capsys, alpha_steps):
        out = str(tmp_path / "disk.csv")
        code, _, _ = run_cli(["scan", "--kind", "bloch-disk", "--theta-step", "22.5",
                              "--alpha-steps", alpha_steps, "--out", out], capsys)
        assert code == 0
        _, rows = parse_scan_csv(out)
        assert len(rows) == 9 * (2 * int(alpha_steps) + 1)
        assert rows[-1][1] == 1.0
        for theta, alpha, x, z, *cells in rows:
            t1 = math.radians(theta)
            rho = qcore.make_mixed_state(t1, t1 + math.pi, alpha)
            bx, _, bz = qcore.bloch_vector(rho)
            assert (x, z) == (bx, bz)
            np.testing.assert_allclose(cells, scalar_columns(rho), rtol=0, atol=1e-15)


def per_run_weak_field_point(theta_deg, mean, pulses, det, seed_seq):
    """Reference for one point of cli._weak_field_batch, analysed on its own.

    Two weakfield_run tables, analyze on the raw record, then
    dark_count_correction and analyze again, as the scan did point by
    point before it ran as one batch.
    """
    theta = math.radians(theta_deg)
    src = WeakCoherent(mean_photons_per_pulse=mean)
    tables = {
        setup: weakfield_run(theta, 0.0, src, setup, pulses, det=det, seed=seed)
        for setup, seed in zip([(1, 1), (0, 1)], seed_seq.spawn(2))
    }
    rec = ExperimentRecord(tables=tables, theta_deg=theta_deg, source="weak-coherent")
    q_raw, _ = analyze(rec, n_boot=0)
    corrected = dark_count_correction(rec, expected_dark_counts(det, pulses))
    q_corr, _ = analyze(corrected, n_boot=0)
    exact = oq_distribution(context_table(qcore.make_pure_state(theta)))
    return float(q_raw.negativity), q_corr, float(exact.negativity)


class TestScanWeakField:
    def test_columns_and_self_consistency(self, tmp_path, capsys):
        out = str(tmp_path / "wf.csv")
        code, _, _ = run_cli(
            ["scan", "--kind", "weak-field", "--theta-step", "45", "--means", "0.05",
             "--pulses", "20000", "--seed", "5", "--out", out],
            capsys,
        )
        assert code == 0
        header, rows = parse_scan_csv(out)
        assert header == ["theta_deg", "mean_photons", "w00", "w01", "w10", "w11",
                          "negativity_exact", "negativity_uncorrected",
                          "negativity_corrected"]
        assert len(rows) == 3
        for row in rows:
            w = np.array(row[2:6]).reshape(2, 2)
            assert negativity(w) == pytest.approx(row[8], abs=1e-9)

    def test_exact_column_is_closed_form(self, tmp_path, capsys):
        out = str(tmp_path / "wf.csv")
        run_cli(["scan", "--kind", "weak-field", "--theta-step", "45", "--means", "0.05",
                 "--pulses", "5000", "--out", out], capsys)
        _, rows = parse_scan_csv(out)
        for row in rows:
            theta = math.radians(row[0])
            expected = max(0.0, (abs(math.sin(theta)) + abs(math.cos(theta)) - 1.0) / 4.0)
            assert row[6] == pytest.approx(expected, abs=1e-9)

    def test_seeded_reruns_are_byte_identical(self, tmp_path, capsys):
        paths = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
        for path in paths:
            code, _, _ = run_cli(
                ["scan", "--kind", "weak-field", "--theta-step", "30", "--means", "0.05,0.2",
                 "--pulses", "10000", "--seed", "9", "--out", path],
                capsys,
            )
            assert code == 0
        assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()

    def test_rows_match_a_loop_of_points(self, tmp_path, capsys):
        out = str(tmp_path / "wf.csv")
        argv = ["scan", "--kind", "weak-field", "--theta-step", "15",
                "--means", "0.001,0.006,0.1", "--pulses", "200000", "--det", "bench",
                "--seed", "11", "--out", out]
        assert run_cli(argv, capsys)[0] == 0
        _, rows = parse_scan_csv(out)
        det = cli.resolve_detector("bench")
        expected = []
        for i, theta in enumerate(np.arange(0.0, 90.0 + 1e-9, 15.0)):
            for j, mean in enumerate([0.001, 0.006, 0.1]):
                seq = np.random.SeedSequence(11, spawn_key=(i, j))
                raw, (w, corr, _, _), exact = cli._weak_field_batch(
                    [float(theta)], [mean], 200_000, det, [seq]
                )
                expected.append([theta, mean, *w[0].ravel(), exact[0], raw[0], corr[0]])
        rows, expected = np.array(rows), np.array(expected)
        assert rows.shape == expected.shape == (21, 9)
        np.testing.assert_array_equal(rows[:, :2], expected[:, :2])
        np.testing.assert_allclose(rows[:, 2:], expected[:, 2:], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("det_name", ["dark-only", "bench", "high-dark"])
    def test_rows_match_the_per_run_pipeline(self, tmp_path, capsys, det_name):
        # weakfield_run, analyze and dark_count_correction point by point
        if det_name == "high-dark":
            path = tmp_path / "det.cfg"
            path.write_text("dark_rate_hz = 2e4\n")
            det_name = str(path)
        det = cli.resolve_detector(det_name)
        out = str(tmp_path / "wf.csv")
        argv = ["scan", "--kind", "weak-field", "--theta-step", "30", "--means", "0.006,0.1",
                "--pulses", "100000", "--det", det_name, "--seed", "4", "--out", out]
        assert run_cli(argv, capsys)[0] == 0
        _, rows = parse_scan_csv(out)
        expected = []
        for i, theta in enumerate([0.0, 30.0, 60.0, 90.0]):
            for j, mean in enumerate([0.006, 0.1]):
                seq = np.random.SeedSequence(4, spawn_key=(i, j))
                raw, corr, exact = per_run_weak_field_point(theta, mean, 100_000, det, seq)
                expected.append([theta, mean, *corr.w.ravel(), exact, raw, corr.negativity])
        np.testing.assert_allclose(np.array(rows), np.array(expected), rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "dark_rate,pulses",
        # in the reference: (1, 1) empty at the first point, at a later
        # point, (0, 1) empty, no failure, an empty a1 = 0 row, no failure,
        # and a raw record that passes with its dark-corrected one empty
        [("1e3", 10), ("1e3", 20), ("1e3", 40), ("1e3", 80), ("1e5", 10), ("1e6", 20),
         ("1e6", 40)],
    )
    def test_failures_name_the_first_failing_run(self, tmp_path, capsys, dark_rate, pulses):
        # a point fails on its raw tables before its dark-corrected ones,
        # and the first failing point in grid order names the failure
        path = tmp_path / "det.cfg"
        path.write_text("pbs_reflect_leak = 0\npbs_transmit_leak = 0\n"
                        f"waveplate_angle_error_deg = 0\ndark_rate_hz = {dark_rate}\n")
        det = cli.resolve_detector(str(path))
        message = None
        try:
            for i, theta in enumerate([0.0, 45.0, 90.0]):
                for j, mean in enumerate([0.05, 0.5]):
                    seq = np.random.SeedSequence(2, spawn_key=(i, j))
                    per_run_weak_field_point(theta, mean, pulses, det, seq)
        except ValueError as exc:
            message = str(exc)
        code, _, err = run_cli(
            ["scan", "--kind", "weak-field", "--theta-step", "45", "--means", "0.05,0.5",
             "--pulses", str(pulses), "--det", str(path), "--seed", "2",
             "--out", str(tmp_path / "wf.csv")],
            capsys,
        )
        if message is None:
            assert code == 0
        else:
            assert code == 3
            assert err == f"error: {message}\n"

    def test_single_pulse_leaves_no_counts(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["scan", "--kind", "weak-field", "--pulses", "1", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 3
        assert err == "error: setup (1, 1): table holds no counts\n"

    def test_zero_pulses_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["scan", "--kind", "weak-field", "--pulses", "0", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 3
        assert err == "error: n_pulses must lie in [1, 2**63), got 0\n"

    def test_bad_means_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["scan", "--kind", "weak-field", "--means", "0,-1",
             "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 3
        assert "means" in err


class TestSimulate:
    def test_ideal_run_matches_expected_band(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        code, out, _ = run_cli(
            ["simulate", "--theta", "45", "--phi", "0", "--photons", "10000",
             "--det", "ideal", "--seed", "7", "--out-dir", out_dir],
            capsys,
        )
        assert code == 0
        report = json.loads(Path(os.path.join(out_dir, "report.json")).read_text())
        assert 0.08 <= report["negativity"] <= 0.125
        assert report["seed"] == 7
        assert report["schema_version"] == 1
        assert set(report["error"]) == {"statistical", "systematic", "total", "mode"}
        for n1 in (0, 1):
            for n2 in (0, 1):
                assert os.path.exists(os.path.join(out_dir, f"counts_{n1}{n2}.csv"))

    def test_zero_angle_has_no_negativity(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        run_cli(["simulate", "--theta", "0", "--photons", "10000", "--det", "ideal",
                 "--seed", "3", "--out-dir", out_dir], capsys)
        report = json.loads(Path(os.path.join(out_dir, "report.json")).read_text())
        assert report["negativity"] <= 0.01

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for d in dirs:
            run_cli(["simulate", "--theta", "45", "--photons", "5000", "--seed", "11",
                     "--out-dir", d], capsys)
        for name in ["counts_00.csv", "counts_01.csv", "counts_10.csv", "counts_11.csv",
                     "report.json"]:
            a = Path(os.path.join(dirs[0], name)).read_bytes()
            b = Path(os.path.join(dirs[1], name)).read_bytes()
            assert a == b, name

    def test_report_negativity_survives_reanalysis(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        run_cli(["simulate", "--theta", "45", "--photons", "10000", "--det", "ideal",
                 "--seed", "7", "--out-dir", out_dir], capsys)
        report = json.loads(Path(os.path.join(out_dir, "report.json")).read_text())
        args = cli.build_parser().parse_args(
            ["analyze", os.path.join(out_dir, "counts_11.csv"),
             os.path.join(out_dir, "counts_01.csv"), "--bootstrap", "0"]
        )
        payload = cli.cmd_analyze(args)
        assert payload["negativity"] == pytest.approx(report["negativity"], abs=1e-9)

    def test_rejected_run_writes_no_file(self, tmp_path, capsys):
        # no dark counts and photons all but certainly lost: the (1, 1)
        # table is empty, which the analysis rejects
        det = tmp_path / "det.cfg"
        det.write_text("dark_rate_hz = 0\nefficiency = 1e-9, 1e-9, 1e-9, 1e-9\n")
        out_dir = tmp_path / "run"
        code, _, err = run_cli(["simulate", "--theta", "45", "--photons", "10", "--det", str(det),
                                "--out-dir", str(out_dir)], capsys)
        assert (code, err) == (3, "error: setup (1, 1): table holds no counts\n")
        assert not out_dir.exists()

    def test_out_dir_collision_is_io_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        code, _, err = run_cli(
            ["simulate", "--theta", "45", "--photons", "100", "--out-dir", str(blocker)],
            capsys,
        )
        assert code == 4
        assert "i/o error" in err


class TestG2:
    def test_heralded_source_is_antibunched(self, tmp_path, capsys):
        out = str(tmp_path / "hist.csv")
        args = cli.build_parser().parse_args(
            ["g2", "--source", "heralded-spdc", "--duration", "1.0", "--seed", "2",
             "--out", out]
        )
        payload = cli.cmd_g2(args)
        assert payload["g2_zero"] < 0.1
        assert payload["window_ns"] == 5.5
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# schema_version=1"
        assert lines[3] == "tau_ns,counts,g2"
        assert len(lines) == 4 + 80

    def test_heralded_g2_zero_carries_its_counting_error(self, tmp_path, capsys):
        # about two coincidences fall in the window of a 2 s heralded run
        out = str(tmp_path / "hist.csv")
        argv = ["g2", "--source", "heralded-spdc", "--duration", "2", "--seed", "5",
                "--out", out]
        payload = cli.cmd_g2(cli.build_parser().parse_args(argv))
        tau, counts = read_histogram(out)
        with open(out) as fh:
            baseline = float(fh.read().splitlines()[1].split("=")[1])
        window = np.abs(tau) <= payload["window_ns"] / 2 + 1e-9
        scale = baseline * np.count_nonzero(window)
        assert payload["g2_zero"] == pytest.approx(counts[window].sum() / scale, rel=1e-12)
        expected = math.sqrt(max(counts[window].sum(), 1)) / scale
        assert payload["g2_zero_error"] == pytest.approx(expected, rel=1e-12)
        # a handful of counts: the error is a large fraction of the value
        assert payload["g2_zero_error"] > 0.3 * payload["g2_zero"]

        code, text, _ = run_cli(argv, capsys)
        assert code == 0
        assert text.splitlines()[0] == (
            f"g2(0) = {payload['g2_zero']:.4f} ± {payload['g2_zero_error']:.4f} "
            f"over |tau| <= 2.75 ns"
        )

    def test_empty_window_has_the_error_of_one_count(self):
        tau = np.arange(-19.75, 20.0, 0.5)
        counts = np.where(np.abs(tau) < 3.0, 0, 4)
        hist = G2Histogram(tau_ns=tau, counts=counts, g2=counts / 4.0, bin_width_ns=0.5,
                           baseline=4.0, low_statistics=False)
        assert g2_zero_error(hist, window_ns=5.5) == pytest.approx(1.0 / (4.0 * 12))

    def test_low_statistics_prints_flag(self, tmp_path, capsys):
        out = str(tmp_path / "hist.csv")
        code, text, _ = run_cli(
            ["g2", "--source", "weak-coherent", "--duration", "1e-5", "--seed", "1",
             "--out", out],
            capsys,
        )
        assert code == 0
        assert "low statistics" in text
        args = cli.build_parser().parse_args(
            ["g2", "--source", "weak-coherent", "--duration", "1e-5", "--seed", "1", "--out", out]
        )
        payload = cli.cmd_g2(args)
        assert payload["g2_zero"] is None and payload["g2_zero_error"] is None

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        for out in (a, b):
            run_cli(["g2", "--source", "single-emitter", "--duration", "0.2", "--seed", "6",
                     "--out", out], capsys)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    @pytest.mark.parametrize(
        "flag,value",
        [("--bin-width", "nan"), ("--max-delay", "nan"), ("--max-delay", "inf"),
         ("--duration", "nan"), ("--duration", "inf"), ("--window", "nan")],
    )
    def test_non_finite_flag_is_named(self, tmp_path, capsys, flag, value):
        out = tmp_path / "hist.csv"
        code, _, err = run_cli(["g2", "--duration", "0.01", flag, value, "--out", str(out)],
                               capsys)
        assert code == 3
        assert flag in err
        assert not out.exists()

    def test_too_few_bins_names_the_flags(self, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        code, _, err = run_cli(["g2", "--bin-width", "10", "--max-delay", "15",
                                "--out", str(out)], capsys)
        assert (code, err) == (3, "error: --max-delay must span at least two bins\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--max-delay", "1e12"], ["--bin-width", "1e-300"],
         ["--bin-width", "1e-300", "--max-delay", "1e308"],
         ["--bin-width", "1", "--max-delay", str(2**20 + 1)]],
    )
    def test_too_many_bins_is_data_error(self, tmp_path, capsys, monkeypatch, flags):
        def no_clicks(*args, **kwargs):
            raise AssertionError("clicks drawn before the histogram size was checked")

        monkeypatch.setattr(cli, "generate_click_streams", no_clicks)
        out = tmp_path / "hist.csv"
        code, _, err = run_cli(["g2", "--duration", "0.01", *flags, "--out", str(out)], capsys)
        assert code == 3
        assert "--max-delay / --bin-width" in err and str(2**20) in err
        assert "Traceback" not in err
        assert not out.exists()


def read_histogram(path):
    """(tau_ns, counts) rows of a g2 CSV."""
    rows = np.loadtxt(path, delimiter=",", comments="#", skiprows=4)
    return rows[:, 0], rows[:, 1].astype(np.int64)


class TestG2Chunks:
    """g2 runs as fixed-length chunks: boundaries must not show."""

    def test_no_emitter_pair_inside_lifetime_across_boundaries(self, tmp_path, capsys):
        # 40 chunks; with no jitter and no darks any delay below the
        # excited lifetime (4 ns) would come from a chunk boundary
        out = str(tmp_path / "hist.csv")
        code, _, _ = run_cli(["g2", "--source", "single-emitter", "--det", "ideal",
                              "--duration", "2", "--seed", "3", "--out", out], capsys)
        assert code == 0
        tau, counts = read_histogram(out)
        assert counts.sum() > 0
        assert np.all(counts[np.abs(tau) < 4.0] == 0)

    def test_heralded_source_stays_antibunched(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["g2", "--source", "heralded-spdc", "--duration", "2", "--seed", "4",
             "--out", str(tmp_path / "hist.csv")]
        )
        assert cli.cmd_g2(args)["g2_zero"] < 0.1

    @pytest.mark.parametrize(
        "duration,chunks",
        # 3 * 0.05 rounds up to 0.15000000000000002, and divided by 0.05 to
        # just above 3: it must make three chunks, not a fourth of length 0
        [(0.3, 6), (0.7, 14), (0.71, 15), (0.05, 1), (0.25, 5), (1.0, 20), (0.01, 1),
         (3 * 0.05, 3)],
    )
    def test_chunks_tile_the_duration(self, tmp_path, capsys, monkeypatch, duration, chunks):
        lengths, seeds = [], []
        real = cli.generate_click_streams

        def recording(src, duration_s, det=None, seed=0):
            lengths.append(duration_s)
            seeds.append(seed)
            return real(src, duration_s, det=det, seed=seed)

        monkeypatch.setattr(cli, "generate_click_streams", recording)
        code, _, _ = run_cli(["g2", "--source", "weak-coherent", "--duration", str(duration),
                              "--seed", "9", "--out", str(tmp_path / "hist.csv")], capsys)
        assert code == 0
        assert len(lengths) == chunks
        assert all(length > 0 for length in lengths)
        assert all(length <= cli.G2_CHUNK_S + math.ulp(duration) for length in lengths)
        assert abs(math.fsum(lengths) - duration) <= math.ulp(duration)
        assert [s.spawn_key for s in seeds] == [(k,) for k in range(chunks)]

    def test_peak_memory_does_not_grow_with_duration(self, tmp_path, capsys):
        cfg = tmp_path / "wc.cfg"
        cfg.write_text("kind = weak-coherent\nmean_photons_per_pulse = 0.1\n")
        out = str(tmp_path / "hist.csv")

        def peak(duration):
            tracemalloc.start()
            try:
                code = cli.main(["g2", "--source", str(cfg), "--duration", duration,
                                 "--out", out])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak

        peak("0.05")  # a first call pays one-off lazy imports
        short = peak("0.5")
        long = peak("5")
        capsys.readouterr()
        assert long <= 1.25 * short

    def test_module_runs_as_script(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(oqlab.__file__))
        proc = subprocess.run([sys.executable, "-m", "oqlab", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "usage: oqlab" in proc.stdout


class TestAnalyze:
    def make_run(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        run_cli(["simulate", "--theta", "45", "--photons", "10000", "--det", "ideal",
                 "--seed", "7", "--out-dir", out_dir], capsys)
        return out_dir

    def test_json_report_written_to_file(self, tmp_path, capsys, monkeypatch):
        out_dir = self.make_run(tmp_path, capsys)
        report_path = str(tmp_path / "report.json")
        encoded = []
        encode = cli._json_report

        def counting_encode(payload):
            encoded.append(payload)
            return encode(payload)

        monkeypatch.setattr(cli, "_json_report", counting_encode)
        code, out, _ = run_cli(
            ["analyze", os.path.join(out_dir, "counts_11.csv"),
             os.path.join(out_dir, "counts_01.csv"), "--out", report_path],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == json.loads(Path(report_path).read_text())
        # one encoding serves both: the same bytes
        assert out == Path(report_path).read_text()
        assert len(encoded) == 1

    def test_error_method_is_reported(self, tmp_path, capsys):
        out_dir = self.make_run(tmp_path, capsys)
        report = json.loads(Path(out_dir, "report.json").read_text())
        assert report["error_method"] == "delta"
        inputs = [os.path.join(out_dir, "counts_11.csv"), os.path.join(out_dir, "counts_01.csv")]
        for extra, method in (([], "delta"), (["--bootstrap", "0"], "none"),
                              (["--bootstrap", "50"], "bootstrap")):
            code, out, _ = run_cli(["analyze", *inputs, *extra], capsys)
            assert code == 0
            payload = json.loads(out)
            assert payload["error_method"] == method
            assert set(payload["error"]) == {"statistical", "systematic", "total", "mode"}
            assert (payload["error"]["statistical"] == 0.0) == (method == "none")

    def test_default_error_never_resamples(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the default error must not resample")

        monkeypatch.setattr(analysis, "bootstrap_negativity_error", refuse)
        out_dir = self.make_run(tmp_path, capsys)
        inputs = [os.path.join(out_dir, f"counts_{n1}{n2}.csv") for n1 in (0, 1) for n2 in (0, 1)]
        for mode in ("lab", "strict"):
            code, out, _ = run_cli(["analyze", *inputs, "--mode", mode, "--seed", "9"], capsys)
            assert code == 0
            assert json.loads(out)["error"]["statistical"] > 0

    @pytest.mark.parametrize(
        "extra,statistical,total",
        [
            ([], 0.0037041143683435107, 0.00976207413661507),
            (["counts_00.csv", "counts_10.csv", "--mode", "strict",
              "--calibration", "1,1.1,0.9,1.05"], 0.0035667263461008725, 0.010225023079997172),
        ],
        ids=["lab", "strict-calibrated"],
    )
    def test_bootstrap_flag_gives_the_earlier_default(self, tmp_path, capsys, extra,
                                                      statistical, total):
        # the values analyze printed at --seed 3 when 200 resamples were
        # its default
        out_dir = self.make_run(tmp_path, capsys)
        inputs = [os.path.join(out_dir, name) if name.endswith(".csv") else name
                  for name in ["counts_11.csv", "counts_01.csv", *extra]]
        code, out, _ = run_cli(["analyze", *inputs, "--bootstrap", "200", "--seed", "3"], capsys)
        assert code == 0
        error = json.loads(out)["error"]
        assert (error["statistical"], error["total"]) == (statistical, total)

    def test_one_count_record_is_flagged(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        count_tables_to_csv([CountTable(setup=(1, 1), counts=[[0, 0], [0, 1]], total=1),
                             CountTable(setup=(0, 1), counts=[[1, 0], [0, 0]], total=1)],
                            str(path))
        code, out, _ = run_cli(["analyze", str(path)], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["negativity"] == 0.5 > MAX_NEGATIVITY
        assert payload["error"]["statistical"] == 0.0
        assert payload["flags"] == ["low_counts"]
        # a run of 10^4 photons reads no small table
        out_dir = self.make_run(tmp_path, capsys)
        _, out, _ = run_cli(["analyze", os.path.join(out_dir, "counts_11.csv"),
                             os.path.join(out_dir, "counts_01.csv")], capsys)
        assert json.loads(out)["flags"] == []

    def test_strict_mode_uses_first_only_table(self, tmp_path, capsys):
        out_dir = self.make_run(tmp_path, capsys)
        inputs = [os.path.join(out_dir, f"counts_{n1}{n2}.csv")
                  for n1 in (0, 1) for n2 in (0, 1)]
        code, out, _ = run_cli(["analyze", *inputs, "--mode", "strict"], capsys)
        assert code == 0
        assert json.loads(out)["mode"] == "strict"

    def test_unused_empty_table_is_ignored(self, tmp_path, capsys):
        # lab mode reads (1,1) and (0,1) only; an all-zero (0,0) table
        # must neither stop the run nor disturb the bootstrap
        out_dir = self.make_run(tmp_path, capsys)
        empty = str(tmp_path / "counts_00.csv")
        count_tables_to_csv([CountTable(setup=(0, 0), counts=np.zeros((2, 2)), total=0)], empty)
        inputs = [os.path.join(out_dir, "counts_11.csv"), os.path.join(out_dir, "counts_01.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["analyze", *inputs, empty, "--mode", "lab"], capsys)
        assert (code, err) == (0, "")
        statistical = json.loads(out)["error"]["statistical"]
        assert math.isfinite(statistical) and statistical > 0
        _, plain, _ = run_cli(["analyze", *inputs, "--mode", "lab"], capsys)
        assert json.loads(out) == json.loads(plain)

    def test_dark_counts_must_be_four_integers(self, tmp_path, capsys):
        out_dir = self.make_run(tmp_path, capsys)
        inputs = [os.path.join(out_dir, "counts_11.csv"), os.path.join(out_dir, "counts_01.csv")]
        code, _, err = run_cli(["analyze", *inputs, "--dark-counts", "1,2,3"], capsys)
        assert code == 3
        assert "four" in err
        code, _, err = run_cli(["analyze", *inputs, "--dark-counts", "1,2,3,x"], capsys)
        assert code == 3
        assert err == "error: --dark-counts must be comma-separated integers, got '1,2,3,x'\n"
        code, _, err = run_cli(["analyze", *inputs, "--dark-counts=1,-2,3,4"], capsys)
        assert code == 3
        assert err == "error: --dark-counts must be finite and nonnegative, got -2\n"

    @pytest.mark.parametrize("calibration", ["nan,1,1,1", "1,inf,1,1", "1,1,1,0"])
    def test_calibration_must_be_finite_and_positive(self, tmp_path, capsys, calibration):
        out_dir = self.make_run(tmp_path, capsys)
        inputs = [os.path.join(out_dir, "counts_11.csv"), os.path.join(out_dir, "counts_01.csv")]
        report = tmp_path / "report.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["analyze", *inputs, "--calibration", calibration, "--out", str(report)], capsys
            )
        assert (code, out) == (3, "")
        bad = next(v for v in calibration.split(",") if v != "1")
        assert err == f"error: --calibration must be finite and positive, got {float(bad)}\n"
        assert not report.exists()

    def test_duplicate_setup_across_files_is_data_error(self, tmp_path, capsys):
        out_dir = self.make_run(tmp_path, capsys)
        path = os.path.join(out_dir, "counts_11.csv")
        code, _, err = run_cli(["analyze", path, path], capsys)
        assert code == 3
        assert "more than one input" in err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(["analyze", str(tmp_path / "nope.csv")], capsys)
        assert code == 4

    def test_empty_file_is_schema_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        code, _, err = run_cli(["analyze", str(empty)], capsys)
        assert code == 3

    def test_malformed_row_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("n1,n2,a1,a2,counts\n1,1,0,0,10\n1,1,zero,0,3\n")
        code, _, err = run_cli(["analyze", str(bad)], capsys)
        assert code == 3
        assert "line 3" in err


# a detector config line and the message its error ends with
DETECTOR_CONFIG_ERRORS = {
    "dark_rate_hz = nan": "dark_rate_hz must be finite and nonnegative, got nan",
    "dark_rate_hz = inf": "dark_rate_hz must be finite and nonnegative, got inf",
    "dark_rate_hz = abc": "dark_rate_hz must be finite and nonnegative, got abc",
    "efficiency = 1": "efficiency must be four values in (0, 1], got 1.0",
    "timing_jitter_ns = abc": "timing_jitter_ns must be finite and nonnegative, got abc",
    "pulse_window_ns = 1,2": "pulse_window_ns must be finite and positive, got (1.0, 2.0)",
    "pbs_reflect_leak = 0.5": "pbs_reflect_leak must lie in [0, 0.5), got 0.5",
    "efficiency = 1, 1, 1": "efficiency must be four values in (0, 1], got (1.0, 1.0, 1.0)",
    "efficiency = 1, 1, nan, 1": "efficiency must lie in (0, 1], got nan",
}


class TestConfigs:
    def test_load_config_values_and_lines(self, tmp_path):
        path = tmp_path / "det.cfg"
        path.write_text(
            "# comment\n"
            "dark_rate_hz = 500\n"
            "\n"
            "efficiency = 0.9, 1.0, 0.8, 1.0  # trailing comment\n"
            "label = fast\n"
        )
        entries = cli.load_config(str(path))
        assert entries["dark_rate_hz"] == (500.0, 2)
        assert entries["efficiency"] == ((0.9, 1.0, 0.8, 1.0), 4)
        assert entries["label"] == ("fast", 5)

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("just words\n", "line 1"),
            ("a = 1\na = 2\n", "duplicate key"),
            ("a =\n", "empty key or value"),
            ("eff = 1, x, 3\n", "comma-separated numbers"),
        ],
    )
    def test_malformed_config_lines(self, tmp_path, content, fragment):
        path = tmp_path / "bad.cfg"
        path.write_text(content)
        with pytest.raises(ValueError, match=fragment):
            cli.load_config(str(path))

    def test_builtin_detectors(self):
        ideal = cli.resolve_detector("ideal")
        assert ideal.dark_rate_hz == 0.0
        assert ideal.pbs_reflect_leak == 0.0
        bench = cli.resolve_detector("bench")
        assert bench.pbs_reflect_leak == 0.05
        dark_only = cli.resolve_detector("dark-only")
        assert dark_only.dark_rate_hz == 1.0e3
        assert dark_only.pbs_reflect_leak == 0.0

    def test_detector_config_file(self, tmp_path):
        path = tmp_path / "det.cfg"
        path.write_text("dark_rate_hz = 200\nefficiency = 0.9, 1.0, 0.8, 1.0\n")
        det = cli.resolve_detector(str(path))
        assert det.dark_rate_hz == 200.0
        assert det.efficiency == (0.9, 1.0, 0.8, 1.0)

    def test_detector_config_unknown_key(self, tmp_path):
        path = tmp_path / "det.cfg"
        path.write_text("dark_rate_hz = 200\nshininess = 3\n")
        with pytest.raises(ValueError, match="line 2.*shininess"):
            cli.resolve_detector(str(path))

    def test_detector_config_bad_value_names_file(self, tmp_path):
        path = tmp_path / "det.cfg"
        path.write_text("pbs_reflect_leak = 0.9\n")
        with pytest.raises(ValueError, match="det.cfg"):
            cli.resolve_detector(str(path))

    def test_source_config_file(self, tmp_path):
        path = tmp_path / "src.cfg"
        path.write_text("kind = weak-coherent\nmean_photons_per_pulse = 0.05\n")
        src = cli.resolve_source(str(path))
        assert src.mean_photons_per_pulse == 0.05

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("mean_photons_per_pulse = 0.05\n", "missing required key 'kind'"),
            ("kind = laser\n", "unknown source kind"),
            ("kind = single-emitter\npair_rate_hz = 1\n", "unknown single-emitter parameter"),
            ("kind = single-emitter\nexcited_lifetime_ns = 1,2\n",
             "src.cfg: line 2: excited_lifetime_ns must be finite and nonnegative, got (1.0, 2.0)"),
            ("kind = weak-coherent\n\nmean_photons_per_pulse = nan\n",
             "src.cfg: line 3: mean_photons_per_pulse must be finite and nonnegative, got nan"),
            ("kind = single-emitter\nexcitation_rate_hz = abc\n",
             "src.cfg: line 2: excitation_rate_hz must be finite and positive, got abc"),
            ("kind = heralded-spdc\nherald_efficiency = 2\n",
             "src.cfg: line 2: herald_efficiency must lie in [0, 1], got 2.0"),
        ],
    )
    def test_source_config_errors(self, tmp_path, capsys, content, fragment):
        path = tmp_path / "src.cfg"
        path.write_text(content)
        with pytest.raises(ValueError, match=re.escape(fragment)):
            cli.resolve_source(str(path))
        out = tmp_path / "hist.csv"
        code, _, err = run_cli(
            ["g2", "--source", str(path), "--duration", "0.01", "--out", str(out)], capsys
        )
        assert code == 3
        assert fragment in err
        assert not out.exists()

    @pytest.mark.parametrize("line", list(DETECTOR_CONFIG_ERRORS))
    def test_detector_config_unusable_value_is_data_error(self, tmp_path, capsys, line):
        # a comment and a blank line first, so the bad entry is on line 3
        path = tmp_path / "det.cfg"
        path.write_text("# detector\n\n" + line + "\n")
        out = tmp_path / "wf.csv"
        code, _, err = run_cli(
            ["scan", "--kind", "weak-field", "--det", str(path), "--out", str(out)], capsys
        )
        assert code == 3
        assert err == f"error: {path}: line 3: {DETECTOR_CONFIG_ERRORS[line]}\n"
        assert not out.exists()


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli.main(["predict", "--theta", "45", "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cli.main(["scan", "--kind", "pure-grid"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_bad_config_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "det.cfg"
        path.write_text("nonsense line\n")
        code, _, err = run_cli(
            ["simulate", "--theta", "45", "--photons", "100", "--det", str(path),
             "--out-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 3
        assert "line 1" in err

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["--kind", "pure-grid", "--theta-step", "0"], "--theta-step"),
            (["--kind", "pure-grid", "--theta-step", "-1"], "--theta-step"),
            (["--kind", "pure-grid", "--theta-step", "nan"], "--theta-step"),
            (["--kind", "weak-field", "--theta-step", "inf"], "--theta-step"),
            (["--kind", "pure-grid", "--phi-step", "0"], "--phi-step"),
            (["--kind", "bloch-disk", "--alpha-steps", "0"], "--alpha-steps"),
            (["--kind", "weak-field", "--means", "nan"], "means"),
            (["--kind", "weak-field", "--means", "0.1,inf"], "means"),
        ],
    )
    def test_bad_grid_is_data_error(self, tmp_path, capsys, argv, fragment):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(["scan", *argv, "--out", str(out)], capsys)
        assert code == 3
        assert fragment in err
        assert not out.exists()


    @pytest.mark.parametrize("command", [
        ["scan", "--kind", "pure-grid", "--out", "{out}"],
        ["simulate", "--theta", "45", "--out-dir", "{out}"],
        ["g2", "--duration", "0.001", "--out", "{out}"],
    ])
    def test_negative_seed_is_named(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [str(out) if a == "{out}" else a for a in command]
        code, _, err = run_cli([*argv, "--seed=-1"], capsys)
        assert (code, err) == (3, "error: --seed must be finite and nonnegative, got -1\n")
        assert not out.exists()


class TestParserCache:
    def test_main_builds_one_parser(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_interleaved_calls_match_fresh_parsers(self, tmp_path, capsys, monkeypatch):
        def run_all(root):
            root.mkdir()
            argvs = [
                ["g2", "--source", "heralded-spdc", "--duration", "0.05", "--seed", "3",
                 "--out", str(root / "g2_spdc.csv")],
                ["simulate", "--theta", "30", "--photons", "2000", "--seed", "4",
                 "--out-dir", str(root / "sim")],
                ["simulate", "--photons", "10"],
                ["analyze", str(root / "sim" / "counts_11.csv"),
                 str(root / "sim" / "counts_01.csv"), "--out", str(root / "report.json")],
                ["g2", "--source", "weak-coherent", "--duration", "0.05", "--seed", "5",
                 "--out", str(root / "g2_wc.csv")],
                ["analyze", str(root / "missing.csv")],
            ]
            codes = [cli.main(argv) for argv in argvs]
            capsys.readouterr()
            files = {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}
            return codes, files

        cached = run_all(tmp_path / "cached")
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = run_all(tmp_path / "fresh")
        assert cached[0] == [0, 0, 2, 0, 0, 4]
        assert cached[0] == fresh[0]
        assert len(cached[1]) == 8
        assert cached[1] == fresh[1]


# Flag and config values that break naive parsing or range checks; each
# command also draws small valid values. Values that ask for unbounded work
# (steps below 1, durations above 0.01 s, more than 10^4 photons, pulses or
# resamples, source means and rates that ask for more than about 10^5
# clicks) are left out, so a run stays cheap. An integer flag's 1e308 is a
# usage error; a rate or mean of 1e308 fails numpy's size checks before
# anything is allocated, or meets a dead time that caps the draws.
DEGENERATE = ["nan", "inf", "-inf", "-1", "0", "", "abc", "1,2", "1e308"]


def flag_values(*valid, exclude=()):
    # a valid value three times in four, so that most runs get past parsing
    degenerate = [v for v in DEGENERATE if v not in exclude]
    return st.sampled_from(list(valid) * (3 * len(degenerate) // len(valid)) + degenerate)


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def config_text(keys, valid):
    # key = value lines, with an occasional comment, blank or malformed line
    line = st.one_of(
        st.tuples(st.sampled_from(keys), flag_values(*valid)).map(lambda kv: f"{kv[0]} = {kv[1]}"),
        st.sampled_from(["# note", "", "nonsense"]),
    )
    return st.lists(line, max_size=4).map(lambda lines: "".join(f"{x}\n" for x in lines))


DETECTOR_FIELDS = [f.name for f in dataclasses.fields(cli.DetectorModel)]
SOURCE_FIELDS = sorted(
    {f.name for cls in cli.SOURCE_KINDS.values() for f in dataclasses.fields(cls)}
)
SEEDS = optional("--seed", flag_values("7"))

detector_choice = st.one_of(
    st.sampled_from(["ideal", "bench", "dark-only"] * 2 + ["missing.cfg"]),
    config_text(DETECTOR_FIELDS, ["0.5", "1", "5", "1,1,1,1"]).map(lambda text: ("det.cfg", text)),
)
source_choice = st.one_of(
    st.sampled_from([*cli.SOURCE_KINDS, "missing.cfg"]),
    st.tuples(
        st.sampled_from(["", *(f"kind = {k}\n" for k in [*cli.SOURCE_KINDS, "laser"])]),
        config_text(SOURCE_FIELDS, ["0.5", "1", "4", "100"]),
    ).map(lambda kt: ("src.cfg", kt[0] + kt[1])),
)


@st.composite
def cli_calls(draw):
    """(argv, files): argv with {in} and {out} for the example's input and
    output directories, and the input files to write first."""
    files = {}

    def named(choice):
        if isinstance(choice, tuple):
            name, text = choice
            files[name] = text
            return "{in}/" + name
        return "{in}/" + choice if choice.endswith(".cfg") else choice

    command = draw(st.sampled_from(["predict", "scan", "simulate", "g2", "analyze"]))
    if command == "predict":
        argv = ["predict", "--theta", draw(flag_values("45", "30")),
                *draw(optional("--phi", flag_values("10"))),
                *draw(st.sampled_from([[], ["--json"]]))]
    elif command == "scan":
        argv = ["scan", "--kind", draw(st.sampled_from(["pure-grid", "bloch-disk", "weak-field"])),
                "--theta-step", draw(flag_values("30", "90")),
                "--phi-step", draw(flag_values("45", "90")),
                *draw(optional("--alpha-steps", flag_values("1", "3"))),
                *draw(optional("--means", flag_values("0.006", "0.1,0.5"))),
                "--pulses", draw(flag_values("10", "1000")),
                "--det", named(draw(detector_choice)), *draw(SEEDS), "--out", "{out}/scan.csv"]
    elif command == "simulate":
        argv = ["simulate", "--theta", draw(flag_values("45")),
                *draw(optional("--phi", flag_values("10"))),
                "--photons", draw(flag_values("1", "100", "10000")),
                "--det", named(draw(detector_choice)), *draw(SEEDS),
                *draw(optional("--error-mode", st.sampled_from(["rss", "sum", "abc"]))),
                "--out-dir", "{out}/sim"]
    elif command == "g2":
        argv = ["g2", "--source", named(draw(source_choice)), "--det", named(draw(detector_choice)),
                "--duration", draw(flag_values("0.0005", "0.001", exclude=["1e308"])),
                *draw(optional("--bin-width", flag_values("0.5", "1"))),
                *draw(optional("--max-delay", flag_values("20", "5.5"))),
                *draw(optional("--window", flag_values("5.5", "2"))),
                *draw(SEEDS), "--out", "{out}/hist.csv"]
    else:
        # lab mode needs 11 and 01; the (1, 0) table is strict mode's third
        setups = draw(st.sampled_from([["11", "01"], ["11", "01", "10"], ["11", "01", "00"],
                                       ["11"], ["11", "01", "11"]]))
        counts = draw(st.lists(st.integers(0, 30), min_size=4 * len(setups),
                               max_size=4 * len(setups)))
        # now and then one cell negative, near the int64 limit or past it
        odd = draw(st.sampled_from([None] * 6 + [-1, 2**62, 10**30]))
        if odd is not None:
            counts[draw(st.integers(0, len(counts) - 1))] = odd
        rows = [f"{s[0]},{s[1]},{k // 2},{k % 2},{counts[4 * i + k]}"
                for i, s in enumerate(setups) for k in range(4)]
        files["counts.csv"] = "n1,n2,a1,a2,counts\n" + "".join(f"{r}\n" for r in rows)
        four = st.lists(flag_values("1", "0.5", "2"), min_size=4, max_size=4).map(",".join)
        argv = ["analyze", "{in}/counts.csv",
                *draw(st.sampled_from([[], [], [], ["{in}/missing.csv"]])),
                *draw(optional("--mode", st.sampled_from(["lab", "strict"]))),
                *draw(optional("--dark-counts", st.one_of(flag_values("0,0,0,0"), four))),
                *draw(optional("--calibration", st.one_of(flag_values("1,1,1,1"), four))),
                *draw(optional("--bootstrap", flag_values("2", "50"))),
                *draw(optional("--error-mode", st.sampled_from(["rss", "sum"]))),
                *draw(SEEDS), *draw(st.sampled_from([[], ["--out", "{out}/report.json"]]))]
    return argv, files


class TestFuzzedContract:
    """Any argv and config text: a documented exit code, never a traceback,
    and no output file from a run that exits 3."""

    @settings(max_examples=300, deadline=None)
    @given(call=cli_calls())
    def test_exit_codes_and_outputs(self, call):
        argv, files = call
        with tempfile.TemporaryDirectory() as root:
            inputs, outputs = Path(root, "in"), Path(root, "out")
            inputs.mkdir()
            outputs.mkdir()
            for name, text in files.items():
                (inputs / name).write_text(text)
            argv = [a.replace("{in}", str(inputs)).replace("{out}", str(outputs)) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 2, 3, 4), (argv, files, err.getvalue())
            assert "Traceback" not in err.getvalue()
            if code == 3:
                assert not [p for p in outputs.rglob("*") if p.is_file()], (argv, files)
