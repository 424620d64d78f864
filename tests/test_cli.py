import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hwtv
from hwtv import cli
from hwtv.imgcore import RAW_F32, ImageBuffer, read_image, write_image
from hwtv.synth import PhantomSpec, make_phantom


@pytest.fixture()
def phantom_files(tmp_path):
    truth = make_phantom(PhantomSpec(width=64, height=64, kind="mixed"))
    truth_path = tmp_path / "truth.raw"
    write_image(truth, truth_path, RAW_F32)
    return tmp_path, truth, truth_path


SWEEP_HEADER = ["tau", "r", "isnr", "ssim", "iterations", "wall_ms", "final_discrepancy"]


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out.strip()
    return code, out


class TestDegrade:
    def test_writes_output_and_echoes_spec(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        out_path = tmp_path / "g.pgm"
        code, out = _run(
            ["degrade", "--in", str(truth_path), "--out", str(out_path),
             "--blur-band", "5", "--blur-sigma", "1.0",
             "--noise-sigma", "0.05", "--seed", "42"],
            capsys,
        )
        assert code == 0
        assert out_path.exists()
        payload = json.loads(out)
        assert payload["blur_band"] == 5
        assert payload["noise_sigma"] == 0.05
        assert payload["seed"] == 42

    def test_identity_blur_path(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        out_path = tmp_path / "g.raw"
        code, out = _run(
            ["degrade", "--in", str(truth_path), "--out", str(out_path),
             "--blur-band", "1", "--noise-sigma", "0.1", "--seed", "1",
             "--format", RAW_F32],
            capsys,
        )
        assert code == 0
        g = read_image(out_path)
        residual = g.data - truth.data.astype(np.float32).astype(np.float64)
        assert 0.08 <= residual.std() <= 0.12
        assert json.loads(out)["blur_band"] == 1

    def test_default_echo_is_band_one(self, phantom_files, capsys):
        # K = I is the band-1 kernel, the default; the echo reports the spec
        tmp_path, _, truth_path = phantom_files
        code, out = _run(
            ["degrade", "--in", str(truth_path), "--out", str(tmp_path / "g.raw"),
             "--noise-sigma", "0.1", "--seed", "1", "--format", RAW_F32],
            capsys,
        )
        assert code == 0
        echo = json.loads(out)
        assert (echo["blur_band"], echo["blur_sigma"]) == (1, 1.0)

    def test_band_zero_is_usage_error(self, phantom_files, capsys):
        # the band must be odd and positive: every subcommand that takes a
        # blur rejects 0, and writes nothing
        tmp_path, _, truth_path = phantom_files
        out_path = tmp_path / "out"
        for argv in (
            ["degrade", "--in", str(truth_path)],
            ["restore", "--in", str(truth_path), "--max-iter", "1"],
            ["sweep", "--true", str(truth_path), "--in", str(truth_path),
             "--tau-grid", "1.0", "--radius-grid", "2", "--max-iter", "1"],
        ):
            code, _ = _run(
                argv + ["--out", str(out_path), "--noise-sigma", "0.1", "--blur-band", "0"],
                capsys,
            )
            assert code == 2, argv[0]
            assert not out_path.exists(), argv[0]

    def test_missing_noise_sigma_usage_error(self, phantom_files, capsys):
        tmp_path, _, truth_path = phantom_files
        with pytest.raises(SystemExit) as err:
            cli.main(["degrade", "--in", str(truth_path), "--out", str(tmp_path / "g.pgm")])
        assert err.value.code == 2

    def test_unreadable_input_is_reported(self, tmp_path, capsys):
        code, _ = _run(
            ["degrade", "--in", str(tmp_path / "missing.pgm"),
             "--out", str(tmp_path / "g.pgm"), "--noise-sigma", "0.1"],
            capsys,
        )
        assert code == 2


class TestRestoreCommand:
    def test_restore_writes_artifacts_and_json(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = tmp_path / "g.raw"
        code, _ = _run(
            ["degrade", "--in", str(truth_path), "--out", str(g_path),
             "--blur-band", "1", "--noise-sigma", "0.1", "--seed", "3",
             "--format", RAW_F32],
            capsys,
        )
        assert code == 0
        out_path = tmp_path / "rec.raw"
        alpha_path = tmp_path / "alpha.raw"
        trace_path = tmp_path / "trace.csv"
        code, out = _run(
            ["restore", "--in", str(g_path), "--out", str(out_path),
             "--noise-sigma", "0.1", "--mode", "hwtv", "--p", "2",
             "--tau", "1.0", "--radius", "4", "--beta-t", "20", "--beta-w", "100",
             "--max-iter", "60", "--alpha-out", str(alpha_path),
             "--trace", str(trace_path), "--format", RAW_F32],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"iterations", "discrepancy", "mu"}
        assert payload["iterations"] <= 60
        assert out_path.exists() and alpha_path.exists() and trace_path.exists()
        with open(trace_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "mu", "discrepancy", "rel_change", "wall_ms"]
        assert len(rows) == 1 + payload["iterations"]
        # raw alpha export carries the actual weights (positive, within cap)
        alpha = read_image(alpha_path)
        assert alpha.data.min() > 0.0

    def test_alpha_pgm_export_is_rescaled(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = tmp_path / "g.pgm"
        _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
              "--noise-sigma", "0.1", "--seed", "3"], capsys)
        alpha_path = tmp_path / "alpha.pgm"
        code, _ = _run(
            ["restore", "--in", str(g_path), "--out", str(tmp_path / "rec.pgm"),
             "--noise-sigma", "0.1", "--tau", "1.0", "--radius", "4",
             "--max-iter", "40", "--alpha-out", str(alpha_path)],
            capsys,
        )
        assert code == 0
        alpha = read_image(alpha_path)
        assert alpha.data.min() == 0.0
        assert alpha.data.max() == 1.0

    def test_scalar_baseline_runs(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = tmp_path / "g.pgm"
        _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
              "--noise-sigma", "0.1", "--seed", "5"], capsys)
        code, out = _run(
            ["restore", "--in", str(g_path), "--out", str(tmp_path / "rec.pgm"),
             "--noise-sigma", "0.1", "--mode", "tv_scalar", "--tau", "0.98",
             "--radius", "4", "--max-iter", "80"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["iterations"] >= 1

    def test_anisotropic_wide_window_denoising_config(self, tmp_path, capsys):
        # p=1 with a radius-40 estimation window on a pure denoising problem
        truth = make_phantom(PhantomSpec(width=96, height=96, kind="mixed"))
        truth_path = tmp_path / "t.raw"
        write_image(truth, truth_path, RAW_F32)
        g_path = tmp_path / "g.raw"
        _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
              "--noise-sigma", "0.1", "--seed", "12", "--format", RAW_F32], capsys)
        code, out = _run(
            ["restore", "--in", str(g_path), "--out", str(tmp_path / "rec.raw"),
             "--noise-sigma", "0.1", "--mode", "hwtv", "--p", "1",
             "--tau", "0.86", "--radius", "40", "--max-iter", "40",
             "--format", RAW_F32],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["iterations"] >= 1

    def test_aniso_prox_flag_is_gone(self, phantom_files, capsys):
        # p = 1 has one prox map, so there is no flag to choose it
        tmp_path, _, truth_path = phantom_files
        with pytest.raises(SystemExit) as err:
            cli.main(["restore", "--in", str(truth_path), "--out", str(tmp_path / "rec.pgm"),
                      "--noise-sigma", "0.1", "--p", "1", "--aniso-prox", "exact"])
        assert err.value.code == 2

    def test_eps_floor_flag_is_gone(self, phantom_files, capsys):
        # the weight floor is a constant of the method, not a tunable
        tmp_path, _, truth_path = phantom_files
        with pytest.raises(SystemExit) as err:
            cli.main(["restore", "--in", str(truth_path), "--out", str(tmp_path / "rec.pgm"),
                      "--noise-sigma", "0.1", "--eps-floor", "1e-3"])
        assert err.value.code == 2

    def test_solver_flags_cover_config_fields(self):
        # a new SolverConfig field cannot miss its flag
        from hwtv.solver import SolverConfig

        names = {f.name for f in dataclasses.fields(SolverConfig)}
        assert set(cli.SOLVER_FLAGS) | {"tau", "r"} == names

    def test_oversized_radius_is_usage_error(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = tmp_path / "g.pgm"
        _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
              "--noise-sigma", "0.1", "--seed", "11"], capsys)
        code, _ = _run(
            ["restore", "--in", str(g_path), "--out", str(tmp_path / "rec.pgm"),
             "--noise-sigma", "0.1", "--tau", "1.0", "--radius", "40"],
            capsys,
        )
        assert code == 2

    def test_underflowing_discrepancy_target_is_usage_error(self, phantom_files, capsys):
        # tau and sigma are each positive, but tau * sigma * sqrt(n) is 0
        tmp_path, truth, truth_path = phantom_files
        out_path = tmp_path / "rec.raw"
        code, _ = _run(
            ["restore", "--in", str(truth_path), "--out", str(out_path),
             "--noise-sigma", "1e-200", "--tau", "1e-200", "--radius", "4"],
            capsys,
        )
        assert code == 2
        assert not out_path.exists()

    def test_non_finite_tunable_is_usage_error(self, phantom_files, capsys):
        # a NaN tau or sigma is bad input (exit 2), not a diverged run (exit 3)
        tmp_path, truth, truth_path = phantom_files
        g_path = tmp_path / "g.pgm"
        _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
              "--noise-sigma", "0.1", "--seed", "6"], capsys)
        options = {"--noise-sigma": "0.1", "--tau": "1.0", "--radius": "4", "--max-iter": "3"}
        for flag in ("--tau", "--noise-sigma", "--tol"):
            argv = ["restore", "--in", str(g_path), "--out", str(tmp_path / "rec.pgm")]
            for key, value in dict(options, **{flag: "nan"}).items():
                argv += [key, value]
            code, _ = _run(argv, capsys)
            assert code == 2, flag

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_blur_sigma_is_usage_error(self, phantom_files, capsys, bad):
        # a NaN blur width is bad input, not a diverged run; an infinite one
        # is not a box blur. Sigma is checked for every band, the identity's
        # 1 included.
        tmp_path, truth, truth_path = phantom_files
        g_path = tmp_path / "g.pgm"
        _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
              "--noise-sigma", "0.1", "--seed", "6"], capsys)
        for band in ("5", "1"):
            blur = ["--blur-band", band, "--blur-sigma", bad]
            code, _ = _run(
                ["restore", "--in", str(g_path), "--out", str(tmp_path / "rec.pgm"),
                 "--noise-sigma", "0.1", "--tau", "1.0", "--radius", "4", "--max-iter", "3",
                 *blur],
                capsys,
            )
            assert code == 2, band
            out_path = tmp_path / "g2.pgm"
            code, _ = _run(
                ["degrade", "--in", str(truth_path), "--out", str(out_path),
                 "--noise-sigma", "0.1", *blur],
                capsys,
            )
            assert code == 2, band
            assert not out_path.exists()

    def test_divergence_exit_code(self, phantom_files, capsys, monkeypatch):
        tmp_path, truth, truth_path = phantom_files
        g_path = tmp_path / "g.pgm"
        _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
              "--noise-sigma", "0.1", "--seed", "6"], capsys)

        from hwtv.solver import DivergenceError

        def blow_up(*args, **kwargs):
            raise DivergenceError(4)

        monkeypatch.setattr(cli.solver, "restore", blow_up)
        code, _ = _run(
            ["restore", "--in", str(g_path), "--out", str(tmp_path / "rec.pgm"),
             "--noise-sigma", "0.1", "--tau", "1.0", "--radius", "4"],
            capsys,
        )
        assert code == 3

    def test_no_solver_flags_give_config_defaults(self, phantom_files, capsys, monkeypatch):
        # the CLI's solver defaults are SolverConfig's, not a copy of them
        tmp_path, _, truth_path = phantom_files
        from hwtv.solver import DivergenceError, SolverConfig

        configs = []

        def record(g, blur, sigma, cfg):
            configs.append(cfg)
            raise DivergenceError(0)

        monkeypatch.setattr(cli.solver, "restore", record)
        code, _ = _run(
            ["restore", "--in", str(truth_path), "--out", str(tmp_path / "rec.pgm"),
             "--noise-sigma", "0.1"],
            capsys,
        )
        assert code == 3
        assert configs == [SolverConfig(p=2, tau=1.0, r=5)]


class TestMetricsCommand:
    def test_rec_equals_deg_zero_isnr(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = tmp_path / "g.raw"
        _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
              "--noise-sigma", "0.1", "--seed", "7", "--format", RAW_F32], capsys)
        code, out = _run(
            ["metrics", "--ref", str(truth_path), "--deg", str(g_path), "--rec", str(g_path)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["isnr"] == 0.0

    def test_rec_equals_ref_reports_infinity_sentinel(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = tmp_path / "g.raw"
        _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
              "--noise-sigma", "0.1", "--seed", "8", "--format", RAW_F32], capsys)
        code, out = _run(
            ["metrics", "--ref", str(truth_path), "--deg", str(g_path), "--rec", str(truth_path)],
            capsys,
        )
        assert code == 0
        assert "Infinity" in out
        assert json.loads(out)["ssim"] == 1.0

    def test_dimension_mismatch_exit_two(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        small = make_phantom(PhantomSpec(width=32, height=32, kind="mixed"))
        small_path = tmp_path / "small.raw"
        write_image(small, small_path, RAW_F32)
        code, _ = _run(
            ["metrics", "--ref", str(truth_path), "--deg", str(truth_path),
             "--rec", str(small_path)],
            capsys,
        )
        assert code == 2

    def test_end_to_end_pipeline_improves_isnr(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path, rec_path = tmp_path / "g.raw", tmp_path / "rec.raw"
        _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
              "--noise-sigma", "0.1", "--seed", "9", "--format", RAW_F32], capsys)
        _run(["restore", "--in", str(g_path), "--out", str(rec_path),
              "--noise-sigma", "0.1", "--tau", "1.0", "--radius", "4",
              "--max-iter", "120", "--format", RAW_F32], capsys)
        code, out = _run(
            ["metrics", "--ref", str(truth_path), "--deg", str(g_path), "--rec", str(rec_path)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert np.isfinite(payload["isnr"]) and payload["isnr"] > 0.0


class TestSweepCommand:
    def _degraded(self, tmp_path, truth_path, capsys):
        g_path = tmp_path / "g.raw"
        _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
              "--noise-sigma", "0.1", "--seed", "10", "--format", RAW_F32], capsys)
        return g_path

    def test_grid_cardinality_and_schema(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = self._degraded(tmp_path, truth_path, capsys)
        out_csv = tmp_path / "sweep.csv"
        code, _ = _run(
            ["sweep", "--true", str(truth_path), "--in", str(g_path),
             "--out", str(out_csv), "--noise-sigma", "0.1",
             "--tau-grid", "0.9,0.95,1.0", "--radius-grid", "2,4",
             "--max-iter", "25"],
            capsys,
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_HEADER
        assert len(rows) == 1 + 6
        taus = [float(row[0]) for row in rows[1:]]
        radii = [int(row[1]) for row in rows[1:]]
        assert taus == sorted(taus)
        assert radii == [2, 4, 2, 4, 2, 4]

    def test_repeated_grid_values_run_once(self, phantom_files, capsys, monkeypatch):
        # 2:0.5:4 rounds to radii 2, 2, 3, 4, 4; each distinct cell runs once
        tmp_path, truth, truth_path = phantom_files
        g_path = self._degraded(tmp_path, truth_path, capsys)
        calls = []
        real_restore = cli.solver.restore

        def counting_restore(g, blur, sigma, cfg):
            calls.append((cfg.tau, cfg.r))
            return real_restore(g, blur, sigma, cfg)

        monkeypatch.setattr(cli.solver, "restore", counting_restore)
        out_csv = tmp_path / "sweep.csv"
        code, _ = _run(
            ["sweep", "--true", str(truth_path), "--in", str(g_path),
             "--out", str(out_csv), "--noise-sigma", "0.1",
             "--tau-grid", "1.0,1.0", "--radius-grid", "2:0.5:4", "--max-iter", "3"],
            capsys,
        )
        assert code == 0
        assert sorted(calls) == [(1.0, 2), (1.0, 3), (1.0, 4)]
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SWEEP_HEADER
        assert [int(row[1]) for row in rows[1:]] == [2, 3, 4]

    def test_colon_grid_parsing(self):
        assert cli.parse_grid("0.9:0.05:1.0", float) == pytest.approx([0.9, 0.95, 1.0])
        assert cli.parse_grid("2,6,10", int) == [2, 6, 10]
        with pytest.raises(ValueError):
            cli.parse_grid(" ", float)
        assert len(cli.parse_grid("1:1:1000", float)) == cli.MAX_GRID_POINTS
        with pytest.raises(ValueError, match="points"):
            cli.parse_grid("0:1e-6:1", float)

    def test_empty_grid_exit_two(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = self._degraded(tmp_path, truth_path, capsys)
        code, _ = _run(
            ["sweep", "--true", str(truth_path), "--in", str(g_path),
             "--out", str(tmp_path / "s.csv"), "--noise-sigma", "0.1",
             "--tau-grid", ",", "--radius-grid", "2"],
            capsys,
        )
        assert code == 2

    def test_nonpositive_grid_value_exit_two_before_any_cell(
        self, phantom_files, capsys, monkeypatch
    ):
        tmp_path, truth, truth_path = phantom_files
        g_path = self._degraded(tmp_path, truth_path, capsys)

        def no_restore(*args, **kwargs):
            raise AssertionError("a cell ran before the grid was checked")

        monkeypatch.setattr(cli.solver, "restore", no_restore)
        # non-finite values must not reach float-to-int casts or range counts
        for tau_grid, radius_grid in (
            ("1.0,-0.5", "2"), ("1.0", "2,0"),
            ("0.9:0.1:inf", "2"), ("1.0", "2,inf"), ("1.0", "1e400"),
            ("0:1e-9:1", "2"), ("1.0", "2,40"),
        ):
            code, _ = _run(
                ["sweep", "--true", str(truth_path), "--in", str(g_path),
                 "--out", str(tmp_path / "s.csv"), "--noise-sigma", "0.1",
                 "--tau-grid", tau_grid, "--radius-grid", radius_grid],
                capsys,
            )
            assert code == 2
        assert not (tmp_path / "s.csv").exists()

    def test_unscorable_images_exit_two_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # every cell is scored by ISNR and SSIM, which need one shape and at
        # least SSIM's 11x11 window; both are checked before any restore
        def no_restore(*args, **kwargs):
            raise AssertionError("a cell ran before the images were checked")

        monkeypatch.setattr(cli.solver, "restore", no_restore)
        paths = {}
        for name, shape in (("square", (16, 16)), ("wide", (16, 20)), ("tiny", (8, 8))):
            paths[name] = tmp_path / f"{name}.raw"
            write_image(ImageBuffer(np.full(shape, 0.5)), paths[name], RAW_F32)
        for truth, observed in (("square", "wide"), ("tiny", "tiny")):
            code, _ = _run(
                ["sweep", "--true", str(paths[truth]), "--in", str(paths[observed]),
                 "--out", str(tmp_path / "s.csv"), "--noise-sigma", "0.1",
                 "--tau-grid", "1.0", "--radius-grid", "2"],
                capsys,
            )
            assert code == 2
        assert not (tmp_path / "s.csv").exists()

    def test_exact_reconstruction_reports_infinite_isnr(self, tmp_path, capsys):
        # a constant image is a fixed point of restore, so every cell
        # reconstructs the truth exactly, as `hwtv metrics` reports it
        flat_path = tmp_path / "flat.raw"
        write_image(ImageBuffer(np.full((32, 32), 0.5)), flat_path, RAW_F32)
        out_csv = tmp_path / "sweep.csv"
        code, _ = _run(
            ["sweep", "--true", str(flat_path), "--in", str(flat_path),
             "--out", str(out_csv), "--noise-sigma", "0.1",
             "--tau-grid", "1.0", "--radius-grid", "2,3", "--max-iter", "10"],
            capsys,
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["isnr"]) for row in rows] == [float("inf")] * 2
        assert all(float(row["ssim"]) == 1.0 for row in rows)

    def test_deterministic_rows_modulo_timing(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = self._degraded(tmp_path, truth_path, capsys)
        csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["sweep", "--true", str(truth_path), "--in", str(g_path),
                "--noise-sigma", "0.1", "--tau-grid", "0.95,1.0",
                "--radius-grid", "3", "--max-iter", "20"]
        assert cli.main(argv + ["--out", str(csv_a)]) == 0
        assert cli.main(argv + ["--out", str(csv_b)]) == 0
        capsys.readouterr()

        def strip_timing(path):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            idx = rows[0].index("wall_ms")
            return [[v for i, v in enumerate(row) if i != idx] for row in rows]

        assert strip_timing(csv_a) == strip_timing(csv_b)

    def test_adaptive_mode_beats_scalar_in_sweep(self, tmp_path, capsys):
        # denoising sweep at tau = 1: the adaptive cells dominate scalar TV
        truth = make_phantom(
            PhantomSpec(width=128, height=128, kind="mixed", texture_freq=20.0)
        )
        truth_path = tmp_path / "t.raw"
        write_image(truth, truth_path, RAW_F32)
        g_path = tmp_path / "g.raw"
        _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
              "--noise-sigma", "0.1", "--seed", "3", "--format", RAW_F32], capsys)

        def best_isnr(mode):
            out_csv = tmp_path / f"{mode}.csv"
            code = cli.main(
                ["sweep", "--true", str(truth_path), "--in", str(g_path),
                 "--out", str(out_csv), "--noise-sigma", "0.1",
                 "--tau-grid", "1.0", "--radius-grid", "6", "--mode", mode]
            )
            assert code == 0
            with open(out_csv, newline="") as fh:
                rows = list(csv.DictReader(fh))
            return max(float(row["isnr"]) for row in rows)

        assert best_isnr("hwtv") > best_isnr("tv_scalar")
        capsys.readouterr()

    def test_worker_pool_sized_to_cells(self, phantom_files, capsys, monkeypatch):
        # no more workers than cells, and a single cell runs without a pool
        tmp_path, truth, truth_path = phantom_files
        g_path = self._degraded(tmp_path, truth_path, capsys)
        pools = []

        class RecordingPool:
            # records the requested size and runs the cells in this process
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        argv = ["sweep", "--true", str(truth_path), "--in", str(g_path),
                "--out", str(tmp_path / "s.csv"), "--noise-sigma", "0.1",
                "--radius-grid", "3", "--max-iter", "2"]
        assert cli.main(argv + ["--tau-grid", "0.95,1.0", "--jobs", "64"]) == 0
        assert pools == [2]
        assert cli.main(argv + ["--tau-grid", "1.0", "--jobs", "2"]) == 0
        assert pools == [2]
        capsys.readouterr()

    def test_worker_pool_matches_serial(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = self._degraded(tmp_path, truth_path, capsys)
        csv_a, csv_b = tmp_path / "serial.csv", tmp_path / "pool.csv"
        argv = ["sweep", "--true", str(truth_path), "--in", str(g_path),
                "--noise-sigma", "0.1", "--tau-grid", "0.95,1.0",
                "--radius-grid", "3", "--max-iter", "15"]
        assert cli.main(argv + ["--out", str(csv_a), "--jobs", "1"]) == 0
        assert cli.main(argv + ["--out", str(csv_b), "--jobs", "2"]) == 0
        capsys.readouterr()

        def strip_timing(path):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            idx = rows[0].index("wall_ms")
            return [[v for i, v in enumerate(row) if i != idx] for row in rows]

        assert strip_timing(csv_a) == strip_timing(csv_b)


def test_console_entry_point_runs():
    # the subprocess imports the package under test, wherever it was found
    src = os.path.dirname(os.path.dirname(os.path.abspath(hwtv.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "hwtv", "--help"], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "degrade" in proc.stdout and "sweep" in proc.stdout
