import concurrent.futures
import csv
import dataclasses
import json
import os
import shlex
import subprocess
import sys

import numpy as np
import pytest

import hwtv
from hwtv import cli
from hwtv.imgcore import PGM8, RAW_F32, ImageBuffer, read_image, write_image
from hwtv.synth import PhantomSpec, make_phantom


@pytest.fixture()
def phantom_files(tmp_path):
    truth = make_phantom(PhantomSpec(width=64, height=64, kind="mixed"))
    truth_path = tmp_path / "truth.raw"
    write_image(truth, truth_path, RAW_F32)
    return tmp_path, truth, truth_path


SWEEP_HEADER = ["tau", "r", "isnr", "ssim", "iterations", "wall_ms", "final_discrepancy"]

# The options of each subcommand, besides --help, sorted; a flag joins or
# leaves the command line by an edit here.
FLAGS = {
    "degrade": ["--blur-band", "--blur-sigma", "--format", "--in", "--noise-sigma", "--out",
                "--seed"],
    "metrics": ["--deg", "--rec", "--ref"],
    "restore": ["--alpha-out", "--beta-t", "--beta-w", "--blur-band", "--blur-sigma", "--format",
                "--in", "--max-iter", "--mode", "--noise-sigma", "--out", "--p", "--radius",
                "--tau", "--tol", "--trace"],
    "sweep": ["--beta-t", "--beta-w", "--blur-band", "--blur-sigma", "--in", "--jobs",
              "--max-iter", "--mode", "--noise-sigma", "--out", "--p", "--radius-grid",
              "--tau-grid", "--tol", "--true"],
}


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out.strip()
    return code, out


def _degrade(capsys, truth_path, name, seed, *flags):
    # Setup for another command's test: `hwtv degrade` at noise sigma 0.1
    # into `name` next to the truth, as raw-f32 for a .raw name, else PGM.
    g_path = truth_path.with_name(name)
    fmt = ["--format", RAW_F32] if g_path.suffix == ".raw" else []
    code, _ = _run(["degrade", "--in", str(truth_path), "--out", str(g_path),
                    "--noise-sigma", "0.1", "--seed", str(seed), *flags, *fmt], capsys)
    assert code == 0
    return g_path


def test_subcommand_flags():
    (subcommands,) = [action.choices for action in cli.build_parser()._actions
                      if isinstance(action.choices, dict)]
    flags = {
        name: sorted(option for action in parser._actions for option in action.option_strings
                     if option not in ("-h", "--help"))
        for name, parser in subcommands.items()
    }
    assert flags == FLAGS


@pytest.fixture(scope="module")
def usage_inputs(tmp_path_factory):
    # The files the USAGE_ERRORS rows read, written once: the 64x64 truth, two
    # observations of it as `hwtv degrade --noise-sigma 0.1` writes them, a
    # 32x32 image, and images that ISNR and SSIM cannot score as a pair.
    folder = tmp_path_factory.mktemp("inputs")
    truth = make_phantom(PhantomSpec(width=64, height=64, kind="mixed"))
    write_image(truth, folder / "truth.raw", RAW_F32)
    truth = read_image(folder / "truth.raw")
    for name, seed, fmt in (("g.pgm", 6, PGM8), ("g.raw", 10, RAW_F32)):
        g = hwtv.degrade(truth, hwtv.DegradationSpec(hwtv.BlurSpec(), 0.1, seed))
        write_image(g, folder / name, fmt)
    small = make_phantom(PhantomSpec(width=32, height=32, kind="mixed"))
    write_image(small, folder / "small.raw", RAW_F32)
    for name, shape in (("square", (16, 16)), ("wide", (16, 20)), ("tiny", (8, 8))):
        write_image(ImageBuffer(np.full(shape, 0.5)), folder / f"{name}.raw", RAW_F32)
    return folder


RESTORE = "restore --in in/g.pgm --out rec.pgm --noise-sigma 0.1 --tau 1.0 --radius 4 --max-iter 3"
SWEEP = "sweep --true in/truth.raw --in in/g.raw --out s.csv --noise-sigma 0.1"
# Each command line that must exit 2, as a usage error, before it writes a
# file, runs a sweep or, for `sweep`, runs a cell. "in/" holds the files of
# `usage_inputs`; the command runs in a folder of its own.
USAGE_ERRORS = {
    # the band must be odd and positive on every subcommand that takes a blur
    "degrade-band-zero": "degrade --in in/truth.raw --out out --noise-sigma 0.1 --blur-band 0",
    "restore-band-zero":
        "restore --in in/truth.raw --max-iter 1 --out out --noise-sigma 0.1 --blur-band 0",
    "sweep-band-zero": "sweep --true in/truth.raw --in in/truth.raw --tau-grid 1.0 "
                       "--radius-grid 2 --max-iter 1 --out out --noise-sigma 0.1 --blur-band 0",
    "degrade-noise-sigma-missing": "degrade --in in/truth.raw --out g.pgm",
    "degrade-input-unreadable": "degrade --in in/missing.pgm --out g.pgm --noise-sigma 0.1",
    "restore-radius-oversized":
        "restore --in in/g.pgm --out rec.pgm --noise-sigma 0.1 --tau 1.0 --radius 40",
    # a count below its least is refused like a count too large
    "restore-radius-zero": RESTORE.replace("--radius 4", "--radius 0"),
    "restore-max-iter-zero": RESTORE.replace("--max-iter 3", "--max-iter 0"),
    # tau and sigma are each positive, but tau * sigma * sqrt(n) is 0
    "restore-target-underflow":
        "restore --in in/truth.raw --out rec.raw --noise-sigma 1e-200 --tau 1e-200 --radius 4",
    "restore-target-overflow":
        "restore --in in/truth.raw --out rec.raw --noise-sigma 1e300 --tau 1e300 --radius 4",
    # a NaN tunable is bad input (exit 2), not a diverged run (exit 3)
    "restore-tau-nan":
        "restore --in in/g.pgm --out rec.pgm --noise-sigma 0.1 --tau nan --radius 4 --max-iter 3",
    "restore-noise-sigma-nan":
        "restore --in in/g.pgm --out rec.pgm --noise-sigma nan --tau 1.0 --radius 4 --max-iter 3",
    "restore-tol-nan": f"{RESTORE} --tol nan",
    # an output whose folder does not exist is refused before any work is done
    "restore-out-dir-missing": RESTORE.replace("--out rec.pgm", "--out nodir/rec.pgm"),
    "degrade-out-dir-missing": "degrade --in in/truth.raw --out nodir/g.pgm --noise-sigma 0.1",
    "restore-alpha-out-dir-missing": f"{RESTORE} --alpha-out nodir/a.pgm",
    "restore-trace-dir-missing": f"{RESTORE} --trace nodir/t.csv",
    # and so is an output that is a folder
    "restore-out-is-folder": RESTORE.replace("--out rec.pgm", "--out in"),
    "degrade-out-is-folder": "degrade --in in/truth.raw --out in --noise-sigma 0.1",
    "restore-alpha-out-is-folder": f"{RESTORE} --alpha-out in",
    "restore-trace-is-folder": f"{RESTORE} --trace in",
    # and so is an empty output path
    "restore-out-empty": RESTORE.replace("--out rec.pgm", "--out ''"),
    "restore-trace-empty": f"{RESTORE} --trace ''",
    "restore-alpha-out-empty": f"{RESTORE} --alpha-out ''",
    "degrade-out-empty": "degrade --in in/truth.raw --out '' --noise-sigma 0.1",
    # a NaN blur width is not a diverged run, an infinite one not a box blur;
    # band 1, the identity, is checked too
    "restore-blur-sigma-nan": f"{RESTORE} --blur-band 5 --blur-sigma nan",
    "restore-blur-sigma-inf": f"{RESTORE} --blur-band 5 --blur-sigma inf",
    "restore-blur-sigma-nan-band1": f"{RESTORE} --blur-band 1 --blur-sigma nan",
    "restore-blur-sigma-inf-band1": f"{RESTORE} --blur-band 1 --blur-sigma inf",
    "degrade-blur-sigma-nan":
        "degrade --in in/truth.raw --out g2.pgm --noise-sigma 0.1 --blur-band 5 --blur-sigma nan",
    "degrade-blur-sigma-inf":
        "degrade --in in/truth.raw --out g2.pgm --noise-sigma 0.1 --blur-band 5 --blur-sigma inf",
    "degrade-blur-sigma-nan-band1":
        "degrade --in in/truth.raw --out g2.pgm --noise-sigma 0.1 --blur-band 1 --blur-sigma nan",
    "degrade-blur-sigma-inf-band1":
        "degrade --in in/truth.raw --out g2.pgm --noise-sigma 0.1 --blur-band 1 --blur-sigma inf",
    # a finite, positive width whose 2 sigma**2 is 0 or overflows
    "restore-blur-sigma-tiny": f"{RESTORE} --blur-band 1 --blur-sigma 1e-200",
    "restore-blur-sigma-huge": f"{RESTORE} --blur-band 5 --blur-sigma 1e300",
    "degrade-blur-sigma-huge-band1":
        "degrade --in in/truth.raw --out g2.pgm --noise-sigma 0.1 --blur-band 1 --blur-sigma 1e300",
    "metrics-shape-mismatch": "metrics --ref in/truth.raw --deg in/truth.raw --rec in/small.raw",
    "sweep-grid-empty": f"{SWEEP} --tau-grid , --radius-grid 2",
    # non-finite values must not reach float-to-int casts or range counts
    "sweep-tau-negative": f"{SWEEP} --tau-grid 1.0,-0.5 --radius-grid 2",
    "sweep-radius-zero": f"{SWEEP} --tau-grid 1.0 --radius-grid 2,0",
    "sweep-tau-range-infinite": f"{SWEEP} --tau-grid 0.9:0.1:inf --radius-grid 2",
    "sweep-radius-inf": f"{SWEEP} --tau-grid 1.0 --radius-grid 2,inf",
    "sweep-radius-overflow": f"{SWEEP} --tau-grid 1.0 --radius-grid 1e400",
    "sweep-tau-grid-too-long": f"{SWEEP} --tau-grid 0:1e-9:1 --radius-grid 2",
    "sweep-radius-oversized": f"{SWEEP} --tau-grid 1.0 --radius-grid 2,40",
    "sweep-jobs-zero": f"{SWEEP} --radius-grid 2 --jobs 0",
    "sweep-out-dir-missing": SWEEP.replace("--out s.csv", "--out nodir/s.csv"),
    "sweep-out-is-folder": SWEEP.replace("--out s.csv", "--out in"),
    "sweep-out-empty": SWEEP.replace("--out s.csv", "--out ''"),
    # restore's own checks run on every cell before any cell or worker starts
    "sweep-noise-sigma-nan": "sweep --true in/truth.raw --in in/g.raw --out s.csv "
                             "--noise-sigma nan --tau-grid 1.0 --radius-grid 2",
    "sweep-noise-sigma-zero": "sweep --true in/truth.raw --in in/g.raw --out s.csv "
                              "--noise-sigma 0 --tau-grid 1.0 --radius-grid 2",
    "sweep-kernel-oversized": f"{SWEEP} --tau-grid 1.0 --radius-grid 2 --blur-band 65",
    "sweep-target-underflow": "sweep --true in/truth.raw --in in/g.raw --out s.csv "
                              "--noise-sigma 1e-200 --tau-grid 1e-200 --radius-grid 2",
    "sweep-target-overflow": "sweep --true in/truth.raw --in in/g.raw --out s.csv "
                             "--noise-sigma 1e300 --tau-grid 1e300 --radius-grid 2",
    "sweep-tau-grid-two-parts": f"{SWEEP} --radius-grid 2 --tau-grid 1:2",
    "sweep-tau-grid-zero-step": f"{SWEEP} --radius-grid 2 --tau-grid 0:0:1",
    # every cell is scored by ISNR and SSIM, which need one shape and at least
    # SSIM's 11x11 window
    "sweep-shape-mismatch": "sweep --true in/square.raw --in in/wide.raw --out s.csv "
                            "--noise-sigma 0.1 --tau-grid 1.0 --radius-grid 2",
    "sweep-images-too-small": "sweep --true in/tiny.raw --in in/tiny.raw --out s.csv "
                              "--noise-sigma 0.1 --tau-grid 1.0 --radius-grid 2",
}


@pytest.mark.parametrize("command", USAGE_ERRORS.values(), ids=list(USAGE_ERRORS))
def test_usage_error(usage_inputs, tmp_path, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("the work began before the arguments were checked")

    monkeypatch.setattr(cli.solver, "_sweep", refuse)
    if command.startswith("sweep"):
        monkeypatch.setattr(cli.solver, "restore", refuse)
    if command.startswith("degrade"):
        monkeypatch.setattr(cli.synth, "degrade", refuse)
    (tmp_path / "in").symlink_to(usage_inputs, target_is_directory=True)
    monkeypatch.chdir(tmp_path)
    try:
        code = cli.main(shlex.split(command))
    except SystemExit as exc:  # argparse rejects a missing or malformed option
        code = exc.code
    assert code == 2
    assert os.listdir(tmp_path) == ["in"]


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


class TestRestoreCommand:
    def test_restore_writes_artifacts_and_json(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = _degrade(capsys, truth_path, "g.raw", 3, "--blur-band", "1")
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
        # the printed summary is the last trace row; both print floats exactly
        last = dict(zip(rows[0], rows[-1]))
        assert (float(last["mu"]), float(last["discrepancy"])) == (
            payload["mu"], payload["discrepancy"])
        # raw alpha export carries the actual weights (positive, within cap)
        alpha = read_image(alpha_path)
        assert alpha.data.min() > 0.0

    def test_alpha_pgm_export_is_rescaled(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = _degrade(capsys, truth_path, "g.pgm", 3)
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
        g_path = _degrade(capsys, truth_path, "g.pgm", 5)
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
        g_path = _degrade(capsys, truth_path, "g.raw", 12)
        code, out = _run(
            ["restore", "--in", str(g_path), "--out", str(tmp_path / "rec.raw"),
             "--noise-sigma", "0.1", "--mode", "hwtv", "--p", "1",
             "--tau", "0.86", "--radius", "40", "--max-iter", "40",
             "--format", RAW_F32],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["iterations"] >= 1

    def test_solver_flags_cover_config_fields(self):
        # a new SolverConfig field cannot miss its flag
        from hwtv.solver import SolverConfig

        names = {f.name for f in dataclasses.fields(SolverConfig)}
        assert set(cli.SOLVER_FLAGS) | {"tau", "r"} == names

    def test_divergence_exit_code(self, phantom_files, capsys, monkeypatch):
        tmp_path, truth, truth_path = phantom_files
        g_path = _degrade(capsys, truth_path, "g.pgm", 6)

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
        g_path = _degrade(capsys, truth_path, "g.raw", 7)
        code, out = _run(
            ["metrics", "--ref", str(truth_path), "--deg", str(g_path), "--rec", str(g_path)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["isnr"] == 0.0

    def test_rec_equals_ref_reports_infinity_sentinel(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = _degrade(capsys, truth_path, "g.raw", 8)
        code, out = _run(
            ["metrics", "--ref", str(truth_path), "--deg", str(g_path), "--rec", str(truth_path)],
            capsys,
        )
        assert code == 0
        assert "Infinity" in out
        assert json.loads(out)["ssim"] == 1.0

    def test_end_to_end_pipeline_improves_isnr(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path, rec_path = _degrade(capsys, truth_path, "g.raw", 9), tmp_path / "rec.raw"
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
    def test_grid_cardinality_and_schema(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = _degrade(capsys, truth_path, "g.raw", 10)
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
        g_path = _degrade(capsys, truth_path, "g.raw", 10)
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

    def test_one_blur_symbol_per_cell(self, phantom_files, capsys, monkeypatch):
        # the checks that run on every cell before any cell starts build no
        # blur symbol; each cell's restore builds its own, once
        tmp_path, truth, truth_path = phantom_files
        g_path = _degrade(capsys, truth_path, "g.raw", 10, "--blur-band", "3")
        calls = []
        real_build = cli.solver.build_plan

        def counting_build(width, height, spec):
            calls.append(spec)
            return real_build(width, height, spec)

        monkeypatch.setattr(cli.solver, "build_plan", counting_build)
        code, _ = _run(
            ["sweep", "--true", str(truth_path), "--in", str(g_path),
             "--out", str(tmp_path / "sweep.csv"), "--noise-sigma", "0.1",
             "--tau-grid", "0.95,1.0", "--radius-grid", "2,4", "--max-iter", "3",
             "--blur-band", "3"],
            capsys,
        )
        assert code == 0
        assert len(calls) == 4

    def test_colon_grid_parsing(self):
        assert cli.parse_grid("0.9:0.05:1.0", float) == pytest.approx([0.9, 0.95, 1.0])
        assert cli.parse_grid("2,6,10", int) == [2, 6, 10]
        with pytest.raises(ValueError):
            cli.parse_grid(" ", float)
        assert len(cli.parse_grid("1:1:1000", float)) == cli.MAX_GRID_POINTS
        with pytest.raises(ValueError, match="points"):
            cli.parse_grid("0:1e-6:1", float)

    def test_diverged_cell_is_a_nan_row(self, phantom_files, capsys, monkeypatch):
        # a diverged cell is reported in its row; the sweep goes on and exits 0
        tmp_path, truth, truth_path = phantom_files
        g_path = _degrade(capsys, truth_path, "g.raw", 10)
        real_restore = cli.solver.restore

        def diverge_at_r4(g, blur, sigma, cfg):
            if cfg.r == 4:
                raise hwtv.DivergenceError(7)
            return real_restore(g, blur, sigma, cfg)

        monkeypatch.setattr(cli.solver, "restore", diverge_at_r4)
        out_csv = tmp_path / "sweep.csv"
        code, _ = _run(
            ["sweep", "--true", str(truth_path), "--in", str(g_path),
             "--out", str(out_csv), "--noise-sigma", "0.1",
             "--tau-grid", "1.0", "--radius-grid", "2,4,6", "--max-iter", "5"],
            capsys,
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = [dict(zip(SWEEP_HEADER, map(float, row))) for row in list(csv.reader(fh))[1:]]
        assert [row["r"] for row in rows] == [2, 4, 6]
        for row in rows:
            assert np.isfinite(row["wall_ms"])
            metrics = [row[name] for name in ("isnr", "ssim", "final_discrepancy")]
            if row["r"] == 4:
                assert np.isnan(metrics).all()
                assert row["iterations"] == 7
            else:
                assert np.isfinite(metrics).all()
                assert row["iterations"] == 5

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
        g_path = _degrade(capsys, truth_path, "g.raw", 10)
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
        g_path = _degrade(capsys, truth_path, "g.raw", 3)

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
        # no more workers than cells or usable cores, and a single cell or
        # core runs without a pool
        tmp_path, truth, truth_path = phantom_files
        g_path = _degrade(capsys, truth_path, "g.raw", 10)
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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        argv = ["sweep", "--true", str(truth_path), "--in", str(g_path),
                "--out", str(tmp_path / "s.csv"), "--noise-sigma", "0.1",
                "--radius-grid", "3", "--max-iter", "2"]
        for cores, grid, jobs, expected in [
            (4, "0.95,1.0", "64", [2]),
            (4, "1.0", "2", []),
            (2, "0.9,0.95,1.0", "64", [2]),
            (1, "0.95,1.0", "2", []),
        ]:
            pools.clear()
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, n=cores: set(range(n)), raising=False)
            assert cli.main(argv + ["--tau-grid", grid, "--jobs", jobs]) == 0
            assert pools == expected
        capsys.readouterr()

    def test_worker_pool_matches_serial(self, phantom_files, capsys):
        tmp_path, truth, truth_path = phantom_files
        g_path = _degrade(capsys, truth_path, "g.raw", 10)
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
