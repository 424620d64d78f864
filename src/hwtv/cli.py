"""Command-line front end: degrade, restore, metrics, and parameter sweeps."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import astuple, dataclass, fields

import numpy as np

from . import imgcore, solver, synth
from .imgcore import PGM8, RAW_F32, ImageBuffer
from .linops import BlurSpec, _require_count
from .solver import DivergenceError, SolverConfig, TraceRow

USAGE_ERROR = 2
DIVERGENCE_ERROR = 3
MAX_GRID_POINTS = 1000
# The SolverConfig fields set by a flag of their own name; tau and r come
# from --tau and --radius, or from the sweep's grids.
SOLVER_FLAGS = ("p", "mode", "beta_t", "max_iter", "tol")


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell; metric fields are NaN when the cell diverged."""

    tau: float
    r: int
    isnr: float
    ssim: float
    iterations: int
    wall_ms: float
    final_discrepancy: float


def _blur_from_args(args) -> BlurSpec:
    return BlurSpec(band=args.blur_band, sigma=args.blur_sigma)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _require_output_dirs(*paths) -> None:
    """Refuse, before any work is done, an output that is empty, is a folder or has no
    folder to be in; a ``None`` output is not asked for and passes."""
    for path in paths:
        if path is None:
            continue
        if not path:
            raise FileNotFoundError("an output path is empty")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"no folder {folder!r} to write {path!r} in")
        if os.path.isdir(path):
            raise IsADirectoryError(f"output {path!r} is a folder")


def _write_csv(path, row_type, rows) -> None:
    """Write dataclass ``rows`` as CSV, headed by ``row_type``'s field names."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(row_type))
        writer.writerows(map(astuple, rows))


def parse_grid(text: str, cast):
    """Parse "start:step:stop" (inclusive) or a comma-separated value list.

    Numbers are read as floats, and must be finite before ``cast`` applies.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:step:stop, got {text!r}")
        start, step, stop = (float(part) for part in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        # Not finite if a bound is not, or if the points are too many to count.
        span = (stop - start) / step
        if not math.isfinite(span):
            raise ValueError(f"grid range must be finite, got {text!r}")
        count = int(math.floor(span + 1e-9)) + 1
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid has {count} points, more than {MAX_GRID_POINTS}")
        values = [start + i * step for i in range(max(count, 0))]
    else:
        values = [float(item) for item in text.split(",") if item.strip()]
    if not values:
        raise ValueError(f"empty grid: {text!r}")
    if not all(map(math.isfinite, values)):
        raise ValueError(f"grid values must be finite, got {text!r}")
    return [cast(value) for value in values]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_degrade(args) -> int:
    clean = imgcore.read_image(args.infile)
    spec = synth.DegradationSpec(
        blur=_blur_from_args(args), sigma=args.noise_sigma, seed=args.seed
    )
    degraded = synth.degrade(clean, spec)
    imgcore.write_image(degraded, args.out, args.format)
    _print_json(
        {
            "in": args.infile,
            "out": args.out,
            "blur_band": spec.blur.band,
            "blur_sigma": spec.blur.sigma,
            "noise_sigma": spec.sigma,
            "seed": spec.seed,
        }
    )
    return 0


def _config_from_args(args, tau: float, r: int) -> SolverConfig:
    return SolverConfig(tau=tau, r=r, **{name: getattr(args, name) for name in SOLVER_FLAGS})


def _export_alpha(alpha_values: np.ndarray, path: str, fmt: str) -> None:
    # pgm8 gets a min-max rescale to [0, 1]; raw-f32 keeps raw weights.
    if fmt == PGM8:
        low = float(alpha_values.min())
        span = float(alpha_values.max()) - low
        scaled = (alpha_values - low) / span if span > 0 else np.zeros_like(alpha_values)
        imgcore.write_image(ImageBuffer(scaled), path, PGM8)
    else:
        imgcore.write_image(ImageBuffer(alpha_values), path, RAW_F32)


def cmd_restore(args) -> int:
    degraded = imgcore.read_image(args.infile)
    cfg = _config_from_args(args, args.tau, args.radius)
    result = solver.restore(degraded, _blur_from_args(args), args.noise_sigma, cfg)
    imgcore.write_image(result.u_star, args.out, args.format)
    if args.alpha_out is not None:
        _export_alpha(result.alpha_final, args.alpha_out, args.format)
    if args.trace is not None:
        _write_csv(args.trace, TraceRow, result.trace)
    last = result.trace[-1]
    _print_json({"iterations": result.iterations, "discrepancy": last.discrepancy, "mu": last.mu})
    return 0


def cmd_metrics(args) -> int:
    reference = imgcore.read_image(args.ref)
    degraded = imgcore.read_image(args.deg)
    reconstructed = imgcore.read_image(args.rec)
    _print_json(
        {
            "isnr": imgcore.isnr(degraded, reference, reconstructed),
            "ssim": imgcore.ssim(reconstructed, reference),
        }
    )
    return 0


def _sweep_cell(payload) -> SweepRow:
    cfg, blur, noise_sigma, g, truth = payload
    tick = time.perf_counter()
    try:
        result = solver.restore(g, blur, noise_sigma, cfg)
    except DivergenceError as exc:
        # flag the diverged cell with NaN metrics; the sweep itself goes on
        isnr = ssim = discrepancy = float("nan")
        iterations = exc.iteration
    else:
        isnr = imgcore.isnr(g, truth, result.u_star)
        ssim = imgcore.ssim(result.u_star, truth)
        iterations, discrepancy = result.iterations, result.trace[-1].discrepancy
    return SweepRow(
        tau=cfg.tau,
        r=cfg.r,
        isnr=isnr,
        ssim=ssim,
        iterations=iterations,
        wall_ms=(time.perf_counter() - tick) * 1e3,
        final_discrepancy=discrepancy,
    )


def cmd_sweep(args) -> int:
    _require_count("--jobs", args.jobs, 1)
    truth = imgcore.read_image(args.true)
    degraded = imgcore.read_image(args.infile)
    # Every cell is scored against the truth, so check that scoring can run.
    imgcore._require_ssim_pair(degraded, truth)
    tau_values = parse_grid(args.tau_grid, float)
    r_values = parse_grid(args.radius_grid, round)
    blur = _blur_from_args(args)
    # One cell per distinct (tau, r), in (tau, r) order, which pool.map and the
    # serial loop keep, so the rows need no sort. Rounding radii can repeat a
    # value; SolverConfig and restore's own checks see every cell before any
    # cell or worker starts.
    cells = [
        (_config_from_args(args, tau, radius), blur, args.noise_sigma, degraded, truth)
        for tau in sorted(set(tau_values))
        for radius in sorted(set(r_values))
    ]
    for cfg, *_ in cells:
        solver._prepare(degraded, blur, args.noise_sigma, cfg)
    # The pool starts all its workers at once, so never more than can run.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(args.jobs, len(cells), cores or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pool needs it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(cell) for cell in cells]
    _write_csv(args.out, SweepRow, results)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_io_format(parser):
    parser.add_argument(
        "--format", choices=imgcore.FORMATS, default=PGM8,
        help="output image format (inputs are sniffed from their magic bytes)",
    )


def _add_blur_flags(parser):
    parser.add_argument(
        "--blur-band", type=int, default=1, metavar="N",
        help="blur kernel side length, odd; 1 means identity (pure denoising)",
    )
    parser.add_argument(
        "--blur-sigma", type=float, default=1.0, metavar="S",
        help="blur kernel standard deviation in pixels",
    )


def _add_solver_flags(parser):
    defaults = {f.name: f.default for f in fields(SolverConfig)}
    parser.add_argument("--mode", choices=solver.MODES, default=defaults["mode"])
    parser.add_argument("--p", type=int, choices=(1, 2), default=2,
                        help="TV flavor: 1 anisotropic, 2 isotropic")
    for name in SOLVER_FLAGS[2:]:
        # p and mode, above, take choices; each of the rest parses as its
        # default's type: int for max_iter, else float.
        parser.add_argument("--" + name.replace("_", "-"),
                            type=type(defaults[name]), default=defaults[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwtv",
        description="Space-variant TV restoration with automatic parameter selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    deg = sub.add_parser("degrade", help="blur an image and add seeded Gaussian noise")
    deg.add_argument("--in", dest="infile", required=True)
    deg.add_argument("--out", required=True)
    deg.add_argument("--noise-sigma", type=float, required=True)
    deg.add_argument("--seed", type=int, default=0)
    _add_blur_flags(deg)
    _add_io_format(deg)
    deg.set_defaults(func=cmd_degrade)

    res = sub.add_parser("restore", help="run the adaptive ADMM restoration")
    res.add_argument("--in", dest="infile", required=True)
    res.add_argument("--out", required=True)
    res.add_argument("--noise-sigma", type=float, required=True)
    res.add_argument("--tau", type=float, default=1.0,
                     help="discrepancy factor (target residual = tau sigma sqrt(n))")
    res.add_argument("--radius", type=int, default=5,
                     help="window radius for the per-pixel weight estimate")
    res.add_argument("--alpha-out", default=None,
                     help="write the final weight map (min-max rescaled for pgm8)")
    res.add_argument("--trace", default=None, help="write per-iteration CSV trace")
    _add_blur_flags(res)
    _add_solver_flags(res)
    _add_io_format(res)
    res.set_defaults(func=cmd_restore)

    met = sub.add_parser("metrics", help="report ISNR and SSIM for a reconstruction")
    met.add_argument("--ref", required=True, help="ground-truth image")
    met.add_argument("--deg", required=True, help="degraded observation")
    met.add_argument("--rec", required=True, help="reconstruction to score")
    met.set_defaults(func=cmd_metrics)

    swp = sub.add_parser("sweep", help="grid-sweep (tau, r) and write a CSV of metrics")
    swp.add_argument("--true", required=True, help="ground-truth image")
    swp.add_argument("--in", dest="infile", required=True, help="degraded observation")
    swp.add_argument("--out", required=True, help="CSV output path")
    swp.add_argument("--noise-sigma", type=float, required=True)
    swp.add_argument("--tau-grid", default="0.85:0.01:1.05",
                     help="taus as start:step:stop or comma list")
    swp.add_argument("--radius-grid", default="2,6,10,14",
                     help="radii as start:step:stop or comma list")
    swp.add_argument("--jobs", type=int, default=1,
                     help="worker processes, at most one per cell and usable core")
    _add_blur_flags(swp)
    _add_solver_flags(swp)
    swp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every subcommand's outputs are checked here, before it does any work.
        _require_output_dirs(*(getattr(args, n, None) for n in ("out", "alpha_out", "trace")))
        return args.func(args)
    except DivergenceError as exc:
        print(f"hwtv: {exc}", file=sys.stderr)
        return DIVERGENCE_ERROR
    except (ValueError, OSError) as exc:
        print(f"hwtv: {exc}", file=sys.stderr)
        return USAGE_ERROR
