#!/usr/bin/env python3
"""Restore-loop benchmark for hwtv.

Usage, from the root of a checkout:

    python3 bench/run.py --workload hwtv_deblur_256 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace 1``
makes a separate traced run and prints the per-layer metrics. ``--workload
all`` runs every workload in turn. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment.

The package is imported from ``src/`` of the checkout; nothing is installed.
Scratch files go to ``.bench_tmp/`` in the checkout and are removed on exit.
Thread-count environment variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

from tracing import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
MANIFEST_PATH = os.path.join(ROOT, "BENCHMARK.json")  # names and units of the metrics

NOISE_SIGMA = 0.05
BLUR_BAND = 5
BLUR_SIGMA = 1.0
TEXTURE_FREQ = 20.0
P = 2
MAX_ITER = 500  # the SolverConfig and CLI default
TOL = 1e-5  # the SolverConfig and CLI default
# --seed picks one of SEED_POOL circular shifts of one fixed degraded scene.
# Every operator is periodic, so a shift changes the input arrays but not the
# work or, beyond rounding, the ISNR; fresh noise draws would move ISNR by up
# to 27% between seeds (README.md), more than any bound can absorb. Each
# shift's ISNR and SSIM are recorded in reference.json.
SEED_POOL = 16
SWEEP_FIELDS = ["tau", "r", "isnr", "ssim", "iterations", "wall_ms", "final_discrepancy"]
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS",
)
# float64 H x W arrays live across one sweep: g, u, Ku, w, rho_w, alpha and
# the two channels each of grad u, t and rho_t (12), plus the plan's complex
# eigen_K (2) and real eigen_DtD (1).
WORKING_SET_BYTES_PER_PIXEL = 15 * 8


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    mode: str
    taus: tuple[float, ...]
    radii: tuple[int, ...]
    noise_seed: int
    sweep: bool = False

    @property
    def cells(self) -> int:
        return len(self.taus) * len(self.radii)

    def shift(self, seed: int) -> tuple[int, int]:
        rng = random.Random(seed % SEED_POOL)
        return rng.randrange(self.size), rng.randrange(self.size)


# Why these three: hwtv_deblur_256 exercises every layer of the adaptive loop
# and hits the sweep cap, so it shows both per-sweep cost and convergence;
# scalar_deblur_512 converges by tol on arrays larger than L2 and bypasses
# adapt, so adapt changes must leave it unchanged; sweep_grid_128 runs the
# CLI on files at a size where per-call overhead (validation, plan rebuilds,
# SSIM, I/O) dominates.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("hwtv_deblur_256", 256, "hwtv", (0.94,), (14,), noise_seed=1),
        Workload("scalar_deblur_512", 512, "tv_scalar", (0.94,), (6,), noise_seed=1),
        Workload("sweep_grid_128", 128, "hwtv", (0.90, 0.94, 0.98), (6, 14), noise_seed=11,
                 sweep=True),
    )
}

# Span names (defining module + function or class) behind each stage metric
# whose value is a self time inside restore. restore's own self time is the
# loop glue, solver.self_ms_per_iter.
ROOT_SPAN = "solver.restore"
FFT_PREFIX = "fft."
SELF_STAGES = {
    "solver.prox_t_ms_per_iter": "solver.prox_t",
    "solver.update_w_ms_per_iter": "solver.update_w",
    "solver.update_mu_ms_per_iter": "adapt.update_mu",
    "adapt.box_mean_ms_per_iter": "linops.box_mean",
    "adapt.pointwise_norm_ms_per_iter": "linops.pointwise_norm",
    "adapt.validate_ms_per_iter": "adapt.AlphaMap",
    "linops.fft_ms_per_iter": FFT_PREFIX,
    "linops.blur_ms_per_iter": "linops.blur_via_plan",
    "linops.blur_adjoint_ms_per_iter": "linops.blur_adjoint_via_plan",
    "linops.solve_u_ms_per_iter": "linops.solve_u",
    "linops.gradient_ms_per_iter": "linops.gradient",
    "linops.divergence_ms_per_iter": "linops.divergence",
    "linops.validate_ms_per_iter": "linops.GradientField",
    "imgcore.validate_ms_per_iter": "imgcore.ImageBuffer",
}
# Mean milliseconds per call, anywhere in the run.
PER_CALL_MS = {
    "imgcore.ssim_ms": "imgcore.ssim",
    "imgcore.isnr_ms": "imgcore.isnr",
    "imgcore.read_image_ms": "imgcore.read_image",
    "imgcore.write_image_ms": "imgcore.write_image",
    "synth.make_phantom_ms": "synth.make_phantom",
    "synth.degrade_ms": "synth.degrade",
    "linops.build_plan_ms": "linops.build_plan",
}


class BenchError(Exception):
    """The benchmark cannot run here (no package source, a child failed)."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    """Imported package and the generated inputs of one workload."""

    hwtv: object
    workload: Workload
    truth: object
    g: object
    blur: object
    truth_path: str = ""
    deg_path: str = ""


def import_hwtv():
    """Import hwtv from the checkout's src/ and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import hwtv
        import hwtv.cli
    except ImportError as exc:
        raise BenchError(f"cannot import hwtv from {SRC}: {exc}") from exc
    if os.path.dirname(os.path.abspath(hwtv.__file__)) != os.path.join(SRC, "hwtv"):
        raise BenchError(f"hwtv imported from {hwtv.__file__}, not from {SRC}")
    return hwtv


def setup(workload: Workload, seed: int, workdir: str) -> Problem:
    """Everything before the first timed call: import, phantom, degrade, plan or files."""
    hwtv = import_hwtv()
    import numpy  # already loaded by hwtv, whose import the set-up timer counts

    truth = hwtv.synth.make_phantom(
        hwtv.synth.PhantomSpec(
            width=workload.size, height=workload.size, kind="mixed", texture_freq=TEXTURE_FREQ
        )
    )
    blur = hwtv.linops.BlurSpec(band=BLUR_BAND, sigma=BLUR_SIGMA)
    g = hwtv.synth.degrade(
        truth, hwtv.synth.DegradationSpec(blur=blur, sigma=NOISE_SIGMA, seed=workload.noise_seed)
    )
    shift = workload.shift(seed)
    truth = hwtv.imgcore.ImageBuffer(numpy.roll(truth.data, shift, axis=(0, 1)))
    g = hwtv.imgcore.ImageBuffer(numpy.roll(g.data, shift, axis=(0, 1)))
    problem = Problem(hwtv, workload, truth, g, blur)
    if workload.sweep:
        problem.truth_path = os.path.join(workdir, "truth.tvf1")
        problem.deg_path = os.path.join(workdir, "degraded.tvf1")
        hwtv.imgcore.write_image(truth, problem.truth_path, hwtv.imgcore.RAW_F32)
        hwtv.imgcore.write_image(g, problem.deg_path, hwtv.imgcore.RAW_F32)
    else:
        # restore builds its own plan; this one times a plan build as set-up.
        hwtv.linops.build_plan(workload.size, workload.size, blur)
    return problem


def timed_setup(workload: Workload, seed: int, workdir: str) -> tuple[Problem, float]:
    start = time.perf_counter()
    problem = setup(workload, seed, workdir)
    return problem, time.perf_counter() - start


def probe_setup(workload: Workload, seed: int, workdir: str) -> float:
    """Set-up time measured in a fresh interpreter, so the import is cold."""
    probe_dir = tempfile.mkdtemp(dir=workdir)
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", workload.name, "--seed", str(seed), "--workdir", probe_dir,
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise BenchError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# One attempt: a restore or a sweep, timed and checked
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    wall_s: float = 0.0
    iterations: int = 0
    cells: int = 0
    nan_cells: int = 0
    isnr_db: float = 0.0
    ssim: float = 0.0
    cell_wall_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def failed_cells(self) -> int:
        return self.cells if self.problems else 0

    def signature(self):
        return (self.iterations, self.cells, self.isnr_db, self.ssim)


def solver_config(problem: Problem, tau: float, r: int, max_iter: int = MAX_ITER):
    return problem.hwtv.solver.SolverConfig(
        p=P, tau=tau, r=r, mode=problem.workload.mode, max_iter=max_iter
    )


def attempt_restore(problem: Problem) -> Outcome:
    import numpy  # not at module level, so the set-up timer sees numpy's first import

    hwtv, workload = problem.hwtv, problem.workload
    cfg = solver_config(problem, workload.taus[0], workload.radii[0])
    out = Outcome(cells=1)
    start = time.perf_counter()
    try:
        result = hwtv.solver.restore(problem.g, problem.blur, NOISE_SIGMA, cfg)
    except Exception:  # a failed run is counted and reported, and the loop goes on
        out.wall_s = time.perf_counter() - start
        out.problems.append("restore raised: " + traceback.format_exc(limit=3))
        return out
    out.wall_s = time.perf_counter() - start
    out.iterations = result.iterations
    if not numpy.isfinite(result.u_star.data).all():
        out.problems.append("restored image is not finite")
    if not 1 <= result.iterations <= cfg.max_iter or len(result.trace) != result.iterations:
        out.problems.append(f"{result.iterations} iterations with {len(result.trace)} trace "
                            f"rows, cap {cfg.max_iter}")
    out.isnr_db = hwtv.imgcore.isnr(problem.g, problem.truth, result.u_star)
    out.ssim = hwtv.imgcore.ssim(result.u_star, problem.truth)
    return out


def sweep_argv(problem: Problem, csv_path: str, jobs: int) -> list[str]:
    workload = problem.workload
    return [
        "sweep", "--true", problem.truth_path, "--in", problem.deg_path, "--out", csv_path,
        "--noise-sigma", str(NOISE_SIGMA),
        "--tau-grid", ",".join(str(t) for t in workload.taus),
        "--radius-grid", ",".join(str(r) for r in workload.radii),
        "--blur-band", str(BLUR_BAND), "--blur-sigma", str(BLUR_SIGMA),
        "--mode", workload.mode, "--p", str(P), "--max-iter", str(MAX_ITER),
        "--jobs", str(jobs),
    ]


def attempt_sweep(problem: Problem, workdir: str, jobs: int = 1) -> Outcome:
    workload = problem.workload
    csv_path = os.path.join(workdir, f"sweep_jobs{jobs}.csv")
    out = Outcome(cells=workload.cells)
    start = time.perf_counter()
    try:
        code = problem.hwtv.cli.main(sweep_argv(problem, csv_path, jobs))
    except Exception:  # a failed run is counted and reported, and the loop goes on
        out.wall_s = time.perf_counter() - start
        out.problems.append("sweep raised: " + traceback.format_exc(limit=3))
        return out
    out.wall_s = time.perf_counter() - start
    if code != 0:
        out.problems.append(f"sweep exited with {code}")
        return out
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    os.remove(csv_path)
    if not rows or rows[0] != SWEEP_FIELDS:
        out.problems.append(f"sweep CSV header is {rows[:1]}, expected {SWEEP_FIELDS}")
        return out
    records = [dict(zip(SWEEP_FIELDS, (float(v) for v in row))) for row in rows[1:]]
    grid = sorted((t, r) for t in workload.taus for r in workload.radii)
    if sorted((rec["tau"], int(rec["r"])) for rec in records) != grid:
        out.problems.append(f"sweep CSV has {len(records)} rows, not the {len(grid)}-cell grid")
        return out
    out.nan_cells = sum(1 for rec in records if not all(map(math.isfinite, rec.values())))
    if out.nan_cells:
        out.problems.append(f"{out.nan_cells} sweep cells have NaN metrics")
        return out
    if not all(1 <= rec["iterations"] <= MAX_ITER for rec in records):
        out.problems.append(f"sweep iterations outside [1, {MAX_ITER}]")
    out.iterations = int(sum(rec["iterations"] for rec in records))
    out.isnr_db = max(rec["isnr"] for rec in records)
    out.ssim = max(rec["ssim"] for rec in records)
    out.cell_wall_ms = [rec["wall_ms"] for rec in records]
    return out


def attempt(problem: Problem, workdir: str) -> Outcome:
    if problem.workload.sweep:
        return attempt_sweep(problem, workdir)
    return attempt_restore(problem)


def check_quality(out: Outcome, reference: dict, workload: Workload, seed: int) -> None:
    """Compare ISNR and SSIM with the values recorded at the benchmark's commit."""
    if out.problems:
        return
    recorded = reference["workloads"][workload.name].get(str(seed % SEED_POOL))
    if recorded is None:
        out.problems.append(f"no recorded reference for seed {seed % SEED_POOL}")
        return
    for key, value in (("isnr_db", out.isnr_db), ("ssim", out.ssim)):
        expected, tol = recorded[key], reference["tolerance"][key]
        if abs(value - expected) > tol:
            out.problems.append(f"{key} {value:.6f} differs from recorded {expected:.6f} "
                                f"by more than {tol}")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def checked(outcomes: list[Outcome], reference: dict, workload: Workload, seed: int):
    """Quality checks, plus bit-identical results across repeats of one input."""
    for out in outcomes:
        check_quality(out, reference, workload, seed)
    good = [out for out in outcomes if not out.problems]
    for out in good[1:]:
        if out.signature() != good[0].signature():
            out.problems.append("repeat differs from the first run of the same input")
    for out in outcomes:
        for problem in out.problems:
            print(f"bench: {workload.name} seed {seed}: {problem}", file=sys.stderr)
    attempted = sum(out.cells for out in outcomes)
    failed = sum(out.failed_cells for out in outcomes)
    return attempted, failed


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def run_untraced(workload: Workload, seed: int, seconds: float, workdir: str, reference: dict):
    problem, first_setup = timed_setup(workload, seed, workdir)
    setup_samples = [first_setup] + [
        probe_setup(workload, seed, workdir) for _ in range(SETUP_SAMPLES - 1)
    ]
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < seconds:
        outcomes.append(attempt(problem, workdir))
    attempted, failed = checked(outcomes, reference, workload, seed)
    good = [out for out in outcomes if not out.problems] or outcomes
    walls = [out.wall_s for out in good]
    metrics = {
        "time_to_stop_s": statistics.median(walls),
        "ms_per_iter": statistics.median(
            out.wall_s / max(out.iterations, 1) * 1e3 for out in good
        ),
        "cells_per_s": sum(out.cells for out in good) / sum(walls),
        "isnr_db": good[0].isnr_db,
        "ssim": good[0].ssim,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return attempted, failed, with_units(metrics, "end_to_end")


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def hwtv_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "hwtv" or name.startswith("hwtv.")]


def stat_sum(stats, span: str, attr: str, inside: bool | None = True) -> float:
    """Sum ``attr`` over spans named ``span``, or starting with it if it ends in ".".

    ``inside`` keeps the spans inside restore (True), outside it (False) or both.
    """
    return sum(
        getattr(stat, attr)
        for (name, in_root), stat in stats.items()
        if (inside is None or in_root == inside)
        and (name == span or (span.endswith(".") and name.startswith(span)))
    )


def run_traced(workload: Workload, seed: int, workdir: str, reference: dict):
    import numpy.fft

    hwtv = import_hwtv()
    tracer = Tracer(root=ROOT_SPAN)
    tracer.install(hwtv_modules(), numpy.fft)
    try:
        problem = setup(workload, seed, workdir)
        setup_stats, _ = tracer.take()
        tracer.uninstall()

        untraced = attempt(problem, workdir)
        tracer.install(hwtv_modules(), numpy.fft)
        traced = attempt(problem, workdir)
        main_stats, results = tracer.take()
        # The per-restore fixed cost (plan, first iterate), for per_iter below.
        cfg = solver_config(problem, workload.taus[0], workload.radii[0], max_iter=1)
        hwtv.solver.restore(problem.g, problem.blur, NOISE_SIGMA, cfg)
        one_stats, _ = tracer.take()
    finally:
        tracer.uninstall()
    outcomes = [untraced, traced]
    jobs2 = attempt_sweep(problem, workdir, jobs=2) if workload.sweep else None
    if jobs2 is not None:
        outcomes.append(jobs2)
    attempted, failed = checked(outcomes, reference, workload, seed)

    n_restores = len(results)
    iters = sum(result.iterations for result in results)
    marginal = iters > n_restores

    def per_iter(span, attr="self_s", scale=1e3):
        # Marginal cost of a sweep: each restore's fixed cost, as measured by
        # the one-sweep restore, is taken out so counts per sweep are exact.
        fixed = n_restores * stat_sum(one_stats, span, attr) if marginal else 0.0
        sweeps = iters - n_restores if marginal else max(iters, 1)
        return (stat_sum(main_stats, span, attr) - fixed) / sweeps * scale

    def whole_run(span, attr):
        return sum(stat_sum(stats, span, attr, None) for stats in (setup_stats, main_stats))

    def per_call_ms(span):
        calls = whole_run(span, "calls")
        return whole_run(span, "total_s") / calls * 1e3 if calls else 0.0

    metrics = {}
    restore_ms = per_iter(ROOT_SPAN, "total_s")
    glue_ms = per_iter(ROOT_SPAN)
    listed_ms = glue_ms
    for metric, span in SELF_STAGES.items():
        metrics[metric] = per_iter(span)
        listed_ms += metrics[metric]
    metrics["solver.self_ms_per_iter"] = glue_ms
    metrics["adapt.estimate_alpha_ms_per_iter"] = per_iter("adapt.estimate_alpha", "total_s")
    for prefix, span in (("adapt", "adapt.AlphaMap"), ("linops", "linops.GradientField"),
                         ("imgcore", "imgcore.ImageBuffer")):
        metrics[f"{prefix}.validations_per_iter"] = per_iter(span, "calls", 1)
    metrics["linops.fft_calls_per_iter"] = per_iter(FFT_PREFIX, "calls", 1)
    metrics["linops.fft_bytes_per_iter"] = per_iter(FFT_PREFIX, "bytes", 1)
    metrics["linops.plans_built"] = whole_run("linops.build_plan", "calls")
    for metric, span in PER_CALL_MS.items():
        metrics[metric] = per_call_ms(span)
    pixels = workload.size * workload.size
    l2 = l2_bytes()
    metrics["linops.working_set_bytes"] = WORKING_SET_BYTES_PER_PIXEL * pixels
    metrics["linops.working_set_over_l2"] = (
        WORKING_SET_BYTES_PER_PIXEL * pixels / l2 if l2 else 0.0
    )

    sweep_ms = [row.wall_ms for result in results for row in result.trace]
    percentiles = statistics.quantiles(sweep_ms, n=100) if len(sweep_ms) > 1 else [0.0] * 99
    metrics["solver.iterations"] = iters / max(n_restores, 1)
    metrics["solver.converged"] = sum(
        result.iterations < MAX_ITER or result.trace[-1].rel_change <= TOL for result in results
    ) / max(n_restores, 1)
    metrics["solver.final_rel_change"] = statistics.median(
        result.trace[-1].rel_change for result in results
    ) if results else 0.0
    metrics["solver.sweep_ms_p50"] = percentiles[49]
    metrics["solver.sweep_ms_p95"] = percentiles[94]

    metrics["cli.sweep_cells"] = untraced.cells if workload.sweep else 0
    metrics["cli.failed_cells"] = untraced.nan_cells
    metrics["cli.cell_wall_ms_p50"] = (
        statistics.median(untraced.cell_wall_ms) if untraced.cell_wall_ms else 0.0
    )
    metrics["cli.jobs2_speedup"] = untraced.wall_s / jobs2.wall_s if jobs2 else 0.0

    metrics["trace.restore_ms_per_iter"] = restore_ms
    metrics["trace.accounted_share"] = listed_ms / restore_ms if restore_ms else 0.0
    metrics["trace.unlisted_ms_per_iter"] = restore_ms - listed_ms
    metrics["trace.overhead_ms_per_iter"] = (
        traced.wall_s / max(traced.iterations, 1) - untraced.wall_s / max(untraced.iterations, 1)
    ) * 1e3
    return attempted, failed, with_units(metrics, "per_layer")


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------

def cpu_caches() -> list[dict]:
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return caches
    for entry in entries:
        if not entry.startswith("index"):
            continue
        info = {}
        for key in ("level", "type", "size"):
            try:
                with open(os.path.join(base, entry, key)) as fh:
                    info[key] = fh.read().strip()
            except OSError:
                info[key] = None
        caches.append(info)
    return caches


def parse_size(text) -> int:
    if not text:
        return 0
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def l2_bytes() -> int:
    for cache in cpu_caches():
        if cache.get("level") == "2" and cache.get("type") in ("Unified", "Data"):
            return parse_size(cache.get("size"))
    return 0


def blas_config() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def package_version(name: str):
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(workload: Workload, seed: int) -> dict:
    pixels = workload.size * workload.size
    l2 = l2_bytes()
    return {
        "python": platform.python_version(),
        "numpy": package_version("numpy"),
        "scipy": package_version("scipy"),
        "blas": blas_config(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "caches": cpu_caches(),
        "thread_env": {name: os.environ[name] for name in THREAD_VARS if name in os.environ},
        "workload": workload.name,
        "input_shift": workload.shift(seed),
        "working_set_bytes_computed": WORKING_SET_BYTES_PER_PIXEL * pixels,
        "complex_array_bytes": 16 * pixels,
        "l2_bytes": l2,
    }


def with_units(metrics: dict, kind: str) -> dict:
    """Every metric BENCHMARK.json declares under ``kind``, with its unit."""
    with open(MANIFEST_PATH) as fh:
        declared = json.load(fh)[kind]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def result_line(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": attempted >= 1 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Run every workload in its own process and print one combined result."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise BenchError(f"workload {name} exited with {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(json.dumps({"workload": name, **result}))
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, value in result["metrics"].items():
            metrics[f"{name}.{metric}"] = value
    print(json.dumps(result_line(attempted, failed, metrics)))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            _, seconds = timed_setup(WORKLOADS[args.workload], args.seed, args.workdir)
            print(repr(seconds))
            return 0
        if args.workload == "all":
            return run_all(args)
        workload = WORKLOADS[args.workload]
        reference = load_reference()
        os.makedirs(TMP_ROOT, exist_ok=True)
        workdir = tempfile.mkdtemp(dir=TMP_ROOT)
        try:
            if args.trace:
                counts = run_traced(workload, args.seed, workdir, reference)
            else:
                counts = run_untraced(workload, args.seed, args.seconds, workdir, reference)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                os.rmdir(TMP_ROOT)
            except OSError:
                pass  # another run still uses it
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(workload, args.seed)}))
    print(json.dumps(result_line(*counts)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
