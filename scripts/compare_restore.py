#!/usr/bin/env python3
"""Check that two checkouts of hwtv restore and degrade bit for bit alike,
and compare the memory a restore takes in each.

    python3 scripts/compare_restore.py OLD_CHECKOUT NEW_CHECKOUT

Every problem is the mixed phantom (texture frequency 20) degraded with
noise sigma 0.05 (seed 1), by the band-5 sigma=1 blur or the identity
(band 1). Each measurement imports a checkout's ``src/`` in a subprocess of
its own.

The bit table. At 128x128, ``degrade`` runs for both blurs, and ``restore``
for 150 sweeps in 8 configurations: modes ``hwtv`` and ``tv_scalar`` x p in
(2, 1) x both blurs, 10 runs in all. The fields compared are ``u_star``,
``iterations``, ``alpha_final``, the ``isnr`` and ``ssim`` of ``u_star``
against the truth (so a change to the metrics shows as well), and the
``(k, mu, discrepancy, rel_change)`` of every trace row, the last of which
holds the final mu and discrepancy. Only names that both checkouts'
``RestoreResult`` have are read. For a run that is not bit-identical, each
differing field is printed with the largest absolute difference between its
two sides. A summary line gives, for each field, the largest absolute
difference over all runs (inf where the shapes differ), and how many restore
runs have equal ``iterations``: the deviation a change of rounding has to
state.

The memory lines. A 5-sweep p = 2 ``restore`` with the band-5 blur runs in
two cases, ``tv_scalar`` at 512x512 and ``hwtv`` at 256x256. Each line
gives the ``tracemalloc`` peak for both checkouts, started after the degraded
image is built: the largest amount of memory the restore itself held at once,
its state, its temporaries and its result. Its change is also given in
float64 images of the case's size, the unit of the test suite's workspace
bound. The figure is deterministic; the image-sized arrays a sweep allocates
are counted by ``tests/test_solver.py::test_loop_allocates_no_image``.

Exits 0 when every field of every run has the same bytes on both sides,
1 otherwise; the memory figures do not change the exit status.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import subprocess
import sys

import numpy as np

SIGMA = 0.05
SWEEPS = 150
MODES = ("hwtv", "tv_scalar")
P_VALUES = (2, 1)
MEMORY_CASES = (("tv_scalar", 512), ("hwtv", 256))
MEMORY_SWEEPS = 5
MIB = 1024.0 * 1024.0


def problem(size: int, band: int):
    """The blur, truth and degraded image of one size and blur band."""
    import hwtv

    blur = hwtv.BlurSpec(band=band, sigma=1.0)
    truth = hwtv.make_phantom(
        hwtv.PhantomSpec(width=size, height=size, kind="mixed", texture_freq=20.0)
    )
    return blur, truth, hwtv.degrade(truth, hwtv.DegradationSpec(blur=blur, sigma=SIGMA, seed=1))


def bit_runs() -> dict:
    import hwtv

    runs = {}
    for blur_name, band in (("identity", 1), ("band5", 5)):
        blur, truth, g = problem(128, band)
        runs[("degrade", blur_name)] = {"g": g.data}
        for mode, p in itertools.product(MODES, P_VALUES):
            cfg = hwtv.SolverConfig(p=p, tau=0.94, r=14, mode=mode, max_iter=SWEEPS,
                                    tol=1e-300)
            res = hwtv.restore(g, blur, SIGMA, cfg)
            runs[(mode, p, blur_name)] = {
                "u_star": res.u_star.data,
                "iterations": np.array(res.iterations),
                "alpha_final": res.alpha_final,
                "isnr": np.array(hwtv.isnr(g, truth, res.u_star)),
                "ssim": np.array(hwtv.ssim(res.u_star, truth)),
                "trace": np.array([(r.k, r.mu, r.discrepancy, r.rel_change) for r in res.trace]),
            }
    return runs


def memory(mode: str, size: int) -> float:
    """The tracemalloc peak, in MiB, of one restore of the case."""
    import tracemalloc

    import hwtv

    blur, _, g = problem(size, 5)
    cfg = hwtv.SolverConfig(p=2, tau=0.94, r=14, mode=mode, max_iter=MEMORY_SWEEPS, tol=1e-300)
    tracemalloc.start()
    try:
        hwtv.restore(g, blur, SIGMA, cfg)
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def run(checkout: str, *args: str):
    """What ``--child ARGS`` returns with the checkout's ``src/`` on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", *args],
                         env=env, check=True, stdout=subprocess.PIPE)
    return pickle.loads(out.stdout)


def max_abs_diff(old: np.ndarray, new: np.ndarray) -> float:
    """The largest |old - new|; inf where the shapes differ, such as traces of two lengths."""
    if old.shape != new.shape:
        return math.inf
    return float(np.abs(old.astype(np.float64) - new.astype(np.float64)).max(initial=0.0))


def describe_difference(name: str, old: np.ndarray, new: np.ndarray) -> str:
    if old.shape != new.shape:
        return f"{name} (shape {old.shape} vs {new.shape})"
    return f"{name} (max |diff| {max_abs_diff(old, new):.2e})"


def field_summary(old: dict, new: dict) -> str:
    diffs: dict[str, list[float]] = {}
    for key in sorted(old, key=str):
        for name, value in old[key].items():
            diffs.setdefault(name, []).append(max_abs_diff(value, new[key][name]))
    restores = [key for key in old if "iterations" in old[key]]
    equal = sum(
        np.array_equal(old[key]["iterations"], new[key]["iterations"]) for key in restores
    )
    # np.max, unlike max, lets a NaN difference show.
    per_field = ", ".join(f"{name} {np.max(values):.2e}" for name, values in diffs.items())
    return (f"max |diff| over all runs: {per_field}; "
            f"iterations equal in {equal}/{len(restores)} restore runs")


def change(old: float, new: float) -> str:
    return f"{old:.2f} -> {new:.2f} MiB ({new - old:+.2f} MiB, {100.0 * (new - old) / old:+.2f}%)"


def image_change(old: float, new: float, size: int) -> str:
    """The change from ``old`` to ``new`` MiB in float64 images of size x size."""
    return f"{(new - old) * MIB / (size * size * 8):+.2f} images"


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        result = bit_runs() if argv[1:] == ["bits"] else memory(argv[1], int(argv[2]))
        pickle.dump(result, sys.stdout.buffer)
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = run(argv[0], "bits"), run(argv[1], "bits")
    mismatches = 0
    for key in sorted(old, key=str):
        differ = [
            name for name, value in old[key].items()
            if value.dtype != new[key][name].dtype
            or value.shape != new[key][name].shape
            or value.tobytes() != new[key][name].tobytes()
        ]
        mismatches += bool(differ)
        details = [describe_difference(name, old[key][name], new[key][name]) for name in differ]
        print(f"{'DIFFER' if differ else 'same  '} {key} {' '.join(details)}")
    print(field_summary(old, new))
    print(f"{len(old) - mismatches}/{len(old)} runs bit-identical")
    for mode, size in MEMORY_CASES:
        traced = [run(checkout, mode, str(size)) for checkout in argv]
        print(f"{mode} {size}x{size}: tracemalloc {change(*traced)}, "
              f"{image_change(*traced, size)}")
    return 1 if mismatches or old.keys() != new.keys() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
