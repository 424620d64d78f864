#!/usr/bin/env python3
"""Check that two checkouts of hwtv restore and degrade bit for bit alike,
and compare the memory a restore takes in each.

    python3 scripts/compare_restore.py OLD_CHECKOUT NEW_CHECKOUT

Every problem is the mixed phantom (texture frequency 20) degraded with
noise sigma 0.05 (seed 1), by the band-5 sigma=1 blur or the identity
(band 1), unless said otherwise. Each measurement imports a checkout's
``src/`` in a subprocess of its own.

The bit table. At 128x128, ``degrade`` runs for both blurs, and ``restore``
for 150 sweeps in 8 configurations: modes ``hwtv`` and ``tv_scalar`` x p in
(2, 1) x both blurs, at tol 1e-300, so none stops early. Two more restores
stop by their tol of 1e-6, on the band-5 blur with noise sigma 0.02 (seed
11), p = 2 and tau 0.94, within 1200 sweeps: ``tv_scalar`` at r 6 and beta_t
100, which stops "converged", and ``hwtv`` at r 14 and beta_t 4, which
stops "stalled" after 19 sweeps. 12 runs in all. Each restore's residual
penalty is 5 beta_t; a checkout whose ``SolverConfig`` still has the
``beta_w`` field is given that value. The fields compared are ``u_star``,
``iterations``, ``alpha_final``, ``stop_reason``, the ``isnr`` and ``ssim``
of ``u_star`` against the truth (so a change to the metrics shows as well),
and the ``(k, mu, discrepancy, rel_change)`` of every trace row, the last of
which holds the final mu and discrepancy. Only names that both checkouts'
``RestoreResult`` have are compared, so a checkout older than
``stop_reason`` still runs. For a run that is not bit-identical, each
differing field is printed with the largest absolute difference between its
two sides. A summary line gives, for each field, the largest absolute
difference over all runs (inf where the shapes or the labels differ), and
how many restore runs have equal ``iterations``: the deviation a change of
rounding has to state.

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

import dataclasses
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
# The restores that stop by tol: name, then mode, r and beta_t.
STOPPING = (("stop-converged", "tv_scalar", 6, 100.0), ("stop-stalled", "hwtv", 14, 4.0))
STOPPING_SIGMA = 0.02
MEMORY_CASES = (("tv_scalar", 512), ("hwtv", 256))
MEMORY_SWEEPS = 5
MIB = 1024.0 * 1024.0


def problem(size: int, band: int, sigma: float = SIGMA, seed: int = 1):
    """The blur, truth and degraded image of one size, blur band and noise."""
    import hwtv

    blur = hwtv.BlurSpec(band=band, sigma=1.0)
    truth = hwtv.make_phantom(
        hwtv.PhantomSpec(width=size, height=size, kind="mixed", texture_freq=20.0)
    )
    spec = hwtv.DegradationSpec(blur=blur, sigma=sigma, seed=seed)
    return blur, truth, hwtv.degrade(truth, spec)


def solver_config(**kwargs):
    """``SolverConfig(**kwargs)``, given beta_w = 5 beta_t where it has that field."""
    import hwtv

    defaults = {field.name: field.default for field in dataclasses.fields(hwtv.SolverConfig)}
    if "beta_w" in defaults:
        kwargs["beta_w"] = 5.0 * kwargs.get("beta_t", defaults["beta_t"])
    return hwtv.SolverConfig(**kwargs)


def restore_fields(g, blur, sigma: float, truth, cfg) -> dict:
    """The compared fields of one restore."""
    import hwtv

    res = hwtv.restore(g, blur, sigma, cfg)
    fields = {
        "u_star": res.u_star.data,
        "iterations": np.array(res.iterations),
        "alpha_final": res.alpha_final,
        "isnr": np.array(hwtv.isnr(g, truth, res.u_star)),
        "ssim": np.array(hwtv.ssim(res.u_star, truth)),
        "trace": np.array([(r.k, r.mu, r.discrepancy, r.rel_change) for r in res.trace]),
    }
    if hasattr(res, "stop_reason"):
        fields["stop_reason"] = np.array(res.stop_reason)
    return fields


def bit_runs() -> dict:
    runs = {}
    for blur_name, band in (("identity", 1), ("band5", 5)):
        blur, truth, g = problem(128, band)
        runs[("degrade", blur_name)] = {"g": g.data}
        for mode, p in itertools.product(MODES, P_VALUES):
            cfg = solver_config(p=p, tau=0.94, r=14, mode=mode, max_iter=SWEEPS, tol=1e-300)
            runs[(mode, p, blur_name)] = restore_fields(g, blur, SIGMA, truth, cfg)
    blur, truth, g = problem(128, 5, STOPPING_SIGMA, 11)
    for name, mode, r, beta_t in STOPPING:
        cfg = solver_config(p=2, tau=0.94, r=r, mode=mode, beta_t=beta_t, max_iter=1200,
                            tol=1e-6)
        runs[(name, mode, r)] = restore_fields(g, blur, STOPPING_SIGMA, truth, cfg)
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
    """The largest |old - new|; inf where the shapes differ, such as traces of two
    lengths, and for a label, 0 where the two are equal and inf where they differ."""
    if old.shape != new.shape:
        return math.inf
    if old.dtype.kind == "U":
        return 0.0 if np.array_equal(old, new) else math.inf
    return float(np.abs(old.astype(np.float64) - new.astype(np.float64)).max(initial=0.0))


def describe_difference(name: str, old: np.ndarray, new: np.ndarray) -> str:
    if old.shape != new.shape:
        return f"{name} (shape {old.shape} vs {new.shape})"
    if old.dtype.kind == "U":
        return f"{name} ({old} vs {new})"
    return f"{name} (max |diff| {max_abs_diff(old, new):.2e})"


def shared(old_run: dict, new_run: dict) -> list[str]:
    """The fields both sides of one run recorded, in the old side's order."""
    return [name for name in old_run if name in new_run]


def field_summary(old: dict, new: dict) -> str:
    diffs: dict[str, list[float]] = {}
    for key in sorted(old, key=str):
        for name in shared(old[key], new[key]):
            diffs.setdefault(name, []).append(max_abs_diff(old[key][name], new[key][name]))
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
            name for name in shared(old[key], new[key])
            if old[key][name].dtype != new[key][name].dtype
            or old[key][name].shape != new[key][name].shape
            or old[key][name].tobytes() != new[key][name].tobytes()
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
