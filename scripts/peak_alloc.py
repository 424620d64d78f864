#!/usr/bin/env python3
"""Compare the peak memory and page faults of a restore between two checkouts.

    python3 scripts/peak_alloc.py OLD_CHECKOUT NEW_CHECKOUT

A 5-sweep ``restore`` runs on the mixed phantom with the band-5 sigma=1 blur
and noise sigma 0.05 (seed 1) in two cases: ``tv_scalar`` at 512x512 and
``hwtv`` at 256x256, both with p = 2. Each case runs in its own subprocess,
with the checkout's ``src/`` on the path, and reports three figures:

- the ``tracemalloc`` peak, started after the degraded image is built: the
  largest amount of memory the restore itself held at once, its state, its
  temporaries and its result;
- the process's peak resident set (``ru_maxrss``), imports and problem set-up
  included. It also counts what tracemalloc cannot see: blocks the allocator
  keeps after they are freed, and their reuse, so two layouts with the same
  tracemalloc peak can differ here;
- the minor page faults per sweep (``ru_minflt``) of a 50-sweep restore
  with ``tol`` 1e-14, run untraced after the two above and an untraced
  warm-up restore. An array above the allocator's mapping threshold that a
  sweep allocates and frees is mapped afresh, and each of its pages faults
  on first touch, so this counts the image-sized arrays a sweep allocates.

One line per case gives the figures for both checkouts and their changes.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from dataclasses import replace

CASES = (("tv_scalar", 512), ("hwtv", 256))
SWEEPS = 5
FAULT_SWEEPS = 50
SIGMA = 0.05
MIB = 1024.0 * 1024.0


def measure(mode: str, size: int) -> dict:
    import tracemalloc

    import hwtv

    blur = hwtv.BlurSpec(band=5, sigma=1.0)
    truth = hwtv.make_phantom(
        hwtv.PhantomSpec(width=size, height=size, kind="mixed", texture_freq=20.0)
    )
    g = hwtv.degrade(truth, hwtv.DegradationSpec(blur=blur, sigma=SIGMA, seed=1))
    cfg = hwtv.SolverConfig(p=2, tau=0.94, r=14, mode=mode, max_iter=SWEEPS, tol=1e-300)
    tracemalloc.start()
    try:
        hwtv.restore(g, blur, SIGMA, cfg)
        traced = tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()
    # ru_maxrss is in KiB on Linux.
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    hwtv.restore(g, blur, SIGMA, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    result = hwtv.restore(g, blur, SIGMA, replace(cfg, max_iter=FAULT_SWEEPS, tol=1e-14))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return {"traced_mib": traced, "rss_mib": rss, "faults": faults / result.iterations}


def load(checkout: str, mode: str, size: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--measure", mode, str(size)],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def change(old: float, new: float) -> str:
    return f"{old:.2f} -> {new:.2f} MiB ({new - old:+.2f} MiB, {100.0 * (new - old) / old:+.2f}%)"


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--measure":
        print(json.dumps(measure(argv[1], int(argv[2]))))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    for mode, size in CASES:
        old, new = load(argv[0], mode, size), load(argv[1], mode, size)
        print(f"{mode} {size}x{size}: tracemalloc {change(old['traced_mib'], new['traced_mib'])}; "
              f"peak RSS {change(old['rss_mib'], new['rss_mib'])}; "
              f"minor faults/sweep {old['faults']:.1f} -> {new['faults']:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
