#!/usr/bin/env python3
"""Compare the peak traced allocation of a restore between two checkouts.

    python3 scripts/peak_alloc.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's ``src/`` is imported in its own subprocess. There a 5-sweep
``restore`` runs on the mixed phantom with the band-5 sigma=1 blur and noise
sigma 0.05 (seed 1) in two cases: ``tv_scalar`` at 512x512 and ``hwtv`` at
256x256, both with p = 2. ``tracemalloc`` is started after the degraded image
is built, so the figure is the largest amount of memory the restore itself
held at once: its state, its temporaries and its result. One line per case
gives both peaks in MiB and their difference.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

CASES = (("tv_scalar", 512), ("hwtv", 256))
SWEEPS = 5
SIGMA = 0.05
MIB = 1024.0 * 1024.0


def measure() -> dict:
    import tracemalloc

    import hwtv

    blur = hwtv.BlurSpec(band=5, sigma=1.0)
    peaks = {}
    for mode, size in CASES:
        truth = hwtv.make_phantom(
            hwtv.PhantomSpec(width=size, height=size, kind="mixed", texture_freq=20.0)
        )
        g = hwtv.degrade(truth, hwtv.DegradationSpec(blur=blur, sigma=SIGMA, seed=1))
        cfg = hwtv.SolverConfig(p=2, tau=0.94, r=14, mode=mode, max_iter=SWEEPS, tol=1e-300)
        tracemalloc.start()
        try:
            hwtv.restore(g, blur, SIGMA, cfg)
            peaks[f"{mode} {size}x{size}"] = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
    return peaks


def load(checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure"],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--measure"]:
        print(json.dumps(measure()))
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = load(argv[0]), load(argv[1])
    for case, old_mib in old.items():
        new_mib = new[case]
        change = new_mib - old_mib
        print(f"{case}: {old_mib:.2f} -> {new_mib:.2f} MiB "
              f"({change:+.2f} MiB, {100.0 * change / old_mib:+.2f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
