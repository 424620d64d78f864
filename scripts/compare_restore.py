#!/usr/bin/env python3
"""Check that two checkouts of hwtv restore and degrade bit for bit alike.

    python3 scripts/compare_restore.py OLD_CHECKOUT NEW_CHECKOUT

Each checkout's ``src/`` is imported in its own subprocess. There ``degrade``
runs for the identity (band 1) and the band-5 sigma=1 blur, and ``restore``
runs for 150 sweeps on the 128x128 mixed phantom in 8 configurations: modes
``hwtv`` and ``tv_scalar`` x p in (2, 1) x both blurs, 10 runs in all. The
fields compared are ``u_star``, ``iterations``, ``final_mu``,
``final_discrepancy``, ``alpha_final`` and the
``(k, mu, discrepancy, rel_change)`` of every trace row. For a run that is
not bit-identical, each differing field is printed with the largest absolute
difference between its two sides. A last line but one gives, for each
field, the largest absolute difference over all runs (inf where the shapes
differ), and how many restore runs have equal ``iterations``: the deviation
a change of rounding has to state. Exits 0 when every field of every run
has the same bytes on both sides, 1 otherwise.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

SWEEPS = 150
SIGMA = 0.05
MODES = ("hwtv", "tv_scalar")
P_VALUES = (2, 1)


def dump(out_path: str) -> None:
    import hwtv

    truth = hwtv.make_phantom(
        hwtv.PhantomSpec(width=128, height=128, kind="mixed", texture_freq=20.0)
    )
    blurs = {"identity": hwtv.BlurSpec(band=1), "band5": hwtv.BlurSpec(band=5, sigma=1.0)}
    runs = {}
    for blur_name, blur in blurs.items():
        g = hwtv.degrade(truth, hwtv.DegradationSpec(blur=blur, sigma=SIGMA, seed=1))
        runs[("degrade", blur_name)] = {"g": g.data}
        for mode, p in itertools.product(MODES, P_VALUES):
            cfg = hwtv.SolverConfig(p=p, tau=0.94, r=14, mode=mode, max_iter=SWEEPS,
                                    tol=1e-300)
            res = hwtv.restore(g, blur, SIGMA, cfg)
            runs[(mode, p, blur_name)] = {
                "u_star": res.u_star.data,
                "iterations": np.array(res.iterations),
                "final_mu": np.array(res.final_mu),
                "final_discrepancy": np.array(res.final_discrepancy),
                "alpha_final": res.alpha_final,
                "trace": np.array([(r.k, r.mu, r.discrepancy, r.rel_change) for r in res.trace]),
            }
    with open(out_path, "wb") as fh:
        pickle.dump(runs, fh)


def load(checkout: str, workdir: str, tag: str) -> dict:
    out_path = os.path.join(workdir, tag + ".pkl")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(checkout), "src"))
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", out_path],
                   env=env, check=True)
    with open(out_path, "rb") as fh:
        return pickle.load(fh)


def describe_difference(name: str, old: np.ndarray, new: np.ndarray) -> str:
    if old.shape != new.shape:
        return f"{name} (shape {old.shape} vs {new.shape})"
    diff = np.abs(old.astype(np.float64) - new.astype(np.float64))
    return f"{name} (max |diff| {diff.max():.2e})"


def field_summary(old: dict, new: dict) -> str:
    diffs: dict[str, list[float]] = {}
    for key in sorted(old, key=str):
        for name, value in old[key].items():
            other = new[key][name]
            # A change of shape, such as a trace of another length, reads as inf.
            diff = (
                np.abs(value.astype(np.float64) - other.astype(np.float64)).max(initial=0.0)
                if value.shape == other.shape else math.inf
            )
            diffs.setdefault(name, []).append(diff)
    restores = [key for key in old if "iterations" in old[key]]
    equal = sum(
        np.array_equal(old[key]["iterations"], new[key]["iterations"]) for key in restores
    )
    # np.max, unlike max, lets a NaN difference show.
    per_field = ", ".join(f"{name} {np.max(values):.2e}" for name, values in diffs.items())
    return (f"max |diff| over all runs: {per_field}; "
            f"iterations equal in {equal}/{len(restores)} restore runs")


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--dump":
        dump(argv[1])
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        old, new = load(argv[0], workdir, "old"), load(argv[1], workdir, "new")
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
    return 1 if mismatches or old.keys() != new.keys() else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
