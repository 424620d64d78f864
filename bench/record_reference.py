#!/usr/bin/env python3
"""Record the ISNR and SSIM that bench/run.py checks its outputs against.

Run from the root of a checkout, only when the restoration's numbers change
on purpose:

    python3 bench/record_reference.py --seeds 0-15

Each seed of each workload is restored once; the result replaces
bench/reference.json. The tolerances are kept from the old file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run


def parse_seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=f"0-{run.SEED_POOL - 1}", help="inclusive range")
    parser.add_argument("--workload", action="append", choices=list(run.WORKLOADS))
    args = parser.parse_args(argv)
    with open(run.REFERENCE_PATH) as fh:
        reference = json.load(fh)
    os.makedirs(run.TMP_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.TMP_ROOT)
    try:
        for name in args.workload or list(run.WORKLOADS):
            recorded = reference["workloads"].setdefault(name, {})
            for seed in parse_seeds(args.seeds):
                problem = run.setup(run.WORKLOADS[name], seed, workdir)
                out = run.attempt(problem, workdir)
                if out.problems:
                    print(f"{name} seed {seed}: {out.problems}", file=sys.stderr)
                    return 1
                recorded[str(seed)] = {
                    "isnr_db": out.isnr_db, "ssim": out.ssim, "iterations": out.iterations,
                }
                print(name, seed, recorded[str(seed)], flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
