"""Seed sweep: the whole `verify` suite at every seed of a range, naming each check that fails.

Run from anywhere (it is not a pytest module, so Tier-1 does not collect it):

    python tests/sweep.py 100 400

runs seeds 100 to 399.  Each seed runs `run_suite` in-process on this tree's src/,
with the primes of `cmtheta verify --p 3 5 7 11 13`, in one of two spawned
worker processes with one BLAS thread each.  Prints each failing seed and check,
and exits 1 if any seed fails.  A sampler that runs out of draws at a seed fails
its check there, so the sweep shows how often a correct program would read as
broken; choose the range before running it, never around a result.
"""
from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
from pathlib import Path

from pin_reports import PRIMES

SRC = Path(__file__).resolve().parents[1] / "src"
WORKERS = min(2, os.cpu_count() or 1)
ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def failures(seed: int) -> list[str]:
    """'seed S: check: detail' for each check that fails at seed S."""
    from cmtheta.harness import SuiteConfig, run_suite

    report, _ = run_suite(SuiteConfig(primes=PRIMES, seed=seed))
    return [f"seed {seed}: {r.name}: {r.detail}" for r in report.records if r.status != "pass"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("lo", type=int, help="first seed")
    parser.add_argument("hi", type=int, help="one past the last seed")
    args = parser.parse_args(argv)
    seeds = range(args.lo, args.hi)
    # the workers are spawned with this environment and sys.path, so they import numpy with one BLAS thread
    os.environ.update(ONE_THREAD)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    failed = set()
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        for seed, lines in zip(seeds, pool.imap(failures, seeds)):
            for line in lines:
                print(line, flush=True)
            if lines:
                failed.add(seed)
    print(f"{len(seeds) - len(failed)} of {len(seeds)} seeds pass ({time.perf_counter() - start:.0f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
