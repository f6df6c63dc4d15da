"""Write the pinned `verify` reports that tests/test_harness.py compares a live run with.

Run from anywhere (it is not a pytest module, so Tier-1 does not collect it):

    python tests/pin_reports.py [DIR]

For each seed in SEEDS it runs `run_suite` in-process on this tree's src/, with the
primes of `cmtheta verify --p 3 5 7 11 13`, and writes DIR/verify-<seed>.json (DIR is
tests/data unless given): the report without its `runtime_s` fields, byte for byte what
`cmtheta verify --p 3 5 7 11 13 --seed <seed> | grep -v '"runtime_s"'` prints under the
same OpenBLAS kernel.  A change that moves the report rewrites these files, so the diff
shows in review.

The last bits of a theta sum follow the OpenBLAS kernel numpy loads, which OpenBLAS
picks per CPU.  So the script fixes the Haswell kernel before numpy is imported; it runs
on any x86-64 CPU with AVX2 and FMA, and there the files come out the same whatever
kernel or numpy SIMD dispatch the caller's environment selects.
"""
from __future__ import annotations

import json
import os
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SEEDS = (20260815, 1, 5, 7, 42, 134)
PRIMES = (3, 5, 7, 11, 13)


def main(out: Path = TESTS / "data") -> int:
    if "numpy" in sys.modules:  # OpenBLAS reads its kernel once, when numpy loads it
        raise RuntimeError("numpy is loaded already, so the Haswell kernel cannot be fixed")
    os.environ["OPENBLAS_CORETYPE"] = "Haswell"
    sys.path.insert(0, str(TESTS.parent / "src"))
    from cmtheta.harness import SuiteConfig, run_suite

    for seed in SEEDS:
        report, _ = run_suite(SuiteConfig(primes=PRIMES, seed=seed))
        payload = json.loads(report.to_json())
        for check in payload["checks"]:
            del check["runtime_s"]
        path = out / f"verify-{seed}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"{path}: {payload['counts']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(*map(Path, sys.argv[1:2])))
