"""Write the pinned `verify` reports that tests/test_harness.py compares a live run with.

Run from anywhere (it is not a pytest module, so Tier-1 does not collect it):

    python tests/pin_reports.py

For each seed in SEEDS it runs `run_suite` in-process on this tree's src/, with the
primes of `cmtheta verify --p 3 5 7 11 13`, and writes tests/data/verify-<seed>.json:
the report without its `runtime_s` fields, byte for byte what
`cmtheta verify --p 3 5 7 11 13 --seed <seed> | grep -v '"runtime_s"'` prints.
A change that moves the report rewrites these files, so the diff shows in review.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SEEDS = (20260815, 1, 5, 7, 42, 134)
PRIMES = (3, 5, 7, 11, 13)


def main() -> int:
    sys.path.insert(0, str(TESTS.parent / "src"))
    from cmtheta.harness import SuiteConfig, run_suite

    for seed in SEEDS:
        report, _ = run_suite(SuiteConfig(primes=PRIMES, seed=seed))
        payload = json.loads(report.to_json())
        for check in payload["checks"]:
            del check["runtime_s"]
        path = TESTS / "data" / f"verify-{seed}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"{path.relative_to(TESTS.parent)}: {payload['counts']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
