"""Standing mutation checks: each listed mutant must fail the tests named with it.

Run from anywhere (it is not a pytest module, so Tier-1 does not collect it):

    python tests/mutants.py

Each entry is (file, old text, new text, node ids).  For every entry the runner
copies src/, tests/ and pyproject.toml to a temporary directory, replaces the
one occurrence of the old text there and runs only the named tests.  The copy is
needed because pytest's `pythonpath = ["src"]` would otherwise import the
unmutated tree.  A caught mutant must fail every named test.  An expected
survivor must pass them all, so a check that starts catching it shows up too.
The named tests must pass on the unmutated tree first.  Exits 1 if any mutant
behaves other than listed.  Entries run in up to two pytest subprocesses at
once, never more than there are CPUs, and each prints its own time.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = min(2, os.cpu_count() or 1)  # pytest subprocesses at a time

MODULARITY, THETA = "src/cmtheta/modularity.py", "src/cmtheta/theta.py"
CMFIELD, EXACT = "src/cmtheta/cmfield.py", "src/cmtheta/exact.py"
SYMPLECTIC, CLI = "src/cmtheta/symplectic.py", "src/cmtheta/cli.py"

CAUGHT = [
    # gamma_multiplier without the n a.b term of X
    (
        MODULARITY,
        " - n * sum(map(mul, a, b)))",
        ")",
        [
            "tests/test_modularity.py::test_multiplier_matches_fraction_reference",
            "tests/test_modularity.py::test_multiplier_is_homomorphism_on_congruence_group",
        ],
    ),
    # gamma_multiplier accepting any gamma = I mod n, or not even that
    (
        MODULARITY,
        '    if not _gamma_member(*cols, n):\n        raise ValueError(f"gamma is not in Gamma({n})")\n',
        "",
        ["tests/test_modularity.py::test_multiplier_requires_congruence"],
    ),
    # gamma_multiplier without the level rule: n = 0 divides by zero, n = -2 floors the move wrongly
    (
        MODULARITY,
        "    check_level(n)\n",
        "",
        ["tests/test_modularity.py::test_level_is_a_positive_even_integer"],
    ),
    # Gamma(n) membership without tM J M == J: only M = I mod n is left
    (
        SYMPLECTIC,
        "not any(_form_defects(tops, bots, 1)) and ",
        "",
        [
            "tests/test_modularity.py::test_multiplier_requires_congruence",
            "tests/test_symplectic.py::test_multiplier",
        ],
    ),
    # check_family with the rs congruence taken mod n/2
    (
        MODULARITY,
        "if srs % n:",
        "if srs % (n // 2):",
        ["tests/test_modularity.py::test_failing_family_structure"],
    ),
    # act_phi moving chi by alpha instead of t(alpha): rows of alpha dotted with x, not columns
    (
        SYMPLECTIC,
        "return [sum(map(mul, col, x)) for col in map(add, tops, bots)]",
        "return [sum(c[i] * v for c, v in zip(map(add, tops, bots), x)) for i in range(len(x))]",
        [
            "tests/test_action.py::test_act_phi_matches_fraction_transpose",
            "tests/test_action.py::test_transpose_apply_matches_fraction_reference",
        ],
    ),
    # G_n membership with the parity read over the first g columns only: tAC without tBD
    (
        SYMPLECTIC,
        "for t, b in zip(tops, bots))",
        "for t, b in zip(tops[: len(tops) // 2], bots))",
        ["tests/test_symplectic.py::test_g_group_multiplier"],
    ),
    # the second closed Artin phase without its -6ad cross term
    (
        CMFIELD,
        " - 6 * a * d - b * b",
        " - b * b",
        ["tests/test_cmfield.py::test_second_closed_form_cross_term"],
    ),
    # the actor's norm read off nu, the similitude mod 2p^2, instead of the exact similitude
    (
        CMFIELD,
        "norm=_similitude(*cols)",
        "norm=_similitude(*cols) % (2 * p * p)",
        ["tests/test_cmfield.py::test_actor_build_matches_definitional_composition"],
    ),
    # the similitude with its sign flipped: (tM J M)[0, g] instead of -(tM J M)[0, g]
    (
        SYMPLECTIC,
        "return sum(map(mul, tops[0], bots[g])) - sum(map(mul, bots[0], tops[g]))",
        "return sum(map(mul, bots[0], tops[g])) - sum(map(mul, tops[0], bots[g]))",
        [
            "tests/test_cmfield.py::test_actor_build_matches_definitional_composition",
            "tests/test_symplectic.py::test_multiplier",
        ],
    ),
    # belong_criterion reading the second row of h
    (
        CMFIELD,
        "(top[0] for top in self._cols[0])",
        "(top[1] for top in self._cols[0])",
        ["tests/test_cmfield.py::test_first_row_matches_paper_quadratic_forms"],
    ),
    # RootOfUnity without the gcd reduction: e(1/2) and e(2/4) unequal
    (
        EXACT,
        "        g = math.gcd(num, den)\n        self.num = num // g\n        self.den = den // g\n",
        "        self.num = num\n        self.den = den\n",
        ["tests/test_exact.py::test_root_of_unity"],
    ),
    # RootOfUnity without the reduction mod 1: e(9/4) and e(1/4) unequal
    (
        EXACT,
        "        num %= den\n",
        "",
        ["tests/test_exact.py::test_root_of_unity"],
    ),
    # belong_criterion truncating its coordinates to integers
    (
        CMFIELD,
        "GaloisActor.build(CycloElem(5, coords), p)",
        "GaloisActor.build(CycloElem(5, [int(v) for v in coords]), p)",
        [
            "tests/test_cmfield.py::test_belong_rejects_non_integral_coordinates[coords0]",
            "tests/test_cmfield.py::test_belong_rejects_non_integral_coordinates[coords1]",
        ],
    ),
    # the rule for p testing only that p is odd
    (
        CMFIELD,
        " and all(p % q for q in range(3, math.isqrt(p) + 1, 2))",
        "",
        [
            "tests/test_cmfield.py::test_actor_first_row_and_build_guards",
            "tests/test_cli.py::test_action_rejects_non_prime_p[9]",
        ],
    ),
    # h_map and GaloisActor.build of a non-integral x read off its numerators alone
    (
        CMFIELD,
        '    if x.den != 1:\n        raise ValueError("x must be an algebraic integer")\n',
        "",
        ["tests/test_cmfield.py::test_actor_first_row_and_build_guards"],
    ),
    # the reflex norm through sigma_2 instead of sigma_3 = phi_2^{-1}
    (
        CMFIELD,
        "e[(i + 3 * j) % 5] += ci * cj",
        "e[(i + 2 * j) % 5] += ci * cj",
        [
            "tests/test_cmfield.py::test_reflex_norm",
            "tests/test_cmfield.py::test_actor_build_matches_definitional_composition",
        ],
    ),
    # shared actors keyed on x alone: x at a second prime gets the actor of the first
    (
        CMFIELD,
        "key = (x, p)",
        "key = x",
        ["tests/test_cmfield.py::test_shared_actor_is_per_prime"],
    ),
    # the factored theta sum without its constant factor e^const
    (
        THETA,
        "return complex(total) * cmath.exp(const)",
        "return complex(total)",
        ["tests/test_theta.py::test_summation_paths_agree"],
    ),
    # the axes contracted in the wrong order
    (
        THETA,
        "for j in range(g - 1, -1, -1):",
        "for j in range(g):",
        ["tests/test_theta.py::test_summation_paths_agree"],
    ),
    # no range guard: every cut factored
    (
        THETA,
        "if grow + shrink + math.log(len(grid)) < _EXP_RANGE:",
        "if True:",
        [
            "tests/test_theta.py::test_range_guard_keeps_large_imaginary_parts_finite[z0]",
            "tests/test_theta.py::test_range_guard_keeps_large_imaginary_parts_finite[z1]",
        ],
    ),
    # the sum over v = y + r instead of y + frac(r): an unreduced r moves it off the candidate set
    (
        THETA,
        "shift = [(v % den) / den for v in chi.num[:g]]",
        "shift = [v / den for v in chi.num[:g]]",
        ["tests/test_acceptance.py::test_translation_formula_fuzz"],
    ),
    # the candidate set without the shift allowance delta
    (
        THETA,
        "delta = math.sqrt(math.pi * sum(y_row_sums)) / 2",
        "delta = 0.0",
        ["tests/test_harness.py::test_passing_families_pass_at_seed_5"],
    ),
    # one cut per point, whatever the tolerance
    (
        THETA,
        "cut = zp._theta_cuts.get(settings.tol)",
        "cut = next(iter(zp._theta_cuts.values()), None)",
        ["tests/test_theta.py::test_truncation_geometry_is_kept_per_tolerance"],
    ),
    # the cut rebuilt on every call: theta_eval never stores what it builds
    (
        THETA,
        "cut = zp._theta_cuts[settings.tol] = _certified(zp, settings.tol)",
        "cut = _certified(zp, settings.tol)",
        ["tests/test_theta.py::test_one_cut_per_point_and_tolerance"],
    ),
    # no overflow guard on s: a huge s entry escapes theta_eval as OverflowError
    (
        THETA,
        "    try:\n        s = [v / den for v in chi.num[g:]]\n    except OverflowError:\n"
        '        raise ValueError("characteristic has an s entry too large for a float") from None\n',
        "    s = [v / den for v in chi.num[g:]]\n",
        ["tests/test_theta.py::test_s_too_large_for_a_float_is_a_value_error"],
    ),
    # the CLI summing the characteristic as given: 10^300 in s is a float, and the sum loses its phase
    (
        CLI,
        "    red, phase = chi.reduce()\n    theta = phase.value() * theta_eval(z, red, settings)\n",
        "    theta = theta_eval(z, chi, settings)\n",
        ["tests/test_cli.py::test_theta_reduces_a_huge_characteristic_exactly"],
    ),
]

SURVIVORS = [
    # a rounding bound 100 times too small: measured errors sit near 1e-16
    (
        THETA,
        "return EPS / 2 * bound * m0 ** (g - 2)",
        "return EPS / 200 * bound * m0 ** (g - 2)",
        ["tests/test_theta.py::test_factored_sum_within_tail_plus_rounding"],
    ),
]


def outcomes(tree: Path, nodes: list[str]) -> dict[str, bool]:
    """Pass (True) or not for each named test, run in tree; a test that did not run counts as not passed."""
    report = tree / "report.xml"
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *nodes],
        cwd=tree,
        # the named tests need no installed plugin, and loading them took about 2 s of each 3 s run
        env=dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"),
        capture_output=True,
        timeout=300,
    )
    ran = {}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            path = case.get("classname", "").replace(".", "/") + ".py"
            ran[f"{path}::{case.get('name')}"] = not any(c.tag in ("failure", "error", "skipped") for c in case)
    return {node: ran.get(node, False) for node in nodes}


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_entry(tmp: Path, i: int, entry) -> tuple[list[str], float]:
    """Run one entry in its own mutated copy: the named tests that behave other than listed, and the seconds taken."""
    (path, old, new, nodes), caught = entry
    start = time.perf_counter()
    tree = tmp / f"m{i}"
    copy_tree(tree)
    target = tree / path
    target.write_text(target.read_text().replace(old, new))
    passed = outcomes(tree, nodes)
    shutil.rmtree(tree)
    return [n for n, ok in passed.items() if ok == caught], time.perf_counter() - start


def main() -> int:
    entries = [(m, True) for m in CAUGHT] + [(m, False) for m in SURVIVORS]
    bad = 0
    for (path, old, _, _), _ in entries:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"STALE  {path}: old text occurs {count} times: {old!r}")
            bad += 1
    if bad:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        copy_tree(base)
        nodes = sorted({n for (_, _, _, ns), _ in entries for n in ns})
        broken = [n for n, ok in outcomes(base, nodes).items() if not ok]
        if broken:
            print("the named tests must pass on the unmutated tree:", *broken, sep="\n  ")
            return 1
        with ThreadPoolExecutor(WORKERS) as pool:
            results = pool.map(partial(run_entry, Path(tmp)), range(len(entries)), entries)
            for ((path, old, _, _), caught), (wrong, seconds) in zip(entries, results):
                verdict = "ok" if not wrong else "WRONG"
                kind = "caught" if caught else "survives"
                print(f"{verdict:5}  {kind:8}  {seconds:4.1f}s  {path}: {old.strip()[:60]!r}", flush=True)
                for n in wrong:
                    print(f"         {'passed' if caught else 'failed'}: {n}")
                bad += bool(wrong)
    print(f"{len(entries) - bad} of {len(entries)} mutants behave as listed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
