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
behaves other than listed.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MODULARITY, THETA = "src/cmtheta/modularity.py", "src/cmtheta/theta.py"
CMFIELD = "src/cmtheta/cmfield.py"

CAUGHT = [
    # gamma_multiplier without the n a.b term of X
    (
        MODULARITY,
        "a.dot(x[g:]) - n * a.dot(b))",
        "a.dot(x[g:]))",
        [
            "tests/test_modularity.py::test_multiplier_matches_fraction_reference",
            "tests/test_modularity.py::test_multiplier_is_homomorphism_on_congruence_group",
        ],
    ),
    # gamma_multiplier accepting any gamma = I mod n, or not even that
    (
        MODULARITY,
        '    if not in_gamma(gamma, n):\n        raise ValueError(f"gamma is not in Gamma({n})")\n',
        "",
        ["tests/test_modularity.py::test_multiplier_requires_congruence"],
    ),
    # check_family with the rs congruence taken mod n/2
    (
        MODULARITY,
        "if srs % n:",
        "if srs % (n // 2):",
        ["tests/test_modularity.py::test_failing_family_structure"],
    ),
    # act_phi moving chi by alpha instead of t(alpha)
    (
        "src/cmtheta/action.py",
        "out = alpha.T @",
        "out = alpha @",
        [
            "tests/test_action.py::test_act_phi_matches_fraction_transpose",
            "tests/test_action.py::test_transpose_apply_matches_fraction_reference",
        ],
    ),
    # G_n membership without the parity of tBD
    (
        "src/cmtheta/symplectic.py",
        " and not ((b * d).sum(axis=0) % 2).any()",
        "",
        ["tests/test_symplectic.py::test_g_group_multiplier"],
    ),
    # the second closed Artin phase without its -6ad cross term
    (
        CMFIELD,
        " - 6 * a * d - b * b",
        " - b * b",
        ["tests/test_cmfield.py::test_second_closed_form_cross_term"],
    ),
    # belong_criterion reading the second row of h
    (
        CMFIELD,
        "actor.h_matrix[0]",
        "actor.h_matrix[1]",
        ["tests/test_cmfield.py::test_first_row_matches_paper_quadratic_forms"],
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
    # h_map of a non-integral x read off its numerators alone
    (
        CMFIELD,
        '    if x.den != 1:\n        raise ValueError("h_map needs an algebraic integer")\n',
        "",
        ["tests/test_cmfield.py::test_actor_first_row_and_build_guards"],
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
    # the cut centred at 0 whatever Im u
    (
        THETA,
        "centre = [sum(map(operator.mul, row, im_u)) for row in lat.y_inv_rows]",
        "centre = [0.0] * g",
        ["tests/test_theta.py::test_truncation_with_imaginary_u"],
    ),
    # the candidate set without the shift allowance delta
    (
        THETA,
        "delta = math.sqrt(math.pi * sum(self.y_row_sums)) / 2",
        "delta = 0.0",
        ["tests/test_harness.py::test_passing_families_pass_at_seed_5"],
    ),
    # one cut per point, whatever the tolerance
    (
        THETA,
        "found = self.cuts.get(tol)",
        "found = next(iter(self.cuts.values()), None)",
        ["tests/test_theta.py::test_truncation_geometry_is_kept_per_tolerance"],
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
    # the cut for Im u taken at tol, not tol 2^-k: the tail bound's slack absorbs it
    (
        THETA,
        "cut = lat.cut(math.ldexp(settings.tol, -k))",
        "cut = lat.cut(settings.tol)",
        ["tests/test_theta.py::test_truncation_with_imaginary_u"],
    ),
]


def outcomes(tree: Path, nodes: list[str]) -> dict[str, bool]:
    """Pass (True) or not for each named test, run in tree; a test that did not run counts as not passed."""
    report = tree / "report.xml"
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *nodes],
        cwd=tree,
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
        for i, ((path, old, new, ns), caught) in enumerate(entries):
            start = time.perf_counter()
            tree = Path(tmp) / f"m{i}"
            copy_tree(tree)
            target = tree / path
            target.write_text(target.read_text().replace(old, new))
            passed = outcomes(tree, ns)
            wrong = [n for n, ok in passed.items() if ok == caught]
            verdict = "ok" if not wrong else "WRONG"
            kind = "caught" if caught else "survives"
            print(f"{verdict:5}  {kind:8}  {time.perf_counter() - start:4.1f}s  {path}: {old.strip()[:60]!r}")
            for n in wrong:
                print(f"         {'passed' if caught else 'failed'}: {n}")
            bad += bool(wrong)
            shutil.rmtree(tree)
    print(f"{len(entries) - bad} of {len(entries)} mutants behave as listed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
