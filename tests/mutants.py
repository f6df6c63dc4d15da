"""Standing mutation checks: each listed mutant must fail the tests named with it.

Run from anywhere (it is not a pytest module, so Tier-1 does not collect it):

    python tests/mutants.py

Each entry is (file, old text, new text, node ids).  For every entry the runner
copies src/, tests/ and pyproject.toml to a temporary directory, replaces the
one occurrence of the old text there and runs only the named tests.  The copy is
needed because pytest's `pythonpath = ["src"]` would otherwise import the
unmutated tree, and because some tests (the `optimized` fixture) start
interpreters that read src/ from disk.  A caught mutant must fail every named
test.  An expected survivor must pass them all, so a check that starts catching
it shows up too.  The named tests must pass on the unmutated tree first.  Exits
1 if any mutant behaves other than listed.

Each entry, and the unmutated run queued first, runs in-process in a fresh
child of a fork server that has imported hypothesis, mpmath, numpy and pytest,
two children at a time at most: the child makes the copy, changes into it and
calls `pytest.main` on the named tests, reading each outcome from pytest's
reports.  The runner never imports cmtheta or a test module, and a child that
finds cmtheta imported raises RuntimeError.  An entry that takes over 300 s
ends the run with an error.  Each entry prints its time, the last line the run's.
"""
from __future__ import annotations

import multiprocessing
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKERS = min(2, os.cpu_count() or 1)  # entries run at a time, each in its own forked child
TIMEOUT = 300  # seconds an entry may take before the run ends with an error

MODULARITY, THETA = "src/cmtheta/modularity.py", "src/cmtheta/theta.py"
CMFIELD, EXACT = "src/cmtheta/cmfield.py", "src/cmtheta/exact.py"
SYMPLECTIC = "src/cmtheta/symplectic.py"
PRIMGEN, HARNESS = "src/cmtheta/primgen.py", "src/cmtheta/harness.py"
CLI = "src/cmtheta/cli.py"

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
        [
            "tests/test_modularity.py::test_multiplier_requires_congruence",
            "tests/test_acceptance.py::test_odd_action_matches_congruence_multiplier_and_refuses_non_members",
        ],
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
            "tests/test_acceptance.py::test_odd_action_matches_congruence_multiplier_and_refuses_non_members",
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
        [
            "tests/test_symplectic.py::test_g_group_multiplier",
            "tests/test_acceptance.py::test_odd_action_matches_congruence_multiplier_and_refuses_non_members",
        ],
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
        [
            "tests/test_cmfield.py::test_actor_build_matches_definitional_composition",
            "tests/test_acceptance.py::test_reflex_norm_matrices_match_mod_2p_squared",
        ],
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
    # shared_actor caching nothing: every call builds its actor again
    (
        CMFIELD,
        "@lru_cache(maxsize=64)",
        "@lru_cache(maxsize=0)",
        ["tests/test_cmfield.py::test_shared_actor_is_built_once_per_x_and_p"],
    ),
    # the Riemann form through zeta^2 - zeta^3 in place of xi's zeta - zeta^4
    (
        CMFIELD,
        "_XI = (_ZETA - _ZETA**4) / 5",
        "_XI = (_ZETA**2 - _ZETA**3) / 5",
        [
            "tests/test_cmfield.py::test_riemann_form_is_standard",
            "tests/test_acceptance.py::test_riemann_form_on_cm_basis_is_standard_symplectic",
        ],
    ),
    # the factored theta sum without its constant factor e^const
    (
        THETA,
        "return total.item() * cmath.exp(const)",
        "return total.item()",
        ["tests/test_theta.py::test_summation_paths_agree"],
    ),
    # each axis exponent t_j scaled by 1.01: the conjugate side at [r; -s] reduced no longer mirrors the error
    (
        THETA,
        "cut.coords.dot([_TWO_PI_I * v for v in t])",
        "cut.coords.dot([_TWO_PI_I * v * 1.01 for v in t])",
        ["tests/test_acceptance.py::test_conjugation_symmetry_at_cm_point"],
    ),
    # the axes contracted in the wrong order: the last axis of E against w_0, the first stacked
    (
        THETA,
        "last, inner = slices[-1], tuple(zip(dims[-2::-1], slices[-2::-1]))",
        "last, inner = slices[0], tuple(zip(dims[-2::-1], slices[1:]))",
        ["tests/test_theta.py::test_summation_paths_agree"],
    ),
    # each axis j < g - 1 contracted with its neighbour j + 1's slice of the stacked exponents
    (
        THETA,
        "tuple(zip(dims[-2::-1], slices[-2::-1]))",
        "tuple(zip(dims[-2::-1], slices[:0:-1]))",
        [
            "tests/test_theta.py::test_contraction_matches_reshaped_reference",
            "tests/test_theta.py::test_summation_paths_agree",
        ],
    ),
    # each reshape by the wrong axis length: the same sum while all axes have one length
    (
        THETA,
        "tuple(zip(dims[-2::-1], slices[-2::-1]))",
        "tuple(zip(dims[:0:-1], slices[-2::-1]))",
        ["tests/test_theta.py::test_unequal_axes_match_product_of_genus_one_sums"],
    ),
    # the radius search stopping one grid step early: a bracket of two steps is left, its upper end returned
    (
        THETA,
        "    while hi - lo > 1:\n",
        "    while hi - lo > 2:\n",
        [
            "tests/test_theta.py::test_radius_search_matches_doubling_reference",
            "tests/test_theta.py::test_radius_search_keeps_the_candidates",
        ],
    ),
    # no range guard: every cut factored
    (
        THETA,
        "if grow + shrink + math.log(len(grid)) < _EXP_RANGE:",
        "if True:",
        [
            "tests/test_theta.py::test_range_guard_keeps_large_imaginary_parts_finite[z0]",
            "tests/test_theta.py::test_range_guard_keeps_large_imaginary_parts_finite[z1]",
            "tests/test_acceptance.py::test_theta_reference_values_on_both_summation_paths",
        ],
    ),
    # _theta summing every characteristic as given: an unreduced r moves the sum off the candidate set
    (
        THETA,
        "    if not chi._canonical:\n",
        "    if False:\n",
        [
            "tests/test_theta.py::test_translation_by_integers",
            "tests/test_theta.py::test_huge_s_is_reduced_exactly",
            "tests/test_harness.py::test_sign_symmetry_compares_integer_shifts_with_their_exact_phase",
        ],
    ),
    # _theta summing the reduced characteristic without its phase e(r.b)
    (
        THETA,
        "return phase.value() * _theta(zp, red, tol)",
        "return _theta(zp, red, tol)",
        [
            "tests/test_theta.py::test_translation_by_integers",
            "tests/test_cli.py::test_theta_reduces_a_huge_characteristic_exactly",
        ],
    ),
    # every characteristic flagged canonical when built: _theta sums an unreduced one as given
    (
        THETA,
        "        self._canonical = not num or (0 <= min(num) and max(num) < den)\n",
        "        self._canonical = True\n",
        [
            "tests/test_theta.py::test_translation_by_integers",
            "tests/test_theta.py::test_huge_s_is_reduced_exactly",
            "tests/test_harness.py::test_sign_symmetry_compares_integer_shifts_with_their_exact_phase",
        ],
    ),
    # the constructor keeping a common factor of den and num: equal characteristics with unequal fields
    (
        THETA,
        "        if k != 1:\n            num, den = tuple(v // k for v in num), den // k\n",
        "",
        ["tests/test_theta.py::test_unreduced_numerators_normalise"],
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
        "cut = zp._theta_cuts.get(tol)",
        "cut = next(iter(zp._theta_cuts.values()), None)",
        ["tests/test_theta.py::test_truncation_geometry_is_kept_per_tolerance"],
    ),
    # the cut rebuilt on every call: _theta never stores what it builds
    (
        THETA,
        "cut = zp._theta_cuts[tol] = _certified(zp, tol)",
        "cut = _certified(zp, tol)",
        ["tests/test_theta.py::test_one_cut_per_point_and_tolerance"],
    ),
    # the stabilizer's moved cosets not widened when the fixing subgroup grows: residues known to move are applied
    (
        PRIMGEN,
        "            moved = {(m * f) % n for m in moved for f in fixed}\n",
        "",
        ["tests/test_primgen.py::test_stabilizer_skips_residues_known_to_move"],
    ),
    # the norm combinator without its u^(1 - ell) factor: still primitive, but not the combinator
    (
        PRIMGEN,
        "    return power * rest**t.ell * t._inverse_in_mid(u * rest) ** (t.ell - 1)\n",
        "    return power * rest\n",
        [
            "tests/test_primgen.py::test_combine_norm_matches_reference_formula",
            "tests/test_harness.py::test_primgen_suite_passes",
        ],
    ),
    # the inverse inside K(x) multiplying the identity coset too: e itself among "the others"
    (
        PRIMGEN,
        "self.mid_h)[1:]",
        "self.mid_h)",
        [
            "tests/test_primgen.py::test_combine_norm_matches_reference_formula",
            "tests/test_primgen.py::test_inverse_in_l_goes_down_the_tower",
        ],
    ),
    # the inverse inside L over all [L:Q] - 1 other conjugates: the same value from more conjugates
    (
        PRIMGEN,
        "        rest = orbit_product(e, self._reps[1:])\n        return rest * self._inverse_in_mid(e * rest)\n",
        "        return orbit_inverse(e, _coset_reps(self.conductor, unit_residues(self.conductor), self.fixer_l)[1:])\n",
        ["tests/test_primgen.py::test_inverse_in_l_goes_down_the_tower"],
    ),
    # orbit_sum dropping the common denominator of the conjugates
    (
        EXACT,
        "return CycloElem._make(a.n, total, a.den)",
        "return CycloElem._make(a.n, total)",
        [
            "tests/test_exact.py::test_orbit_sum_is_the_sum_of_the_conjugates[8]",
            "tests/test_exact.py::test_orbit_sum_is_the_sum_of_the_conjugates[25]",
        ],
    ),
    # the exact translation check expecting e(r.a) in place of e(r.b)
    (
        HARNESS,
        "zip(chi.r, b)))):",
        "zip(chi.r, a)))):",
        ["tests/test_acceptance.py::test_translation_formula_fuzz"],
    ),
    # the judge passing a deviation at or above its tolerance, and failing one below it
    (
        HARNESS,
        "Outcome(worst < tol, worst,",
        "Outcome(worst > tol, worst,",
        [
            "tests/test_acceptance.py::test_odd_half_integral_theta_nulls_vanish",
            "tests/test_harness.py::test_unattainable_tolerance_fails_closed",
        ],
    ),
    # the judge passing a separation at or below its floor, and failing one above it
    (
        HARNESS,
        "Outcome(closest > floor, closest,",
        "Outcome(closest < floor, closest,",
        ["tests/test_acceptance.py::test_theta_null_at_cm_point_stays_away_from_zero"],
    ),
    # the judge passing an exact check whatever cases failed
    (
        HARNESS,
        "Outcome(not failures,",
        "Outcome(True,",
        ["tests/test_harness.py::test_exact_failure_names_its_count_and_first_case"],
    ),
    # the deviations folded with the builtin max: max([0.0, nan]) is 0.0, and a 2-D array has no order
    (
        HARNESS,
        "worst = float(np.max(deviations))",
        "worst = float(max(deviations))",
        [
            "tests/test_harness.py::test_judges_fold_a_nan_among_finite_values",
            "tests/test_acceptance.py::test_cm_point_is_negated_by_integral_symplectic_beta",
        ],
    ),
    # a sampler out of draws returning None instead of raising the error that names its budget
    (
        HARNESS,
        '    raise RuntimeError(f"no {what} in {budget} draws")\n',
        "    return\n",
        [
            "tests/test_harness.py::test_failing_family_sampler_is_bounded",
            "tests/test_harness.py::test_exhausted_family_resamples_name_their_budget",
            "tests/test_harness.py::test_exhausted_char_and_tower_budgets_are_failed_checks",
        ],
    ),
    # a family kept whatever its points: no family is redrawn, and at seed 134 one has no point above the floor
    (
        HARNESS,
        "    for _ in _draws(16, what):\n",
        "    for _ in _draws(1, what):\n",
        ["tests/test_harness.py::test_passing_families_pass_at_seed_134"],
    ),
    # SuiteConfig.validate without its suite-name check: `--suite nonsense` runs no check and exits 0
    (
        HARNESS,
        "        unknown = set(self.suites) - set(SUITE_NAMES)\n        if unknown:\n"
        '            raise ConfigError(f"unknown suites: {sorted(unknown)}; the suites are {\', \'.join(SUITE_NAMES)}")\n',
        "",
        ["tests/test_cli.py::test_verify_rejects_unknown_suite"],
    ),
    # the CLI loading the harness at start-up, so `cmtheta theta` and `cmtheta action` load it too
    (
        CLI,
        "from .exact import CycloElem, rel_trace_norm, unit_residues\n",
        "from . import harness\nfrom .exact import CycloElem, rel_trace_norm, unit_residues\n",
        ["tests/test_layout.py::test_import_loads_the_context_layers_and_resolves_the_rest_on_use"],
    ),
    # a rounding bound 100 times too small: measured errors sit near 1e-16 and pass it, the per-term model does not
    (
        THETA,
        "return EPS / 2 * bound * m0 ** (g - 2)",
        "return EPS / 200 * bound * m0 ** (g - 2)",
        ["tests/test_theta.py::test_rounding_bound_dominates_per_term_model"],
    ),
]

SURVIVORS = []  # none today: an entry here must pass every test named with it


class Passed:
    """A pytest plugin: the node ids whose call ran and whose every phase passed."""

    def __init__(self):
        self.nodes = set()

    def pytest_runtest_logreport(self, report):
        if not report.passed:
            self.nodes.discard(report.nodeid)
        elif report.when == "call":
            self.nodes.add(report.nodeid)


def run(job) -> tuple[dict[str, bool], float]:
    """Copy the tree, apply the mutation if any, and run the named tests in this fresh child: pass (True)
    or not for each, a test that did not run counting as not passed, and the seconds taken."""
    tree, mutation, nodes = job
    if "cmtheta" in sys.modules:  # pytest would test the tree this child imported before
        raise RuntimeError("a child ran a second entry: each entry needs a fresh child")
    start = time.perf_counter()
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tree / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
    if mutation:
        path, old, new = mutation
        (tree / path).write_text((tree / path).read_text().replace(old, new))
    os.chdir(tree)
    import pytest  # preloaded by the fork server
    passed = Passed()
    pytest.main(["-p", "no:cacheprovider", "-p", "no:terminal", *nodes], plugins=[passed])
    return {node: node in passed.nodes for node in nodes}, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    entries = [(m, True) for m in CAUGHT] + [(m, False) for m in SURVIVORS]
    counts = [(path, old, (ROOT / path).read_text().count(old)) for (path, old, _, _), _ in entries]
    for path, old, count in counts:
        if count != 1:
            print(f"STALE  {path}: old text occurs {count} times: {old!r}")
    if any(count != 1 for _, _, count in counts):
        return 1
    # the fork server imports numpy with one BLAS thread, and the named tests need no installed plugin
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    forkserver = multiprocessing.get_context("forkserver")  # its server, unlike this process, runs no thread
    forkserver.set_forkserver_preload(["hypothesis", "mpmath", "numpy", "pytest"])
    bad = 0
    with tempfile.TemporaryDirectory() as tmp, forkserver.Pool(WORKERS, maxtasksperchild=1) as pool:
        nodes = sorted({n for (_, _, _, ns), _ in entries for n in ns})
        jobs = [(Path(tmp, "base"), None, nodes)]
        jobs += [(Path(tmp, f"m{i}"), (path, old, new), ns) for i, ((path, old, new, ns), _) in enumerate(entries)]
        results = pool.imap(run, jobs, chunksize=1)  # one child per job, so a child imports one tree
        broken = [n for n, ok in results.next(TIMEOUT)[0].items() if not ok]
        if broken:
            print("the named tests must pass on the unmutated tree:", *broken, sep="\n  ")
            return 1
        for (path, old, _, _), caught in entries:
            passed, seconds = results.next(TIMEOUT)
            wrong = [n for n, ok in passed.items() if ok == caught]
            kind = "caught" if caught else "survives"
            print(f"{'WRONG' if wrong else 'ok':5}  {kind:8}  {seconds:4.1f}s  {path}: {old.strip()[:60]!r}", flush=True)
            for n in wrong:
                print(f"         {'passed' if caught else 'failed'}: {n}")
            bad += bool(wrong)
    print(f"{len(entries) - bad} of {len(entries)} mutants behave as listed ({time.perf_counter() - start:.0f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
