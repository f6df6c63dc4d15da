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
CLI, ACTION = "src/cmtheta/cli.py", "src/cmtheta/action.py"

CAUGHT = [
    # gamma_multiplier translating back by e(tr.(s + b)) in place of e(tr.b): + M_{l,g+l} where - M_{l,g+l} belongs
    (
        MODULARITY,
        "total - mom[l][g + l]",
        "total + mom[l][g + l]",
        [
            "tests/test_modularity.py::test_multiplier_matches_fraction_reference",
            "tests/test_modularity.py::test_multiplier_is_homomorphism_on_congruence_group",
            "tests/test_acceptance.py::test_multiplier_formula_cross_validates",
        ],
    ),
    # gamma_multiplier without the translation back: the law's phase M_{l,g+l} - c_l.(M c_{g+l}) alone, as if
    # t(gamma) fixed [r; s]; on Gamma(2m^2) at denominator m the translation phase e(tr.b) is 1, so the odd-action
    # overlap cannot see it
    (
        MODULARITY,
        "total - mom[l][g + l]\n        for a, row in enumerate(mom):\n            v = 0  # (M c_{g+l})_a\n"
        "            for b in range(2 * g):\n                v += row[b] * c[b]\n"
        "            total += ((2 if a == l else 0) - cl[a])",
        "total + mom[l][g + l]\n        for a, row in enumerate(mom):\n            v = 0  # (M c_{g+l})_a\n"
        "            for b in range(2 * g):\n                v += row[b] * c[b]\n"
        "            total += (-cl[a])",
        [
            "tests/test_modularity.py::test_multiplier_matches_fraction_reference",
            "tests/test_acceptance.py::test_multiplier_formula_cross_validates",
        ],
    ),
    # the transformation law without its multiplier nu: right on Gamma(n), where nu = 1, wrong for nu != 1
    (
        ACTION,
        "nu * sum(map(mul, x, x[g:]))",
        "sum(map(mul, x, x[g:]))",
        [
            "tests/test_action.py::test_act_phi_matches_fraction_transpose",
            "tests/test_cmfield.py::test_artin_matches_closed_form_exactly",
            "tests/test_acceptance.py::test_simulated_artin_action_equals_closed_form_phases",
        ],
    ),
    # the transformation law with the moved term's sign flipped: nu tx_r.x_s + ty_r.y_s
    (
        ACTION,
        " - sum(map(mul, y, y[g:]))",
        " + sum(map(mul, y, y[g:]))",
        [
            "tests/test_action.py::test_act_phi_under_j",
            "tests/test_action.py::test_act_phi_matches_fraction_transpose",
            "tests/test_acceptance.py::test_simulated_artin_action_equals_closed_form_phases",
        ],
    ),
    # gamma_multiplier accepting any gamma = I mod n, or not even that
    (
        MODULARITY,
        '    if not _gamma_member(cols, n):\n        raise ValueError(f"gamma is not in Gamma({n})")\n',
        "",
        [
            "tests/test_modularity.py::test_multiplier_requires_congruence",
            "tests/test_acceptance.py::test_odd_action_matches_congruence_multiplier_and_refuses_non_members",
        ],
    ),
    # gamma_multiplier without the level rule: n = 0 divides by zero, n = -2 returns a phase
    (
        MODULARITY,
        "    n = check_level(n)\n",
        "",
        ["tests/test_modularity.py::test_level_is_a_positive_even_integer"],
    ),
    # the level rule without its integer test: a level of 4.0 passes it and is read as 4
    (
        SYMPLECTIC,
        "not is_integer(n) or ",
        "",
        ["tests/test_modularity.py::test_level_is_a_positive_even_integer"],
    ),
    # the level rule handing a numpy level back as it came: exact arithmetic overflows int64
    (
        SYMPLECTIC,
        "    return int(n)\n",
        "    return n\n",
        ["tests/test_modularity.py::test_numpy_level_is_read_as_an_int"],
    ),
    # a product without its exponent test: 1.5 gives float residues and "2" is read as 2
    (
        MODULARITY,
        "    if not is_integer(m):\n",
        "    if False:\n",
        ["tests/test_modularity.py::test_exponents_are_integers"],
    ),
    # special_gamma without its integer test: n = 2.5 is written into the "integer" matrix, or fails in int()
    (
        SYMPLECTIC,
        "all(map(is_integer, (j, k, n))) and ",
        "",
        ["tests/test_modularity.py::test_level_is_a_positive_even_integer"],
    ),
    # act_siegel's float-range bound read with lambda_min(Im Z) in place of lambda_max: it blames the float range
    # for an image that is representable
    (
        SYMPLECTIC,
        "zp._im_eigh[0][-1]",
        "zp._im_eigh[0][0]",
        ["tests/test_symplectic.py::test_act_siegel_names_the_float_range_for_an_image_below_it"],
    ),
    # Gamma(n) membership without tM J M == J: only M = I mod n is left
    (
        SYMPLECTIC,
        " and _form(cols) == _j_form(size)",
        "",
        [
            "tests/test_modularity.py::test_multiplier_requires_congruence",
            "tests/test_symplectic.py::test_multiplier",
            "tests/test_acceptance.py::test_odd_action_matches_congruence_multiplier_and_refuses_non_members",
        ],
    ),
    # the pattern of J with its sign flipped, +1 at each (l, g + l): Gamma(n) holds no matrix, and nu J is read as -nu J
    (
        SYMPLECTIC,
        "[-(k == i + size // 2)",
        "[(k == i + size // 2)",
        [
            "tests/test_symplectic.py::test_jmat",
            "tests/test_symplectic.py::test_multiplier",
            "tests/test_modularity.py::test_multiplier_reference_values",
        ],
    ),
    # the form kernel skipping its last pair, (2g - 2, 2g - 1): one entry short, so it never equals J's list
    (
        SYMPLECTIC,
        "for k in range(i + 1, 2 * g):",
        "for k in range(i + 1, 2 * g - (i == 2 * g - 2)):",
        [
            "tests/test_symplectic.py::test_jmat",
            "tests/test_symplectic.py::test_multiplier",
            "tests/test_symplectic.py::test_membership_kernel_matches_fraction_reference",
        ],
    ),
    # the form kernel wrapping each entry to 64 bits, as a fixed-width product would: exact while |entry| < 2**63,
    # which every member of Gamma(n) meets (its form is J), so only the words past 2**63 off the group see it
    (
        SYMPLECTIC,
        "            out.append(s)\n",
        "            out.append((s + 2**63) % 2**64 - 2**63)\n",
        ["tests/test_symplectic.py::test_membership_kernel_matches_fraction_reference"],
    ),
    # nu read off the entry (0, g + 1) in place of (0, g)
    (
        SYMPLECTIC,
        "[len(cols) // 2 - 1]",
        "[len(cols) // 2]",
        [
            "tests/test_symplectic.py::test_multiplier",
            "tests/test_symplectic.py::test_g_group_multiplier",
        ],
    ),
    # Gamma(n) membership without the diagonal comparison: mod 2, J's residues add up to 2g, as I's do
    (
        SYMPLECTIC,
        "res[:: size + 1] == [one] * size and ",
        "",
        [
            "tests/test_symplectic.py::test_group_memberships",
            "tests/test_symplectic.py::test_membership_kernel_matches_fraction_reference",
        ],
    ),
    # Gamma(n) membership without the residue total: M = I mod n read off the diagonal alone
    (
        SYMPLECTIC,
        " and sum(res) == size * one",
        "",
        [
            "tests/test_modularity.py::test_multiplier_requires_congruence",
            "tests/test_symplectic.py::test_group_memberships",
            "tests/test_symplectic.py::test_membership_kernel_matches_fraction_reference",
        ],
    ),
    # Gamma(n) membership with 1 % n written as 1: at n = 1 every residue is 0, so is_symplectic refuses all
    (
        SYMPLECTIC,
        "size, one = len(cols), 1 % n",
        "size, one = len(cols), 1",
        [
            "tests/test_symplectic.py::test_jmat",
            "tests/test_symplectic.py::test_group_memberships",
            "tests/test_symplectic.py::test_membership_kernel_matches_fraction_reference",
        ],
    ),
    # check_family with the rs congruence taken mod n/2
    (
        MODULARITY,
        "if srs % n:",
        "if srs % (n // 2):",
        ["tests/test_modularity.py::test_failing_family_structure"],
    ),
    # check_family scaling M by level/D, not by its square: a level-2 family re-validated at level 4 fails
    (
        MODULARITY,
        "(n // den) ** 2",
        "(n // den)",
        ["tests/test_modularity.py::test_failing_family_structure"],
    ),
    # the moment matrix built from its upper triangle only: the zeros below the diagonal enter M c_{g+l}
    (
        MODULARITY,
        "sum(m * x[a] * x[b] for m, x in xs)",
        "(a <= b and sum(m * x[a] * x[b] for m, x in xs))",
        [
            "tests/test_modularity.py::test_moments_match_fraction_reference",
            "tests/test_modularity.py::test_multiplier_matches_fraction_reference",
            "tests/test_modularity.py::test_multiplier_on_product_adds_exponents",
        ],
    ),
    # gamma_multiplier without its D | n refusal: a level-4 family at n = 2 gets a phase, so does a (1/3) target
    (
        MODULARITY,
        '    if n % den:\n        raise ValueError(f"{target} is not (1/{n})-integral")\n',
        "",
        [
            "tests/test_modularity.py::test_multiplier_requires_congruence",
            "tests/test_modularity.py::test_multiplier_genus_and_level_contracts",
        ],
    ),
    # gamma_multiplier without its genus refusal: a genus-2 target gets a phase at g = 3 (map stops early) and an
    # IndexError at g = 1, in place of the ValueError
    (
        MODULARITY,
        "    if mom and len(mom) != len(cols):\n",
        "    if False:\n",
        ["tests/test_modularity.py::test_multiplier_genus_and_level_contracts"],
    ),
    # the translation term 2 (M c_{g+l})_l halved: term by term the same error, so only the references see it
    (
        MODULARITY,
        "(2 if a == l else 0)",
        "(1 if a == l else 0)",
        [
            "tests/test_modularity.py::test_multiplier_matches_fraction_reference",
            "tests/test_modularity.py::test_multiplier_reference_values",
            "tests/test_acceptance.py::test_multiplier_formula_cross_validates",
        ],
    ),
    # the contraction without its translation term 2 (M c_{g+l})_l
    (
        MODULARITY,
        "((2 if a == l else 0) - cl[a])",
        "(-cl[a])",
        [
            "tests/test_modularity.py::test_multiplier_matches_fraction_reference",
            "tests/test_modularity.py::test_multiplier_reference_values",
            "tests/test_acceptance.py::test_multiplier_formula_cross_validates",
        ],
    ),
    # act_phi moving chi by alpha instead of t(alpha): rows of alpha dotted with x, not columns
    (
        ACTION,
        "y = [sum(map(mul, col, x)) for col in cols]",
        "y = [sum(c[i] * v for c, v in zip(cols, x)) for i in range(len(x))]",
        [
            "tests/test_action.py::test_act_phi_matches_fraction_transpose",
            "tests/test_action.py::test_transpose_apply_matches_fraction_reference",
        ],
    ),
    # G_n membership without the parity rule: h(phi*(zeta)) = h(zeta^4), norm 1 and an odd diagonal, counts as a member
    (
        SYMPLECTIC,
        " and not any(sum(map(mul, col, col[g:])) % 2 for col in cols)",
        "",
        [
            "tests/test_symplectic.py::test_g_group_multiplier",
            "tests/test_cmfield.py::test_actor_membership_worked_examples",
            "tests/test_cmfield.py::test_actor_act_rejects_bad_actors",
        ],
    ),
    # G_n membership given a known similitude without the unit rule: an actor of norm 16 or 81 gets a multiplier;
    # _g_multiplier keeps the unit test of _multiplier, so only GaloisActor.build goes wrong
    (
        SYMPLECTIC,
        "gcd(nu, n) == 1 and ",
        "",
        [
            "tests/test_cmfield.py::test_actor_membership_worked_examples",
            "tests/test_cmfield.py::test_actor_nu_matches_the_full_membership_test",
        ],
    ),
    # G_n membership with the parity read over the first g columns only: tAC without tBD
    (
        SYMPLECTIC,
        "% 2 for col in cols)",
        "% 2 for col in cols[:g])",
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
        "norm = _similitude(cols)",
        "norm = _similitude(cols) % (2 * p * p)",
        [
            "tests/test_cmfield.py::test_actor_build_matches_definitional_composition",
            "tests/test_cmfield.py::test_actor_norm_is_the_exact_similitude_of_h",
            "tests/test_acceptance.py::test_reflex_norm_matrices_match_mod_2p_squared",
        ],
    ),
    # the similitude with its sign flipped: (tM J M)[0, g] instead of -(tM J M)[0, g]
    (
        SYMPLECTIC,
        "return sum(map(mul, cols[0], cols[g][g:])) - sum(map(mul, cols[0][g:], cols[g]))",
        "return sum(map(mul, cols[0][g:], cols[g])) - sum(map(mul, cols[0], cols[g][g:]))",
        [
            "tests/test_cmfield.py::test_actor_build_matches_definitional_composition",
            "tests/test_cmfield.py::test_actor_norm_is_the_exact_similitude_of_h",
        ],
    ),
    # the fused Artin action without the translation phase of reducing its image y / p
    (
        CMFIELD,
        "        phase += 2 * p * _translation_shift(y, p)\n",
        "",
        [
            "tests/test_cmfield.py::test_fused_action_matches_the_raw_action_reduced",
            "tests/test_cmfield.py::test_artin_matches_closed_form_exactly",
        ],
    ),
    # the fused Artin action keeping denominator p for an image = 0 mod p: unequal to the integral characteristic 0
    (
        CMFIELD,
        "p if any(num) else 1)",
        "p if any(num) else p)",
        ["tests/test_cmfield.py::test_fused_action_matches_the_raw_action_reduced"],
    ),
    # the fused Artin action without its zero-image branch: every image taken as in lowest terms over p
    (
        CMFIELD,
        "_make(num, p if any(num) else 1)",
        "_make(num, p)",
        ["tests/test_cmfield.py::test_fused_action_matches_the_raw_action_reduced"],
    ),
    # one sign flipped in a literal column of h: the entry -c1 of h(x)[1, 3] read as +c1
    (
        CMFIELD,
        "(c1 - c3, -c1, c2, c0)",
        "(c1 - c3, c1, c2, c0)",
        [
            "tests/test_cmfield.py::test_h_map_matches_solve_definition",
            "tests/test_cmfield.py::test_h_map_reference",
        ],
    ),
    # CycloElem keeping numpy integers: a Fraction of an int64 keeps an int64 numerator, which wraps
    (
        EXACT,
        "return Fraction(int(v) if isinstance(v, Integral) else v)",
        "return Fraction(v)",
        [
            "tests/test_cmfield.py::test_numpy_coordinates_stay_exact",
            "tests/test_exact.py::test_numpy_integers_enter_as_python_ints",
        ],
    ),
    # the translation rule with % and // swapped: e((r // den)(s mod den) / den)
    (
        THETA,
        "(rv % den) * (sv // den)",
        "(rv // den) * (sv % den)",
        [
            "tests/test_cmfield.py::test_fused_action_matches_the_raw_action_reduced",
            "tests/test_theta.py::test_translation_by_integers",
        ],
    ),
    # belong_criterion reading the second row of h
    (
        CMFIELD,
        "(col[0] for col in self._cols)",
        "(col[1] for col in self._cols)",
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
    # the rule for p without its integer test: a str p raises TypeError at p > 2, not ValueError
    (
        CMFIELD,
        "return is_integer(p) and p > 2",
        "return p > 2",
        [
            "tests/test_cmfield.py::test_actor_first_row_and_build_guards",
            "tests/test_harness.py::test_config_validation",
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
        "    e4 = b * b + c * d + a * d  # the coefficient of zeta^4\n"
        "    return [a * a + b * (c + d) - e4, (a + d) * (b + c) - e4, c * (a + b) + d * d - e4, a * (b + d) + c * c - e4]",
        "    e4 = c * (a + b) + d * d\n"
        "    return [a * a + b * (c + d) - e4, a * (b + d) + c * c - e4, (a + d) * (b + c) - e4, b * b + c * d + a * d - e4]",
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
    # the linear exponents scaled by 1.01: the conjugate side at [r; -s] reduced no longer mirrors the error
    (
        THETA,
        "cut.sum(full[:-g], ",
        "cut.sum(full[:-g] * 1.01, ",
        ["tests/test_acceptance.py::test_conjugation_symmetry_at_cm_point"],
    ),
    # the rows of u without the 1/2 on their Z block: u = pi i (2 Z shift + 2s), so const gains pi i t(shift) Z shift
    (
        THETA,
        "exponents[-g:, :g] = z * (_TWO_PI_I / 2)",
        "exponents[-g:, :g] = z * _TWO_PI_I",
        [
            "tests/test_theta.py::test_genus_one_against_mpmath",
            "tests/test_theta.py::test_exponent_matrix_matches_python_route",
        ],
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
    # the radius walk stopping its climb early, once the bound is within a factor 2 of target: a failing m returned
    (
        THETA,
        "    while tail > target:\n",
        "    while tail > 2 * target:\n",
        [
            "tests/test_theta.py::test_radius_search_matches_doubling_reference",
            "tests/test_theta.py::test_radius_search_keeps_the_candidates",
        ],
    ),
    # the radius walk without its downward leg: a corrected start above the least passing m is returned as it is;
    # no cut of cut_test_points starts above its answer, so only the grid of rho, g and tol sees it
    (
        THETA,
        "    while m > 1 and (low := bound(m - 1)) <= target:\n        m, tail = m - 1, low\n",
        "",
        ["tests/test_theta.py::test_radius_search_matches_doubling_reference"],
    ),
    # the radius walk from the naive start, uncorrected: the same radius, but many more tail bounds a search
    (
        THETA,
        "m = max(1, round(32 * math.sqrt(max(square, 0.0))))",
        "m = start",
        ["tests/test_theta.py::test_radius_search_matches_doubling_reference"],
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
    # T = sqrt(pi) tV without Lambda^(1/2): the ellipsoid of the identity, not of Im Z
    (
        THETA,
        "np.sqrt(math.pi * lam)[:, None] * vec.T",
        "math.sqrt(math.pi) * vec.T",
        [
            "tests/test_theta.py::test_eigh_geometry_matches_cholesky_and_inverse",
            "tests/test_theta.py::test_factored_sum_within_tail_plus_rounding",
            "tests/test_theta.py::test_unequal_axes_match_product_of_genus_one_sums",
        ],
    ),
    # the box extents from diag(Im Z) in place of diag(Im Z^-1): lambda for 1/lambda
    (
        THETA,
        "(vec * vec / lam)",
        "(vec * vec * lam)",
        [
            "tests/test_theta.py::test_eigh_geometry_matches_cholesky_and_inverse",
            "tests/test_theta.py::test_factored_sum_within_tail_plus_rounding",
            "tests/test_theta.py::test_unequal_axes_match_product_of_genus_one_sums",
        ],
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
    # the stabilizer's moved cosets not widened when the fixing subgroup grows: residues known to move are applied;
    # zeta_15 + zeta_15^4 still applies [2, 4, 7, 11], as 8 = 2 * 4 is marked as the generator 2^3 of <2>, while
    # zeta_25^5 applies [2, 4, 6, 7, 24], as 7 and 24 lie in the cosets 2<6> and 4<6> that were never widened
    (
        PRIMGEN,
        "            moved = {(m * f) % n for m in moved for f in fixed}\n",
        "",
        ["tests/test_primgen.py::test_stabilizer_tests_one_residue_per_cyclic_subgroup"],
    ),
    # the stabilizer marking r f alone as moving, not every generator r' f of <r> f: zeta_25 applies 19 residues
    (
        PRIMGEN,
        "table[r] = [p for k, p in enumerate(powers, 1) if math.gcd(k, len(powers)) == 1]",
        "table[r] = [r]",
        ["tests/test_primgen.py::test_stabilizer_tests_one_residue_per_cyclic_subgroup"],
    ),
    # the stabilizer marking all of <r> as moving, not its generators alone: unsound, as a power of r may fix a
    (
        PRIMGEN,
        "[p for k, p in enumerate(powers, 1) if math.gcd(k, len(powers)) == 1]",
        "powers",
        [
            "tests/test_primgen.py::test_stabilizer",
            "tests/test_primgen.py::test_stabilizer_matches_definition[20]",
            "tests/test_primgen.py::test_conductor_25_tower",
        ],
    ),
    # the norm combinator without its (v^-ell N)^|m| factor: still primitive, but not the combinator
    (
        PRIMGEN,
        "    return power * f ** abs(m)\n",
        "    return power * rest\n",
        [
            "tests/test_primgen.py::test_combine_norm_matches_reference_formula",
            "tests/test_harness.py::test_primgen_suite_passes",
        ],
    ),
    # the m < 0 factor without its v^ell: N^-1 alone
    (
        PRIMGEN,
        "else v**t.ell * inv",
        "else inv",
        ["tests/test_primgen.py::test_combine_norm_matches_reference_formula"],
    ),
    # the inverse inside K(x) multiplying the identity coset too: e itself among "the others"
    (
        PRIMGEN,
        "self.mid_h)[1:]",
        "self.mid_h)",
        [
            "tests/test_primgen.py::test_combine_norm_matches_reference_formula",
            "tests/test_primgen.py::test_combine_norm_forms_each_conjugate_once_for_either_sign_of_m",
        ],
    ),
    # N inverted over all phi(n) - 1 other conjugates in Q(zeta_n), not its [K(x):Q] - 1: the same value from more
    (
        PRIMGEN,
        "inv = t._inverse_in_mid(v * rest)",
        "inv = (v * rest).inverse()",
        ["tests/test_primgen.py::test_combine_norm_forms_each_conjugate_once_for_either_sign_of_m"],
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
        "    for drawn in _draws(16 * tries, what):\n",
        "    for drawn in _draws(tries, what):\n",
        ["tests/test_harness.py::test_passing_families_pass_at_seed_134"],
    ),
    # _usable_sample drawing its word once, outside the loop: a word that maps no point well is kept for every draw
    (
        HARNESS,
        '    for drawn in _draws(640, "usable word/point pair"):\n'
        "        gamma, z = _gamma_word(rng, n), random_siegel(rng)\n",
        '    gamma = _gamma_word(rng, n)\n    for drawn in _draws(640, "usable word/point pair"):\n'
        "        z = random_siegel(rng)\n",
        ["tests/test_harness.py::test_usable_sample_returns_the_first_usable_pair_and_draws_a_word_per_pair"],
    ),
    # failing-family-witness drawing from another stream: its worst separation is |e(1/8) - 1| again, but at the
    # default seed it rounds to 0.76536686473018 where the pinned 0.765366864730179 stands
    (
        HARNESS,
        "rng = _rng(env, 82)",
        "rng = _rng(env, 83)",
        ["tests/test_harness.py::test_default_seed_report_matches_its_pinned_file"],
    ),
    # 19 words per passing family in place of 20: fewer comparisons, named in the detail
    (
        HARNESS,
        "            for _ in range(20):\n                gamma = _gamma_word(rng, n)\n",
        "            for _ in range(19):\n                gamma = _gamma_word(rng, n)\n",
        [
            "tests/test_harness.py::test_passing_families_pass_at_seed_5",
            "tests/test_harness.py::test_passing_families_pass_at_seed_134",
        ],
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
    # the term-by-term sum without its constant factor e^const: right only where r = 0
    (
        THETA,
        "np.exp(self.quad + linear + const)",
        "np.exp(self.quad + linear)",
        [
            "tests/test_theta.py::test_summation_paths_agree",
            "tests/test_theta.py::test_term_sum_within_tail_plus_rounding",
            "tests/test_theta.py::test_range_guard_keeps_large_imaginary_parts_finite[z0]",
        ],
    ),
    # the range guard picking the other cut type: well-conditioned points term by term, large Im Z factored
    (
        THETA,
        "if grow + shrink + math.log(len(grid)) < _EXP_RANGE:",
        "if grow + shrink + math.log(len(grid)) >= _EXP_RANGE:",
        [
            "tests/test_theta.py::test_well_conditioned_cuts_are_factored",
            "tests/test_theta.py::test_range_guard_keeps_large_imaginary_parts_finite[z0]",
            "tests/test_theta.py::test_factored_sum_within_tail_plus_rounding",
        ],
    ),
    # rel_trace_norm orbiting over every listed residue: (1, 26) mod 25 counts zeta_25's one conjugate twice
    (
        EXACT,
        "residues = dict.fromkeys(t % a.n for t in subgroup)",
        "residues = [t % a.n for t in subgroup]",
        ["tests/test_exact.py::test_trace_norm_count_each_residue_once"],
    ),
    # no order test in unit_residues: a CycloElem of order 0 fails with an IndexError, not ValueError
    (
        EXACT,
        '    if n < 1:\n        raise ValueError(f"cyclotomic order must be positive, got {n}")\n    return tuple(',
        "    return tuple(",
        ["tests/test_exact.py::test_order_below_one_is_refused[0]"],
    ),
    # no order test in cyclotomic_coeffs: Phi_0 and Phi_-3 read as Phi_1
    (
        EXACT,
        '    if n < 1:\n        raise ValueError(f"cyclotomic order must be positive, got {n}")\n    if n == 1:',
        "    if n == 1:",
        ["tests/test_exact.py::test_order_below_one_is_refused[-3]"],
    ),
    # the integer rule without numbers.Integral: numpy's integers refused as levels, exponents and primes
    (
        SYMPLECTIC,
        "return type(v) is int or isinstance(v, Integral)",
        "return type(v) is int",
        [
            "tests/test_symplectic.py::test_one_integer_rule",
            "tests/test_modularity.py::test_level_is_a_positive_even_integer",
            "tests/test_harness.py::test_config_validation",
        ],
    ),
    # SiegelPoint without its empty-matrix test: a 0 x 0 matrix fails in numpy's max
    (
        SYMPLECTIC,
        " or not z.size:",
        ":",
        ["tests/test_symplectic.py::test_siegel_point_must_be_a_nonempty_square_matrix[shape0]"],
    ),
    # a rational operand added without scaling the numerators by its denominator d: a + p/d read as a/d + p/d
    (
        EXACT,
        "num = [c * d for c in self.num]",
        "num = list(self.num)",
        ["tests/test_exact.py::test_rational_operands_match_fraction_reference"],
    ),
    # the constant term of a + p/d gaining p in place of p * den: right only where a has den 1
    (
        EXACT,
        "num[0] += p * self.den",
        "num[0] += p",
        ["tests/test_exact.py::test_rational_operands_match_fraction_reference"],
    ),
    # a * (p/d) keeping den in place of den * d: a Fraction factor multiplied by its numerator alone
    (
        EXACT,
        "[c * p for c in self.num], self.den * d)",
        "[c * p for c in self.num], self.den)",
        [
            "tests/test_exact.py::test_rational_operands_match_fraction_reference",
            "tests/test_exact.py::test_inverse_and_division",
        ],
    ),
    # a rounding bound 100 times too small: measured errors sit near 1e-16 and pass it, the per-term model does not
    (
        THETA,
        "return EPS / 2 * bound * m0 ** (g - 2)",
        "return EPS / 200 * bound * m0 ** (g - 2)",
        ["tests/test_theta.py::test_rounding_bound_dominates_per_term_model"],
    ),
    # a term-by-term cut growing m_E and m_c by g + 2 in place of the two additions: 5.6, not 5.0, times the model
    (
        THETA,
        "ops, more, m_w = len(rows) - g + 7, 2, 3 * g + 5",
        "ops, more, m_w = len(rows) - g + 7, g + 2, 3 * g + 5",
        ["tests/test_theta.py::test_rounding_bound_dominates_per_term_model"],
    ),
    # stabilizer returning the residues of `within` as given: 9 and 15 where 1 and 7 mod 8 belong
    (
        PRIMGEN,
        "frozenset(r for t in within if (r := t % n) in fixed)",
        "frozenset(t for t in within if (r := t % n) in fixed)",
        ["tests/test_primgen.py::test_stabilizer", "tests/test_primgen.py::test_stabilizer_matches_definition[8]"],
    ),
    # eval_product passing a matrix Z on to every term: one SiegelPoint, eigh and cut per term and for the null
    (
        MODULARITY,
        "zp = z if isinstance(z, SiegelPoint) else SiegelPoint(z)",
        "zp = z",
        ["tests/test_modularity.py::test_eval_product_at_a_matrix_builds_one_cut"],
    ),
]

# an entry here must pass every test named with it
SURVIVORS = [
    # sign-symmetry drawing its integer shifts from [-4, 3]: theta_eval reduces [r + a; s + b] to the sum it reduces
    # [r; s] to and applies the exact phase, so every shifted comparison reads exactly 0 at all six pinned seeds and
    # the worst deviation is a sign pair's, drawn before the shifts; no shift range reaches the report
    (
        HARNESS,
        "rng.integers(-4, 5, 2)",
        "rng.integers(-4, 4, 2)",
        [
            "tests/test_harness.py::test_default_seed_report_matches_its_pinned_file",
            "tests/test_harness.py::test_sign_symmetry_compares_integer_shifts_with_their_exact_phase",
        ],
    ),
]


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
