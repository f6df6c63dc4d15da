"""Acceptance suite: one test per headline guarantee of the package.

Each test drives the corresponding named harness check (the same code the
`cmtheta verify` CLI runs) at its stated tolerance and reports the measured
deviation on failure.
"""
import pytest

from cmtheta import harness


def run(check, env):
    out = check(env)
    assert out.passed, f"{check.__name__}: measured={out.measured!r} tolerance={out.tolerance!r} ({out.detail})"
    return out.measured, out.tolerance


def test_theta_reference_values_on_both_summation_paths(env):
    # theta null at iI2 takes the factored sum, Theta[1/2 0; 0 0](200i I2) the one-by-one sum
    measured, tol = run(harness.check_theta_reference, env)
    assert measured < tol == 1e-10


def test_riemann_form_on_cm_basis_is_standard_symplectic(env):
    run(harness.check_riemann_matrix, env)


def test_cm_point_is_negated_by_integral_symplectic_beta(env):
    measured, tol = run(harness.check_cm_point, env)
    assert measured < 1e-10


def test_theta_null_at_cm_point_stays_away_from_zero(env):
    measured, _ = run(harness.check_theta_null_bound, env)
    assert measured > 0.1


def test_reflex_norm_matrices_match_mod_2p_squared(env):
    run(harness.check_reflex_congruences, env)


def test_simulated_artin_action_equals_closed_form_phases(env):
    measured, tol = run(harness.check_artin_closed_form, env)
    assert measured is None and tol is None  # exact: chi_out and the multiplier compared as exponents


def test_normalized_theta_constants_are_real_on_cm_locus(env):
    measured, _ = run(harness.check_reality, env)
    assert measured < 1e-8


def test_conjugation_symmetry_at_cm_point(env):
    measured, _ = run(harness.check_conjugation, env)
    assert measured < 1e-8


def test_modularity_criterion_is_sound_both_ways(env):
    run(harness.check_single_2n, env)
    measured, _ = run(harness.check_passing_families, env)
    assert measured < 1e-8
    run(harness.check_failing_families, env)


def test_odd_half_integral_theta_nulls_vanish(env):
    measured, _ = run(harness.check_sigma_minus, env)
    assert measured < 1e-10


def test_multiplier_formula_cross_validates(env):
    measured, _ = run(harness.check_multiplier_cross, env)
    assert measured < 1e-8


def test_odd_action_matches_congruence_multiplier_and_refuses_non_members(env):
    run(harness.check_odd_action_overlap, env)  # exact roots-of-unity overlap and ValueError refusals


def test_first_row_congruence_criterion_worked_example(env):
    run(harness.check_belong_example, env)


def test_relative_trace_and_norm_in_conductor_25(env):
    run(harness.check_trace_norm_example, env)


def test_primitive_generator_combinators(env):
    run(harness.check_surrogate_tower, env)
    run(harness.check_random_towers, env)


def test_translation_formula_fuzz(env):
    measured, tol = run(harness.check_translation_formula, env)
    assert measured is None and tol is None  # exact: reduce's phase against e(r.b) as exponents
