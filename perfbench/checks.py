"""Output checkers for the benchmark workloads.

Every checker returns a failure count or a boolean, so a wrong result is
counted rather than raised.  `self_test()` feeds each checker one correct and
one perturbed value and confirms that only the perturbed one counts as a
failure, so none of these checks passes vacuously.
"""
from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np

import cmtheta as cm

EPS = float(np.finfo(float).eps)
VERIFY_CHECKS = 23  # checks in `cmtheta verify` with all five suites


# -- theta-table: independent reference by direct summation -----------------


def reference_table(z: np.ndarray, p: int, radius: int):
    """Theta null and every Phi_[r;s](Z) with r, s in (1/p)Z^g / Z^g, by summing
    the lattice box |x_j| <= radius directly.

    Values come out in the order r-major, s-minor, each row running over
    itertools.product(range(p), repeat=g).  Returns (null, phis, terms summed).
    """
    g = z.shape[0]
    axis = np.arange(-radius, radius + 1, dtype=float)
    x = np.stack(np.meshgrid(*([axis] * g), indexing="ij"), axis=-1).reshape(-1, g)
    grid = np.array(list(itertools.product(range(p), repeat=g)), dtype=float) / p
    thetas = []
    for r in grid:
        v = x + r
        quad = np.exp(1j * np.pi * np.einsum("ij,jk,ik->i", v, z, v))
        thetas.append(quad @ np.exp(2j * np.pi * (v @ grid.T)))
    thetas = np.concatenate(thetas)
    return complex(thetas[0]), thetas / thetas[0], len(x)


def reference_radius(z: np.ndarray, tail_exponent: float = 60.0) -> int:
    """Smallest box radius whose omitted terms are below exp(-tail_exponent) each."""
    lam = float(np.linalg.eigvalsh(z.imag).min())
    return math.ceil(math.sqrt(tail_exponent / (math.pi * lam))) + 1


def theta_allowed(ref_phis: np.ndarray, ref_null: complex, n_terms: int, tol: float) -> np.ndarray:
    """The |Phi - reference| the program may show.

    Its stated absolute theta tolerance, plus a rounding allowance of 4 eps per
    summed term (two sums of terms of modulus <= 1: the program's and the
    reference's), carried through Phi = Theta / Theta_null.
    """
    slack = tol + 4 * EPS * n_terms
    return slack * (1 + np.abs(ref_phis)) / (abs(ref_null) - slack)


def theta_ratios(values: np.ndarray, refs: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """|value - reference| / allowed; NaN values count as infinitely wrong."""
    ratios = np.abs(values - refs) / allowed
    ratios[~np.isfinite(ratios)] = np.inf
    return ratios


def theta_failures(ratios: np.ndarray) -> int:
    return int(np.count_nonzero(ratios > 1))


# -- artin ------------------------------------------------------------------


def artin_ok(result, chi, expected_phase) -> bool:
    """h = I mod 2p for the standard actors: chi is fixed, multiplier is the closed phase."""
    return result.chi_out == chi and result.multiplier == expected_phase


def numeric_field_norm(coords) -> int:
    """N_{Q(zeta_5)/Q} of sum a_j zeta^j, as the product of its four embeddings."""
    value = 1 + 0j
    for k in range(1, 5):
        w = cmath.exp(2j * cmath.pi * k / 5)
        value *= sum(a * w**j for j, a in enumerate(coords))
    return round(value.real)


def belong_ok(result, p: int, norm: int) -> bool:
    """The criterion value recomputed from the returned first row, and the norm."""
    a, b, c, d = result.first_row
    value = -2 * a * b + 2 * a * c + a * d - 2 * b * c - 2 * c * d - 2 * d * d
    return (
        result.value == value
        and result.value_mod_p == value % p
        and result.satisfied == (value % p == 0)
        and result.norm == norm
        and result.norm_prime_to_2p == (math.gcd(norm, 2 * p) == 1)
    )


# -- towers -----------------------------------------------------------------


def tower_failures(tower, a, eps, primitive_trace: bool, primitive_norm: bool) -> int:
    """Identities of the random-towers check: Tr_{L/K(x)}(eps) = a x ell, both outputs primitive."""
    trace_ok = tower.trace_mid(eps) == a * tower.x * tower.ell
    return (not trace_ok) + (primitive_trace is not True) + (primitive_norm is not True)


def rel_expected(c: int, d: int, k: int):
    """Trace and norm of c zeta_25^k + d over the subgroup {1 + 5j} of (Z/25)^*.

    The subgroup moves zeta_25^k through zeta_25^k times every 5th root of unity,
    so the trace is 5d and the norm is d^5 + c^5 zeta_5^k.
    """
    trace = cm.CycloElem.from_rational(25, 5 * d)
    norm = (d**5 + c**5 * cm.CycloElem.zeta(5, k)).lift(25)
    return trace, norm


def rel_failures(case, trace, norm) -> int:
    want_trace, want_norm = rel_expected(*case)
    return (trace != want_trace) + (norm != want_norm)


# -- modularity -------------------------------------------------------------


def family_ok(result) -> bool:
    """check_family of a Phi_chi^{2n} / Phi_chi^n Phi_[r;-s]^n product: modular for Gamma(n)."""
    return getattr(result, "ok", None) is True and not result.failures


def multiplier_trivial(result) -> bool:
    """A Gamma(n)-modular family has multiplier 1 on every word of Gamma(n)."""
    return result == cm.RootOfUnity.one()


def overlap_failures(action, multiplier, chi) -> int:
    """Two operations: act_phi must fix chi, and its multiplier must be gamma_multiplier's."""
    try:
        res = action.canonical()
        return (res.chi_out != chi) + (res.multiplier != multiplier)
    except AttributeError:  # act_phi raised, so both operations count as failed
        return 2


# -- verify -----------------------------------------------------------------


def verify_failures(report) -> int:
    """Checks that did not pass, counting missing checks as failed."""
    failed = sum(r.status != "pass" for r in report.records)
    return failed + max(0, VERIFY_CHECKS - len(report.records))


# -- self-tests -------------------------------------------------------------


def self_test() -> dict[str, bool]:
    results = {}

    z = np.array([[1j, 0.2], [0.2, 1.1j]])
    null, phis, n = reference_table(z, 3, reference_radius(z))
    allowed = theta_allowed(phis, null, n, 1e-12)
    program = np.array([cm.phi_eval(cm.Characteristic.from_den([0, 1], [2, 1], 3), z)])
    at = (0 * 3 + 1) * 9 + (2 * 3 + 1)  # (r, s) = ((0, 1), (2, 1)) in r-major, s-minor order
    good = theta_failures(theta_ratios(program, phis[at : at + 1], allowed[at : at + 1])) == 0
    bumped = phis.copy()
    bumped[5] += 2 * allowed[5]
    bad = theta_failures(theta_ratios(bumped, phis, allowed)) == 1
    results["theta-table-check"] = good and bad

    chi = cm.Characteristic.from_den([1, 2], [0, 1], 3)
    x1, _ = cm.standard_actors(3)
    res = cm.artin_action(x1, 3, chi)
    phase = cm.closed_phase(1, chi, 3)
    results["artin-check"] = artin_ok(res, chi, phase) and not artin_ok(
        res, chi, phase * cm.RootOfUnity(Fraction(1, 3))
    )

    coords = (1, 2, 2, 0, 0)
    norm = numeric_field_norm(coords)
    bel = cm.belong_criterion(list(coords), 7)
    results["belong-check"] = belong_ok(bel, 7, norm) and not belong_ok(bel, 7, norm + 1)

    z8 = cm.CycloElem.zeta(8)
    tower = cm.make_tower(8, cm.unit_residues(8), z8 + z8**7, z8**2)
    eps = cm.combine_trace(tower, 1, 1)
    results["towers-check"] = (
        tower_failures(tower, 1, eps, True, True) == 0
        and tower_failures(tower, 1, eps + 1, True, True) == 1
        and tower_failures(tower, 1, eps, True, False) == 1
    )
    z25 = cm.CycloElem.zeta(25)
    sub = tuple((1 + 5 * j) % 25 for j in range(5))
    trace = cm.rel_trace_norm(3 * z25 + 1, sub, "trace")
    norm25 = cm.rel_trace_norm(3 * z25 + 1, sub, "norm")
    results["rel-trace-norm-check"] = (
        rel_failures((3, 1, 1), trace, norm25) == 0 and rel_failures((3, 1, 1), trace, norm25 + z25) == 1
    )

    fam = cm.theta_product(2, [(cm.Characteristic.from_den([1, 0], [0, 0], 2), 4)])
    lopsided = cm.theta_product(2, [(cm.Characteristic.from_den([1, 0], [0, 0], 2), 2)])
    gamma = cm.special_gamma("upper", 1, 1, 2)
    results["modularity-check"] = (
        family_ok(cm.check_family(fam))
        and not family_ok(cm.check_family(lopsided))
        and multiplier_trivial(cm.gamma_multiplier(gamma, fam, 2))
        and not multiplier_trivial(cm.RootOfUnity(Fraction(1, 4)))
    )
    chi5 = cm.Characteristic.from_den([1, 2], [3, 4], 5)
    gamma50 = cm.special_gamma("mixed", 1, 2, 50)
    act, mult = cm.act_phi(gamma50, chi5, 5), cm.gamma_multiplier(gamma50, chi5, 50)
    results["overlap-check"] = (
        overlap_failures(act, mult, chi5) == 0
        and overlap_failures(act, mult * cm.RootOfUnity(Fraction(1, 5)), chi5) == 1
        and overlap_failures(None, mult, chi5) == 2
    )

    def record(status):
        return cm.harness.CheckResult("probe", "theta", status, None, None, 0.0)

    passing = cm.Report(cm.SuiteConfig(), [record("pass")] * VERIFY_CHECKS)
    one_failed = cm.Report(cm.SuiteConfig(), [record("pass")] * (VERIFY_CHECKS - 1) + [record("fail")])
    one_missing = cm.Report(cm.SuiteConfig(), [record("pass")] * (VERIFY_CHECKS - 1))
    results["verify-check"] = (
        verify_failures(passing) == 0 and verify_failures(one_failed) == 1 and verify_failures(one_missing) == 1
    )
    return results
