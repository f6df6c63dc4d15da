import math
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from cmtheta import theta
from cmtheta.cmfield import build_context
from cmtheta.exact import RootOfUnity
from cmtheta.symplectic import SiegelPoint
from cmtheta.theta import (
    Characteristic,
    EvalSettings,
    all_characteristics,
    phi_eval,
    random_siegel,
    theta_eval,
    theta_null,
    zero_char,
)


def test_null_value_at_i_identity():
    # theta(0, iI_2; 0, 0) = (pi^{1/4} / Gamma(3/4))^2, computed independently
    mp.mp.dps = 30
    expected = float((mp.pi ** mp.mpf("0.25") / mp.gamma(mp.mpf(3) / 4)) ** 2)
    got = theta_null(np.eye(2) * 1j)
    assert abs(got - expected) < 1e-13


def test_genus_one_against_mpmath():
    mp.mp.dps = 30
    tau = np.array([[1j]])
    q = mp.exp(-mp.pi)
    assert abs(theta_eval(tau, zero_char(1)) - float(mp.jtheta(3, 0, q))) < 1e-14
    chi = Characteristic.make([F(1, 2)], [0])
    assert abs(theta_eval(tau, chi) - float(mp.jtheta(2, 0, q))) < 1e-14
    # nonzero s: Theta(tau; 0, 1/2) = jtheta(4, 0, q) and Theta(tau; 1/2, 1/2) = jtheta(1, 0, q) = 0
    assert abs(theta_eval(tau, Characteristic.make([0], [F(1, 2)])) - float(mp.jtheta(4, 0, q))) < 1e-14
    assert abs(theta_eval(tau, Characteristic.make([F(1, 2)], [F(1, 2)])) - float(mp.jtheta(1, 0, q))) < 1e-14


def test_truncation_tail_is_sound():
    # the same point's certified cut at tol 1e-30 is a strictly wider sum; it must not move the value
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = random_siegel(rng)
        chi = Characteristic.make([F(1, 3), F(2, 3)], [F(1, 3), 0])
        base = theta_eval(z, chi)
        fat = theta_eval(z, chi, EvalSettings(1e-30))
        assert abs(base - fat) < 1e-12


def wide_sum_error(z, chi, tol=1e-12):
    """|certified sum at tol - the same point's certified sum at 1e-30|, as in test_truncation_tail_is_sound.

    This checks truncation only: both sums share t and const, so an error in
    either moves both alike.  test_summation_paths_agree compares the two
    summation paths.
    """
    certified = theta_eval(z, chi, EvalSettings(tol))
    wide = theta_eval(z, chi, EvalSettings(1e-30))
    assert all(cut.factor is not None for cut in z._theta_cuts.values())
    return abs(certified - wide)


def test_truncation_with_non_canonical_characteristics():
    rng = np.random.default_rng(22)
    z = random_siegel(rng)
    for nums in ([-7, 11, 13, -5], [9, -1, -6, 14], [-3, -3, 5, 7]):
        chi = Characteristic.from_den(nums[:2], nums[2:], 4)
        assert not chi.is_canonical()
        assert wide_sum_error(z, chi) < 1e-12


def test_truncation_in_genus_three():
    rng = np.random.default_rng(23)
    z = random_siegel(rng, 3)
    chi = Characteristic.make([F(1, 3), 0, F(2, 3)], [0, F(1, 3), F(1, 3)])
    assert wide_sum_error(z, chi) < 1e-12


def test_truncation_geometry_is_kept_per_tolerance():
    # a cut kept per point only would serve the 1e-14 call from the 1e-6 one
    z = random_siegel(np.random.default_rng(24), base=0.1)
    chi = Characteristic.make([F(1, 4), F(3, 4)], [F(1, 2), 0])
    assert wide_sum_error(z, chi, tol=1e-6) > 1e-14
    assert wide_sum_error(z, chi, tol=1e-14) < 1e-14


def test_one_cut_per_point_and_tolerance(monkeypatch):
    # a theta table at one point builds its cut once; each new tolerance builds one more, a seen one none
    built = []
    certified = theta._certified
    monkeypatch.setattr(theta, "_certified", lambda zp, tol: built.append(tol) or certified(zp, tol))
    z = random_siegel(np.random.default_rng(32))
    theta_null(z)
    for chi in all_characteristics(3, 2):
        phi_eval(chi, z)
    assert built == [1e-12]
    loose = EvalSettings(1e-6)
    theta_null(z, loose)
    theta_eval(z, zero_char(2))
    phi_eval(zero_char(2), z, loose)
    assert built == [1e-12, 1e-6]
    assert set(z._theta_cuts) == {1e-12, 1e-6}


def test_understated_tail_fails_the_comparison(monkeypatch):
    # the comparisons above can fail: with a tail bound 1e-12 too small the cut is too short
    tail_bound = theta._tail_bound
    monkeypatch.setattr(theta, "_tail_bound", lambda big_r, rho, g: tail_bound(big_r, rho, g) * 1e-12)
    z = random_siegel(np.random.default_rng(7))
    chi = Characteristic.make([F(1, 3), F(2, 3)], [F(1, 3), 0])
    assert wide_sum_error(z, chi) > 1e-12


def test_summation_paths_agree(monkeypatch):
    # with no exponent range left the guard sends every cut term by term; both paths give the same sum
    rng = np.random.default_rng(31)
    chi2 = Characteristic.make([F(1, 3), F(2, 3)], [F(1, 5), 0])
    chi3 = Characteristic.make([F(1, 3), 0, F(2, 3)], [0, F(1, 3), F(1, 3)])
    cases = [(random_siegel(rng), chi2), (random_siegel(rng, base=0.1), chi2), (random_siegel(rng, 3), chi3)]
    factored = [theta_eval(z, chi) for z, chi in cases]
    assert all(cut.factor is not None for z, _ in cases for cut in z._theta_cuts.values())
    monkeypatch.setattr(theta, "_EXP_RANGE", 0)
    for (z, chi), want in zip(cases, factored):
        fresh = SiegelPoint(z.mat)
        got = theta_eval(fresh, chi)
        assert all(cut.factor is None for cut in fresh._theta_cuts.values())
        assert abs(got - want) < 1e-14 * abs(want)  # rounding scales with |Theta|, here up to 1.8


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_tail_bound_closed_form_matches_quadrature(g):
    mp.mp.dps = 30
    for big_r, rho in ((6.5, 1.2), (3.0, 0.4), (0.9, 0.9)):
        h = mp.mpf(rho) / 2
        integral = mp.quad(lambda t: mp.exp(-((t - h) ** 2)) * t ** (g - 1), [big_r - h, mp.inf])
        expect = g * (2 / mp.mpf(rho)) ** g * integral
        assert abs(theta._tail_bound(big_r, rho, g) / float(expect) - 1) < 1e-12


def test_certified_cut_meets_its_budget():
    z = random_siegel(np.random.default_rng(25))
    theta_eval(z, zero_char(2))
    cut = z._theta_cuts[1e-12]
    assert cut.tail <= 0.5e-12 and cut.rounding <= 0.5e-12
    # bisected to 1/32: a slightly shorter radius would miss the budget
    assert theta._tail_bound(cut.radius - 1 / 32, math.sqrt(math.pi * z.min_im_eig), 2) > 0.5e-12


def test_well_conditioned_cuts_are_factored():
    zs = [build_context().z0, random_siegel(np.random.default_rng(26)), random_siegel(np.random.default_rng(27), 3)]
    for z in zs:
        theta_null(z)
        cut = z._theta_cuts[1e-12]
        assert cut.factor is not None and cut.points is None
        assert cut.factor.shape == tuple(len(axis) for axis in cut.axes)
        assert 0 < np.count_nonzero(cut.factor) < cut.factor.size


def test_factored_sum_within_tail_plus_rounding():
    # against a 30-digit sum: the error stays below the cut's tail + rounding, also where that exceeds tol/2
    mp.mp.dps = 30
    points = (random_siegel(np.random.default_rng(28)), random_siegel(np.random.default_rng(29), base=0.05))
    for z, reach in zip(points, (7, 18)):
        zm = mp.matrix(z.mat.tolist())
        for chi in (zero_char(2), Characteristic.make([F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)])):
            got = theta_eval(z, chi)
            r0, r1, s0, s1 = (mp.mpf(v.numerator) / v.denominator for v in chi.r + chi.s)
            want = mp.mpf(0)
            for x in np.ndindex(2 * reach + 1, 2 * reach + 1):
                v = [x[0] - reach + r0, x[1] - reach + r1]
                quad = sum(v[j] * zm[j, k] * v[k] for j in range(2) for k in range(2))
                want += mp.exp(1j * mp.pi * quad + 2j * mp.pi * (v[0] * s0 + v[1] * s1))
            cut = z._theta_cuts[1e-12]
            assert cut.factor is not None
            assert abs(got - complex(want)) <= cut.tail + cut.rounding


def direct_sum(z, chi, radius):
    """Theta(0, Z; r, s) summed term by term over |x_j| <= radius, the reference."""
    g = chi.g
    r, s = np.array(chi.r, dtype=float), np.array(chi.s, dtype=float)
    v = np.indices((2 * radius + 1,) * g).reshape(g, -1).T - radius + r
    return complex(np.exp(1j * np.pi * np.einsum("ij,jk,ik->i", v, z, v) + 2j * np.pi * (v @ s)).sum())


@pytest.mark.parametrize(
    "z",
    [300j * np.eye(2) + 0.25, np.array([[0.3 + 250j, -0.1 + 120j], [-0.1 + 120j, 0.2 + 260j]])],
)
def test_range_guard_keeps_large_imaginary_parts_finite(z):
    # here the factors exp(2 pi i y_j t_j) would overflow (|y_j| = 2, sum_l |Im Z_jl| >= 300): term by term instead
    zp = SiegelPoint(z)
    for chi in all_characteristics(3, 2):
        got = theta_eval(zp, chi)
        want = direct_sum(z, chi, 3)
        assert np.isfinite(got)
        assert abs(got - want) <= 1e-11 * abs(want)  # exponents near -100 leave about 100 eps
    assert zp._theta_cuts[1e-12].factor is None


def test_sign_symmetry():
    rng = np.random.default_rng(3)
    z = random_siegel(rng)
    chi = Characteristic.make([F(1, 5), F(3, 5)], [F(2, 5), F(4, 5)])
    neg = chi.neg()
    assert abs(theta_eval(z, neg) - theta_eval(z, chi)) < 1e-12


def test_translation_by_integers():
    rng = np.random.default_rng(4)
    z = random_siegel(rng)
    chi = Characteristic.make([F(1, 4), F(3, 4)], [F(1, 2), F(1, 4)])
    shifted = Characteristic.make([F(1, 4) + 2, F(3, 4) - 1], [F(1, 2) + 1, F(1, 4) + 3])
    reduced, phase = shifted.reduce()
    assert reduced == chi
    lhs = theta_eval(z, shifted)
    rhs = phase.value() * theta_eval(z, chi)
    assert abs(lhs - rhs) < 1e-12


def test_s_too_large_for_a_float_is_a_value_error():
    # theta_eval sums [r; s] as given, so an s past the float range is refused, not an OverflowError
    chi = Characteristic.make([0, 0], [10**400, 0])
    with pytest.raises(ValueError, match="s entry too large for a float"):
        theta_eval(np.eye(2) * 1j, chi)


def test_reduce_phase_value():
    chi = Characteristic.make([F(1, 4) + 1, F(3, 4)], [F(1, 2), F(1, 4)])
    reduced, phase = chi.reduce()
    # only r was shifted, so the phase <r_red, b> has b = 0
    assert phase == RootOfUnity.one()
    chi2 = Characteristic.make([F(1, 4), F(3, 4)], [F(1, 2) + 1, F(1, 4)])
    reduced2, phase2 = chi2.reduce()
    assert reduced2 == reduced
    assert phase2 == RootOfUnity(F(1, 4))  # e(<(1/4, 3/4), (1, 0)>)


def test_sigma_minus_classification():
    odd = [chi for chi in all_characteristics(2, 2) if chi.in_sigma_minus()]
    assert len(odd) == 6
    assert Characteristic.make([F(1, 2), 0], [F(1, 2), 0]).in_sigma_minus()
    assert not zero_char(2).in_sigma_minus()
    assert not Characteristic.make([F(1, 2), 0], [0, F(1, 2)]).in_sigma_minus()
    # non-half-integral characteristics never qualify
    assert not Characteristic.make([F(1, 3), 0], [F(1, 3), 0]).in_sigma_minus()


def test_sigma_minus_nulls_vanish():
    rng = np.random.default_rng(9)
    z = random_siegel(rng)
    for chi in all_characteristics(2, 2):
        if chi.in_sigma_minus():
            assert abs(theta_eval(z, chi)) < 1e-12


def test_all_characteristics_counts():
    assert len(list(all_characteristics(2, 2))) == 16
    assert len(list(all_characteristics(3, 2))) == 81
    chars = list(all_characteristics(2, 1))
    assert len(chars) == 4
    assert all(chi.is_canonical() for chi in chars)


def test_characteristic_api():
    chi = Characteristic.make([F(1, 2), 0], [0, F(1, 2)])
    assert chi.g == 2 and chi.den == 2
    assert str(chi) == "[1/2 0; 0 1/2]"
    assert chi.r + chi.s == (F(1, 2), F(0), F(0), F(1, 2))
    assert Characteristic.from_den((1, 0), (0, 1), 2) == chi
    assert chi.neg().reduce()[0] == chi  # 2-torsion


def test_phi_eval_guard_and_consistency():
    rng = np.random.default_rng(12)
    z = random_siegel(rng)
    chi = Characteristic.make([F(1, 4), 0], [0, F(1, 4)])
    null = theta_null(z)
    direct = phi_eval(chi, z)
    assert abs(direct - theta_eval(z, chi) / null) < 1e-13
    assert abs(phi_eval(chi, z, null_value=null) - direct) < 1e-15
    with pytest.raises(ValueError):
        phi_eval(chi, z, null_value=1e-12)


def test_settings_tolerance_tightens_radius():
    z = SiegelPoint(np.eye(2) * 0.15j)
    chi = zero_char(2)
    loose = theta_eval(z, chi, settings=EvalSettings(tol=1e-6))
    tight = theta_eval(z, chi, settings=EvalSettings(tol=1e-14))
    assert abs(loose - tight) < 1e-6


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_settings_reject_tolerances_that_are_not_positive_finite(tol):
    with pytest.raises(ValueError, match="positive finite"):
        EvalSettings(tol=tol)


def test_small_imaginary_part_rejected():
    z = SiegelPoint(np.eye(2) * 1e-7j)  # needs a truncation radius far beyond MAX_RADIUS = 200
    with pytest.raises(ValueError, match="truncation radius exceeds 200"):
        theta_eval(z, zero_char(2), settings=EvalSettings(tol=1e-12))


def test_random_siegel_is_valid():
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = random_siegel(rng)
        assert isinstance(z, SiegelPoint)
        assert z.min_im_eig > 0
        assert np.allclose(z.mat, z.mat.T)


# -- the integer representation against the Fraction definitions -------------


def fraction_reduce(chi):
    """Characteristic.reduce on Fraction rows, as first written: the reference."""
    r_red = [v % 1 for v in chi.r]
    s_red = [v % 1 for v in chi.s]
    b = [v - w for v, w in zip(chi.s, s_red)]
    phase = sum((rv * bv for rv, bv in zip(r_red, b)), F(0))
    return Characteristic.make(r_red, s_red), RootOfUnity(phase)


def fraction_in_sigma_minus(chi):
    """Characteristic.in_sigma_minus on Fraction rows, as first written: the reference."""
    two_r = [2 * v for v in chi.r]
    two_s = [2 * v for v in chi.s]
    if any(v.denominator != 1 for v in two_r + two_s):
        return False
    return sum(int(a) * int(b) for a, b in zip(two_r, two_s)) % 2 == 1


raw_chars = st.integers(1, 3).flatmap(
    lambda g: st.tuples(
        st.lists(st.integers(-30, 30), min_size=g, max_size=g),
        st.lists(st.integers(-30, 30), min_size=g, max_size=g),
        st.integers(1, 12),
    )
)


@hsettings(max_examples=80, deadline=None)
@given(raw_chars)
def test_from_den_matches_make_and_round_trips(raw):
    rn, sn, den = raw
    chi = Characteristic.from_den(rn, sn, den)
    r, s = tuple(F(v, den) for v in rn), tuple(F(v, den) for v in sn)
    assert chi == Characteristic.make(r, s)
    assert hash(chi) == hash(Characteristic.make(r, s))
    assert chi.r == r and chi.s == s
    assert Characteristic.make(chi.r, chi.s) == chi
    assert all(type(v) is int for v in chi.num) and chi.den > 0
    assert np.gcd.reduce([chi.den, *chi.num]) == 1
    assert chi.den == np.lcm.reduce([v.denominator for v in r + s])


@hsettings(max_examples=80, deadline=None)
@given(raw_chars)
def test_reduce_matches_fraction_reference(raw):
    chi = Characteristic.from_den(*raw)
    assert chi.reduce() == fraction_reduce(chi)
    assert chi.in_sigma_minus() == fraction_in_sigma_minus(chi)
    assert chi.reduce()[0].is_canonical()
    assert chi.neg() == Characteristic.make([-v for v in chi.r], [-v for v in chi.s])


@hsettings(max_examples=80, deadline=None)
@given(raw_chars, st.integers(1, 24))
def test_scaled_raises_exactly_off_the_lattice(raw, n):
    chi = Characteristic.from_den(*raw)
    if all((n * v).denominator == 1 for v in chi.r + chi.s):
        assert chi.scaled(n) == [int(n * v) for v in chi.r + chi.s]
    else:
        with pytest.raises(ValueError):
            chi.scaled(n)


def test_unreduced_numerators_normalise():
    chi = Characteristic.from_den([2, 0], [0, 0], 4)
    assert chi == Characteristic.make([F(1, 2), 0], [0, 0])
    assert hash(chi) == hash(Characteristic.make([F(1, 2), 0], [0, 0]))
    assert (chi.num, chi.den) == ((1, 0, 0, 0), 2)
    assert Characteristic.from_den([3, 6], [9, 0], 3) == Characteristic((1, 2, 3, 0), 1)
    assert Characteristic.from_den([3, 6], [9, 0], 3).reduce()[0] == zero_char(2)
    with pytest.raises(ValueError):
        Characteristic.from_den([1, 0], [0, 0], 0)
    with pytest.raises(ValueError):
        Characteristic.from_den([1, 0], [0, 0], -2)
    with pytest.raises(ValueError):
        Characteristic.from_den([1, 0], [0], 2)
    with pytest.raises(ValueError):
        Characteristic.make([F(1, 2)], [0, 0])


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("g", [1, 2])
def test_sigma_minus_matches_fraction_reference(n, g):
    chars = list(all_characteristics(n, g))
    assert len(set(chars)) == n ** (2 * g)
    assert [chi.in_sigma_minus() for chi in chars] == [fraction_in_sigma_minus(chi) for chi in chars]
