import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import cmtheta

from cmtheta.exact import RootOfUnity
from cmtheta.symplectic import SiegelPoint
from cmtheta.theta import (
    Characteristic,
    EvalSettings,
    all_characteristics,
    phi_eval,
    random_siegel,
    reduce_char,
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
    assert abs(theta_eval(0.0, tau, zero_char(1)) - float(mp.jtheta(3, 0, q))) < 1e-14
    chi = Characteristic.make([F(1, 2)], [0])
    assert abs(theta_eval(0.0, tau, chi) - float(mp.jtheta(2, 0, q))) < 1e-14
    # nonzero argument: Theta(u, tau; 0, 0) = jtheta(3, pi u, q)
    got = theta_eval(np.array([0.3]), tau, zero_char(1))
    assert abs(got - float(mp.jtheta(3, mp.pi * mp.mpf("0.3"), q))) < 1e-14


def test_truncation_tail_is_sound():
    # enlarging the lattice radius beyond the certified one must not move the value
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = random_siegel(rng)
        chi = Characteristic.make([F(1, 3), F(2, 3)], [F(1, 3), 0])
        base = theta_eval(0.0, z, chi)
        fat = theta_eval(0.0, z, chi, radius=25)
        assert abs(base - fat) < 1e-12


def test_sign_symmetry():
    rng = np.random.default_rng(3)
    z = random_siegel(rng)
    u = rng.uniform(-0.4, 0.4, 2) + 1j * rng.uniform(-0.2, 0.2, 2)
    chi = Characteristic.make([F(1, 5), F(3, 5)], [F(2, 5), F(4, 5)])
    neg = chi.neg()
    assert abs(theta_eval(-u, z, neg) - theta_eval(u, z, chi)) < 1e-12


def test_translation_by_integers():
    rng = np.random.default_rng(4)
    z = random_siegel(rng)
    chi = Characteristic.make([F(1, 4), F(3, 4)], [F(1, 2), F(1, 4)])
    shifted = Characteristic.make([F(1, 4) + 2, F(3, 4) - 1], [F(1, 2) + 1, F(1, 4) + 3])
    reduced, phase = shifted.reduce()
    assert reduced == chi
    lhs = theta_eval(0.0, z, shifted)
    rhs = phase.value() * theta_eval(0.0, z, chi)
    assert abs(lhs - rhs) < 1e-12


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
            assert abs(theta_eval(0.0, z, chi)) < 1e-12


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
    assert chi.column() == [F(1, 2), F(0), F(0), F(1, 2)]
    assert Characteristic.from_den((1, 0), (0, 1), 2) == chi
    assert chi.neg().reduce()[0] == chi  # 2-torsion


def test_reduce_char_normal_form():
    chi = Characteristic.make([F(1, 3) + 1, F(2, 3)], [F(5, 3), F(-1, 3)])
    out = reduce_char(chi, 3, 3)  # power divisible by m: s matters only mod 1
    assert out == Characteristic.make([F(1, 3), F(2, 3)], [F(2, 3), F(2, 3)])
    out = reduce_char(chi, 2, 3)  # gcd(2, 3) = 1: s matters mod 3
    assert out == Characteristic.make([F(1, 3), F(2, 3)], [F(5, 3), F(8, 3)])
    with pytest.raises(ValueError):
        reduce_char(Characteristic.make([F(1, 2), 0], [0, 0]), 2, 3)


def test_phi_eval_guard_and_consistency():
    rng = np.random.default_rng(12)
    z = random_siegel(rng)
    chi = Characteristic.make([F(1, 4), 0], [0, F(1, 4)])
    null = theta_null(z)
    direct = phi_eval(chi, z)
    assert abs(direct - theta_eval(0.0, z, chi) / null) < 1e-13
    assert abs(phi_eval(chi, z, null_value=null) - direct) < 1e-15
    with pytest.raises(ValueError):
        phi_eval(chi, z, null_value=1e-12)


def test_settings_tolerance_tightens_radius():
    z = SiegelPoint(np.eye(2) * 0.15j)
    chi = zero_char(2)
    loose = theta_eval(0.0, z, chi, settings=EvalSettings(tol=1e-6))
    tight = theta_eval(0.0, z, chi, settings=EvalSettings(tol=1e-14))
    assert abs(loose - tight) < 1e-6


def test_small_imaginary_part_rejected():
    z = SiegelPoint(np.eye(2) * 1e-7j)
    with pytest.raises(ValueError):
        theta_eval(0.0, z, zero_char(2), settings=EvalSettings(tol=1e-12, max_radius=50))


def test_random_siegel_is_valid():
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = random_siegel(rng)
        assert isinstance(z, SiegelPoint)
        assert z.min_im_eig > 0
        assert np.allclose(z.mat, z.mat.T)


def test_scalar_and_vector_u_agree():
    rng = np.random.default_rng(6)
    z = random_siegel(rng)
    chi = Characteristic.make([F(1, 3), 0], [0, F(1, 3)])
    assert theta_eval(0.0, z, chi) == theta_eval(np.zeros(2), z, chi)


def test_reduce_char_validation_survives_optimize_flag():
    code = (
        "from fractions import Fraction\n"
        "from cmtheta.cmfield import field_norm\n"
        "from cmtheta.exact import CycloElem\n"
        "from cmtheta.theta import Characteristic, reduce_char\n"
        "for call in (lambda: field_norm(CycloElem.zeta(7)),\n"
        "             lambda: reduce_char(Characteristic.make([Fraction(1, 2), 0], [0, 0]), 2, 3)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cmtheta.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


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
    if all((n * v).denominator == 1 for v in chi.column()):
        assert chi.scaled(n) == [int(n * v) for v in chi.column()]
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
