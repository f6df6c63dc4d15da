from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from cmtheta.action import ActionResult, _transpose_apply, act_iota_inv, act_phi, act_power_family
from cmtheta.exact import RootOfUnity
from cmtheta.modularity import gamma_multiplier
from cmtheta.symplectic import g_group_multiplier, identity, intmat, iota, jmat, special_gamma, sympl_multiplier
from cmtheta.theta import Characteristic


def test_iota_inv_scales_s():
    chi = Characteristic.from_den((1, 0), (1, 3), 8)
    out = act_iota_inv(3, chi)
    assert out == Characteristic.make(chi.r, [F(3, 8), F(1, 8)])
    assert act_iota_inv(1, chi) == chi


def test_iota_inv_is_multiplicative():
    chi = Characteristic.from_den((2, 1), (3, 5), 12)
    assert act_iota_inv(5, act_iota_inv(7, chi)) == act_iota_inv(35, chi)


def test_power_family_iota():
    chi = Characteristic.from_den((1, 0), (1, 3), 16)
    # iota(3) is diag(1, 1, 11, 11) mod 16, and transposing leaves it diagonal
    out = act_power_family(iota(3, 2, modulus=16), chi, 16)
    assert out == act_iota_inv(11, chi)


def test_power_family_congruence_elements_fix_chi():
    chi = Characteristic.from_den((1, 0), (0, 3), 4)
    for kind in ("upper", "lower", "mixed"):
        gamma = special_gamma(kind, 1, 2, 4)
        assert act_power_family(gamma, chi, 4) == chi


def test_power_family_factor_order():
    # chi -> t(alpha) chi makes composition read left to right:
    # act(f1 f2) = act(f2) o act(f1)
    chi = Characteristic.from_den((1, 2), (3, 0), 4)
    f1 = iota(3, 2, modulus=4)
    f2 = jmat(2)
    lhs = act_power_family(f1 @ f2, chi, 4)
    rhs = act_power_family(f2, act_power_family(f1, chi, 4), 4)
    assert lhs == rhs
    lhs2 = act_power_family(f2 @ f1, chi, 4)
    rhs2 = act_power_family(f1, act_power_family(f2, chi, 4), 4)
    assert lhs2 == rhs2


def test_power_family_validation():
    chi = Characteristic.from_den((1, 0), (0, 3), 4)
    with pytest.raises(ValueError):
        act_power_family(intmat(np.diag([1, 1, 2, 2])), chi, 4)  # nu = 2 is no unit
    with pytest.raises(ValueError):
        act_power_family(identity(4), chi, 3)  # level must be even
    with pytest.raises(ValueError):
        act_power_family(identity(4), Characteristic.from_den((1, 0), (0, 1), 3), 4)


def test_act_phi_identity():
    chi = Characteristic.from_den((1, 2), (2, 1), 3)
    res = act_phi(identity(4), chi, 3)
    assert res.multiplier == RootOfUnity.one()
    assert res.chi_out == chi


def test_act_phi_under_j():
    # worked example: t(J) swaps the rows up to sign, a = nu(J) = 1, so the
    # exponent is (<r,s> - <s,-r>)/2 = <r,s> = 4/9
    chi = Characteristic.make([F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)])
    res = act_phi(jmat(2), chi, 3)
    assert res.multiplier == RootOfUnity(F(4, 9))
    assert res.chi_out == Characteristic.make([F(2, 3), F(1, 3)], [F(-1, 3), F(-2, 3)])
    can = res.canonical()
    assert can.multiplier == RootOfUnity(F(4, 9))  # reduction phase e(-1) is trivial
    assert can.chi_out == Characteristic.make([F(2, 3), F(1, 3)], [F(2, 3), F(1, 3)])


def test_act_phi_congruence_overlap():
    # gamma = I mod 2m^2 acts trivially on the characteristic and the
    # multiplier agrees exactly with the modularity-side computation
    m = 3
    level = 2 * m * m
    chi = Characteristic.from_den((1, 2), (2, 0), m)
    for kind in ("upper", "lower", "mixed"):
        gamma = special_gamma(kind, 1, 2, level)
        res = act_phi(gamma, chi, m).canonical()
        assert res.chi_out == chi
        assert res.multiplier == gamma_multiplier(gamma, chi, level)


def fraction_transpose_apply(alpha, chi):
    """t(alpha) [r; s] in Fraction arithmetic, as first written: the reference."""
    col = chi.r + chi.s
    at = intmat(alpha).T
    g = chi.g
    out = [sum((F(int(at[i, j])) * col[j] for j in range(2 * g)), F(0)) for i in range(2 * g)]
    return Characteristic.make(out[:g], out[g:])


@hsettings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=16, max_size=16),
    st.lists(st.integers(-40, 40), min_size=4, max_size=4),
    st.integers(1, 15),
)
def test_transpose_apply_matches_fraction_reference(entries, nums, den):
    alpha = intmat(np.array(entries, dtype=object).reshape(4, 4))
    chi = Characteristic.from_den(nums[:2], nums[2:], den)
    assert _transpose_apply(alpha, chi) == fraction_transpose_apply(alpha, chi)


def fraction_act_phi(alpha, chi, m):
    """act_phi with the transpose taken in Fraction arithmetic, as first written: the reference."""
    moved = fraction_transpose_apply(alpha, chi)
    a = sympl_multiplier(alpha, modulus=2 * m * m)
    before = sum((rv * a * sv for rv, sv in zip(chi.r, chi.s)), F(0))
    after = sum((rv * sv for rv, sv in zip(moved.r, moved.s)), F(0))
    return ActionResult(RootOfUnity((before - after) / 2), moved)


def test_act_phi_matches_fraction_transpose():
    rng = np.random.default_rng(73)
    kinds = ("upper", "lower", "mixed")
    for m in (3, 5, 7):
        level = 2 * m * m
        for _ in range(10):
            alpha = identity(4)
            for _ in range(int(rng.integers(1, 5))):
                pick = int(rng.integers(0, 3))
                if pick == 0:
                    alpha = alpha @ jmat(2)
                elif pick == 1:
                    alpha = alpha @ iota(int(rng.choice([u for u in range(1, level) if u % 2 and u % m])), 2, level)
                else:
                    alpha = alpha @ special_gamma(kinds[rng.integers(0, 3)], int(rng.integers(1, 3)), int(rng.integers(1, 3)), 2)
            alpha = alpha % level
            assert g_group_multiplier(alpha, level) is not None
            chi = Characteristic.from_den(rng.integers(-m, 2 * m, 2).tolist(), rng.integers(-m, 2 * m, 2).tolist(), m)
            assert act_phi(alpha, chi, m) == fraction_act_phi(alpha, chi, m)


def test_act_phi_validation():
    chi = Characteristic.from_den((1, 0), (0, 1), 3)
    with pytest.raises(ValueError):
        act_phi(identity(4), chi, 4)  # even denominator
    with pytest.raises(ValueError):
        act_phi(intmat(np.diag([1, 1, 3, 3])), chi, 3)  # nu = 3 not a unit mod 18
    with pytest.raises(ValueError):
        act_phi(identity(4), Characteristic.from_den((1, 0), (0, 1), 2), 3)


def test_canonical_folds_translation_phase():
    chi = Characteristic.make([F(1, 4), 0], [F(5, 4), F(1, 2)])
    res = ActionResult(RootOfUnity(F(1, 3)), chi).canonical()
    assert res.chi_out == Characteristic.make([F(1, 4), 0], [F(1, 4), F(1, 2)])
    assert res.multiplier == RootOfUnity(F(1, 3) + F(1, 4))  # e(<(1/4,0),(1,0)>) folded in
