import pytest

from cmtheta.exact import CycloElem, unit_residues
from cmtheta.primgen import (
    AbelianTower,
    combine_norm,
    combine_trace,
    is_primitive,
    make_tower,
    stabilizer,
    subgroup_generated,
)


def surrogate_tower():
    z8 = CycloElem.zeta(8)
    return make_tower(8, unit_residues(8), z8 + z8**7, z8**2)


def test_subgroup_generated():
    assert subgroup_generated(25, [6]) == frozenset({1, 6, 11, 16, 21})
    assert subgroup_generated(8, [3]) == frozenset({1, 3})
    assert subgroup_generated(8, [3, 5]) == frozenset({1, 3, 5, 7})
    assert subgroup_generated(12, []) == frozenset({1})
    with pytest.raises(ValueError):
        subgroup_generated(8, [2])


def test_stabilizer():
    z8 = CycloElem.zeta(8)
    units = unit_residues(8)
    assert stabilizer(z8 + z8**7, units) == frozenset({1, 7})
    assert stabilizer(z8**2, units) == frozenset({1, 5})
    assert stabilizer(CycloElem.from_rational(8, 3), units) == frozenset(units)


def test_surrogate_tower_invariants():
    t = surrogate_tower()
    assert t.mid_h == frozenset({1, 7})
    assert t.fixer_l == frozenset({1})
    assert t.ell == 2
    assert t.degree == 4
    # Tr_{L/K(x)}(y) = i + sigma_7(i) = 0 and N(3y + 1) = (3i+1)(-3i+1) = 10
    assert t.trace_mid(t.y).is_zero()
    assert t.norm_mid(3 * t.y + 1) == CycloElem.from_rational(8, 10)


def test_surrogate_trace_combinator():
    t = surrogate_tower()
    eps = combine_trace(t, 1, 1)
    assert eps == t.x + 2 * t.y  # the relative trace of y vanishes here
    assert is_primitive(eps, t)
    assert not is_primitive(t.x, t)
    assert not is_primitive(t.y, t)
    # the combinator's own relative trace collapses to a x ell
    assert t.trace_mid(eps) == 2 * t.x


def test_surrogate_norm_combinator():
    t = surrogate_tower()
    eps = combine_norm(t, 3, 1, 3, 1)
    assert eps == (3 * t.x + 1) * (3 * t.y + 1) ** -2 * 10
    assert is_primitive(eps, t)
    assert is_primitive(combine_norm(t, 3, 1, 3, 1, n=2, m=1), t)


def test_combine_trace_validation():
    t = surrogate_tower()
    with pytest.raises(ValueError):
        combine_trace(t, 0, 1)
    with pytest.raises(ValueError):
        combine_trace(t, 1, CycloElem.zeta(8))  # not fixed by the base group


def test_combine_norm_validation():
    t = surrogate_tower()
    with pytest.raises(ValueError):
        combine_norm(t, 2, 1, 3, 1)  # needs 2 < |a/b|
    with pytest.raises(ValueError):
        combine_norm(t, 3, 1, 2, 1)
    with pytest.raises(ValueError):
        combine_norm(t, 3, 1, 3, 1, n=0)
    z8 = CycloElem.zeta(8)
    frac = make_tower(8, unit_residues(8), (z8 + z8**7) / 2, z8**2)
    with pytest.raises(ValueError):
        combine_norm(frac, 3, 1, 3, 1)  # x must be integral


def test_tower_membership_guard():
    z8 = CycloElem.zeta(8)
    # base field Q(zeta8 + zeta8^7); x rational makes mid_h the whole base group
    t = make_tower(8, unit_residues(8), CycloElem.from_rational(8, 1), z8**2)
    assert t.mid_h == frozenset({1, 3, 5, 7})
    assert t.fixer_l == frozenset({1, 5})
    assert t.ell == 2 and t.degree == 2
    with pytest.raises(ValueError):
        t.trace_mid(z8)  # zeta8 is not fixed by fixer_l, hence not in L
    with pytest.raises(ValueError):
        t.norm_mid(z8)


def test_tower_membership_guard_survives_optimize_flag(optimized):
    # trace_mid and norm_mid of zeta_8, which is not in L = Q(i)
    assert optimized["tower_membership"] == ["ValueError", "ValueError"]


def test_make_tower_lifts_inputs():
    # x given in Q(zeta4) is lifted into the conductor-8 order
    t = make_tower(8, [1, 3, 5, 7], CycloElem.zeta(4), CycloElem.zeta(8))
    assert t.x.n == 8
    assert t.x == CycloElem.zeta(8) ** 2
    assert t.degree == 4


def test_make_tower_reduces_a_frozenset_base_group():
    z8 = CycloElem.zeta(8)
    x, y = z8 + z8**7, z8**2
    frozen = make_tower(8, frozenset({1, 3, 5, 7, 9}), x, y)
    plain = make_tower(8, {1, 3, 5, 7, 9}, x, y)
    assert frozen == plain and frozen.base_h == frozenset(unit_residues(8))
    assert (frozen.degree, frozen.ell) == (plain.degree, plain.ell) == (4, 2)
    assert combine_trace(frozen, 1, 1) == combine_trace(plain, 1, 1)
    assert combine_norm(frozen, 3, 1, 3, 1) == combine_norm(plain, 3, 1, 3, 1)


def test_degenerate_relative_degree():
    # ell = 1: the y-part of the trace combinator vanishes identically
    z8 = CycloElem.zeta(8)
    t = make_tower(8, {1, 7}, z8**2, z8**2)
    assert t.ell == 1 and t.degree == 2
    a = z8 + z8**7  # lies in the base field
    eps = combine_trace(t, a, 1)
    assert eps == a * t.x
    assert is_primitive(eps, t)


def test_conductor_25_tower():
    z25 = CycloElem.zeta(25)
    t = make_tower(25, unit_residues(25), z25**5, z25)
    assert t.mid_h == subgroup_generated(25, [6])
    assert t.ell == 5 and t.degree == 20
    assert t.trace_mid(t.y).is_zero()
    assert t.norm_mid(3 * t.y + 1) == 1 + 243 * z25**5
    eps = combine_trace(t, 1, 1)
    assert eps == t.x + 5 * t.y
    assert is_primitive(eps, t)


def test_tower_validates_inputs():
    z8 = CycloElem.zeta(8)
    with pytest.raises(ValueError):
        AbelianTower(8, frozenset({1, 3}), CycloElem.zeta(4), z8)  # x not lifted
    with pytest.raises(ValueError):
        AbelianTower(8, frozenset({1, 2}), z8, z8)  # 2 is not a unit
    with pytest.raises(ValueError):
        AbelianTower(8, frozenset({1, 3, 5, 7, 9}), z8 + z8**7, z8**2)  # 9 is not reduced mod 8
