import random
from fractions import Fraction

import pytest

from cmtheta.exact import CycloElem, orbit_sum, unit_residues
from cmtheta.primgen import (
    AbelianTower,
    combine_norm,
    combine_trace,
    is_primitive,
    make_tower,
    stabilizer,
    subgroup_generated,
)

from reference import reference_norm, reference_stabilizer


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
    assert stabilizer(z8 + z8**7, (1, 7, 9, 15)) == frozenset({1, 7})  # 9 = 1 and 15 = 7 mod 8


@pytest.mark.parametrize("n", [8, 12, 15, 16, 20, 24, 25])
def test_stabilizer_matches_definition(n):
    rng = random.Random(n)
    units = unit_residues(n)
    elems = [CycloElem.from_rational(n, 0), CycloElem.from_rational(n, Fraction(-3, 7))]
    for _ in range(8):
        sub = subgroup_generated(n, rng.sample(units, rng.randint(0, 2)))
        elems.append(orbit_sum(CycloElem.zeta(n, rng.randrange(1, n)), sub) + rng.randint(-2, 2))
    withins = [
        units,
        subgroup_generated(n, [rng.choice(units)]),
        rng.sample(units, len(units) // 2),  # not a subgroup in general
        [t + n for t in units],  # unreduced residues come back reduced mod n
        rng.sample(units, len(units)),
    ]
    for a in elems:
        for within in withins:
            assert stabilizer(a, within) == reference_stabilizer(a, within)


def test_stabilizer_skips_residues_known_to_move(monkeypatch):
    # a = zeta_15 + zeta_15^4 is fixed by {1, 4}.  sigma_2 moves a, and once sigma_4 fixes it,
    # 8 = 2 * 4 lies in the moved coset 2 * {1, 4}: sigma_8 is never applied.
    applied = []
    galois = CycloElem.galois
    monkeypatch.setattr(CycloElem, "galois", lambda self, t: applied.append(t) or galois(self, t))
    z = CycloElem.zeta(15)
    assert stabilizer(z + z**4, unit_residues(15)) == frozenset({1, 4})
    assert applied == [2, 4, 7, 11]


def test_stabilizer_rejects_non_units_even_for_rationals():
    for a in (CycloElem.zeta(8), CycloElem.from_rational(8, 3), CycloElem.from_rational(8, 0)):
        with pytest.raises(ValueError):
            stabilizer(a, [1, 3, 2])


def test_stabilizer_non_unit_check_survives_optimize_flag(optimized):
    # stabilizer(3, [1, 2]) in Q(zeta_8)
    assert optimized["stabilizer_non_unit"] == "ValueError"


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


def orbit_tower(n, base_gen, x_gen):
    """x the orbit sum of zeta_n over <x_gen>, y = zeta_n^3, over the fixed field of <base_gen>."""
    x = orbit_sum(CycloElem.zeta(n), subgroup_generated(n, [x_gen]))
    return make_tower(n, subgroup_generated(n, [base_gen]), x, CycloElem.zeta(n, 3))


def test_reps_start_at_the_identity():
    towers = [surrogate_tower(), orbit_tower(12, 5, 1), orbit_tower(15, 2, 2), orbit_tower(20, 13, 3)]
    for t in towers:
        reps = t._reps
        assert reps[0] == 1 and len(reps) == t.ell


def norm_towers():
    return [
        surrogate_tower(),
        orbit_tower(12, 5, 1),
        orbit_tower(15, 2, 1),
        orbit_tower(15, 2, 2),
        orbit_tower(16, 3, 3),
        orbit_tower(20, 13, 3),
    ]


def test_combine_norm_matches_reference_formula():
    towers = norm_towers()
    assert sorted({t.ell for t in towers}) == [1, 2, 4]
    for t in towers:
        for coeffs in ((3, 1, 5, 2), (-7, 3, 3, -1)):
            for n in (-2, -1, 1, 2):
                for m in (-2, -1, 1, 2):
                    assert combine_norm(t, *coeffs, n, m) == reference_norm(t, *coeffs, n, m)


def test_combine_norm_forms_each_conjugate_once_for_either_sign_of_m(monkeypatch):
    # v = cy + d times its ell - 1 other conjugates over K(x) lies in K(x), which inverts with [K(x):Q] - 1 more;
    # so either sign of m forms (ell - 1) + ([K(x):Q] - 1) conjugates, and ell = 1 forms none
    applied = []
    galois = CycloElem.galois
    monkeypatch.setattr(CycloElem, "galois", lambda self, t: applied.append(t) or galois(self, t))
    for t in norm_towers():
        mid_degree = len(unit_residues(t.conductor)) // len(t.mid_h)
        assert len(t._reps) == t.ell and len(t._mid_others) == mid_degree - 1  # built before counting
        for m in (-2, -1, 1, 2):
            applied.clear()
            combine_norm(t, 3, 1, 5, 2, 1, m)
            assert len(applied) == ((t.ell - 1) + (mid_degree - 1) if t.ell > 1 else 0), (t.conductor, m)


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
