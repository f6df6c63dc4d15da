from fractions import Fraction as F
from operator import mul

import numpy as np
import pytest

from cmtheta.action import act_power_family
from cmtheta.exact import RootOfUnity
from cmtheta.modularity import (
    ThetaProduct,
    check_family,
    eval_product,
    gamma_multiplier,
    parse,
    theta_product,
)
from cmtheta.symplectic import act_siegel, identity, jmat, special_gamma
from cmtheta import theta
from cmtheta.theta import Characteristic, phi_eval, random_siegel

from reference import fraction_exponent


def chi4(rn, sn):
    return Characteristic.from_den(rn, sn, 4)


def test_product_invariants():
    chi = Characteristic.make([F(1, 2), 0], [0, 0])
    with pytest.raises(ValueError):
        ThetaProduct(3, ((chi, 2),))  # odd level
    with pytest.raises(ValueError):
        ThetaProduct(2, ((Characteristic.make([F(1, 3), 0], [0, 0]), 2),))  # not 1/2-integral
    with pytest.raises(ValueError):
        ThetaProduct(2, ((Characteristic.make([F(1, 2), 0], [F(1, 2), 0]), 2),))  # vanishing
    with pytest.raises(ValueError):
        ThetaProduct(2, ((chi, 0),))  # zero exponent
    with pytest.raises(ValueError):
        ThetaProduct(2, ((chi, 1), (chi, 1)))  # duplicate


def test_terms_of_different_genus_rejected():
    a = Characteristic.from_den((1, 0), (0, 1), 2)  # g = 2
    b = Characteristic.from_den((1, 0, 0), (0, 0, 1), 2)  # g = 3
    for terms in ([(a, 2), (b, 2)], [(b, 2), (a, 2)]):
        with pytest.raises(ValueError, match="genus"):
            theta_product(2, terms)


def test_factory_merges_and_canonicalizes():
    chi = Characteristic.make([F(1, 2), 0], [0, 0])
    shifted = Characteristic.make([F(1, 2) + 1, 0], [0, -2])
    prod = theta_product(2, [(chi, 1), (shifted, 3)])
    assert prod.terms == ((chi, 4),)
    # terms cancelling to zero are dropped entirely
    empty = theta_product(2, [(chi, 2), (shifted, -2)])
    assert empty.terms == ()
    assert check_family(empty).ok


def test_parse_reads_commented_product_file():
    prod = theta_product(4, [(chi4((1, 0), (0, 2)), 3), (chi4((2, 3), (1, 0)), -1)])
    commented = "# a family\n2 4\n3 1/4 0 0 1/2  # first factor\n-1 1/2 3/4 1/4 0\n"
    assert parse(commented) == prod


def test_single_characteristic_power_2n():
    # Phi_chi^{2N} is modular for Gamma(N), for every non-vanishing chi
    for n in (2, 4):
        for rn in ((1, 0), (0, 1), (1, 1), (2, 1) if n == 4 else (1, 0)):
            chi = Characteristic.from_den(rn, (0, 1), n)
            if chi.in_sigma_minus():
                continue
            assert check_family(theta_product(n, [(chi, 2 * n)])).ok


def test_paired_family_power_n():
    # Phi_[r;s]^N * Phi_[r;-s]^N is modular for Gamma(N)
    chi = chi4((1, 2), (3, 1))
    mate = Characteristic.make(chi.r, [(-v) % 1 for v in chi.s])
    prod = theta_product(4, [(chi, 4), (mate, 4)])
    assert check_family(prod).ok


def test_failing_family_structure():
    chi = Characteristic.make([F(1, 2), 0], [0, 0])
    res = check_family(theta_product(2, [(chi, 2)]))
    assert not res.ok
    assert res.failures == [("rr", 0, 0, 2, 4)]
    # the same data re-validated at level 4 satisfies the weaker congruences
    assert check_family(ThetaProduct(4, theta_product(2, [(chi, 2)]).terms)).ok
    # fails only the rs congruence, by n/2, and the mixed generator at (2, 2) moves it
    prod = theta_product(4, [(chi4((0, 1), (0, 1)), 1), (chi4((0, 1), (0, 3)), 7)])
    assert check_family(prod).failures == [("rs", 1, 1, 2, 4)]
    assert gamma_multiplier(special_gamma("mixed", 2, 2, 4), prod, 4) != RootOfUnity.one()


def test_multiplier_reference_values():
    assert gamma_multiplier(
        special_gamma("lower", 1, 1, 2), Characteristic.make([0, 0], [F(1, 2), 0]), 2
    ) == RootOfUnity(F(3, 4))
    assert gamma_multiplier(
        special_gamma("upper", 1, 1, 2), Characteristic.make([F(1, 2), 0], [0, 0]), 2
    ) == RootOfUnity(F(1, 4))
    assert gamma_multiplier(
        special_gamma("lower", 1, 2, 2), Characteristic.make([0, 0], [F(1, 2), F(1, 2)]), 2
    ) == RootOfUnity(F(1, 2))


def gamma_word(rng, n, g=2):
    """A seeded word of 1 to 4 generators of Gamma(n); at n = 1, of Sp_2g(Z) without J."""
    kinds = ("upper", "lower", "mixed")
    gamma = identity(2 * g)
    for _ in range(int(rng.integers(1, 5))):
        gamma = gamma @ special_gamma(kinds[rng.integers(0, 3)], int(rng.integers(1, g + 1)), int(rng.integers(1, g + 1)), n, g)
    return gamma


def test_multiplier_matches_fraction_reference():
    def check(rng, gamma, n, g):
        # single characteristics, also outside [0, 1)
        chi = Characteristic.from_den(rng.integers(-n, 2 * n, g).tolist(), rng.integers(-n, 2 * n, g).tolist(), n)
        assert gamma_multiplier(gamma, chi, n) == RootOfUnity(fraction_exponent(gamma, chi, n))
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            chi = Characteristic.from_den(rng.integers(0, n, g).tolist(), rng.integers(0, n, g).tolist(), n)
            if not chi.in_sigma_minus():
                terms.append((chi, int(rng.integers(-3, 4))))
        prod = theta_product(n, terms)
        expect = sum((m * fraction_exponent(gamma, chi, n) for chi, m in prod.terms), F(0))
        assert gamma_multiplier(gamma, prod, n) == RootOfUnity(expect)

    rng = np.random.default_rng(61)
    for n in (2, 4, 6, 8):
        for _ in range(12):
            check(rng, gamma_word(rng, n), n, 2)
    # generator words reach only part of Gamma(n); it is normal in Sp_2g(Z), so
    # conjugates M gamma M^-1 by Sp_2g(Z) words M reach further, at g = 2 and 3
    rng = np.random.default_rng(62)
    for g in (2, 3):
        j = jmat(g)
        for n in (2, 4, 6):
            for _ in range(8):
                m = gamma_word(rng, 1, g) @ j @ gamma_word(rng, 1, g)
                m_inv = -j @ m.T @ j
                assert (m @ m_inv == identity(2 * g)).all()
                check(rng, gamma_word(rng, n, g), n, g)
                check(rng, m @ gamma_word(rng, n, g) @ m_inv, n, g)


def test_multiplier_requires_congruence(optimized):
    with pytest.raises(ValueError):
        gamma_multiplier(special_gamma("upper", 1, 1, 3), Characteristic.make([0, 0], [F(1, 2), 0]), 2)
    with pytest.raises(ValueError):
        gamma_multiplier(identity(4), Characteristic.make([0, 0], [F(1, 3), 0]), 3)  # odd level
    with pytest.raises(ValueError):
        gamma_multiplier(special_gamma("lower", 1, 1, 2), Characteristic.make([0, 0], [F(1, 3), 0]), 2)
    with pytest.raises(ValueError):
        gamma_multiplier(identity(4), theta_product(4, [(chi4((1, 0), (0, 1)), 8)]), 2)  # level-4 family at n = 2
    not_symplectic = identity(4)
    not_symplectic[0, 0] = 3  # = I mod 2
    with pytest.raises(ValueError):
        gamma_multiplier(not_symplectic, Characteristic.make([F(1, 2), 0], [0, F(1, 2)]), 2)
    assert optimized["non_symplectic_multiplier"] == "ValueError"


def test_level_is_a_positive_even_integer(optimized):
    # a float, Fraction or str level is refused whatever its value, as the generator's n is; numpy's integers count
    gamma, chi = special_gamma("upper", 1, 2, 4), Characteristic.make([F(1, 2), 0], [0, F(1, 2)])
    calls = (gamma_multiplier, act_power_family, lambda _, chi, n: check_family(theta_product(n, [(chi, 8)])))
    for n in (0, -2, 4.0, F(4), "4"):
        for call in calls:
            with pytest.raises(ValueError, match="level must be a positive even integer"):
                call(gamma, chi, n)
    assert [call(gamma, chi, np.int64(4)) for call in calls] == [call(gamma, chi, 4) for call in calls]
    for n in (2.5, 4.0, F(4), "4"):
        with pytest.raises(ValueError, match="n an integer"):
            special_gamma("upper", 1, 1, n)
    assert special_gamma("upper", 1, 1, np.int64(4)).tolist() == special_gamma("upper", 1, 1, 4).tolist()
    assert optimized["level"] == [["ValueError"] * 3] * 5 + [[None] * 3]
    assert optimized["special_gamma_level"] == ["ValueError"] * 4 + [None]


def test_numpy_level_is_read_as_an_int():
    # check_level hands back an int: with a numpy level the exact % n overflowed (entries near 4 * 3^25) or the
    # int64 phase wrapped with a RuntimeWarning (near 4 * 3^10), which pytest's warning filter turns into a failure
    chi = Characteristic.make([F(1, 2), 0], [0, F(1, 2)])
    for big, mixed in ((25, 20), (10, 8)):
        gamma = special_gamma("upper", 1, 2, 4 * 3**big) @ special_gamma("mixed", 2, 2, 4 * 3**mixed)
        assert gamma_multiplier(gamma, chi, np.int64(4)) == gamma_multiplier(gamma, chi, 4)
    assert type(theta_product(np.int64(4), [(chi, 8)]).level) is int
    assert act_power_family(special_gamma("upper", 1, 2, 4), chi, np.int64(4)) == chi


def test_exponents_are_integers():
    # a float, Fraction or str exponent is refused, however whole its value; numpy's integers are read as ints
    chi = Characteristic.make([F(1, 2), 0], [0, 0])
    for m in (1.5, 2.0, F(3, 2), "2"):
        with pytest.raises(ValueError, match="exponents must be integers"):
            check_family(theta_product(2, [(chi, m)]))
        with pytest.raises(ValueError, match="exponents must be integers"):
            ThetaProduct(2, ((chi, m),))
    for prod in (theta_product(2, [(chi, np.int64(4))]), ThetaProduct(2, [(chi, np.int64(4))])):
        assert prod.terms == ((chi, 4),) and type(prod.terms[0][1]) is int
        assert prod == theta_product(2, [(chi, 4)]) and check_family(prod).ok


def test_multiplier_is_homomorphism_on_congruence_group():
    # r.s is 0, 1/16 and 5/16: where it is not an integer, a phase e(k r.s) that does not depend on gamma fails
    rng = np.random.default_rng(17)
    chis = [chi4((1, 0), (0, 3)), chi4((1, 0), (1, 3)), chi4((1, 2), (3, 1))]
    assert [sum(map(mul, chi.r, chi.s)) for chi in chis] == [0, F(1, 16), F(5, 16)]
    kinds = ("upper", "lower", "mixed")
    gens = [special_gamma(kinds[rng.integers(0, 3)], int(rng.integers(1, 3)), int(rng.integers(1, 3)), 4) for _ in range(5)]
    for chi in chis:
        for a in gens:
            for b in gens:
                lhs = gamma_multiplier(a @ b, chi, 4)
                rhs = gamma_multiplier(a, chi, 4) * gamma_multiplier(b, chi, 4)
                assert lhs == rhs


def test_multiplier_on_product_adds_exponents():
    gamma = special_gamma("mixed", 1, 2, 4)
    prod = theta_product(4, [(chi4((1, 0), (0, 2)), 3), (chi4((0, 1), (2, 1)), 2)])
    total = gamma_multiplier(gamma, prod, 4)
    by_parts = RootOfUnity.one()
    for chi, m in prod.terms:
        by_parts = by_parts * gamma_multiplier(gamma, chi, 4) ** m
    assert total == by_parts


def test_multiplier_matches_numerics():
    rng = np.random.default_rng(23)
    chi = Characteristic.make([0, 0], [F(1, 2), 0])
    gamma = special_gamma("lower", 1, 1, 2)
    for _ in range(3):
        z = random_siegel(rng)
        w = act_siegel(gamma, z)
        lhs = phi_eval(chi, w)
        rhs = gamma_multiplier(gamma, chi, 2).value() * phi_eval(chi, z)
        assert abs(lhs / rhs - 1) < 1e-9


def test_modular_family_is_numerically_invariant():
    prod = theta_product(2, [(Characteristic.make([F(1, 2), 0], [0, 0]), 4)])
    assert check_family(prod).ok
    rng = np.random.default_rng(31)
    z = random_siegel(rng)
    gamma = special_gamma("upper", 1, 2, 2) @ special_gamma("lower", 1, 1, 2)
    w = act_siegel(gamma, z)
    assert abs(eval_product(prod, w) - eval_product(prod, z)) < 1e-9


def test_eval_product_matches_manual():
    prod = theta_product(4, [(chi4((1, 0), (0, 2)), 2), (chi4((0, 1), (2, 1)), -1)])
    rng = np.random.default_rng(40)
    z = random_siegel(rng)
    manual = phi_eval(prod.terms[0][0], z) ** 2 * phi_eval(prod.terms[1][0], z) ** -1
    assert abs(eval_product(prod, z) - manual) < 1e-12


def test_eval_product_at_a_matrix_builds_one_cut(monkeypatch):
    # a matrix Z becomes one SiegelPoint for the theta null and every term, so one cut serves all three sums
    cuts = []
    certified = theta._certified
    monkeypatch.setattr(theta, "_certified", lambda zp, tol: cuts.append(zp) or certified(zp, tol))
    prod = theta_product(4, [(chi4((1, 0), (0, 2)), 2), (chi4((0, 1), (2, 1)), -1)])
    z = random_siegel(np.random.default_rng(40))
    value = eval_product(prod, z.mat)
    assert len(cuts) == 1
    assert value == eval_product(prod, z)
