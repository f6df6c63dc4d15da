import ast
import cmath
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

import cmtheta
from cmtheta.exact import (
    CycloElem,
    RootOfUnity,
    _poly_divide_exact,
    cyclotomic_coeffs,
    euler_phi,
    is_subgroup,
    orbit_inverse,
    orbit_product,
    orbit_sum,
    rel_trace_norm,
    solve_exact,
    unit_residues,
)
from cmtheta.primgen import stabilizer

from reference import fraction_scalar_ops, reference_exponent


def test_euler_phi():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 5, 8, 12, 25)] == [1, 1, 2, 2, 4, 4, 4, 20]


def test_cyclotomic_polynomials():
    assert cyclotomic_coeffs(1) == (-1, 1)
    assert cyclotomic_coeffs(2) == (1, 1)
    assert cyclotomic_coeffs(4) == (1, 0, 1)
    assert cyclotomic_coeffs(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_coeffs(6) == (1, -1, 1)
    assert cyclotomic_coeffs(12) == (1, 0, -1, 0, 1)
    # Phi_25 = x^20 + x^15 + x^10 + x^5 + 1
    expected = tuple(1 if k % 5 == 0 else 0 for k in range(21))
    assert cyclotomic_coeffs(25) == expected
    with pytest.raises(ValueError):
        _poly_divide_exact([1, 0, 1], [-1, 1])  # x^2 + 1 by x - 1 leaves remainder 2


def test_golden_ratio_products():
    z = CycloElem.zeta(5)
    assert (z + z**4) * (z**2 + z**3) == -1
    assert abs((z + z**4).embed() - (5**0.5 - 1) / 2) < 1e-14


def test_power_relations():
    z = CycloElem.zeta(5)
    assert z**5 == 1
    assert z**-1 == z**4
    assert sum((z**k for k in range(1, 5)), CycloElem.from_rational(5, 0)) == -1


def test_powers_and_orbit_products_multiply_no_unit(monkeypatch):
    z = CycloElem.zeta(25)
    a = 2 + z - 3 * z**7
    by_hand = [CycloElem.from_rational(25, 1)]
    for _ in range(6):
        by_hand.append(by_hand[-1] * a)
    conjugates = [a.galois(t) for t in (2, 3, 7, 11)]
    inv_squared = a.inverse() * a.inverse()
    products = []
    mul = CycloElem.__mul__

    def counted(x, y):
        products.append(1)
        return mul(x, y)

    monkeypatch.setattr(CycloElem, "__mul__", counted)

    def count(compute):
        products.clear()
        value = compute()
        return value, len(products)

    for k, expected in ((0, 0), (1, 0), (2, 1), (5, 3), (6, 3)):
        assert count(lambda: a**k) == (by_hand[k], expected)
    assert count(lambda: orbit_product(a, ())) == (1, 0)
    for k in range(1, 5):
        value, made = count(lambda: orbit_product(a, (2, 3, 7, 11)[:k]))
        assert made == k - 1
        assert value == math.prod(conjugates[1:k], start=conjugates[0])
    assert a**-2 == inv_squared


def test_inverse_and_division():
    z = CycloElem.zeta(7)
    a = 1 + z + 3 * z**2
    assert a * a.inverse() == 1
    assert (a / a) == 1
    assert a / 2 == a * Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        CycloElem.from_rational(7, 0).inverse()


def test_orbit_inverse_over_a_subfield():
    # sqrt(2) = zeta_8 + zeta_8^7 lies in the fixed field of {1, 7}; its one other conjugate is sigma_3
    z = CycloElem.zeta(8)
    r2 = z + z**7
    assert orbit_inverse(r2, [3]) == r2.inverse() == Fraction(1, 2) * r2


def test_normalised_representation():
    half = CycloElem(5, [Fraction(2, 4)])
    assert half == CycloElem(5, [Fraction(1, 2)])
    assert hash(half) == hash(CycloElem(5, [Fraction(1, 2)]))
    assert (half.num, half.den) == ((1, 0, 0, 0), 2)
    one = CycloElem.from_rational(5, 1)
    assert half + half == one and hash(half + half) == hash(one)
    assert half * 2 == one and hash(half * 2) == hash(one)
    a = CycloElem(12, [Fraction(2, 3), 0, Fraction(-5, 6), 4])
    assert a.coeffs == (Fraction(2, 3), Fraction(0), Fraction(-5, 6), Fraction(4))
    assert all(type(c) is Fraction for c in a.coeffs)
    assert CycloElem(12, a.coeffs) == a
    assert (a.num, a.den) == ((4, 0, -5, 24), 6)
    assert CycloElem(5, [Fraction(3, 3), 0, Fraction(0, 7)]).den == 1
    assert CycloElem.from_rational(5, 0).num == (0, 0, 0, 0) and CycloElem.from_rational(5, 0).den == 1
    # reduction of high powers mod Phi_n keeps the common denominator
    assert CycloElem(5, [0, 0, 0, 0, Fraction(1, 3)]) == CycloElem(5, [Fraction(-1, 3)] * 4)


def test_numpy_integers_enter_as_python_ints():
    # a Fraction of a numpy integer keeps its numpy numerator, whose products wrap past 2^63
    big = 2**40
    for got, want in (
        (CycloElem(5, [np.int64(big), np.int32(3)]), CycloElem(5, [big, 3])),
        (CycloElem(5, [np.int64(big), Fraction(1, 2)]), CycloElem(5, [big, Fraction(1, 2)])),
        (CycloElem.from_rational(5, np.int64(big)), CycloElem.from_rational(5, big)),
    ):
        assert all(type(v) is int for v in (got.den, *got.num))
        assert ((got * got).num, (got * got).den) == ((want * want).num, (want * want).den)


def test_mixed_order_arithmetic():
    # zeta_2 + zeta_3 lands in Q(zeta_6)
    a = CycloElem.zeta(2) + CycloElem.zeta(3)
    assert a.n == 6
    assert abs(a.embed() - (cmath.exp(1j * cmath.pi) + cmath.exp(2j * cmath.pi / 3))) < 1e-14
    b = CycloElem.zeta(5)
    assert (b.lift(15)) == b  # equality coerces through the compositum
    assert CycloElem.zeta(3) * b == CycloElem.zeta(15, 8) == b * CycloElem.zeta(3).lift(15)
    # only a CycloElem, an int or a Fraction mixes with a CycloElem, whatever the operator
    refused = (lambda: b + 0.5, lambda: b * 0.5, lambda: b / 0.5, lambda: 0.5 - b, lambda: b - 0.5, lambda: b - "1/3")
    for call in refused:
        with pytest.raises(TypeError):
            call()


ORDERS = [8, 12, 15, 16, 20, 24, 25]


def content_elems(n):
    """Seeded elements of Q(zeta_n), some with numerator content > 1 over an odd den, some rational."""
    rng = random.Random(n)
    elems = [CycloElem.zeta(n, k) for k in (1, 2, n - 1)]
    elems += [CycloElem.from_rational(n, q) for q in (0, 3, Fraction(-2, 9))]
    for den in (1, 2, 3, 15, 45):
        for _ in range(3):
            # more powers than phi(n), so the numerators are reduced mod Phi_n first
            elems.append(CycloElem._make(n, [2 * rng.randint(-4, 4) for _ in range(n)], den))
    assert any(math.gcd(*a.num) > 1 and a.den % 2 for a in elems)
    return elems


@pytest.mark.parametrize("n", ORDERS)
def test_galois_image_keeps_content_and_den(n):
    # sigma_t maps Z[zeta_n] onto itself, so the image is built without renormalising
    for a in content_elems(n):
        for t in unit_residues(n):
            image = a.galois(t)
            rebuilt = CycloElem._make(n, list(image.num), image.den)
            assert (image.n, image.num, image.den) == (rebuilt.n, rebuilt.num, rebuilt.den)
            assert abs(image.embed() - a.embed(t)) < 1e-9


@pytest.mark.parametrize("n", ORDERS)
def test_orbit_sum_is_the_sum_of_the_conjugates(n):
    units = unit_residues(n)
    for a in content_elems(n):
        for residues in ((), (1,), units[1::2], units):
            by_hand = sum((a.galois(t) for t in residues), CycloElem.from_rational(n, 0))
            total = orbit_sum(a, residues)
            assert (total.n, total.num, total.den) == (by_hand.n, by_hand.num, by_hand.den)


def test_galois_action():
    z = CycloElem.zeta(5)
    a = 1 + 2 * z + 3 * z**2
    assert a.galois(2).galois(3) == a.galois(6 % 5)
    assert a.galois(4).galois(4) == a
    assert a.galois(1) == a
    with pytest.raises(ValueError):
        CycloElem.zeta(10).galois(5)
    with pytest.raises(ValueError):
        CycloElem.zeta(5).lift(7)


def test_degree():
    def degree(e):  # [Q(e) : Q] = phi(n) over the order of the stabiliser of e in (Z/n)^*
        units = unit_residues(e.n)
        return len(units) // len(stabilizer(e, units))

    assert degree(CycloElem.zeta(5)) == 4
    assert degree(CycloElem.zeta(25)) == 20
    z = CycloElem.zeta(5)
    assert degree(z + z**4) == 2
    assert degree(CycloElem.from_rational(12, 7)) == 1


def test_trace_norm_over_subgroup():
    z25 = CycloElem.zeta(25)
    sub = tuple((1 + 5 * k) % 25 for k in range(5))
    assert rel_trace_norm(z25, sub, "trace").is_zero()
    assert rel_trace_norm(3 * z25 + 1, sub, "norm") == 243 * CycloElem.zeta(5) + 1
    with pytest.raises(ValueError):
        rel_trace_norm(z25, (1, 2), "trace")  # not a subgroup
    with pytest.raises(ValueError):
        rel_trace_norm(z25, sub, "resolvent")


def test_trace_norm_count_each_residue_once():
    # 26 = 1 mod 25, and a residue listed twice is one automorphism: the orbit runs over the distinct residues
    z25 = CycloElem.zeta(25)
    assert rel_trace_norm(z25, (1, 26), "trace") == z25
    assert rel_trace_norm(z25, (1, 1), "norm") == z25
    a, sub = 3 * z25 + 1, tuple((1 + 5 * k) % 25 for k in range(5))
    for mode in ("trace", "norm"):
        assert rel_trace_norm(a, (*sub, *sub, 26, -24, 31), mode) == rel_trace_norm(a, sub, mode)
    assert rel_trace_norm(a, iter(sub), "trace") == rel_trace_norm(a, sub, "trace")  # an iterator is read once


@pytest.mark.parametrize("n", [0, -1, -3, -5])
def test_order_below_one_is_refused(n):
    # Phi_0 once read as Phi_1 = X - 1, a CycloElem of order 0 or -5 failed with an IndexError, and zeta(0) with
    # a ZeroDivisionError from k % n
    for build in (unit_residues, cyclotomic_coeffs, euler_phi, lambda n: CycloElem(n, [1, 2]), CycloElem.zeta):
        with pytest.raises(ValueError, match=f"cyclotomic order must be positive, got {n}"):
            build(n)


def test_rational_operands_match_fraction_reference():
    # an int or Fraction operand enters as its integer ratio; each result is the Fraction reference's, field by field
    scalars = [0, 1, -3, True, Fraction(-2, 9), Fraction(5, 3)]
    for n in (1, 5, 8, 12, 25):
        phi = euler_phi(n)
        for a in (
            CycloElem(n, [(-1) ** j * (j + 2) for j in range(phi)]),  # den 1
            CycloElem(n, [Fraction((-1) ** j * (j + 1), 4 if j % 2 else 6) for j in range(phi)]),  # den 12 (6 at n = 1)
            CycloElem.from_rational(n, 0),
        ):
            for q in scalars:
                got = {
                    "a + q": a + q,
                    "q + a": q + a,
                    "a - q": a - q,
                    "q - a": q - a,
                    "a * q": a * q,
                    "q * a": q * a,
                    "from_rational": CycloElem.from_rational(n, q),
                }
                if q:
                    got["a / q"] = a / q
                fields = {name: (e.n, e.num, e.den) for name, e in got.items()}
                assert all(type(v) is int for e in got.values() for v in (e.den, *e.num))
                assert {**fields, "a == q": a == q} == fraction_scalar_ops(a, q), (n, a, q)
            with pytest.raises(ZeroDivisionError):
                a / 0
            with pytest.raises(ZeroDivisionError):
                a / Fraction(0)
            for call in (lambda: a + 0.5, lambda: 0.5 + a, lambda: a - 0.5, lambda: 0.5 - a, lambda: a * 0.5,
                         lambda: 0.5 * a, lambda: a / 0.5):
                with pytest.raises(TypeError):
                    call()


def test_full_orbit_is_rational():
    z = CycloElem.zeta(7)
    a = 1 + z
    n = orbit_product(a, unit_residues(7))
    t = orbit_sum(a, unit_residues(7))
    assert n.is_rational() and t.is_rational()
    assert n.rational_value() == 1  # prod (1 + z^t) = Phi_7(-1)
    assert t.rational_value() == 5  # 6 + sum of all primitive roots = 6 - 1
    val = 1.0
    for t_ in unit_residues(7):
        val *= abs(1 + cmath.exp(2j * cmath.pi * t_ / 7))
    assert abs(val - float(n.rational_value())) < 1e-9
    with pytest.raises(ValueError):
        a.rational_value()


def test_is_subgroup():
    assert is_subgroup(8, (1, 3))
    assert is_subgroup(8, (1, 3, 5, 7))
    assert not is_subgroup(8, (3, 5))  # missing identity
    assert not is_subgroup(8, (1, 2))  # 2 is not a unit
    assert not is_subgroup(25, (1, 6, 11))  # not closed


def test_solve_exact():
    rows = [[1, 2], [3, 4]]
    sol = solve_exact(rows, [5, 6])
    assert sol == [Fraction(-4), Fraction(9, 2)]
    assert solve_exact([[1, 2], [2, 4]], [1, 1]) is None


def test_embed_high_precision():
    z = CycloElem.zeta(5)
    with mpmath.workdps(50):
        reference = complex(1 + mpmath.exp(2j * mpmath.pi / 5))
    assert abs((1 + z).embed() - reference) < 1e-13


def test_input_checks_survive_optimize_flag(optimized):
    # CycloElem.zeta(10).galois(5), CycloElem.zeta(5).lift(7), (x^2 + 1) / (x - 1) and CycloElem.zeta(0)
    assert optimized["cyclo_input_checks"] == ["ValueError"] * 4
    assert optimized["cyclo_zero_division"] == "ZeroDivisionError"  # CycloElem.zeta(5) / 0


def test_src_has_no_assert_statements():
    # python -O strips assert statements, so no check in the package may rest on one
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(cmtheta.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_rational_value_check_survives_optimize_flag(optimized):
    # CycloElem.zeta(5).rational_value() is no rational, also under -O
    assert optimized["rational_value"] == "ValueError"


def test_import_leaves_mpmath_unloaded(optimized):
    assert not optimized["imports"]["mpmath_loaded"], "importing cmtheta loaded mpmath"


def test_root_of_unity():
    i = RootOfUnity(Fraction(1, 4))
    assert i * i == RootOfUnity(Fraction(1, 2))
    assert (i**4) == RootOfUnity.one()
    assert RootOfUnity.one() / i == RootOfUnity(Fraction(3, 4))
    assert i.exponent.denominator == 4
    assert abs(i.value() - 1j) < 1e-15
    assert RootOfUnity(Fraction(9, 4)) == i  # reduced mod 1
    assert RootOfUnity(Fraction(9, 4)) == RootOfUnity._make(1, 4)
    assert (i / i) == RootOfUnity.one()
    # only a phase mixes with a phase: Python raises TypeError, not an AttributeError from inside the operator
    for other in (2, Fraction(1, 4), 0.25, 1j, "e(1/4)"):
        for call in (lambda: RootOfUnity.one() * other, lambda: i / other, lambda: other * i, lambda: other / i):
            with pytest.raises(TypeError):
                call()


def test_root_of_unity_reads_numpy_integers_as_ints():
    # the exponent is read through _fraction, as CycloElem reads its coefficients, so num and den are Python ints
    for exponent in (np.int64(7), np.int32(-3), np.uint8(9)):
        u = RootOfUnity(exponent)
        assert u == RootOfUnity(int(exponent)) and hash(u) == hash(RootOfUnity(int(exponent)))
        assert type(u.num) is int and type(u.den) is int


def assert_phase(u: RootOfUnity, q) -> None:
    ref = reference_exponent(q)
    assert type(u.num) is int and type(u.den) is int
    assert 0 <= u.num < u.den and math.gcd(u.num, u.den) == 1  # the reduced form
    assert (u.num, u.den) == (ref.numerator, ref.denominator) and u.exponent == ref
    assert u.value() == cmath.exp(2j * cmath.pi * float(ref))  # bit for bit
    assert repr(u) == f"e({ref})"


phases = st.fractions(min_value=-40, max_value=40, max_denominator=300)


@hsettings(max_examples=300, deadline=None)
@given(phases, phases, st.integers(-12, 12), st.integers(-3, 3), st.integers(-900, 900), st.integers(1, 900))
def test_root_of_unity_matches_fraction_reference(q, r, k, shift, num, den):
    a, b = RootOfUnity(q), RootOfUnity(r)
    assert_phase(a, q)
    assert_phase(a * b, q + r)
    assert_phase(a / b, q - r)
    assert_phase(a**k, q * k)
    assert_phase(RootOfUnity._make(num, den), Fraction(num, den))
    assert (a == b) == (reference_exponent(q) == reference_exponent(r))
    if a == b:
        assert hash(a) == hash(b)
    moved = RootOfUnity(q + shift)  # the same phase
    assert moved == a and hash(moved) == hash(a)


small_elems = st.builds(
    lambda coeffs: CycloElem(5, coeffs),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
)


@hsettings(max_examples=60, deadline=None)
@given(small_elems, small_elems, small_elems)
def test_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == 0


def rational_elems(n):
    return st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=6), min_size=euler_phi(n), max_size=euler_phi(n)
    ).map(lambda coeffs: CycloElem(n, coeffs)).filter(lambda a: not a.is_zero())


@hsettings(max_examples=40, deadline=None)
@given(rational_elems(12))
def test_inverse_is_two_sided_in_q_zeta_12(a):
    assert a * a.inverse() == 1
    assert a.inverse() * a == 1


@hsettings(max_examples=15, deadline=None)
@given(rational_elems(25))
def test_inverse_is_two_sided_in_q_zeta_25(a):
    assert a * a.inverse() == 1


@hsettings(max_examples=40, deadline=None)
@given(small_elems, small_elems, st.sampled_from([1, 2, 3, 4]))
def test_galois_is_multiplicative(a, b, t):
    assert (a * b).galois(t) == a.galois(t) * b.galois(t)
    assert (a + b).galois(t) == a.galois(t) + b.galois(t)


@hsettings(max_examples=30, deadline=None)
@given(small_elems, small_elems)
def test_embed_is_homomorphism(a, b):
    assert abs((a * b).embed() - a.embed() * b.embed()) < 1e-9
