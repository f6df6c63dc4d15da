from fractions import Fraction
from math import gcd, inf, nan

import numpy as np
import pytest

from cmtheta import action, modularity, symplectic
from cmtheta.symplectic import (
    SiegelPoint,
    _columns,
    _form,
    _g_multiplier,
    act_siegel,
    blocks,
    identity,
    in_gamma,
    intmat,
    iota,
    is_integer,
    is_symplectic,
    jmat,
    special_gamma,
    sympl_multiplier,
)
from cmtheta.theta import Characteristic

from reference import block_special_gamma, fraction_form, reference_memberships


def test_jmat():
    j = jmat(2)
    assert (j == intmat([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])).all()
    assert is_symplectic(j)
    assert (j @ j == -identity(4)).all()


def test_blocks_roundtrip():
    m = intmat(np.arange(16).reshape(4, 4))
    a, b, c, d = blocks(m)
    assert (np.block([[a, b], [c, d]]) == m).all()


def test_multiplier():
    flip, two, ones = intmat(np.diag([1, 1, -1, -1])), intmat(np.diag([1, 1, 2, 2])), intmat(np.ones((4, 4), dtype=int))
    not_symplectic = identity(4)
    not_symplectic[0, 0] = 3  # = I mod 2
    assert sympl_multiplier(identity(4), modulus=6) == 1
    assert sympl_multiplier(flip, modulus=6) == 5  # nu = -1
    assert sympl_multiplier(two, modulus=5) == 2
    assert sympl_multiplier(two, modulus=4) is None  # nu = 2 is no unit mod 4
    assert sympl_multiplier(ones, modulus=5) is None  # tM J M = 0
    assert is_symplectic(identity(4)) and is_symplectic(jmat(2))
    for m in (flip, two, ones, not_symplectic):  # nu = -1, nu = 2, nu = 0, and no similitude at all
        assert not is_symplectic(m)
    for m in (identity(4), jmat(2), flip, two, ones, not_symplectic, special_gamma("lower", 1, 1, 1)):
        assert in_gamma(m, 1) == is_symplectic(m)


def test_iota():
    assert (iota(-1, 2, 8) == intmat(np.diag([1, 1, 7, 7]))).all()
    m = iota(3, 2, modulus=8)
    assert (m == intmat(np.diag([1, 1, 3, 3]))).all()  # 3^{-1} = 3 mod 8
    assert sympl_multiplier(m, modulus=8) == 3
    with pytest.raises(ValueError):
        iota(2, 2, modulus=8)  # not a unit


def test_special_gamma_reference_matrix():
    m = special_gamma("upper", 1, 1, 2)
    assert (m == intmat([[1, 0, 2, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])).all()
    lo = special_gamma("lower", 1, 2, 3)
    assert (lo == intmat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 3, 1, 0], [3, 0, 0, 1]])).all()
    mx = special_gamma("mixed", 2, 2, 2)
    assert (mx == intmat([[1, 0, 0, 0], [0, -1, 0, 2], [0, 0, 1, 0], [0, -2, 0, 3]])).all()


def test_special_gamma_matches_block_reference():
    for g in (2, 3):
        for n in (1, 2, 4, 50):
            for kind in ("upper", "lower", "mixed"):
                for j in range(1, g + 1):
                    for k in range(1, g + 1):
                        m = special_gamma(kind, j, k, n, g)
                        assert m.dtype == object and m.shape == (2 * g, 2 * g)
                        assert all(type(v) is int for v in m.flat)
                        assert (m == block_special_gamma(kind, j, k, n, g)).all(), (kind, j, k, n, g)


def test_special_gamma_membership():
    for n in (2, 3, 4):
        for kind in ("upper", "lower", "mixed"):
            for j, k in ((1, 1), (1, 2), (2, 2)):
                m = special_gamma(kind, j, k, n)
                assert in_gamma(m, n)
    with pytest.raises(ValueError):
        special_gamma("twisted", 1, 1, 2)
    with pytest.raises(ValueError):
        special_gamma("upper", 0, 1, 2)  # indices are 1-based


def test_group_memberships():
    assert _g_multiplier(_columns(identity(4)), 6) == 1  # in S_6
    assert _g_multiplier(_columns(iota(5, 2, modulus=6)), 6) is not None  # in G_6
    assert _g_multiplier(_columns(iota(5, 2, modulus=6)), 6) != 1  # not in S_6: nu = 5 != 1
    assert is_symplectic(jmat(2))
    assert in_gamma(identity(4), 4)
    assert not in_gamma(special_gamma("upper", 1, 1, 2), 4)
    for g in (1, 2, 3):  # mod 2 J's residues add up to 2g, as I's do: only the diagonal comparison refuses J
        assert not in_gamma(jmat(g), 2)
    lower = special_gamma("lower", 1, 1, 1)  # symplectic, but tAC has an odd diagonal
    assert is_symplectic(lower)
    assert _g_multiplier(_columns(lower), 6) is None  # in neither G_6 nor S_6


def test_g_group_multiplier():
    assert _g_multiplier(_columns(identity(4)), 6) == 1
    assert _g_multiplier(_columns(iota(5, 2, modulus=6)), 6) == 5
    assert _g_multiplier(_columns(special_gamma("mixed", 1, 2, 2)), 6) == 1
    assert _g_multiplier(_columns(intmat(np.diag([1, 1, 2, 2]))), 4) is None  # nu = 2 is no unit
    for kind in ("lower", "upper"):  # symplectic, but tAC (lower) or tBD (upper) has an odd diagonal
        m = special_gamma(kind, 1, 1, 1)
        assert sympl_multiplier(m, modulus=6) == 1 and _g_multiplier(_columns(m), 6) is None


def test_multiplier_is_multiplicative_mod_n():
    rng = np.random.default_rng(5)
    n = 8
    mats = [special_gamma(("upper", "lower", "mixed")[rng.integers(0, 3)], 1, 2, 2) for _ in range(6)]
    mats += [iota(a, 2, modulus=n) for a in (1, 3, 5, 7)]
    for a in mats:
        for b in mats:
            va, vb = sympl_multiplier(a, modulus=n), sympl_multiplier(b, modulus=n)
            assert sympl_multiplier(a @ b, modulus=n) == va * vb % n


def test_siegel_point_validation():
    z = SiegelPoint(np.eye(2) * 1j)
    assert z.g == 2 and abs(z.min_im_eig - 1) < 1e-14
    with pytest.raises(ValueError):
        SiegelPoint(np.array([[1j, 1], [0, 1j]]))  # not symmetric
    with pytest.raises(ValueError):
        SiegelPoint(-1j * np.eye(2))  # negative-definite imaginary part
    # small float asymmetry is repaired
    m = np.eye(2) * 1j + np.array([[0, 1e-13], [0, 0]])
    z = SiegelPoint(m)
    assert np.allclose(z.mat, z.mat.T)


@pytest.mark.parametrize("shape", [(0, 0), (0,), (2, 3), (2, 2, 2)])
def test_siegel_point_must_be_a_nonempty_square_matrix(shape):
    # a 0 x 0 matrix once reached numpy's max and failed with "zero-size array to reduction operation"
    with pytest.raises(ValueError, match="Siegel point must be a nonempty square matrix"):
        SiegelPoint(np.zeros(shape))


def test_one_integer_rule():
    # int, bool and numpy's integers are integers; a float, Fraction, str or numpy float is not, whatever its value
    assert all(map(is_integer, (7, True, np.int64(-3), np.uint8(2))))
    assert not any(map(is_integer, (2.0, Fraction(4, 2), "2", np.float64(2), None)))


@pytest.mark.parametrize("bad", [complex(0, inf), complex(nan, 1)])
def test_siegel_point_rejects_non_finite_entries(bad):
    # an inf once met the symmetry test as inf - inf (a RuntimeWarning) and then failed as "min eig -0"
    with pytest.raises(ValueError, match="non-finite entry"):
        SiegelPoint([[bad, 0], [0, 1j]])


def test_act_siegel_rejects_entries_too_large_for_a_float():
    m = identity(4)
    m[0, 1] = 10**400
    with pytest.raises(ValueError, match="too large for a float"):
        act_siegel(m, 1j * np.eye(2))


def test_act_siegel_names_the_float_range_for_an_image_below_it():
    # the true image of iI has Im = 10^-600 I, which underflows to 0: the point is not to blame
    m = identity(4)
    m[2, 0] = m[3, 1] = 10**300
    with pytest.raises(ValueError, match="outside the float range"):
        act_siegel(m, 1j * np.eye(2))
    # the bound reads lambda_max(Im Z): here 1 / 10^300 is a normal float, though lambda_min / 10^300 = 1e-309 is not,
    # and Im gamma(Z) = diag(1e-300, 1e-291) is a representable image that fails the point's own test
    m[2, 0] = m[3, 1] = 10**150
    with pytest.raises(ValueError, match="not positive definite"):
        act_siegel(m, np.diag([1j, 1e-9j]))


def test_siegel_point_matrix_is_read_only():
    # theta keeps truncation geometry on the point, so its matrix must not change
    m = np.eye(2) * 1j
    z = SiegelPoint(m)
    with pytest.raises(ValueError):
        z.mat[0, 0] = 2j
    m[0, 0] = 2j  # the caller's array stays the caller's
    assert z.mat[0, 0] == 1j


def test_act_siegel():
    z = SiegelPoint(np.eye(2) * 1j)
    assert np.allclose(act_siegel(identity(4), z).mat, z.mat)
    # J fixes iI: J(Z) = -Z^{-1}
    assert np.allclose(act_siegel(jmat(2), z).mat, z.mat)
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.3, 0.3, (2, 2))
    w = SiegelPoint((x + x.T) / 2 + 1j * np.eye(2))
    a = special_gamma("upper", 1, 2, 2)
    b = special_gamma("lower", 2, 2, 3)
    lhs = act_siegel(a @ b, w).mat
    rhs = act_siegel(a, act_siegel(b, w)).mat
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_intmat_rejects_non_integers():
    for bad in (0.5, float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError):
            intmat([[bad, 0], [0, 1]])
    with pytest.raises(ValueError):
        intmat([1, 2, 3])  # not 2-D
    m = intmat([[2, 0], [0, 1]])
    assert intmat(m) is not m  # a fresh array, also on the all-int fast path
    assert [type(v) for v in intmat(np.eye(2, dtype=int)).flat] == [int] * 4


def test_intmat_validation_survives_optimize_flag(optimized):
    # intmat([[0.5, 0], [0, 1]])
    assert optimized["intmat"] == "ValueError"


def test_jmat_returns_independent_copies():
    j = jmat(2)
    j[0, 0] = 7
    assert jmat(2)[0, 0] == 0


def test_identity_is_a_fresh_exact_matrix():
    m = identity(3)
    assert m.dtype == object and all(type(v) is int for v in m.flat)
    m[0, 0] = 7
    assert identity(3)[0, 0] == 1
    z = special_gamma("upper", 1, 2, 4, g=3)
    assert all(type(v) is int for v in z.flat)


def test_membership_kernel_matches_fraction_reference():
    rng, big_rng = np.random.default_rng(29), np.random.default_rng(31)  # big_rng draws for the entries past 2**63
    kinds = ("upper", "lower", "mixed")
    seen = {"gamma": 0, "g_group": 0, "outside": 0, "big": 0}
    for n in range(1, 51):  # n = 1 is the is_symplectic path, where every residue is 0 and 1 % n is too
        for g in (1, 2, 3):
            word = identity(2 * g)
            for _ in range(int(rng.integers(1, 5))):
                j, k = (int(v) for v in rng.integers(1, g + 1, 2))
                word = word @ special_gamma(kinds[rng.integers(0, 3)], j, k, n if rng.random() < 0.8 else 1, g)
            a = int(rng.choice([u for u in range(1, max(n, 2)) if gcd(u, n) == 1]))
            twisted = word @ iota(a, g, n)
            bumped = twisted.copy()
            bumped[rng.integers(0, 2 * g), rng.integers(0, 2 * g)] += int(rng.integers(1, n + 1))
            # entries past 2**63: the word conjugated by a lift of level 10**20, then a generator of level 10**20 n
            j, k = (int(v) for v in big_rng.integers(1, g + 1, 2))
            lift, drop = special_gamma("upper", 1, 1, 10**20, g), special_gamma("upper", 1, 1, -(10**20), g)
            big = lift @ word @ drop @ special_gamma(kinds[big_rng.integers(0, 3)], j, k, 10**20 * n, g)
            big_bumped = big.copy()
            big_bumped[big_rng.integers(0, 2 * g), big_rng.integers(0, 2 * g)] += int(big_rng.integers(1, n + 1))
            # word @ J too: mod 2, J's residues add up to 2g, as I's do
            for m in (word, twisted, bumped, word @ jmat(g), big, big @ iota(a, g, n), big_bumped):
                nu, member, even = reference_memberships(m, n)
                t = fraction_form(m)[0]
                assert _form(_columns(m)) == [t[i][k] for i in range(2 * g) for k in range(i + 1, 2 * g)]
                assert sympl_multiplier(m, modulus=n) == nu
                assert in_gamma(m, n) == member
                assert _g_multiplier(_columns(m), n) == (nu if even else None)
                seen["big"] += max(abs(v) for v in m.flat) > 2**63 and member
                seen["gamma"] += member
                seen["g_group"] += nu is not None and even and not member
                seen["outside"] += nu is None or not even
    assert min(seen.values()) >= 20, seen


def test_membership_rejects_matrices_that_are_not_2g_square():
    chi2, chi3 = Characteristic.from_den([1, 0], [0, 1], 2), Characteristic.from_den([1, 2], [0, 1], 3)
    calls = (
        lambda m: sympl_multiplier(m, 4),
        lambda m: in_gamma(m, 2),
        lambda m: action.act_power_family(m, chi2, 2),  # the G_n reads
        lambda m: action.act_phi(m, chi3, 3),
    )
    for rows in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0, 0], [0, 1, 0, 0]], [[1]]):
        for call in calls:
            with pytest.raises(ValueError, match="2g x 2g"):
                call(rows)


def test_membership_converts_once(monkeypatch):
    calls = []

    def counted(m):
        calls.append(1)
        return intmat(m)

    # patch intmat in every congruence module, bound there or not, so a second read anywhere is counted
    for module in (symplectic, action, modularity):
        monkeypatch.setattr(module, "intmat", counted, raising=False)
    gamma, alpha = special_gamma("mixed", 1, 2, 4), special_gamma("mixed", 1, 2, 18)  # Gamma(4), G_18
    chi4, chi3 = Characteristic.from_den([1, 0], [0, 1], 4), Characteristic.from_den([1, 2], [0, 1], 3)
    reads = {
        "sympl_multiplier": lambda: sympl_multiplier(gamma, 4),
        "in_gamma": lambda: in_gamma(gamma, 4),
        "is_symplectic": lambda: is_symplectic(gamma),
        "act_siegel": lambda: act_siegel(gamma, 1j * np.eye(2)),
        "gamma_multiplier": lambda: modularity.gamma_multiplier(gamma, chi4, 4),
        "act_power_family": lambda: action.act_power_family(gamma, chi4, 4),
        "act_phi": lambda: action.act_phi(alpha, chi3, 3),
    }
    for name, read in reads.items():
        calls.clear()
        read()
        assert len(calls) == 1, name
