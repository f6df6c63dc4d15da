import numpy as np
import pytest

from cmtheta.symplectic import (
    SiegelPoint,
    act_siegel,
    blocks,
    even_theta_diagonals,
    g_group_multiplier,
    identity,
    in_gamma,
    intmat,
    iota,
    is_symplectic,
    jmat,
    special_gamma,
    sympl_multiplier,
)


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
    assert sympl_multiplier(identity(4)) == 1
    assert sympl_multiplier(intmat(np.diag([1, 1, -1, -1]))) == -1
    assert sympl_multiplier(intmat(np.diag([1, 1, 2, 2]))) is None  # nu=2 not a unit over Z
    assert sympl_multiplier(intmat(np.diag([1, 1, 2, 2])), modulus=5) == 2
    assert sympl_multiplier(intmat(np.diag([1, 1, 2, 2])), modulus=4) is None
    assert sympl_multiplier(intmat(np.ones((4, 4), dtype=int))) is None


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
    assert g_group_multiplier(identity(4), 6) == 1  # in S_6
    assert g_group_multiplier(iota(5, 2, modulus=6), 6) is not None  # in G_6
    assert g_group_multiplier(iota(5, 2, modulus=6), 6) != 1  # not in S_6: nu = 5 != 1
    assert is_symplectic(jmat(2))
    assert in_gamma(identity(4), 4)
    assert not in_gamma(special_gamma("upper", 1, 1, 2), 4)
    lower = special_gamma("lower", 1, 1, 1)  # symplectic, but tAC has an odd diagonal
    assert is_symplectic(lower) and not even_theta_diagonals(lower)
    assert g_group_multiplier(lower, 6) is None  # in neither G_6 nor S_6


def test_g_group_multiplier():
    assert g_group_multiplier(identity(4), 6) == 1
    assert g_group_multiplier(iota(5, 2, modulus=6), 6) == 5
    assert g_group_multiplier(special_gamma("mixed", 1, 2, 2), 6) == 1
    assert g_group_multiplier(intmat(np.diag([1, 1, 2, 2])), 4) is None  # nu = 2 is no unit
    for kind in ("lower", "upper"):  # symplectic, but tAC (lower) or tBD (upper) has an odd diagonal
        m = special_gamma(kind, 1, 1, 1)
        assert sympl_multiplier(m, modulus=6) == 1 and g_group_multiplier(m, 6) is None


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
    with pytest.raises(ValueError):
        intmat([[0.5, 0], [0, 1]])
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
