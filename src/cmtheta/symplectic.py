"""Exact symplectic-group machinery and the action on the Siegel upper half-space.

Integer matrices are kept exact as numpy object arrays (arbitrary-precision
Python ints), so multiplier computations and congruence tests never overflow.
Only act_siegel and SiegelPoint work in floating point.
"""
from __future__ import annotations

from functools import lru_cache
from math import gcd

import numpy as np


def intmat(rows) -> np.ndarray:
    """Exact integer matrix (dtype=object) from nested lists/arrays.

    Raises ValueError unless the input is 2-D with integral entries.
    """
    arr = np.array(rows, dtype=object)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got {arr.ndim} dimensions")
    if all(type(v) is int for v in arr.flat):
        return arr
    for v in arr.flat:
        if v != int(v):
            raise ValueError(f"non-integer entry {v!r}")
    return np.vectorize(int, otypes=[object])(arr)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=object)


@lru_cache(maxsize=None)
def _jmat(g: int) -> np.ndarray:
    z, i = np.zeros((g, g), dtype=object), identity(g)
    return np.block([[z, -i], [i, z]])


def jmat(g: int) -> np.ndarray:
    return _jmat(g).copy()


def blocks(m: np.ndarray):
    """Split a 2g x 2g matrix into (A, B, C, D)."""
    g = m.shape[0] // 2
    return m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:]


def sympl_multiplier(m, modulus: int):
    """The similitude nu in [0, modulus) with tM J M = nu J mod modulus, or None unless nu exists and is a unit."""
    m = intmat(m)
    g = m.shape[0] // 2
    j = _jmat(g)
    t = m.T @ j @ m
    nu = int(-t[0, g]) % modulus
    return nu if gcd(nu, modulus) == 1 and not ((t - nu * j) % modulus).any() else None


def in_gamma(m, n: int) -> bool:
    """Membership in Gamma(n) = {M in Sp_2g(Z) : M = I mod n}: tM J M == J over Z, then the congruence."""
    m = intmat(m)
    j = _jmat(m.shape[0] // 2)
    return bool((m.T @ j @ m == j).all()) and not ((m - identity(len(m))) % n).any()


def is_symplectic(m) -> bool:
    """Membership in Sp_2g(Z), which is Gamma(1)."""
    return in_gamma(m, 1)


def check_level(n: int) -> None:
    """Raise ValueError unless n is a positive even integer: the one rule for a level of Gamma(n) or a family."""
    if n % 2 or n <= 0:
        raise ValueError(f"level must be a positive even integer, got {n}")


def even_theta_diagonals(m) -> bool:
    """The parity condition of S_n and G_n: tAC and tBD have even diagonals.

    m is an exact integer matrix, as from intmat.  Parity is read off this
    representative; for even n it is independent of the choice of lift.
    """
    a, b, c, d = blocks(m)
    return not ((a * c).sum(axis=0) % 2).any() and not ((b * d).sum(axis=0) % 2).any()


def g_group_multiplier(m, n: int) -> int | None:
    """nu mod n if m lies in G_n, else None.

    G_n is GSp_2g mod n (any unit multiplier) with even diagonals of tAC and
    tBD; S_n is its part with nu = 1.  This is the one statement of the rule.
    """
    m = intmat(m)
    nu = sympl_multiplier(m, modulus=n)
    return nu if nu is not None and even_theta_diagonals(m) else None


def iota(a: int, g: int, modulus: int) -> np.ndarray:
    """iota(a) = diag(I_g, a^{-1} I_g) with a^{-1} in [0, modulus); nu(iota(a)) = a^{-1} mod modulus.

    Raises ValueError unless a is a unit mod modulus.
    """
    ainv = pow(a, -1, modulus)
    m = identity(2 * g)
    for j in range(g, 2 * g):
        m[j, j] = ainv
    return m


def special_gamma(kind: str, j: int, k: int, n: int, g: int = 2) -> np.ndarray:
    """Distinguished generators of Gamma(n), indexed by 1-based (j, k).

    kind is "upper", "lower" or "mixed"; the seed block is E_jj on the
    diagonal and the symmetrized E_jk + E_kj off it, which keeps all three
    shapes inside Sp_2g(Z).
    """
    if not (1 <= j <= g and 1 <= k <= g):
        raise ValueError(f"generator indices are 1-based and at most g = {g}, got ({j}, {k})")
    a0 = np.zeros((g, g), dtype=object)
    if j == k:
        a0[j - 1, j - 1] = 1
    else:
        a0[j - 1, k - 1] = 1
        a0[k - 1, j - 1] = 1
    i, z = identity(g), np.zeros((g, g), dtype=object)
    na = n * a0
    if kind == "upper":
        m = np.block([[i, na], [z, i]])
    elif kind == "lower":
        m = np.block([[i, z], [na, i]])
    elif kind == "mixed":
        m = np.block([[i - na, na], [-na, i + na]])
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return m


# -- Siegel upper half-space ------------------------------------------------


class SiegelPoint:
    """A point of the Siegel upper half-space H_g, validated on construction.

    Small symmetry defects (from floating-point matrix actions) are repaired
    by symmetrization; genuine asymmetry or a non-positive-definite imaginary
    part raises ValueError.
    """

    def __init__(self, mat) -> None:
        z = np.asarray(mat, dtype=complex)
        if z.ndim != 2 or z.shape[0] != z.shape[1]:
            raise ValueError("Siegel point must be a square matrix")
        defect = np.abs(z - z.T).max()
        if defect > 1e-9 * max(1.0, np.abs(z).max()):
            raise ValueError(f"matrix is not symmetric (defect {defect:.3g})")
        z = (z + z.T) / 2
        eigs = np.linalg.eigvalsh(z.imag)
        if eigs.min() <= 1e-12:
            raise ValueError(f"imaginary part is not positive definite (min eig {eigs.min():.3g})")
        z.flags.writeable = False  # theta caches truncation geometry per point
        self.mat = z
        self.g = z.shape[0]
        self.min_im_eig = float(eigs.min())
        self._theta_lattice = None  # filled by theta on the first evaluation

    def __repr__(self):
        return f"SiegelPoint(g={self.g}, min_im_eig={self.min_im_eig:.4g})"


def act_siegel(m, z) -> SiegelPoint:
    """gamma(Z) = (AZ + B)(CZ + D)^{-1} for gamma in GSp_2g^+; CZ + D must have rcond >= 1e-10."""
    zp = z.mat if isinstance(z, SiegelPoint) else np.asarray(z, dtype=complex)
    m = intmat(m)
    a, b, c, d = (blk.astype(float) for blk in blocks(m))
    den = c @ zp + d
    sv = np.linalg.svd(den, compute_uv=False)
    if sv.min() / sv.max() < 1e-10:
        raise ValueError(f"CZ + D nearly singular (rcond {sv.min() / sv.max():.3g})")
    w = (a @ zp + b) @ np.linalg.inv(den)
    return SiegelPoint(w)
