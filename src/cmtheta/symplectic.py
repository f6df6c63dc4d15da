"""Exact symplectic-group machinery and the action on the Siegel upper half-space.

Public integer matrices are numpy object arrays of Python ints, which callers
multiply with @.  Each exact congruence question reads its matrix once, through
_columns, as Python-int columns: the membership tests for Sp_2g, Gamma(n) and
G_n and the transpose move tM x of action._move work on those, so nothing
overflows.  Membership reads tM J M once, as _form's list of its entries (i, k),
i < k; J's list is -1 at each (l, g + l) and 0 elsewhere, so nu is minus the
entry (0, g).  Only act_siegel and SiegelPoint work in floating point.
"""
from __future__ import annotations

from functools import cache
from math import gcd, inf
from numbers import Integral
from operator import mul

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
        if v in (inf, -inf) or v != int(v):
            raise ValueError(f"non-integer entry {v!r}")
    return np.vectorize(int, otypes=[object])(arr)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=object)


def jmat(g: int) -> np.ndarray:
    z, i = np.zeros((g, g), dtype=object), identity(g)
    return np.block([[z, -i], [i, z]])


def blocks(m: np.ndarray):
    """Split a 2g x 2g matrix into (A, B, C, D)."""
    g = m.shape[0] // 2
    return m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:]


def _columns(m):
    """The columns of the 2g x 2g integer matrix m as lists of Python ints: the one private layout of an exact matrix.

    Every kernel here and action._move takes these whole columns; a kernel that wants column j's bottom half
    slices col[g:] and lets map stop after g entries for its top half.  The one place an exact matrix becomes
    Python ints; raises ValueError for any other m.
    """
    m = intmat(m)
    size = m.shape[0]
    if size < 2 or size % 2 or m.shape[1] != size:
        raise ValueError(f"expected a 2g x 2g matrix, got shape {m.shape}")
    return m.T.tolist()


def _form(cols) -> list:
    """The entries (tM J M)[i, k], i < k, row by row, of the matrix with these columns (see _columns), as one list.

    They decide the antisymmetric tM J M.  nu J gives -nu at each (l, g + l), so nu is minus entry (0, g), index g - 1.
    """
    g, out = len(cols) // 2, []
    for i, ci in enumerate(cols):
        for k in range(i + 1, 2 * g):
            ck, s = cols[k], 0
            for l in range(g):
                s += ci[g + l] * ck[l] - ci[l] * ck[g + l]
            out.append(s)
    return out


@cache
def _j_form(size: int) -> list:
    """_form of J at size 2g (tJ J J = J): -1 at each pair (l, g + l) and 0 elsewhere; shared, so never mutated."""
    return [-(k == i + size // 2) for i in range(size) for k in range(i + 1, size)]


def _similitude(cols) -> int:
    """-(tM J M)[0, g]: the exact similitude nu of M when tM J M = nu J; the one entry of _form that build reads."""
    g = len(cols) // 2
    return sum(map(mul, cols[0], cols[g][g:])) - sum(map(mul, cols[0][g:], cols[g]))


def _multiplier(cols, modulus: int) -> int | None:
    nu = -(form := _form(cols))[len(cols) // 2 - 1] % modulus
    unit = gcd(nu, modulus) == 1
    return nu if unit and [v % modulus for v in form] == [nu * j % modulus for j in _j_form(len(cols))] else None


def _gamma_member(cols, n: int) -> bool:
    # M = I mod n in one pass over the residues: the diagonal (stride size + 1) is all 1 % n and the residues,
    # each in [0, n), add up to the diagonal's total, so every other residue is 0; then tM J M = J over Z
    size, one = len(cols), 1 % n
    res = [v % n for col in cols for v in col]
    return res[:: size + 1] == [one] * size and sum(res) == size * one and _form(cols) == _j_form(size)


def _g_member(cols, nu: int, n: int) -> int | None:
    """nu mod n if the matrix with these columns (see _columns), of similitude nu, lies in G_n, else None.

    G_n is GSp_2g mod n (any unit multiplier) with even diagonals of tAC and tBD; S_n is its part with nu = 1.
    This is the one statement of the rule; the caller vouches for tM J M = nu J mod n: GaloisActor.build by its
    exact similitude N(x), _g_multiplier by testing it.  Parity is read off the matrix; for even n it is
    independent of the choice of lift.
    """
    # column j contributes (tAC)[j, j] for j < g and (tBD)[j - g, j - g] after
    g = len(cols) // 2
    return nu % n if gcd(nu, n) == 1 and not any(sum(map(mul, col, col[g:])) % 2 for col in cols) else None


def _g_multiplier(cols, n: int) -> int | None:
    """nu mod n if the matrix with these columns lies in G_n, else None: tM J M = nu J mod n, then _g_member."""
    nu = _multiplier(cols, n)
    return None if nu is None else _g_member(cols, nu, n)


def sympl_multiplier(m, modulus: int):
    """The similitude nu in [0, modulus) with tM J M = nu J mod modulus, or None unless nu exists and is a unit."""
    return _multiplier(_columns(m), modulus)


def in_gamma(m, n: int) -> bool:
    """Membership in Gamma(n) = {M in Sp_2g(Z) : M = I mod n}: the congruence, then tM J M == J over Z."""
    return _gamma_member(_columns(m), n)


def is_symplectic(m) -> bool:
    """Membership in Sp_2g(Z), which is Gamma(1)."""
    return in_gamma(m, 1)


def is_integer(v) -> bool:
    """Whether v is an int or a numbers.Integral, numpy's included: the one integer rule of the package."""
    return type(v) is int or isinstance(v, Integral)  # int first: the ABC test is the slow one


def check_level(n: int) -> int:
    """n as an int, ValueError unless it is a positive even Integral (numpy's too): the one rule for a level."""
    if not is_integer(n) or n % 2 or n <= 0:
        raise ValueError(f"level must be a positive even integer, got {n!r}")
    return int(n)


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
    """Distinguished generators of Gamma(n), indexed by 1-based (j, k), written into an identity matrix.

    kind is "upper", "lower" or "mixed"; the seed block is E_jj on the
    diagonal and the symmetrized E_jk + E_kj off it, which keeps all three
    shapes inside Sp_2g(Z).  A float, Fraction or str j, k or n is a ValueError.
    """
    if not (all(map(is_integer, (j, k, n))) and 1 <= j <= g and 1 <= k <= g):
        raise ValueError(f"generator indices are integers from 1 to g = {g} and n an integer, got ({j}, {k}), {n!r}")
    na = np.zeros((g, g), dtype=object)  # n times the seed block
    na[j - 1, k - 1] = na[k - 1, j - 1] = int(n)
    m = identity(2 * g)
    if kind == "upper":
        m[:g, g:] = na
    elif kind == "lower":
        m[g:, :g] = na
    elif kind == "mixed":
        m[:g, :g] -= na
        m[:g, g:] = na
        m[g:, :g] = -na
        m[g:, g:] += na
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return m


# -- Siegel upper half-space ------------------------------------------------


class SiegelPoint:
    """A point of the Siegel upper half-space H_g, validated on construction.

    Small symmetry defects (from floating-point matrix actions) are repaired
    by symmetrization; genuine asymmetry, a non-finite entry or a non-positive-definite imaginary part
    raises ValueError.  Im Z is factored once, by one eigh, kept on the point (min_im_eig is its least
    eigenvalue); no other routine factors or inverts Im Z.
    """

    def __init__(self, mat) -> None:
        z = np.asarray(mat, dtype=complex)
        if z.ndim != 2 or z.shape[0] != z.shape[1] or not z.size:
            raise ValueError("Siegel point must be a nonempty square matrix")
        if not np.isfinite(z).all():
            raise ValueError("Siegel point has a non-finite entry")
        defect = np.abs(z - z.T).max()
        if defect > 1e-9 * max(1.0, np.abs(z).max()):
            raise ValueError(f"matrix is not symmetric (defect {defect:.3g})")
        z = (z + z.T) / 2
        lam, vec = np.linalg.eigh(z.imag)  # Im Z = V diag(lam) tV, lam ascending
        if lam[0] <= 1e-12:
            raise ValueError(f"imaginary part is not positive definite (min eig {lam[0]:.3g})")
        z.flags.writeable = False  # theta caches truncation geometry per point
        self.mat = z
        self.g = z.shape[0]
        self.min_im_eig = float(lam[0])
        self._im_eigh = (lam, vec)  # the one factorisation of Im Z: theta's cuts and act_siegel's range test read it
        self._theta_cuts = {}  # tolerance -> theta._Cut, built by theta on the first evaluation at that tolerance

    def __repr__(self):
        return f"SiegelPoint(g={self.g}, min_im_eig={self.min_im_eig:.4g})"


def act_siegel(m, z) -> SiegelPoint:
    """gamma(Z) = (AZ + B)(CZ + D)^{-1}, gamma in GSp_2g^+, z a SiegelPoint or its matrix; rcond(CZ + D) >= 1e-10.

    An entry of gamma too large for a float is a ValueError, and so is a rejected image whose bound on its
    lambda_min (below) is under the smallest normal float: that message names the float range, not the point.
    """
    zp = z if isinstance(z, SiegelPoint) else SiegelPoint(z)
    try:
        a, b, c, d = (blk.astype(float) for blk in blocks(intmat(m)))
    except OverflowError:
        raise ValueError("matrix has an entry too large for a float") from None
    den = c @ zp.mat + d
    sv = np.linalg.svd(den, compute_uv=False)
    if sv.min() / sv.max() < 1e-10:
        raise ValueError(f"CZ + D nearly singular (rcond {sv.min() / sv.max():.3g})")
    w = (a @ zp.mat + b) @ np.linalg.inv(den)
    try:
        return SiegelPoint(w)
    except ValueError:
        # for gamma in Sp_2g, lambda_min(Im gamma(Z)) <= lambda_max(Im Z) / sigma_max(CZ + D)^2
        if zp._im_eigh[0][-1] / sv.max() / sv.max() < np.finfo(float).tiny:
            raise ValueError("gamma(Z) is outside the float range: Im gamma(Z) underflows") from None
        raise
