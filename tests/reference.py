"""The definitional references the tests compare the package against, one per concept.

Each is the slow, obvious form of a fast path in src/cmtheta: Fraction
arithmetic in place of integer numerators, a term-by-term or high-precision sum
in place of a factored one, a solve in place of a table.  Tests import what
they need from here; no test module imports another.
"""
import cmath
import itertools
import math
import operator
from fractions import Fraction
from fractions import Fraction as F
from math import gcd

import mpmath as mp
import numpy as np

from cmtheta import theta
from cmtheta.action import ActionResult
from cmtheta.cmfield import _BASIS
from cmtheta.exact import RootOfUnity, solve_exact
from cmtheta.symplectic import blocks, identity, intmat, sympl_multiplier
from cmtheta.theta import Characteristic


def reference_exponent(q) -> Fraction:
    """e(q) as a Fraction mod 1, the form RootOfUnity first kept: the reference."""
    return Fraction(q) % 1


def block_special_gamma(kind, j, k, n, g):
    """special_gamma as first written, with np.block: the reference."""
    a0 = np.zeros((g, g), dtype=object)
    a0[j - 1, k - 1] = a0[k - 1, j - 1] = 1
    i, z, na = identity(g), np.zeros((g, g), dtype=object), n * a0
    shapes = {
        "upper": [[i, na], [z, i]],
        "lower": [[i, z], [na, i]],
        "mixed": [[i - na, na], [-na, i + na]],
    }
    return np.block(shapes[kind])


def fraction_form(m):
    """tM J M in Fractions, by the definition: the reference for the membership kernel."""
    rows = [[Fraction(v) for v in row] for row in m.tolist()]
    size, g = len(rows), len(rows) // 2
    j = [[-1 if k == i + g else 1 if i == k + g else 0 for k in range(size)] for i in range(size)]
    jm = [[sum(j[i][a] * rows[a][k] for a in range(size)) for k in range(size)] for i in range(size)]
    return [[sum(rows[a][i] * jm[a][k] for a in range(size)) for k in range(size)] for i in range(size)], j


def reference_memberships(m, n):
    """(sympl_multiplier, in_gamma, whether tAC and tBD have even diagonals) of m at modulus n from fraction_form."""
    t, j = fraction_form(m)
    size, g = len(t), len(t) // 2
    nu = int(-t[0][g]) % n
    units = gcd(nu, n) == 1 and all((t[i][k] - nu * j[i][k]) % n == 0 for i in range(size) for k in range(size))
    congruent = all((m[i, k] - (i == k)) % n == 0 for i in range(size) for k in range(size))
    diag = [sum(Fraction(m[a, c] * m[a + g, c]) for a in range(g)) for c in range(size)]  # tAC then tBD
    return nu if units else None, t == j and congruent, all(v % 2 == 0 for v in diag)


def genus_one_sum(y, r, s, reach=30):
    """Theta(iy; r, s) at genus 1, summed in 30-digit mpmath over |n| <= reach."""
    mp.mp.dps = 30
    r, s = mp.mpf(r.numerator) / r.denominator, mp.mpf(s.numerator) / s.denominator
    return complex(
        mp.fsum(mp.exp(-mp.pi * mp.mpf(y) * (n + r) ** 2 + 2j * mp.pi * (n + r) * s) for n in range(-reach, reach + 1))
    )


def mp_box_sum(z, chi, reaches):
    """Theta(Z; r, s) summed in 30-digit mpmath over the box |x_j| <= reaches[j], the reference for a rounding bound."""
    mp.mp.dps = 30
    g = chi.g
    zm = [[mp.mpc(v) for v in row] for row in z.tolist()]
    r, s = ([mp.mpf(v.numerator) / v.denominator for v in half] for half in (chi.r, chi.s))
    total = mp.mpc(0)
    for x in itertools.product(*(range(-k, k + 1) for k in reaches)):
        v = [xj + rj for xj, rj in zip(x, r)]
        quad = mp.fsum(v[j] * zm[j][k] * v[k] for j in range(g) for k in range(g))
        total += mp.exp(1j * mp.pi * quad + 2j * mp.pi * mp.fsum(a * b for a, b in zip(v, s)))
    return complex(total)


def per_term_rounding(zp, cut, r, s):
    """u sum_y |term(y)| (a + m_E pi |y|^t|Z||y| + m_w 2 pi sum_j tau_j |y_j| + m_c kappa) over the cut's candidates.

    The first-order model of theta_eval's docstring at shift r and s, before it is bounded over every shift.
    """
    z, g = zp.mat, zp.g
    if isinstance(cut, theta._Factored):
        low = cut.coords.real[np.cumsum((0, *cut.dims[:-1])), range(g)]  # the first y_j of each axis
        ys = np.argwhere(cut.factor.reshape(cut.dims) != 0) + low
        a, more, m_w = 8 * (g + 2) + math.sqrt(2) * (2 * sum(cut.dims) + 2) + 24, 0, g + 5
    else:
        ys = cut.coords.real
        a, more, m_w = len(ys) + 7 + 24, 2, 3 * g + 5
    v = ys + r
    modulus = np.exp(-np.pi * np.einsum("ij,jk,ik->i", v, z.imag, v))
    abs_z, abs_y = np.abs(z), np.abs(ys)
    tau = abs_z @ r + s
    kappa = np.pi * np.sum(r * (tau + s))
    per_term = (
        a
        + (g * g + 3 + more) * np.pi * np.einsum("ij,jk,ik->i", abs_y, abs_z, abs_y)
        + m_w * 2 * np.pi * (abs_y @ tau)
        + (2 * g + 5 + more) * kappa
    )
    return theta.EPS / 2 * float(modulus @ per_term)


def doubling_radius(rho, g, target):
    """The truncation radius as first searched, the reference.

    From rho + 1 the distance to rho doubles until the tail bound is at most
    target, then the bracket is bisected until its float width is at most 1/32.
    That width test can round up once, so the search sometimes takes one more
    halving and returns a point half a grid step below rho + m/32.
    """
    lo, hi = rho, rho + 1.0
    while theta._tail_bound(hi, rho, g) > target:
        lo, hi = hi, rho + 2 * (hi - rho)
    while hi - lo > 1 / 32:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if theta._tail_bound(mid, rho, g) > target else (lo, mid)
    return hi


def cholesky_candidates(zp, radius):
    """The candidate box and set of a cut of radius `radius` at zp, as first derived: the reference.

    T is the scaled Cholesky factor of Im Z and the box extents come from the
    inverse of Im Z; the rest is _certified's arithmetic.  Returns the axis
    lengths, the box as integer rows in C order and the mask of candidates.
    """
    y, g = zp.mat.imag, zp.g
    t_mat = math.sqrt(math.pi) * np.linalg.cholesky(y).T
    reach = radius + math.sqrt(math.pi * sum(sum(abs(v) for v in row) for row in y.tolist())) / 2
    half = [reach * math.sqrt(w / math.pi) for w in np.linalg.inv(y).diagonal().tolist()]
    low = [math.ceil(-0.5 - w) for w in half]
    dims = tuple(math.floor(-0.5 + w) - l + 1 for w, l in zip(half, low))
    grid = np.indices(dims).reshape(g, -1).T + low
    return dims, grid, (((grid + 0.5) @ t_mat.T) ** 2).sum(axis=1) < reach * reach


def reshaped_contraction(cut, chi):
    """Theta at a factored cut as first contracted, the reference.

    x = [shift; s] goes through np.array into the cut's exponent matrix, every
    axis (the last too) is contracted after a reshape, and each axis's rows of
    the stacked exponents are found from dims.  A non-canonical chi is reduced
    first, as theta_eval does.
    """
    if not chi.is_canonical():
        red, phase = chi.reduce()
        return phase.value() * reshaped_contraction(cut, red)
    g = chi.g
    x = [v / chi.den for v in chi.num]
    full = cut.exponents.dot(np.array(x))
    const = sum(map(operator.mul, x[:g], full[-g:].tolist()))
    w = np.exp(full[:-g])
    total, end = cut.factor, len(w)
    for n in reversed(cut.dims):
        total, end = total.reshape(-1, n).dot(w[end - n : end]), end - n
    return complex(total[0]) * cmath.exp(const)


def python_route_exponents(zp, cut, x):
    """The linear exponents and the constant at x = [shift; s] as first formed, in Python complex arithmetic: the reference.

    t = Z shift + s entry by entry, then coords . [2 pi i t_j] in complex numpy and pi i t(shift) (t + s).
    """
    s = x[zp.g :]
    t = [sum(map(operator.mul, row, x), c) for row, c in zip(zp.mat.tolist(), s)]
    const = 1j * math.pi * sum(map(operator.mul, x, map(operator.add, t, s)))
    return cut.coords.dot([2j * math.pi * v for v in t]), const


def direct_sum(z, chi, radius):
    """Theta(0, Z; r, s) summed term by term over |x_j| <= radius, the reference."""
    g = chi.g
    r, s = np.array(chi.r, dtype=float), np.array(chi.s, dtype=float)
    v = np.indices((2 * radius + 1,) * g).reshape(g, -1).T - radius + r
    return complex(np.exp(1j * np.pi * np.einsum("ij,jk,ik->i", v, z, v) + 2j * np.pi * (v @ s)).sum())


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


def fraction_exponent(gamma, chi, n):
    """The multiplier exponent in Fraction matrices, as first written: the reference."""
    gamma = intmat(gamma)
    over = np.vectorize(lambda v: v // n, otypes=[object])(gamma - identity(gamma.shape[0]))
    a0, b0, c0, d0 = blocks(over)
    nr = np.array([int(n * v) for v in chi.r], dtype=object)
    ns = np.array([int(n * v) for v in chi.s], dtype=object)
    m_rr = -b0.T + n * (a0 @ b0.T)
    m_ss = c0 + n * (c0 @ d0.T)
    m_rs = a0 + F(n, 2) * (a0 @ d0.T + d0.T @ a0 + b0 @ c0.T - b0.T @ c0)
    return F(
        -F(1, 2 * n) * (nr @ (m_rr @ nr)) - F(1, 2 * n) * (ns @ (m_ss @ ns)) - F(1, n) * (nr @ (m_rs @ ns))
    )


def fraction_transpose_apply(alpha, chi):
    """t(alpha) [r; s] in Fraction arithmetic, as first written: the reference."""
    col = chi.r + chi.s
    at = intmat(alpha).T
    g = chi.g
    out = [sum((F(int(at[i, j])) * col[j] for j in range(2 * g)), F(0)) for i in range(2 * g)]
    return Characteristic.make(out[:g], out[g:])


def fraction_act_phi(alpha, chi, m):
    """act_phi with the transpose taken in Fraction arithmetic, as first written: the reference."""
    moved = fraction_transpose_apply(alpha, chi)
    a = sympl_multiplier(alpha, modulus=2 * m * m)
    before = sum((rv * a * sv for rv, sv in zip(chi.r, chi.s)), F(0))
    after = sum((rv * sv for rv, sv in zip(moved.r, moved.s)), F(0))
    return ActionResult(RootOfUnity((before - after) / 2), moved)


def h_map_by_solves(x):
    # the defining solve: row j of h(x) holds the CM-basis coordinates of x * xi_j
    bmat = [[_BASIS[k].coeffs[i] for k in range(4)] for i in range(4)]
    return [solve_exact(bmat, list((x * xj).coeffs)) for xj in _BASIS]


def paper_first_row(coords):
    """The paper's quadratic forms for the first row (a, b, c, d) of h(phi*(x)), x on 1, zeta, ..., zeta^4."""
    a0, a1, a2, a3, a4 = coords
    a = a0 * a0 - a0 * a1 - a0 * a3 + a1 * a2 + a1 * a3 - a1 * a4 - a2 * a2 + a2 * a4
    b = -a0 * a1 + a0 * a2 - a0 * a3 + a0 * a4 + a1 * a2 - a2 * a2 + a3 * a3 - a3 * a4
    c = -a0 * a1 - a0 * a2 + a0 * a3 + a0 * a4 + a1 * a1 - a1 * a3 + a2 * a4 - a4 * a4
    d = a0 * a2 - a0 * a3 + a1 * a3 - a1 * a4 - a2 * a2 + a2 * a3 - a3 * a4 + a4 * a4
    return a, b, c, d


def reference_stabilizer(a, within):
    return frozenset(t % a.n for t in within if a.galois(t) == a)


def reference_norm(t, a, b, c, d, n, m):
    # the combinator as first written, inverting in the whole of Q(zeta_n)
    return (a * t.x + b) ** n * (c * t.y + d) ** (-m * t.ell) * t.norm_mid((c * t.y + d) ** m)


def fraction_scalar_ops(a, q) -> dict:
    """Each operation of a CycloElem a with a rational q as (n, num, den), on Fraction coefficients: the reference.

    q is read through Fraction, as these operations first read it, and a rational acts on the power basis through
    its constant coefficient.  A result is its coefficients over their least common denominator.
    """
    q = Fraction(q)
    cs = [Fraction(c, a.den) for c in a.num]
    plus = [c + q if j == 0 else c for j, c in enumerate(cs)]
    ops = {
        "a + q": plus,
        "q + a": plus,
        "a - q": [c - q if j == 0 else c for j, c in enumerate(cs)],
        "q - a": [q - c if j == 0 else -c for j, c in enumerate(cs)],
        "a * q": [c * q for c in cs],
        "q * a": [q * c for c in cs],
        "from_rational": [q] + [Fraction(0)] * (len(cs) - 1),
    }
    if q:
        ops["a / q"] = [c / q for c in cs]
    out = {}
    for name, coeffs in ops.items():
        den = math.lcm(*(c.denominator for c in coeffs))
        out[name] = (a.n, tuple(c.numerator * (den // c.denominator) for c in coeffs), den)
    out["a == q"] = cs == ops["from_rational"]
    return out
