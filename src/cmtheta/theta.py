"""Theta series with rational characteristics, evaluated with certified tails.

Conventions: e(z) = exp(2*pi*i*z) and

    Theta(Z; r, s) = sum_x e( t(x+r) Z (x+r) / 2 + t(x+r) s ),

over x in Z^g.  The quotient Phi_[r;s](Z) = Theta(Z; r, s) / Theta(Z; 0, 0)
is the theta constant attached to the characteristic [r; s].
"""
from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .exact import RootOfUnity
from .symplectic import SiegelPoint


class Characteristic:
    """A rational theta characteristic [r; s], held exactly.

    Stored as integer numerators `num` (the g entries of r, then the g entries
    of s) over one positive common denominator `den`, with gcd(den, *num) = 1,
    so equal characteristics have equal fields and hashes.  Whether [r; s] lies
    in [0,1)^2g is decided once, when it is built.  `r` and `s` read the
    entries back as Fraction tuples; `scaled(n)` gives the integer vector
    n [r; s] that the congruence layers work with.
    """

    __slots__ = ("num", "den", "_canonical")

    def __init__(self, num, den: int) -> None:
        num, den = tuple(map(operator.index, num)), operator.index(den)
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        k = math.gcd(den, *num)
        if k != 1:
            num, den = tuple(v // k for v in num), den // k
        self._set(num, den)

    def _set(self, num: tuple[int, ...], den: int) -> None:
        self.num = num
        self.den = den
        self._canonical = not num or (0 <= min(num) and max(num) < den)

    @classmethod
    def _make(cls, num: tuple[int, ...], den: int) -> "Characteristic":
        """num / den for a tuple of ints num and an int den > 0 with gcd(den, *num) = 1, taken as given."""
        out = cls.__new__(cls)
        out._set(num, den)
        return out

    @classmethod
    def make(cls, r, s) -> "Characteristic":
        r, s = [Fraction(v) for v in r], [Fraction(v) for v in s]
        den = math.lcm(*(v.denominator for v in r + s))
        nums = [v.numerator * (den // v.denominator) for v in r + s]
        return cls.from_den(nums[: len(r)], nums[len(r) :], den)

    @classmethod
    def parse(cls, tokens) -> "Characteristic":
        """[r; s] from 2g rational tokens such as '1/3', the r entries first; ValueError on bad input."""
        try:
            vals = [Fraction(tok) for tok in tokens]
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in characteristic {' '.join(tokens)!r}") from None
        if not vals or len(vals) % 2:
            raise ValueError(f"characteristic needs a positive even number of rationals, got {len(vals)}")
        g = len(vals) // 2
        return cls.make(vals[:g], vals[g:])

    @classmethod
    def from_den(cls, rnums, snums, den: int) -> "Characteristic":
        """[r; s] = [rnums; snums] / den for integer numerators."""
        if len(rnums) != len(snums):
            raise ValueError(f"r has {len(rnums)} entries and s has {len(snums)}")
        return cls((*rnums, *snums), den)

    @property
    def g(self) -> int:
        return len(self.num) // 2

    @property
    def r(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.num[: self.g])

    @property
    def s(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.num[self.g :])

    def scaled(self, n: int) -> list[int]:
        """The integer vector n [r; s] (r entries, then s entries).

        Raises ValueError unless the characteristic lies in (1/n)Z^2g.
        """
        q, rest = divmod(n, self.den)
        if rest:
            raise ValueError(f"{self} is not (1/{n})-integral")
        return [v * q for v in self.num]

    def neg(self) -> "Characteristic":
        return Characteristic._make(tuple(-v for v in self.num), self.den)

    def is_canonical(self) -> bool:
        """Whether [r; s] lies in [0,1)^2g."""
        return self._canonical

    def reduce(self) -> tuple["Characteristic", RootOfUnity]:
        """Translate into [0,1)^2g, returning the multiplier it costs.

        Theta(Z; r+a, s+b) = e(tr.b) Theta(Z; r,s) for integer a, b, with
        r the reduced row; so the value at self equals phase * value at the
        canonical representative.
        """
        num, den = self.num, self.den
        red = Characteristic._make(tuple(v % den for v in num), den)  # gcd(den, v mod den) = gcd(den, v), still 1
        return red, RootOfUnity._make(_translation_shift(num, den), den)

    def in_sigma_minus(self) -> bool:
        """Half-integral characteristics whose theta constant vanishes identically."""
        g = self.g
        return self.den == 2 and sum(a * b for a, b in zip(self.num[:g], self.num[g:])) % 2 == 1

    def __eq__(self, other):
        if not isinstance(other, Characteristic):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Characteristic(num={self.num!r}, den={self.den!r})"

    def __str__(self):
        row = lambda vs: " ".join(str(v) for v in vs)
        return f"[{row(self.r)}; {row(self.s)}]"


def _translation_shift(num, den: int) -> int:
    """sum_j (r_j mod den)(s_j // den) for numerators num (r, then s) over den: the one statement of the
    translation rule, theta at num / den is e(that / den) times theta at its reduction into [0,1)^2g."""
    return sum((rv % den) * (sv // den) for rv, sv in zip(num, num[len(num) // 2 :]))  # zip stops after the r entries


def zero_char(g: int) -> Characteristic:
    return Characteristic((0,) * (2 * g), 1)


def all_characteristics(n: int, g: int):
    """All [r; s] with entries in (1/n)Z / Z, canonical representatives."""
    for nums in itertools.product(range(n), repeat=2 * g):
        yield Characteristic.from_den(nums[:g], nums[g:], n)


@dataclass(frozen=True)
class EvalSettings:
    tol: float = 1e-12

    def __post_init__(self):
        if not 0 < self.tol < math.inf:  # also false for nan; a truncation needs a positive finite target
            raise ValueError(f"theta tolerance must be a positive finite number, got {self.tol}")


DEFAULT_SETTINGS = EvalSettings()
NULL_THRESHOLD = 1e-8  # divide_by_null refuses a smaller theta null
MAX_RADIUS = 200  # theta_eval refuses a truncation ellipsoid reaching further along any axis
MAX_CANDIDATES = 10**6  # theta_eval refuses a candidate box with more points: its arrays would pass ~100 MB
EPS = float(np.finfo(float).eps)
_EXP_RANGE = -math.log(np.finfo(float).tiny)  # exp(-x) is a normal float for 0 <= x < 708.4
_TWO_PI_I = 2j * math.pi


def _tail_bound(big_r: float, rho: float, g: int) -> float:
    """g (2/rho)^g int_{R-rho/2}^inf exp(-(t-rho/2)^2) t^(g-1) dt, for R >= rho.

    With h = rho/2 and s = t - h the integral is sum_k C(g-1, k) h^(g-1-k) J_k(R - rho),
    where J_k(a) = int_a^inf s^k exp(-s^2) ds: J_0 = sqrt(pi)/2 erfc(a),
    J_1 = exp(-a^2)/2 and J_k = a^(k-1) exp(-a^2)/2 + (k-1)/2 J_(k-2).
    """
    a, h = big_r - rho, rho / 2
    e = math.exp(-a * a)
    j = [math.sqrt(math.pi) / 2 * math.erfc(a), e / 2]
    for k in range(2, g):
        j.append(a ** (k - 1) * e / 2 + (k - 1) / 2 * j[k - 2])
    total = 0.0
    for k in range(g):
        total += math.comb(g - 1, k) * h ** (g - 1 - k) * j[k]
    return g * (2 / rho) ** g * total


def _rounding_bound(z_rows: list[list[complex]], rho: float, reach_y: int, ops: float, more: int, m_w: int) -> float:
    """u M0^(g-2) (A M0^2 + m_E pi (D M2 M0 + (S - D) M1^2) + m_w 2 pi (S + g) M1 M0); see theta_eval.

    The candidates lie in [-reach_y - 1, reach_y]^g; ops is a, more the roundings
    m_E and m_c gain when the terms are summed one by one, and m_w is given.
    """
    g = len(z_rows)
    m0, m1, m2 = 2.0, 1.0, 1.0  # y = 0 and y = -1, which some shift moves to v = 0
    for k in range(1, reach_y + 1):
        e = math.exp(-rho * rho * k * k)  # y = k and y = -k - 1 lie at distance k from 0
        m0, m1, m2 = m0 + 2 * e, m1 + (2 * k + 1) * e, m2 + (2 * k * k + 2 * k + 1) * e
    total = sum(abs(v) for row in z_rows for v in row)  # S
    diag = sum(abs(row[j]) for j, row in enumerate(z_rows))  # D
    fixed = ops + (2 * g + 5 + more) * math.pi * (total + 2 * g)  # A
    bound = (
        fixed * m0 * m0
        + (g * g + 3 + more) * math.pi * (diag * m2 * m0 + (total - diag) * m1 * m1)
        + m_w * 2 * math.pi * (total + g) * m1 * m0
    )
    return EPS / 2 * bound * m0 ** (g - 2)


def _radius(rho: float, g: int, target: float) -> tuple[float, float]:
    """(R, _tail_bound(R, rho, g)) for the least R = rho + m/32, m >= 1, whose tail bound is at most target.

    The bound is near C exp(-(R - rho)^2), so its value at the naive start rho + sqrt(-log target) gives C and
    a corrected start.  One walk steps up from there while the bound exceeds target, then down while the m
    below still meets it: about 3.5 bounds per cut.
    """
    bound = lambda m: _tail_bound(rho + m / 32, rho, g)
    log_target = math.log(target or math.ulp(0.0))  # a target of 0 is logged as the smallest subnormal
    start = max(1, round(32 * math.sqrt(max(-log_target, 0.0))))
    tail = bound(start)
    square = (start / 32) ** 2 + math.log(tail or math.ulp(0.0)) - log_target  # log C - log target
    m = max(1, round(32 * math.sqrt(max(square, 0.0))))  # where C exp(-(R - rho)^2) meets target
    tail = tail if m == start else bound(m)
    while tail > target:
        m, tail = m + 1, bound(m + 1)
    while m > 1 and (low := bound(m - 1)) <= target:
        m, tail = m - 1, low
    return rho + m / 32, tail


@dataclass(frozen=True)
class _Cut:
    """One certified truncation of the theta series at one SiegelPoint and tolerance, ready to sum.

    A cut is a _Factored or a _Terms, as the range guard of theta_eval decides; each has its
    own sum(linear, const), which returns the sum of exp(its part of pi i tyZy + linear + const).
    It is built from the point's eigh Im Z = V Lambda tV: T = sqrt(pi) Lambda^(1/2) tV, with
    |Tv|^2 = pi tv Im(Z) v, and rho = sqrt(pi min_im_eig), a lower bound on the shortest vector
    of T Z^g; the box extents (R + delta) sqrt(diag(Im Z^-1)_j / pi) read diag(Im Z^-1)_j =
    sum_k V_jk^2 / lambda_k off the same eigh, so a cut runs no cholesky or inv.  The box of
    candidates has n_j = dims[j] coordinates y_j along axis j.  coords holds them as integer rows,
    complex so that the one product [coords; I] [Z | I] casts nothing.  exponents is that product
    times 2 pi i with the Z block of its last g rows halved, len(coords) + g rows and 2g columns:
    with x = [shift; s] and t = Z shift + s, exponents.x gives 2 pi i ty t at each row y and then
    u = pi i (Z shift + 2s), and const = t(shift) u.  radius is R, and tail and rounding bound the
    omitted terms and the floating-point error (see theta_eval).  A cut is built on the point's
    first evaluation at its tolerance and kept on the point.  Only geometry is kept, never a
    theta value.
    """

    dims: tuple[int, ...]
    coords: np.ndarray
    exponents: np.ndarray
    radius: float
    tail: float
    rounding: float


@dataclass(frozen=True)
class _Factored(_Cut):
    """A cut summed as a contraction over its axes, where the range guard of theta_eval holds.

    coords stacks the box's coordinates in one matrix of n_0 + ... + n_(g-1) rows, axis 0
    first, and g columns, with y_j in column j and zero elsewhere.  factor is E(y) =
    exp(pi i tyZy) on the box, zero off the candidates, as a matrix of n_0 ... n_(g-2) rows
    (1 at g = 1), one per y_0, ..., y_(g-2) in C order, and n_(g-1) columns.  last is the slice
    of coords' rows, and so of the stacked exponents, on axis g-1; inner holds (n_j, the slice
    of axis j) for j = g-2, ..., 0, the order sum contracts them in.
    """

    factor: np.ndarray
    last: slice
    inner: tuple[tuple[int, slice], ...]

    def sum(self, linear: np.ndarray, const: complex) -> complex:
        """(E . w_(g-1) . ... . w_0) exp(const) with w = exp(linear), as theta_eval's order of summation states."""
        w = np.exp(linear)  # w_0(y_0), ..., w_(g-1)(y_(g-1)), stacked
        total = self.factor.dot(w[self.last])  # the last axis first, one matrix-vector product each
        for n, rows in self.inner:
            total = total.reshape(-1, n).dot(w[rows])
        return total.item() * cmath.exp(const)


@dataclass(frozen=True)
class _Terms(_Cut):
    """A cut summed term by term, where the range guard of theta_eval fails (entries of Im Z beyond about 100).

    coords lists the candidates, one row each, and quad their phases pi i tyZy.
    """

    quad: np.ndarray

    def sum(self, linear: np.ndarray, const: complex) -> complex:
        """The sum of the terms exp(pi i tyZy + linear + const) over the candidates, one exponential each."""
        return complex(np.exp(self.quad + linear + const).sum())


def _certified(zp: SiegelPoint, tol: float) -> _Cut:
    """The certified cut of zp at tolerance tol, a _Factored or a _Terms as the range guard decides (see theta_eval)."""
    z, g, (lam, vec) = zp.mat, zp.g, zp._im_eigh
    t_mat = np.sqrt(math.pi * lam)[:, None] * vec.T  # sqrt(pi) Lambda^(1/2) tV
    rho, target = math.sqrt(math.pi * zp.min_im_eig), tol / 2
    z_rows = z.tolist()
    y_row_sums = [sum(abs(v.imag) for v in row) for row in z_rows]  # sum_l |Im Z_jl|
    radius, tail = _radius(rho, g, target)
    # C covers the ellipsoid |T(y + f)| < R for every shift f (see theta_eval)
    delta = math.sqrt(math.pi * sum(y_row_sums)) / 2
    reach = radius + delta
    y_inv_diag = (vec * vec / lam).sum(axis=1)  # diag(Im Z^-1)_j = sum_k V_jk^2 / lambda_k
    half = [reach * math.sqrt(w / math.pi) for w in y_inv_diag.tolist()]  # its x-extent
    if max(half) > MAX_RADIUS:
        raise ValueError(f"truncation radius exceeds {MAX_RADIUS}; imaginary part too small")
    low = [math.ceil(-0.5 - w) for w in half]
    dims = [math.floor(-0.5 + w) - l + 1 for w, l in zip(half, low)]
    if math.prod(dims) > MAX_CANDIDATES:
        raise ValueError(f"truncation box has {math.prod(dims)} candidates at genus {g}, more than {MAX_CANDIDATES}")
    grid = np.indices(dims).reshape(g, -1).T + low
    inside = (((grid + 0.5) @ t_mat.T) ** 2).sum(axis=1) < reach * reach
    quad = 1j * np.pi * np.einsum("ij,jk,ik->i", grid, z, grid)
    grow = 2 * math.pi * sum(max(-l, l + n - 1) * w for l, n, w in zip(low, dims, y_row_sums))
    shrink = (reach + delta) ** 2  # bounds pi tyIm(Z)y on C: |Ty| <= |T(y + 1/2)| + delta
    if grow + shrink + math.log(len(grid)) < _EXP_RANGE:
        rows = np.zeros((sum(dims) + g, g), complex)  # the coordinates, then I
        slices = []
        for j, (l, n) in enumerate(zip(low, dims)):
            slices.append(slice(sum(dims[:j]), sum(dims[: j + 1])))
            rows[slices[j], j], rows[j - g, j] = np.arange(l, l + n), 1
        last, inner = slices[-1], tuple(zip(dims[-2::-1], slices[-2::-1]))
        kind, fields = _Factored, (np.where(inside, np.exp(quad), 0).reshape(-1, dims[-1]), last, inner)
        ops, more, m_w = 8 * (g + 2) + math.sqrt(2) * (2 * sum(dims) + 2), 0, g + 5
    else:
        rows, kind, fields = np.concatenate((grid[inside], np.eye(g)), dtype=complex), _Terms, (quad[inside],)
        ops, more, m_w = len(rows) - g + 7, g + 2, 3 * g + 5
    exponents = rows.dot(np.concatenate((z, rows[-g:]), axis=1))  # [coords; I] [Z | I] in one product
    exponents *= _TWO_PI_I
    exponents[-g:, :g] = z * (_TWO_PI_I / 2)  # pi i Z: that block halved exactly; /= 2 on the view is 1 us slower
    reach_y = max(max(-l - 1, l + n - 1) for l, n in zip(low, dims))
    rounding = _rounding_bound(z_rows, rho, reach_y, ops + 24, more, m_w)  # + 24: the phase of a reduced call
    return kind(tuple(dims), rows[:-g], exponents, radius, tail, rounding, *fields)


def theta_eval(z, chi: Characteristic, settings: EvalSettings = DEFAULT_SETTINGS) -> complex:
    """Theta(Z; r, s), off by at most tol/2 + the cut's rounding bound, for every [r; s].

    [r; s] = [r' + a; s' + b], with [r'; s'] in [0, 1)^2g and a, b integral, is
    summed at [r'; s'] times the exact phase e(r'.b), both from
    Characteristic.reduce on the integer numerators, whatever the size of s.
    So below, r and s lie in [0, 1)^g.

    The sum runs over v = y + r, y in one integer candidate set C.  The term at
    v has modulus exp(-|T(y + f)|^2), with f = r and T = sqrt(pi) Lambda^(1/2) tV
    from the point's eigh Im Z = V Lambda tV: |Tv|^2 = pi tv Im(Z) v.
    C, the radius R and both error bounds are built once per SiegelPoint and
    tolerance and kept on the point; no theta value is kept.

    Tail, after Deconinck, Heil, Bobenko, van Hoeij and Schmies, "Computing
    Riemann theta functions", Math. Comp. 73 (2004).  The lattice T Z^g has
    shortest vector at least rho = sqrt(pi min_im_eig), so the balls of radius
    rho/2 about the points of T(Z^g + f) are disjoint.  Take a point p with
    |p| >= R >= rho and any q in its ball: |p| >= |q| - rho/2 >= 0, so
    exp(-|p|^2) is at most the ball average of exp(-(|q| - rho/2)^2), and the
    ball lies in |q| >= R - rho/2.  Summed over all such p, the omitted terms
    total at most vol(B_{rho/2})^-1 times the integral of exp(-(|q| - rho/2)^2)
    over |q| >= R - rho/2, which in polar coordinates is
    g (2/rho)^g int_{R-rho/2}^inf exp(-(t - rho/2)^2) t^(g-1) dt  (_tail_bound).
    R is the least rho + m/32 at which this is at most tol/2, found by one walk (_radius).  Since
    |T(y + f)| >= |T(y + 1/2)| - delta, with delta^2 = pi sum_jk |Im Z_jk| / 4
    >= |Te|^2 for e in [-1/2, 1/2]^g, C = {y : |T(y + 1/2)| < R + delta}
    covers the ellipsoid |T(y + f)| < R for every shift f.

    Order of summation.  With shift = r and t = Z shift + s, the
    exponent at v = y + shift is pi i tyZy + 2 pi i sum_j y_j t_j + const,
    const = pi i t(shift) (t + s): a fixed quadratic part and a part
    linear in each y_j.  A call forms both with one BLAS product of the cut's
    exponent matrix (see _Cut) with x = [shift; s]: the linear part of every
    row, then u = pi i (Z shift + 2s) and const = sum_j shift_j u_j in Python.
    A _Factored cut keeps E(y) = exp(pi i tyZy) on the box
    n_0 x ... x n_(g-1) of C's coordinate ranges, zero off C, as a matrix
    with one column per y_(g-1), and its rows on axis j give every w_j(y_j) =
    exp(2 pi i y_j t_j) in one exponential.  It then contracts the last axis
    first, with one BLAS matrix-vector product per axis on the slice of w the
    cut keeps for it: the stored matrix E against w_(g-1) as it is, and each
    later axis after a reshape of the partial sum, giving
    (E . w_(g-1) . ... . w_0) exp(const) from sum_j n_j exponentials, not |C|.

    Range guard.  Im t = Im(Z) f, so |w_j(y_j)| <= exp(2 pi |y_j| sum_l
    |Im Z_jl|) for every characteristic: at most exp(G) in product over
    the box.  On C, |Ty| <= |T(y + 1/2)| + delta < R + 2 delta, so
    |E| > exp(-B) with B = (R + 2 delta)^2.  Every nonzero partial product then
    lies in [exp(-G-B), exp(G)] and every partial sum below |box| exp(G).  The
    cut is factored only if G + B + log|box| < -log(smallest normal float) =
    708.4, so that nothing overflows or leaves the normal floats, as the
    rounding bound assumes.  Otherwise (entries of Im Z beyond about 100) the cut
    is a _Terms, and the terms exp(pi i tyZy + 2 pi i ty t + const) are summed one by one.

    Rounding, to first order in u = eps/2, with each operation off by at most
    u times its result.  The computed sum is sum_y term(y) (1 + d(y)), with
    |d(y)| <= u (a + m_E pi |y|^t|Z||y| + m_w 2 pi sum_j tau_j |y_j| + m_c kappa):
    - a counts the arithmetic.  Each of the g + 2 exponentials is off by at
      most 8u (exp, cos and sin within one ulp, two products).  Along axis j
      the contraction is a complex inner product of length n_j.  Its real and
      imaginary parts are real inner products of length 2 n_j, each off by at
      most 2 n_j u times the sum of the moduli of its products, in any order,
      so the axis adds sqrt(2) 2 n_j.  The product with exp(const) adds
      sqrt(2) 2.  Summed one by one instead, a = |C| + 7: one exponential and
      a sum of |C| terms.  A reduced call multiplies by its phase e(q), q in
      [0, 1): 2 pi q, three roundings, moves it by at most 6 pi u, cmath.exp
      adds 2u and the product sqrt(2) 2u, so every cut adds 24 to a.
    - An argument formed along at most m roundings is off by at most m u
      times the same expression with every input replaced by its modulus, and
      moves its exponential by as much, relatively; float pi counts as one
      rounding.  pi i tyZy has m_E = g^2 + 3.  2 pi i y_j t_j has m_w = g + 5,
      with tau_j = sum_l |Z_jl||shift_l| + |s_j| the moduli in t_j: x_l (1),
      the entry 2 pi i y Z_jl (pi, times y, times 2 pi: 3), its product with
      x_l (1) and the sum of the g + 1 nonzero products (g).  const has
      m_c = 2g + 5 and kappa = pi sum_j |shift_j| (tau_j + |s_j|): u_j takes
      g + 4 as above (its entries pi i Z_jl take 2), shift_j u_j 2 and their
      sum g - 1.  Summed one by one, m_E and m_c grow by g + 2, and m_w is
      3g + 5: x_l (1), the entry 2 pi i sum_j y_j Z_jl (pi, the sum, 2 pi:
      g + 2), its product (1), the sum of 2g products (2g - 1) and the two
      additions of pi i tyZy and const (2).
    To sum this over C for every shift at once: |Tv| >= rho |v|, so
    |term(y)| <= prod_j exp(-rho^2 d_j^2), with d_j the distance from 0 to
    [y_j, y_j + 1).  Over the smallest box [-K-1, K]^g that holds C, the bound
    then factors into the sums M_k = sum_y exp(-rho^2 d(y)^2) |y|^k,
    k = 0, 1, 2, over -K-1 <= y <= K.  The cut's `rounding` is
    u M0^(g-2) (A M0^2 + m_E pi (D M2 M0 + (S - D) M1^2) + m_w 2 pi (S + g) M1 M0),
    with S = sum_jk |Z_jk|, D = sum_j |Z_jj| and A = a + m_c pi (S + 2g).  It
    takes tau_j = sum_l |Z_jl| + 1 and kappa = pi sum_j (tau_j + 1), which bound
    them on every call, as shift and s lie in [0, 1)^g.  `rounding` is not
    capped: where it exceeds tol/2 (large boxes, small rho, tiny tol) the call
    still runs and tail + rounding is the bound that holds.
    """
    return _theta(z if isinstance(z, SiegelPoint) else SiegelPoint(z), chi, settings.tol)


def _theta(zp: SiegelPoint, chi: Characteristic, tol: float) -> complex:
    """theta_eval at a SiegelPoint and a tolerance: the one sum that theta_eval, theta_null and phi_eval call."""
    g = zp.g
    if len(chi.num) != 2 * g:
        raise ValueError(f"characteristic has genus {chi.g}, the point has genus {g}")
    if not chi._canonical:
        red, phase = chi.reduce()
        return phase.value() * _theta(zp, red, tol)
    den = chi.den
    x = [v / den for v in chi.num]  # [shift; s], shift = r
    cut = zp._theta_cuts.get(tol)
    if cut is None:
        cut = zp._theta_cuts[tol] = _certified(zp, tol)
    # with v = y + shift: pi i tvZv + 2 pi i tvs = pi i tyZy + 2 pi i ty t + const
    full = cut.exponents.dot(x)  # every 2 pi i ty t, then u
    return cut.sum(full[:-g], sum(map(mul, x, full[-g:].tolist())))  # const = t(shift) u: map stops after shift


def theta_null(z, settings: EvalSettings = DEFAULT_SETTINGS) -> complex:
    zp = z if isinstance(z, SiegelPoint) else SiegelPoint(z)
    return _theta(zp, zero_char(zp.g), settings.tol)


def phi_eval(
    chi: Characteristic,
    z,
    settings: EvalSettings = DEFAULT_SETTINGS,
    null_value: complex | None = None,
) -> complex:
    """The theta constant Phi_[r;s](Z); pass null_value to reuse a denominator."""
    zp = z if isinstance(z, SiegelPoint) else SiegelPoint(z)
    den = theta_null(zp, settings) if null_value is None else null_value
    return divide_by_null(_theta(zp, chi, settings.tol), den)


def divide_by_null(value: complex, null: complex) -> complex:
    """value divided by the theta null `null`; the one guard on that division raises ValueError below NULL_THRESHOLD."""
    if abs(null) < NULL_THRESHOLD:
        raise ValueError(f"theta null value too small ({abs(null):.3g}) to divide by")
    return value / null


def random_siegel(rng: np.random.Generator, g: int = 2, base: float = 0.8) -> SiegelPoint:
    """A random, well-conditioned point of H_g (min imaginary eigenvalue >= base)."""
    x = rng.uniform(-0.5, 0.5, (g, g))
    l = rng.uniform(-0.4, 0.4, (g, g))
    return SiegelPoint((x + x.T) / 2 + 1j * (l @ l.T + base * np.eye(g)))
