"""Theta series with rational characteristics, evaluated with certified tails.

Conventions: e(z) = exp(2*pi*i*z) and

    Theta(u, Z; r, s) = sum_x e( t(x+r) Z (x+r) / 2 + t(x+r) (u+s) ),

over x in Z^g.  The quotient Phi_[r;s](Z) = Theta(0, Z; r, s) / Theta(0, Z; 0, 0)
is the theta constant attached to the characteristic [r; s].
"""
from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import RootOfUnity
from .symplectic import SiegelPoint


@dataclass(frozen=True)
class Characteristic:
    """A rational theta characteristic [r; s], held exactly.

    Stored as integer numerators `num` (the g entries of r, then the g entries
    of s) over one positive common denominator `den`, with gcd(den, *num) = 1,
    so equal characteristics have equal fields and hashes.  `r` and `s` read
    the entries back as Fraction tuples; `scaled(n)` gives the integer vector
    n [r; s] that the congruence layers work with.
    """

    num: tuple[int, ...]
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise ValueError(f"denominator must be positive, got {self.den}")
        k = math.gcd(self.den, *self.num)
        object.__setattr__(self, "num", tuple(operator.index(v) // k for v in self.num))
        object.__setattr__(self, "den", self.den // k)

    @classmethod
    def make(cls, r, s) -> "Characteristic":
        r, s = [Fraction(v) for v in r], [Fraction(v) for v in s]
        den = math.lcm(*(v.denominator for v in r + s))
        nums = [v.numerator * (den // v.denominator) for v in r + s]
        return cls.from_den(nums[: len(r)], nums[len(r) :], den)

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
        return Characteristic(tuple(-v for v in self.num), self.den)

    def is_canonical(self) -> bool:
        return all(0 <= v < self.den for v in self.num)

    def reduce(self) -> tuple["Characteristic", RootOfUnity]:
        """Translate into [0,1)^2g, returning the multiplier it costs.

        Theta(u,Z; r+a, s+b) = e(tr.b) Theta(u,Z; r,s) for integer a, b, with
        r the reduced row; so the value at self equals phase * value at the
        canonical representative.
        """
        den, g = self.den, self.g
        phase = sum((rv % den) * (sv // den) for rv, sv in zip(self.num[:g], self.num[g:]))
        return Characteristic(tuple(v % den for v in self.num), den), RootOfUnity(Fraction(phase, den))

    def in_sigma_minus(self) -> bool:
        """Half-integral characteristics whose theta constant vanishes identically."""
        g = self.g
        return self.den == 2 and sum(a * b for a, b in zip(self.num[:g], self.num[g:])) % 2 == 1

    def __str__(self):
        row = lambda vs: " ".join(str(v) for v in vs)
        return f"[{row(self.r)}; {row(self.s)}]"


def zero_char(g: int) -> Characteristic:
    return Characteristic((0,) * (2 * g), 1)


def all_characteristics(n: int, g: int):
    """All [r; s] with entries in (1/n)Z / Z, canonical representatives."""
    for nums in itertools.product(range(n), repeat=2 * g):
        yield Characteristic.from_den(nums[:g], nums[g:], n)


@dataclass
class EvalSettings:
    tol: float = 1e-12


DEFAULT_SETTINGS = EvalSettings()
NULL_THRESHOLD = 1e-8  # phi_eval refuses to divide by a smaller theta null
MAX_RADIUS = 200  # theta_eval refuses a truncation ellipsoid reaching further along any axis
EPS = float(np.finfo(float).eps)
_EXP_RANGE = -math.log(np.finfo(float).tiny)  # exp(-x) is a normal float for 0 <= x < 708.4


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


def _rounding_bound(z_rows: list[list[complex]], rho: float, reach_y: int, ops: float, more: int) -> float:
    """u M0^(g-2) (A M0^2 + m_E pi (D M2 M0 + (S - D) M1^2) + m_w 2 pi (S + g) M1 M0); see theta_eval.

    The candidates lie in [-reach_y - 1, reach_y]^g; ops is a and more the
    roundings each argument gains when the terms are summed one by one.
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
        + (g + 5 + more) * 2 * math.pi * (total + g) * m1 * m0
    )
    return EPS / 2 * bound * m0 ** (g - 2)


@dataclass(frozen=True)
class _Cut:
    """The candidate points y of one certified truncation, ready to sum.

    axes[j] lists the y_j of the box of candidates.  When the range guard of
    theta_eval holds, factor is E(y) = exp(pi i tyZy) on that box, zero off
    the candidates, and points and quad are None; otherwise factor is None and
    points and quad list the candidates (as complex rows) and their phases
    pi i tyZy.  radius is R, and tail and rounding bound the omitted terms and
    the floating-point error (see theta_eval).
    """

    axes: tuple[np.ndarray, ...]
    factor: np.ndarray | None
    points: np.ndarray | None
    quad: np.ndarray | None
    radius: float
    tail: float
    rounding: float


class _Lattice:
    """The truncation geometry of one SiegelPoint, built on its first evaluation.

    T is the scaled Cholesky factor with |Tv|^2 = pi tv Im(Z) v, and
    rho = sqrt(pi min_im_eig) is a lower bound on the shortest vector of T Z^g.
    `cut(tol)` builds one certified cut per tolerance and keeps it (see
    theta_eval for the bounds).  Z and Im(Z)^-1 are also kept as nested lists
    for the per-call arithmetic.  Only geometry is kept, never a theta value.
    """

    def __init__(self, zp: SiegelPoint) -> None:
        self.z, self.g = zp.mat, zp.g
        y = zp.mat.imag
        self.t = math.sqrt(math.pi) * np.linalg.cholesky(y).T
        self.y_inv = np.linalg.inv(y)
        self.rho = math.sqrt(math.pi * zp.min_im_eig)
        self.z_rows, self.y_inv_rows = self.z.tolist(), self.y_inv.tolist()
        self.y_row_sums = [sum(abs(v.imag) for v in row) for row in self.z_rows]  # sum_l |Im Z_jl|
        self.cuts: dict[float, _Cut] = {}

    def cut(self, tol: float) -> _Cut:
        found = self.cuts.get(tol)
        if found is None:
            found = self.cuts[tol] = self._certified(tol)
        return found

    def _certified(self, tol: float) -> _Cut:
        g, rho, target = self.g, self.rho, tol / 2
        lo, hi = rho, rho + 1.0
        while _tail_bound(hi, rho, g) > target:
            lo, hi = hi, rho + 2 * (hi - rho)
        while hi - lo > 1 / 32:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _tail_bound(mid, rho, g) > target else (lo, mid)
        # C covers the ellipsoid |T(y + f)| < R for every shift f (see theta_eval)
        delta = math.sqrt(math.pi * sum(self.y_row_sums)) / 2
        reach = hi + delta
        half = [reach * math.sqrt(w / math.pi) for w in self.y_inv.diagonal().tolist()]  # its x-extent
        if max(half) > MAX_RADIUS:
            raise ValueError(f"truncation radius exceeds {MAX_RADIUS}; imaginary part too small")
        low = [math.ceil(-0.5 - w) for w in half]
        dims = [math.floor(-0.5 + w) - l + 1 for w, l in zip(half, low)]
        grid = np.indices(dims).reshape(g, -1).T + low
        inside = (((grid + 0.5) @ self.t.T) ** 2).sum(axis=1) < reach * reach
        quad = 1j * np.pi * np.einsum("ij,jk,ik->i", grid, self.z, grid)
        axes = tuple(np.arange(l, l + n, dtype=float) for l, n in zip(low, dims))
        grow = 2 * math.pi * sum(max(-l, l + n - 1) * w for l, n, w in zip(low, dims, self.y_row_sums))
        shrink = (reach + delta) ** 2  # bounds pi tyIm(Z)y on C: |Ty| <= |T(y + 1/2)| + delta
        if grow + shrink + math.log(len(grid)) < _EXP_RANGE:
            factor, points, quad = np.where(inside, np.exp(quad), 0).reshape(dims), None, None
            ops, more = 8 * (g + 2) + math.sqrt(2) * (2 * sum(dims) + 2), 0
        else:
            factor, points, quad = None, grid[inside].astype(complex), quad[inside]
            ops, more = len(points) + 7, g + 2
        reach_y = max(max(-l - 1, l + n - 1) for l, n in zip(low, dims))
        rounding = _rounding_bound(self.z_rows, rho, reach_y, ops, more)
        return _Cut(axes, factor, points, quad, hi, _tail_bound(hi, rho, g), rounding)


def theta_eval(u, z, chi: Characteristic, settings: EvalSettings = DEFAULT_SETTINGS) -> complex:
    """Theta(u, Z; r, s), off by at most tol/2 + the cut's rounding bound for u = 0 and [r; s] in [0, 1)^2g.

    Other calls have no stated bound yet: their u and [r; s] enter tau and
    kappa beyond what the stored rounding bound assumes (see Rounding below).

    The sum runs over v = y + r - floor(r + c), y in one integer candidate set
    C, where c = Im(Z)^-1 Im(u).  The term at v has modulus
    exp(-|T(y + f)|^2) exp(pi Im(u) c), with f = frac(r + c) in [0, 1)^g and
    T the scaled Cholesky factor of Im Z: |Tv|^2 = pi tv Im(Z) v.  C, the
    radius R and both error bounds are built once per SiegelPoint and
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
    R is bisected so that this is at most tol/2.  Since
    |T(y + f)| >= |T(y + 1/2)| - delta, with delta^2 = pi sum_jk |Im Z_jk| / 4
    >= |Te|^2 for e in [-1/2, 1/2]^g, C = {y : |T(y + 1/2)| < R + delta}
    covers the ellipsoid |T(y + f)| < R for every shift f.

    Order of summation.  With shift = r - floor(r + c) and t = Z shift + u + s,
    the exponent at v = y + shift is pi i tyZy + 2 pi i sum_j y_j t_j + const,
    const = pi i t(shift) (t + u + s): a fixed quadratic part and a part
    linear in each y_j.  The cut keeps E(y) = exp(pi i tyZy) on the box
    n_0 x ... x n_(g-1) of C's coordinate ranges, zero off C.  A call forms
    w_j(y_j) = exp(2 pi i y_j t_j) along each axis and contracts
    (E . w_(g-1) . ... . w_0) exp(const): sum_j n_j exponentials, not |C|.

    Range guard.  Im t = Im(Z) f, so |w_j(y_j)| <= exp(2 pi |y_j| sum_l
    |Im Z_jl|) for every characteristic and u: at most exp(G) in product over
    the box.  On C, |Ty| <= |T(y + 1/2)| + delta < R + 2 delta, so
    |E| > exp(-B) with B = (R + 2 delta)^2.  Every nonzero partial product then
    lies in [exp(-G-B), exp(G)] and every partial sum below |box| exp(G).  The
    cut is factored only if G + B + log|box| < -log(smallest normal float) =
    708.4, so that nothing overflows or leaves the normal floats, as the
    rounding bound assumes.  Otherwise (entries of Im Z beyond about 100) the
    terms exp(pi i tyZy + 2 pi i ty t + const) are summed one by one.

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
      a sum of |C| terms.
    - An argument formed along at most m roundings is off by at most m u
      times the same expression with every input replaced by its modulus, and
      moves its exponential by as much, relatively; float pi counts as one
      rounding.  pi i tyZy has m_E = g^2 + 3.  2 pi i y_j t_j has m_w = g + 5,
      with tau_j = sum_l |Z_jl||shift_l| + |u_j| + |s_j| the moduli in t_j.
      const has m_c = 2g + 5 and kappa = pi sum_j |shift_j| (tau_j + |u_j| + |s_j|).
      Summed one by one, each m grows by g + 2.
    To sum this over C for every shift at once: |Tv| >= rho |v|, so
    |term(y)| <= prod_j exp(-rho^2 d_j^2), with d_j the distance from 0 to
    [y_j, y_j + 1).  Over the smallest box [-K-1, K]^g that holds C, the bound
    then factors into the sums M_k = sum_y exp(-rho^2 d(y)^2) |y|^k,
    k = 0, 1, 2, over -K-1 <= y <= K.  The cut's `rounding` is
    u M0^(g-2) (A M0^2 + m_E pi (D M2 M0 + (S - D) M1^2) + m_w 2 pi (S + g) M1 M0),
    with S = sum_jk |Z_jk|, D = sum_j |Z_jj| and A = a + m_c pi (S + 2g).  This
    takes tau_j = sum_l |Z_jl| + 1 and kappa = pi sum_j (tau_j + 1), the values
    for u = 0 and [r; s] in [0, 1)^2g, the theta constants; other u and s
    enter through tau and kappa.  `rounding` is not capped: where it exceeds
    tol/2 (large boxes, small rho, tiny tol) the call still runs and
    tail + rounding is the bound that holds.

    A nonzero Im(u) moves the centre of the terms to -c and scales them by
    exp(pi Im(u) c) <= 2^k, so the cut is taken at tolerance tol 2^-k.
    """
    zp = z if isinstance(z, SiegelPoint) else SiegelPoint(z)
    g = zp.g
    if chi.g != g:
        raise ValueError(f"characteristic has genus {chi.g}, the point has genus {g}")
    if np.isscalar(u):
        uv = [complex(u)] * g
    else:
        uv = [complex(v) for v in u]
        if len(uv) != g:
            raise ValueError(f"u has {len(uv)} entries, the point has genus {g}")
    den = chi.den
    r = [v / den for v in chi.num[:g]]
    us = [a + v / den for a, v in zip(uv, chi.num[g:])]
    if zp._theta_lattice is None:
        zp._theta_lattice = _Lattice(zp)
    lat = zp._theta_lattice
    im_u = [v.imag for v in uv]
    if any(im_u):
        centre = [sum(map(operator.mul, row, im_u)) for row in lat.y_inv_rows]
        shift = [a - math.floor(a + c) for a, c in zip(r, centre)]
        k = math.ceil(math.pi * sum(map(operator.mul, im_u, centre)) / math.log(2))
    else:
        shift, k = [a - math.floor(a) for a in r], 0
    cut = lat.cut(math.ldexp(settings.tol, -k))
    # with v = y + shift: pi i tvZv + 2 pi i tv(u + s) = pi i tyZy + 2 pi i ty t + const
    t = [sum(map(operator.mul, row, shift), c) for row, c in zip(lat.z_rows, us)]
    const = 1j * math.pi * sum(map(operator.mul, shift, map(operator.add, t, us)))
    if cut.factor is None:
        return complex(np.exp(cut.quad + cut.points @ (2j * np.pi * np.array(t)) + const).sum())
    total = cut.factor
    for j in range(g - 1, -1, -1):
        total = total.dot(np.exp(cut.axes[j] * (2j * math.pi * t[j])))
    return complex(total) * cmath.exp(const)


def theta_null(z, settings: EvalSettings = DEFAULT_SETTINGS) -> complex:
    zp = z if isinstance(z, SiegelPoint) else SiegelPoint(z)
    return theta_eval(0, zp, zero_char(zp.g), settings)


def phi_eval(
    chi: Characteristic,
    z,
    settings: EvalSettings = DEFAULT_SETTINGS,
    null_value: complex | None = None,
) -> complex:
    """The theta constant Phi_[r;s](Z); pass null_value to reuse a denominator."""
    zp = z if isinstance(z, SiegelPoint) else SiegelPoint(z)
    den = theta_null(zp, settings) if null_value is None else null_value
    if abs(den) < NULL_THRESHOLD:
        raise ValueError(f"theta null value too small ({abs(den):.3g}) to divide by")
    return theta_eval(0, zp, chi, settings) / den


def random_siegel(rng: np.random.Generator, g: int = 2, base: float = 0.8) -> SiegelPoint:
    """A random, well-conditioned point of H_g (min imaginary eigenvalue >= base)."""
    x = rng.uniform(-0.5, 0.5, (g, g))
    l = rng.uniform(-0.4, 0.4, (g, g))
    return SiegelPoint((x + x.T) / 2 + 1j * (l @ l.T + base * np.eye(g)))
