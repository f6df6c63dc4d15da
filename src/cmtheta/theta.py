"""Theta series with rational characteristics, evaluated with certified tails.

Conventions: e(z) = exp(2*pi*i*z) and

    Theta(u, Z; r, s) = sum_x e( t(x+r) Z (x+r) / 2 + t(x+r) (u+s) ),

over x in Z^g.  The quotient Phi_[r;s](Z) = Theta(0, Z; r, s) / Theta(0, Z; 0, 0)
is the theta constant attached to the characteristic [r; s].
"""
from __future__ import annotations

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


@dataclass(frozen=True)
class _Cut:
    """Candidate points y (as complex rows) with their phases pi i tyZy.

    For a certified cut, radius is R, and tail and rounding bound the omitted
    terms and the floating-point error of a sum whose terms have modulus
    exp(-|T(y + f)|^2); a plain box carries no bounds.
    """

    points: np.ndarray
    quad: np.ndarray
    radius: float | None = None
    tail: float = math.nan
    rounding: float = math.nan


class _Lattice:
    """The truncation geometry of one SiegelPoint, built on its first evaluation.

    T is the scaled Cholesky factor with |Tv|^2 = pi tv Im(Z) v, and
    rho = sqrt(pi min_im_eig) is a lower bound on the shortest vector of T Z^g.
    `cut(tol)` builds one certified cut per tolerance and keeps it (see
    theta_eval for the bounds).  Only geometry is kept, never a theta value.
    """

    def __init__(self, zp: SiegelPoint) -> None:
        self.z, self.y, self.g = zp.mat, zp.mat.imag, zp.g
        self.t = math.sqrt(math.pi) * np.linalg.cholesky(self.y).T
        self.y_inv = np.linalg.inv(self.y)
        self.rho = math.sqrt(math.pi * zp.min_im_eig)
        self.cuts: dict[float, _Cut] = {}

    def _with_quad(self, points: np.ndarray, **bounds) -> _Cut:
        points = points.astype(complex)  # the per-call product with a complex vector stays complex
        return _Cut(points, 1j * np.pi * np.einsum("ij,jk,ik->i", points, self.z, points), **bounds)

    def box(self, radius: int) -> _Cut:
        return self._with_quad(np.indices((2 * radius + 1,) * self.g).reshape(self.g, -1).T - radius)

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
        reach = hi + math.sqrt(math.pi * float(np.abs(self.y).sum())) / 2
        half = [reach * math.sqrt(w / math.pi) for w in self.y_inv.diagonal().tolist()]  # its x-extent
        if max(half) > MAX_RADIUS:
            raise ValueError(f"truncation radius exceeds {MAX_RADIUS}; imaginary part too small")
        low = [math.ceil(-0.5 - w) for w in half]
        grid = np.indices([math.floor(-0.5 + w) - l + 1 for w, l in zip(half, low)]).reshape(g, -1).T + low
        points = grid[(((grid + 0.5) @ self.t.T) ** 2).sum(axis=1) < reach * reach]
        total = 1 + _tail_bound(rho, rho, g)  # bounds the sum of exp(-|.|^2) over T(Z^g + f)
        return self._with_quad(points, radius=hi, tail=_tail_bound(hi, rho, g), rounding=len(points) * EPS * total)


def theta_eval(
    u,
    z,
    chi: Characteristic | None = None,
    settings: EvalSettings = DEFAULT_SETTINGS,
    radius: int | None = None,
) -> complex:
    """Theta(u, Z; r, s), accurate to settings.tol (absolute).

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

    Rounding.  The same ball argument with exp(-max(|q| - rho/2, 0)^2) bounds
    the sum of all moduli by S = 1 + _tail_bound(rho, rho, g), so adding the
    N = |C| terms is off by at most N eps S.  This is fixed per point and
    tolerance and takes the other tol/2; where it exceeds tol/2 (large N,
    small rho, tiny tol) the call still runs and N eps S is the bound that
    holds.

    A nonzero Im(u) moves the centre of the terms to -c and scales them by
    exp(pi Im(u) c) <= 2^k, so the cut is taken at tolerance tol 2^-k.

    radius replaces C by the full box |y_j| <= radius, with no certificate,
    for tests that compare a wider sum with the certified one.
    """
    zp = z if isinstance(z, SiegelPoint) else SiegelPoint(z)
    g = zp.g
    if chi is None:
        chi = zero_char(g)
    if chi.g != g:
        raise ValueError(f"characteristic has genus {chi.g}, the point has genus {g}")
    uv = np.zeros(g, dtype=complex)
    if u is not None:
        uv += u
    rs = np.array(chi.num, dtype=float) / chi.den
    r, s = rs[:g], rs[g:]
    if zp._theta_lattice is None:
        zp._theta_lattice = _Lattice(zp)
    lat = zp._theta_lattice
    centre = lat.y_inv @ uv.imag
    if radius is None:
        k = math.ceil(math.pi * float(uv.imag @ centre) / math.log(2))
        cut = lat.cut(math.ldexp(settings.tol, -k))
    else:
        cut = lat.box(radius)
    # with v = y + shift: pi i tvZv + 2 pi i tv(u + s) = quad(y) + 2 pi i ty t + const
    shift = r - np.floor(r + centre)
    us = uv + s
    t = lat.z @ shift + us
    const = 1j * np.pi * complex(shift @ (t + us))
    return complex(np.exp(cut.quad + cut.points @ (2j * np.pi * t) + const).sum())


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


def reduce_char(chi: Characteristic, ell: int, m: int) -> Characteristic:
    """Normal form of chi in (1/m)Z^2g for the ell-th power of Phi.

    The ell-th power is determined by r mod Z^g and s mod (m/gcd(m,ell))Z^g;
    this reduces both rows into those fundamental domains.
    """
    if ell <= 0 or m <= 0:
        raise ValueError(f"need ell > 0 and m > 0, got ell = {ell}, m = {m}")
    x, g = chi.scaled(m), chi.g
    q = m * (m // math.gcd(m, ell))
    return Characteristic.from_den([v % m for v in x[:g]], [v % q for v in x[g:]], m)


def random_siegel(rng: np.random.Generator, g: int = 2, base: float = 0.8) -> SiegelPoint:
    """A random, well-conditioned point of H_g (min imaginary eigenvalue >= base)."""
    x = rng.uniform(-0.5, 0.5, (g, g))
    l = rng.uniform(-0.4, 0.4, (g, g))
    return SiegelPoint((x + x.T) / 2 + 1j * (l @ l.T + base * np.eye(g)))
