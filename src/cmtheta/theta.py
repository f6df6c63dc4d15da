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
MAX_RADIUS = 200  # theta_eval refuses to sum over a larger truncation radius


def _truncation_radius(lam: float, rho: float, g: int, tol: float) -> int:
    # Terms with |x + r| >= d contribute at most (2d+2)^g exp(-pi lam d^2 + 2 pi d rho)
    # per max-norm shell; stop once the shell bound halves each step and is < tol/4.
    d = max(2, math.ceil(2 * rho / lam))
    prev = None
    while d <= MAX_RADIUS:
        bound = (2 * d + 2) ** g * math.exp(-math.pi * lam * d * d + 2 * math.pi * d * rho)
        if bound < tol / 4 and prev is not None and bound < prev / 2:
            return d
        prev = bound
        d += 1
    raise ValueError(f"truncation radius exceeds {MAX_RADIUS}; imaginary part too small")


def theta_eval(
    u,
    z,
    chi: Characteristic | None = None,
    settings: EvalSettings = DEFAULT_SETTINGS,
    radius: int | None = None,
) -> complex:
    """Theta(u, Z; r, s), accurate to settings.tol (absolute).

    radius overrides the certified truncation radius (used by tail-soundness
    tests); it must only ever be enlarged.
    """
    zp = z if isinstance(z, SiegelPoint) else SiegelPoint(z)
    g = zp.g
    if chi is None:
        chi = zero_char(g)
    if chi.g != g:
        raise ValueError(f"characteristic has genus {chi.g}, the point has genus {g}")
    uv = np.zeros(g, dtype=complex) if u is None or np.isscalar(u) and u == 0 else np.asarray(u, dtype=complex)
    rs = np.array(chi.num, dtype=float) / chi.den
    r, s = rs[:g], rs[g:]
    lam = zp.min_im_eig
    rho = float(np.linalg.norm(uv.imag))
    rad = radius if radius is not None else _truncation_radius(lam, rho, g, settings.tol)
    axes = [np.arange(math.floor(-rad - r[j]), math.ceil(rad - r[j]) + 1) for j in range(g)]
    grid = np.meshgrid(*axes, indexing="ij")
    x = np.stack([a.ravel() for a in grid], axis=1).astype(float)
    v = x + r
    quad = np.einsum("ij,jk,ik->i", v, zp.mat, v) / 2
    lin = v @ (uv + s)
    return complex(np.exp(2j * np.pi * (quad + lin)).sum())


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
