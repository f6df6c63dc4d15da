"""Exact arithmetic in cyclotomic fields Q(zeta_n), plus roots of unity as formal phases.

Elements are represented on the power basis 1, zeta, ..., zeta^(phi(n)-1) by
integer numerators over one common denominator, reduced via the n-th
cyclotomic polynomial.  Everything here is exact; numerical embeddings
(`CycloElem.embed`, `RootOfUnity.value`) are the only place floats appear, and
nothing here uses mpmath.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache, reduce
from numbers import Integral
from operator import add, mul


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials (ascending coefficients), den monic
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q[k] = c
        if c:
            for j, d in enumerate(den):
                num[k + j] -= c * d
    if any(num):
        raise ValueError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients (ascending, monic) of the n-th cyclotomic polynomial; ValueError unless n >= 1."""
    if n < 1:
        raise ValueError(f"cyclotomic order must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # X^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divide_exact(num, list(cyclotomic_coeffs(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _sparse_powers(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # zeta_n^m on the power basis as its nonzero (index, coefficient) pairs, for m = 0 .. max(n, 2*phi-1) - 1
    phi = euler_phi(n)
    top = [-c for c in cyclotomic_coeffs(n)[:phi]]  # zeta^phi
    table = []
    row = [1] + [0] * (phi - 1)
    for _ in range(max(n, 2 * phi - 1)):
        table.append(tuple((j, t) for j, t in enumerate(row) if t))
        carry = row[phi - 1]
        row = [0] + row[:-1]
        if carry:
            row = [row[j] + carry * top[j] for j in range(phi)]
    return tuple(table)


@lru_cache(maxsize=None)
def unit_residues(n: int) -> tuple[int, ...]:
    """Residues coprime to n, i.e. (Z/n)^* as a sorted tuple; ValueError unless n >= 1."""
    if n < 1:
        raise ValueError(f"cyclotomic order must be positive, got {n}")
    return tuple(a for a in range(1, n + 1) if math.gcd(a, n) == 1)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(unit_residues(n))


def _fraction(v) -> Fraction:
    """v as a Fraction, an Integral (numpy's too) read as a Python int first: a Fraction of a numpy integer keeps its
    numpy numerator, whose products wrap past 2^63."""
    return Fraction(int(v) if isinstance(v, Integral) else v)


class CycloElem:
    """An element of Q(zeta_n), exact.

    Stored as integer numerators `num` on the power basis of length phi(n) over
    one positive common denominator `den`, with gcd(den, *num) = 1, so equal
    elements of one order have equal fields.  Mixed-order arithmetic lifts both
    operands into the compositum Q(zeta_lcm).  An int or Fraction operand of
    +, -, *, / or == enters as its integer ratio p/d, scaling `num` and `den`
    directly, so it never becomes a one-coefficient element.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs) -> None:
        cs = list(coeffs)
        if all(type(c) is int for c in cs):
            self._set(n, cs, 1)
            return
        fracs = [_fraction(c) for c in cs]
        den = math.lcm(*(f.denominator for f in fracs))
        self._set(n, [f.numerator * (den // f.denominator) for f in fracs], den)

    def _set(self, n: int, num: list[int], den: int) -> None:
        # reduce num (up to max(n, 2*phi-1) powers) mod Phi_n and normalise num/den by their gcd
        phi = euler_phi(n)
        if len(num) > phi:
            rows = _sparse_powers(n)
            head = num[:phi]
            for m in range(phi, len(num)):
                c = num[m]
                if c:
                    for j, t in rows[m]:
                        head[j] += c * t
            num = head
        elif len(num) < phi:
            num = num + [0] * (phi - len(num))
        g = math.gcd(den, *num)
        if g != 1:
            num = [v // g for v in num]
            den //= g
        self.n = n
        self.num = tuple(num)
        self.den = den

    @classmethod
    def _make(cls, n: int, num: list[int], den: int = 1) -> "CycloElem":
        """num / den over any number of powers of zeta_n; den > 0."""
        out = cls.__new__(cls)
        out._set(n, num, den)
        return out

    def _affine(self, s: int, c: int, den: int) -> "CycloElem":
        """(s num + c) / den, with the int c added to the constant coefficient, normalised once."""
        num = [s * v for v in self.num]
        num[0] += c
        return CycloElem._make(self.n, num, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "CycloElem":
        """zeta_n^k; ValueError unless n >= 1."""
        unit_residues(n)  # refuses n < 1 before k % n divides by it
        return cls._make(n, [0] * (k % n) + [1])

    @classmethod
    def from_rational(cls, n: int, q) -> "CycloElem":
        p, d = (q if isinstance(q, (int, Fraction)) else _fraction(q)).as_integer_ratio()
        return cls._make(n, [p], d)

    # -- coercion ---------------------------------------------------------

    def lift(self, m: int) -> "CycloElem":
        """Rewrite in Q(zeta_m) where n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError(f"cannot lift order {self.n} into {m}")
        step = m // self.n
        num = [0] * (step * (len(self.num) - 1) + 1)
        num[::step] = self.num
        return CycloElem._make(m, num, self.den)

    @staticmethod
    def _pair(a, b):
        if a.n != b.n:
            m = a.n * b.n // math.gcd(a.n, b.n)
            a, b = a.lift(m), b.lift(m)
        return a, b

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, CycloElem):  # first: the (int, Fraction) test is an ABC check, ten times slower
            a, b = self._pair(self, other)
            g = math.gcd(a.den, b.den)
            fa, fb = b.den // g, a.den // g
            return CycloElem._make(a.n, [x * fa + y * fb for x, y in zip(a.num, b.num)], a.den * fa)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, d = other.as_integer_ratio()
        return self._affine(d, p * self.den, self.den * d)

    __radd__ = __add__

    def __neg__(self):
        return CycloElem._make(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, CycloElem):
            a, b = (self, other) if other.n == self.n else self._pair(self, other)
            return CycloElem._make(a.n, _schoolbook(a.num, b.num), a.den * b.den)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, d = other.as_integer_ratio()
        return CycloElem._make(self.n, [c * p for c in self.num], self.den * d)

    __rmul__ = __mul__

    def inverse(self) -> "CycloElem":
        """Exact inverse: the product of the other Galois conjugates over the norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        return orbit_inverse(self, unit_residues(self.n)[1:])

    def __truediv__(self, other):
        if isinstance(other, CycloElem):
            a, b = self._pair(self, other)
            return a * b.inverse()
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, d = other.as_integer_ratio()
        if not p:
            raise ZeroDivisionError("division by zero")
        s = -1 if p < 0 else 1  # keeps den positive
        return CycloElem._make(self.n, [c * d * s for c in self.num], self.den * p * s)

    def __pow__(self, k: int):
        """self**k by squaring, starting from self itself, so no product is by 1; k < 0 inverts first."""
        if k < 0:
            return self.inverse() ** (-k)
        result = self if k else CycloElem.from_rational(self.n, 1)
        for bit in bin(k)[3:]:  # the bits after the leading one, most significant first
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, CycloElem):
            a, b = self._pair(self, other)
            return a.num == b.num and a.den == b.den
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, d = other.as_integer_ratio()
        return self.num[0] == p and self.den == d and self.is_rational()

    def __hash__(self):
        return hash((self.n, self.num, self.den))

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                z = f"z{self.n}" if j == 1 else f"z{self.n}^{j}"
                terms.append(z if c == 1 else f"-{z}" if c == -1 else f"{c}*{z}")
        return " + ".join(terms).replace("+ -", "- ") if terms else "0"

    # -- field structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def galois(self, t: int) -> "CycloElem":
        """Apply sigma_t : zeta -> zeta^t.  Requires gcd(t, n) = 1.

        The image is built directly, not renormalised: every `_sparse_powers` row is
        reduced, so it is already on the power basis, and sigma_t maps Z[zeta_n] onto itself,
        so it keeps den and the gcd of the numerators.
        """
        if math.gcd(t, self.n) != 1:
            raise ValueError(f"sigma_{t} is not an automorphism of Q(zeta_{self.n})")
        rows = _sparse_powers(self.n)
        out = [0] * len(self.num)
        for j, c in enumerate(self.num):
            if c:
                for k, v in rows[(j * t) % self.n]:
                    out[k] += c * v
        image = CycloElem.__new__(CycloElem)
        image.n, image.num, image.den = self.n, tuple(out), self.den
        return image

    def embed(self, t: int = 1) -> complex:
        """Numerical value under zeta -> exp(2*pi*i*t/n)."""
        z = cmath.exp(2j * cmath.pi * t / self.n)
        total, zp = 0j, 1 + 0j
        for c in self.num:
            if c:
                total += (c / self.den) * zp
            zp *= z
        return total


def _schoolbook(a, b) -> list[int]:
    """The product of two numerator lists on the power basis, unreduced: len(a) + len(b) - 1 powers."""
    bs = [(j, y) for j, y in enumerate(b) if y]
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in bs:
                prod[i + j] += x * y
    return prod


def orbit_sum(a: CycloElem, residues) -> CycloElem:
    """Sum of sigma_t(a) over t in residues, normalised once: every conjugate has den a.den."""
    total = [0] * len(a.num)
    for t in residues:
        total = list(map(add, total, a.galois(t).num))
    return CycloElem._make(a.n, total, a.den)


def orbit_product(a: CycloElem, residues) -> CycloElem:
    """Product of sigma_t(a) over t in residues, with one product fewer than there are residues; 1 for none."""
    conjugates = [a.galois(t) for t in residues]
    return reduce(mul, conjugates) if conjugates else CycloElem.from_rational(a.n, 1)


def orbit_inverse(a: CycloElem, others) -> CycloElem:
    """a^-1 for nonzero a, where a times the product of sigma_t(a) over `others` is rational.

    Given the conjugates that make the norm of a subfield down to Q, it inverts an element of that subfield.
    """
    rest = orbit_product(a, others)
    return rest / (a * rest).rational_value()


def is_subgroup(n: int, residues) -> bool:
    s = {t % n for t in residues}
    if 1 not in s or any(math.gcd(t, n) != 1 for t in s):
        return False
    return all((t * u) % n in s for t in s for u in s)


def rel_trace_norm(a: CycloElem, subgroup, mode: str) -> CycloElem:
    """Exact trace or norm of a over the fixed field of the given subgroup, each residue mod n counted once."""
    residues = dict.fromkeys(t % a.n for t in subgroup)  # the distinct residues, in first-seen order
    if not is_subgroup(a.n, residues):
        raise ValueError(f"{sorted(residues)} is not a subgroup of units mod {a.n}")
    if mode == "trace":
        return orbit_sum(a, residues)
    if mode == "norm":
        return orbit_product(a, residues)
    raise ValueError(f"mode must be 'trace' or 'norm', got {mode!r}")


# -- exact linear algebra (Fractions) --------------------------------------


def solve_exact(rows, rhs):
    """Solve the square system rows * x = rhs over Fraction; None if singular.  Exported for callers and the
    tests, which rebuild the literal reflex-norm map of cmfield._h_columns with it; nothing in the package calls it."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


class RootOfUnity:
    """e(q) = exp(2*pi*i*q) for rational q, kept exact as q mod 1 = num / den.

    num and den are ints with 0 <= num < den and gcd(num, den) = 1, so equal phases have equal fields.
    `*` and `/` take only another phase, so any other operand is a TypeError.
    """

    __slots__ = ("num", "den")

    def __init__(self, exponent) -> None:
        self._set(*_fraction(exponent).as_integer_ratio())

    def _set(self, num: int, den: int) -> None:
        num %= den
        g = math.gcd(num, den)
        self.num = num // g
        self.den = den // g

    @classmethod
    def _make(cls, num: int, den: int) -> "RootOfUnity":
        """e(num / den) for ints num and den > 0."""
        out = cls.__new__(cls)
        out._set(num, den)
        return out

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls._make(0, 1)

    @property
    def exponent(self) -> Fraction:
        """q mod 1 in [0, 1), as a Fraction."""
        return Fraction(self.num, self.den)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return RootOfUnity._make(self.num * other.den + other.num * self.den, self.den * other.den)

    def __truediv__(self, other: "RootOfUnity") -> "RootOfUnity":
        return self * other**-1 if isinstance(other, RootOfUnity) else NotImplemented

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity._make(self.num * k, self.den)

    def value(self) -> complex:
        return cmath.exp(2j * cmath.pi * (self.num / self.den))

    def __eq__(self, other):
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"e({self.exponent})"
