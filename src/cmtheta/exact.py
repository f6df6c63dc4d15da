"""Exact arithmetic in cyclotomic fields Q(zeta_n), plus roots of unity as formal phases.

Elements are represented on the power basis 1, zeta, ..., zeta^(phi(n)-1) by
integer numerators over one common denominator, reduced via the n-th
cyclotomic polynomial.  Everything here is exact; numerical embeddings are the
only place floats appear.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache

import mpmath


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


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
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return q


@lru_cache(maxsize=None)
def cyclotomic_coeffs(n: int) -> tuple[int, ...]:
    """Coefficients (ascending, monic) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # X^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_divide_exact(num, list(cyclotomic_coeffs(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(n: int) -> tuple[tuple[int, ...], ...]:
    # zeta_n^m on the power basis, for m = 0 .. max(n, 2*phi-1) - 1
    phi = euler_phi(n)
    top = [-c for c in cyclotomic_coeffs(n)[:phi]]  # zeta^phi
    table: list[tuple[int, ...]] = []
    row = [1] + [0] * (phi - 1)
    for _ in range(max(n, 2 * phi - 1)):
        table.append(tuple(row))
        carry = row[phi - 1]
        row = [0] + row[:-1]
        if carry:
            row = [row[j] + carry * top[j] for j in range(phi)]
    return tuple(table)


@lru_cache(maxsize=None)
def _sparse_powers(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # the nonzero (index, coefficient) pairs of each row of _power_table(n)
    return tuple(tuple((j, t) for j, t in enumerate(row) if t) for row in _power_table(n))


@lru_cache(maxsize=None)
def unit_residues(n: int) -> tuple[int, ...]:
    """Residues coprime to n, i.e. (Z/n)^* as a sorted tuple."""
    return tuple(a for a in range(1, n + 1) if math.gcd(a, n) == 1)


class CycloElem:
    """An element of Q(zeta_n), exact.

    Stored as integer numerators `num` on the power basis of length phi(n) over
    one positive common denominator `den`, with gcd(den, *num) = 1, so equal
    elements of one order have equal fields.  Mixed-order arithmetic lifts both
    operands into the compositum Q(zeta_lcm).
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs) -> None:
        cs = list(coeffs)
        if all(type(c) is int for c in cs):
            self._set(n, cs, 1)
            return
        fracs = [Fraction(c) for c in cs]
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

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @classmethod
    def zeta(cls, n: int, k: int = 1) -> "CycloElem":
        return cls._make(n, [0] * (k % n) + [1])

    @classmethod
    def from_rational(cls, n: int, q) -> "CycloElem":
        q = Fraction(q)
        return cls._make(n, [q.numerator], q.denominator)

    # -- coercion ---------------------------------------------------------

    def lift(self, m: int) -> "CycloElem":
        """Rewrite in Q(zeta_m) where n | m."""
        if m == self.n:
            return self
        assert m % self.n == 0, f"cannot lift order {self.n} into {m}"
        step = m // self.n
        num = [0] * (step * (len(self.num) - 1) + 1)
        num[::step] = self.num
        return CycloElem._make(m, num, self.den)

    @staticmethod
    def _pair(a, b):
        if isinstance(b, (int, Fraction)):
            b = CycloElem.from_rational(a.n, b)
        if not isinstance(b, CycloElem):
            return None, None
        if a.n != b.n:
            m = a.n * b.n // math.gcd(a.n, b.n)
            a, b = a.lift(m), b.lift(m)
        return a, b

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        a, b = self._pair(self, other)
        if a is None:
            return NotImplemented
        g = math.gcd(a.den, b.den)
        fa, fb = b.den // g, a.den // g
        return CycloElem._make(a.n, [x * fa + y * fb for x, y in zip(a.num, b.num)], a.den * fa)

    __radd__ = __add__

    def __neg__(self):
        return CycloElem._make(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-other if isinstance(other, CycloElem) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycloElem._make(self.n, [c * q.numerator for c in self.num], self.den * q.denominator)
        a, b = self._pair(self, other)
        if a is None:
            return NotImplemented
        bs = [(j, y) for j, y in enumerate(b.num) if y]
        prod = [0] * (2 * len(a.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in bs:
                    prod[i + j] += x * y
        return CycloElem._make(a.n, prod, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloElem":
        """Exact inverse: the product of the other Galois conjugates over the norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        rest = orbit_product(self, unit_residues(self.n)[1:])
        return rest * (1 / (self * rest).rational_value())

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        a, b = self._pair(self, other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = CycloElem.from_rational(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == other
        if not isinstance(other, CycloElem):
            return NotImplemented
        a, b = self._pair(self, other)
        return a.num == b.num and a.den == b.den

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
        assert self.is_rational()
        return Fraction(self.num[0], self.den)

    def galois(self, t: int) -> "CycloElem":
        """Apply sigma_t : zeta -> zeta^t.  Requires gcd(t, n) = 1."""
        assert math.gcd(t, self.n) == 1, f"sigma_{t} is not an automorphism of Q(zeta_{self.n})"
        rows = _sparse_powers(self.n)
        out = [0] * len(self.num)
        for j, c in enumerate(self.num):
            if c:
                for k, v in rows[(j * t) % self.n]:
                    out[k] += c * v
        return CycloElem._make(self.n, out, self.den)

    def conj(self) -> "CycloElem":
        return self.galois(self.n - 1)

    def embed(self, t: int = 1, prec: int | None = None) -> complex:
        """Numerical value under zeta -> exp(2*pi*i*t/n)."""
        if prec is None:
            z = cmath.exp(2j * cmath.pi * t / self.n)
            total, zp = 0j, 1 + 0j
            for c in self.num:
                if c:
                    total += (c / self.den) * zp
                zp *= z
            return total
        with mpmath.workdps(prec):
            z = mpmath.e ** (2j * mpmath.pi * t / self.n)
            total = mpmath.mpc(0)
            for j, c in enumerate(self.coeffs):
                if c:
                    total += mpmath.mpf(c.numerator) / c.denominator * z**j
            return complex(total)

    def degree(self) -> int:
        """Degree of Q(self) over Q: phi(n) over the order of its stabiliser in (Z/n)^*."""
        units = unit_residues(self.n)
        return len(units) // sum(self.galois(t) == self for t in units)


def orbit_sum(a: CycloElem, residues) -> CycloElem:
    """Sum of sigma_t(a) over t in residues."""
    total = CycloElem.from_rational(a.n, 0)
    for t in residues:
        total = total + a.galois(t)
    return total


def orbit_product(a: CycloElem, residues) -> CycloElem:
    total = CycloElem.from_rational(a.n, 1)
    for t in residues:
        total = total * a.galois(t)
    return total


def is_subgroup(n: int, residues) -> bool:
    s = {t % n for t in residues}
    if 1 not in s or any(math.gcd(t, n) != 1 for t in s):
        return False
    return all((t * u) % n in s for t in s for u in s)


def rel_trace_norm(a: CycloElem, subgroup, mode: str) -> CycloElem:
    """Exact trace or norm of a over the fixed field of the given subgroup."""
    if not is_subgroup(a.n, subgroup):
        raise ValueError(f"{sorted(set(subgroup))} is not a subgroup of units mod {a.n}")
    if mode == "trace":
        return orbit_sum(a, subgroup)
    if mode == "norm":
        return orbit_product(a, subgroup)
    raise ValueError(f"mode must be 'trace' or 'norm', got {mode!r}")


# -- exact linear algebra (Fractions) --------------------------------------


def solve_exact(rows, rhs):
    """Solve the square system rows * x = rhs over Fraction; None if singular."""
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
    """e(q) = exp(2*pi*i*q) for rational q, kept exact as q mod 1."""

    __slots__ = ("exponent",)

    def __init__(self, exponent) -> None:
        self.exponent = Fraction(exponent) % 1

    @classmethod
    def one(cls) -> "RootOfUnity":
        return cls(0)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(self.exponent + other.exponent)

    def __truediv__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(self.exponent - other.exponent)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.exponent * k)

    def conj(self) -> "RootOfUnity":
        return RootOfUnity(-self.exponent)

    @property
    def order(self) -> int:
        return self.exponent.denominator

    def value(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.exponent))

    def __eq__(self, other):
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return self.exponent == other.exponent

    def __hash__(self):
        return hash(self.exponent)

    def __repr__(self):
        return f"e({self.exponent})"
