"""Primitive-generator combinators for abelian extensions inside cyclotomic fields.

A tower is described by explicit Galois data: the ambient field Q(zeta_n), a
subgroup baseH of units mod n fixing the base field K, and two elements x, y
generating L = K(x, y).  Everything (traces, norms, degrees, primitivity) is
computed exactly through the unit-group action.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import CycloElem, is_subgroup, orbit_product, orbit_sum


def subgroup_generated(n: int, gens) -> frozenset[int]:
    """Subgroup of (Z/n)^* generated by the given residues."""
    for t in gens:
        if math.gcd(t, n) != 1:
            raise ValueError(f"{t} is not a unit mod {n}")
    elems = {1}
    frontier = [1]
    while frontier:
        t = frontier.pop()
        for s in gens:
            u = (t * s) % n
            if u not in elems:
                elems.add(u)
                frontier.append(u)
    return frozenset(elems)


def stabilizer(a: CycloElem, within) -> frozenset[int]:
    """Elements of `within` whose Galois action fixes a."""
    return frozenset(t for t in within if a.galois(t) == a)


@dataclass(frozen=True)
class AbelianTower:
    """L = K(x, y) inside Q(zeta_conductor), K the fixed field of base_h."""

    conductor: int
    base_h: frozenset[int]
    x: CycloElem
    y: CycloElem

    def __post_init__(self):
        n = self.conductor
        if not is_subgroup(n, self.base_h):
            raise ValueError("base_h must be a subgroup of units mod n")
        if self.x.n != n or self.y.n != n:
            raise ValueError("lift x and y to the ambient order first")

    @cached_property
    def mid_h(self) -> frozenset[int]:
        """Subgroup fixing K(x)."""
        return frozenset(self.base_h) & stabilizer(self.x, self.base_h)

    @cached_property
    def fixer_l(self) -> frozenset[int]:
        """Subgroup fixing L = K(x, y)."""
        return self.mid_h & stabilizer(self.y, self.mid_h)

    @property
    def ell(self) -> int:
        """[L : K(x)]."""
        return len(self.mid_h) // len(self.fixer_l)

    @property
    def degree(self) -> int:
        """[L : K]."""
        return len(self.base_h) // len(self.fixer_l)

    def _reps(self) -> list[int]:
        reps, covered = [], set()
        for t in sorted(self.mid_h):
            if t not in covered:
                reps.append(t)
                covered |= {(t * h) % self.conductor for h in self.fixer_l}
        return reps

    def trace_mid(self, e: CycloElem) -> CycloElem:
        """Tr_{L/K(x)}(e) for e in L, via coset representatives."""
        assert stabilizer(e, self.fixer_l) == self.fixer_l, "element is not in L"
        return orbit_sum(e, self._reps())

    def norm_mid(self, e: CycloElem) -> CycloElem:
        """N_{L/K(x)}(e) for e in L."""
        assert stabilizer(e, self.fixer_l) == self.fixer_l, "element is not in L"
        return orbit_product(e, self._reps())


def make_tower(conductor: int, base_h, x: CycloElem, y: CycloElem) -> AbelianTower:
    base = frozenset(t % conductor for t in base_h) if not isinstance(base_h, frozenset) else base_h
    return AbelianTower(conductor, base, x.lift(conductor), y.lift(conductor))


def is_primitive(e: CycloElem, t: AbelianTower) -> bool:
    """True iff K(e) = L, decided by comparing Galois stabilizers."""
    return (frozenset(t.base_h) & stabilizer(e.lift(t.conductor), t.base_h)) == t.fixer_l


def combine_trace(t: AbelianTower, a, b) -> CycloElem:
    """The trace combinator: epsilon = a x + b (ell*y - Tr_{L/K(x)}(y)).

    a and b may be rationals or elements of K (anything fixed by base_h).
    """
    a = CycloElem.from_rational(t.conductor, a) if isinstance(a, (int, Fraction)) else a.lift(t.conductor)
    b = CycloElem.from_rational(t.conductor, b) if isinstance(b, (int, Fraction)) else b.lift(t.conductor)
    if a.is_zero() or b.is_zero():
        raise ValueError("coefficients must be nonzero")
    if stabilizer(a, t.base_h) != t.base_h or stabilizer(b, t.base_h) != t.base_h:
        raise ValueError("a and b must lie in the base field")
    return a * t.x + b * (t.ell * t.y - t.trace_mid(t.y))


def combine_norm(t: AbelianTower, a: int, b: int, c: int, d: int, n: int = 1, m: int = 1) -> CycloElem:
    """The norm combinator: (a x + b)^n (c y + d)^{-m ell} N_{L/K(x)}((c y + d)^m).

    Requires the ratio conditions 2 < |a/b| and 2 < |c/d| and x, y algebraic
    integers; n, m nonzero integers.
    """
    if not all((a, b, c, d, n, m)):
        raise ValueError("all parameters must be nonzero")
    if not (2 * abs(b) < abs(a) and 2 * abs(d) < abs(c)):
        raise ValueError("need 2 < |a/b| and 2 < |c/d|")
    if t.x.den != 1 or t.y.den != 1:
        raise ValueError("x and y must be integral")
    ax_b = a * t.x + b
    cy_d = c * t.y + d
    return ax_b**n * cy_d ** (-m * t.ell) * t.norm_mid(cy_d**m)
