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

from .exact import CycloElem, is_subgroup, orbit_inverse, orbit_product, orbit_sum, unit_residues


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
    """The residues mod n of the elements of `within` whose Galois action fixes a, a in Q(zeta_n).

    Stab(a) is a subgroup of (Z/n)^*, so each residue is tested at most once:
    `fixed` is a subgroup known to fix a and `moved` a union of its cosets known
    to move a.  Neither holds a non-unit, so sigma_t of a non-unit t is always
    applied, and raises.
    """
    n = a.n
    within = tuple(within)
    fixed, moved, gens = {1}, set(), []
    for t in within:
        r = t % n
        if r in fixed or r in moved:
            continue
        if a.galois(r).num == a.num:  # sigma_r keeps den
            gens.append(r)
            fixed = subgroup_generated(n, gens)
            moved = {(m * f) % n for m in moved for f in fixed}
        else:
            moved |= {(r * f) % n for f in fixed}
    return frozenset(r for t in within if (r := t % n) in fixed)


def _coset_reps(n: int, group, sub) -> list[int]:
    """The smallest residue of each coset of sub in group, in increasing order, so 1 comes first."""
    reps, covered = [], set()
    for t in sorted(group):
        if t not in covered:
            reps.append(t)
            covered |= {(t * h) % n for h in sub}
    return reps


@dataclass(frozen=True)
class AbelianTower:
    """L = K(x, y) inside Q(zeta_conductor), K the fixed field of base_h.

    Its subgroups and the coset representatives of fixer_l in mid_h and of mid_h in (Z/n)^* are computed once."""

    conductor: int
    base_h: frozenset[int]
    x: CycloElem
    y: CycloElem

    def __post_init__(self):
        n = self.conductor
        if any(not 0 <= t < n for t in self.base_h):
            raise ValueError(f"base_h must hold residues in [0, {n}); reduce it first")
        if not is_subgroup(n, self.base_h):
            raise ValueError("base_h must be a subgroup of units mod n")
        if self.x.n != n or self.y.n != n:
            raise ValueError("lift x and y to the ambient order first")

    @cached_property
    def mid_h(self) -> frozenset[int]:
        """Subgroup fixing K(x)."""
        return stabilizer(self.x, self.base_h)

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

    @cached_property
    def _reps(self) -> list[int]:
        """Representatives of Gal(L/K(x)), the identity first."""
        return _coset_reps(self.conductor, self.mid_h, self.fixer_l)

    @cached_property
    def _mid_others(self) -> list[int]:
        """Representatives of the cosets of mid_h in (Z/n)^* other than mid_h itself."""
        return _coset_reps(self.conductor, unit_residues(self.conductor), self.mid_h)[1:]

    def _inverse_in_mid(self, e: CycloElem) -> CycloElem:
        """e^-1 for nonzero e in K(x), from its [K(x):Q] - 1 other conjugates."""
        return orbit_inverse(e, self._mid_others)

    def _require_in_l(self, e: CycloElem) -> None:
        if stabilizer(e, self.fixer_l) != self.fixer_l:
            raise ValueError("element is not in L")

    def trace_mid(self, e: CycloElem) -> CycloElem:
        """Tr_{L/K(x)}(e) for e in L, via coset representatives."""
        self._require_in_l(e)
        return orbit_sum(e, self._reps)

    def norm_mid(self, e: CycloElem) -> CycloElem:
        """N_{L/K(x)}(e) for e in L."""
        self._require_in_l(e)
        return orbit_product(e, self._reps)


def make_tower(conductor: int, base_h, x: CycloElem, y: CycloElem) -> AbelianTower:
    base = frozenset(t % conductor for t in base_h)
    return AbelianTower(conductor, base, x.lift(conductor), y.lift(conductor))


def is_primitive(e: CycloElem, t: AbelianTower) -> bool:
    """True iff K(e) = L, decided by comparing Galois stabilizers."""
    return stabilizer(e.lift(t.conductor), t.base_h) == t.fixer_l


def combine_trace(t: AbelianTower, a, b) -> CycloElem:
    """The trace combinator: epsilon = a x + b (ell*y - Tr_{L/K(x)}(y)).

    a and b may be rationals or elements of K (anything fixed by base_h).
    """
    a = CycloElem.from_rational(t.conductor, a) if isinstance(a, (int, Fraction)) else a.lift(t.conductor)
    b = CycloElem.from_rational(t.conductor, b) if isinstance(b, (int, Fraction)) else b.lift(t.conductor)
    if a.is_zero() or b.is_zero():
        raise ValueError("coefficients must be nonzero")
    # Q lies in K, so only an irrational coefficient needs its stabilizer
    if any(not c.is_rational() and stabilizer(c, t.base_h) != t.base_h for c in (a, b)):
        raise ValueError("a and b must lie in the base field")
    return a * t.x + b * (t.ell * t.y - orbit_sum(t.y, t._reps))  # y lies in L by construction


def combine_norm(t: AbelianTower, a: int, b: int, c: int, d: int, n: int = 1, m: int = 1) -> CycloElem:
    """The norm combinator: (a x + b)^n (c y + d)^{-m ell} N_{L/K(x)}((c y + d)^m).

    Requires the ratio conditions 2 < |a/b| and 2 < |c/d| and x, y algebraic
    integers; n, m nonzero integers.  It forms (ell - 1) + ([K(x):Q] - 1) conjugates, as every inverse is
    taken inside K(x) by _inverse_in_mid: N's, and that of a x + b for n < 0.
    """
    if not all((a, b, c, d, n, m)):
        raise ValueError("all parameters must be nonzero")
    if not (2 * abs(b) < abs(a) and 2 * abs(d) < abs(c)):
        raise ValueError("need 2 < |a/b| and 2 < |c/d|")
    if t.x.den != 1 or t.y.den != 1:
        raise ValueError("x and y must be integral")
    ax_b = a * t.x + b
    power = ax_b**n if n > 0 else t._inverse_in_mid(ax_b) ** -n  # a x + b lies in K(x)
    if t.ell == 1:
        return power  # L = K(x), so u^-ell N_{L/K(x)}(u) = 1
    # with v = cy + d and rest its ell - 1 other conjugates over K(x), N = v rest = N_{L/K(x)}(v) lies in K(x);
    # u = v^m gives u^-ell N(u) = (v^-ell N)^m, with v^-ell N = rest^ell N^-(ell - 1) and its inverse v^ell N^-1
    v = c * t.y + d
    rest = orbit_product(v, t._reps[1:])
    inv = t._inverse_in_mid(v * rest)
    f = rest**t.ell * inv ** (t.ell - 1) if m > 0 else v**t.ell * inv
    return power * f ** abs(m)
