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
from functools import cached_property, lru_cache
from itertools import zip_longest

from .exact import CycloElem, _schoolbook, is_subgroup, orbit_inverse, orbit_product, orbit_sum, unit_residues
from .symplectic import is_integer


def subgroup_generated(n: int, gens) -> frozenset[int]:
    """Subgroup of (Z/n)^* generated by the given residues; ValueError unless n >= 1."""
    unit_residues(n)  # refuses n < 1 before a residue is taken mod n
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


@lru_cache(maxsize=None)
def _cyclic_generators(n: int) -> dict[int, list[int]]:
    """For each unit r mod n, the generators r^k (gcd(k, ord r) = 1) of the cyclic group <r>."""
    table = {}
    for r in unit_residues(n):
        powers = [r]
        while powers[-1] != 1:
            powers.append(powers[-1] * r % n)
        table[r] = [p for k, p in enumerate(powers, 1) if math.gcd(k, len(powers)) == 1]
    return table


def stabilizer(a: CycloElem, within) -> frozenset[int]:
    """The residues mod n of the elements of `within` whose Galois action fixes a, a in Q(zeta_n).

    Stab(a) is a subgroup of (Z/n)^*, so each residue is tested at most once:
    `fixed` is a subgroup known to fix a and `moved` a union of its cosets known
    to move a.  When sigma_r moves a, so does every generator r' of <r>, as r is a
    power of r' and sigma_r' fixing a would make sigma_r fix it; so r' f moves a
    for every f in `fixed`, and at most one residue is tested per cyclic subgroup.
    Neither set holds a non-unit, so sigma_t of a non-unit t is always applied,
    and raises.
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
        elif len(fixed) == 1:  # no coset to widen
            moved.update(_cyclic_generators(n)[r])
        else:
            moved |= {(s * f) % n for s in _cyclic_generators(n)[r] for f in fixed}
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

    def _require_in_l(self, e: CycloElem) -> CycloElem:
        e = e.lift(self.conductor)  # as is_primitive lifts it
        if stabilizer(e, self.fixer_l) != self.fixer_l:
            raise ValueError("element is not in L")
        return e

    def trace_mid(self, e: CycloElem) -> CycloElem:
        """Tr_{L/K(x)}(e) for e in L, via coset representatives."""
        return orbit_sum(self._require_in_l(e), self._reps)

    def norm_mid(self, e: CycloElem) -> CycloElem:
        """N_{L/K(x)}(e) for e in L."""
        return orbit_product(self._require_in_l(e), self._reps)


def make_tower(conductor: int, base_h, x: CycloElem, y: CycloElem) -> AbelianTower:
    unit_residues(conductor)  # refuses a conductor below 1 before base_h is reduced by it
    base = frozenset(t % conductor for t in base_h)
    return AbelianTower(conductor, base, x.lift(conductor), y.lift(conductor))


def is_primitive(e: CycloElem, t: AbelianTower) -> bool:
    """True iff K(e) = L, decided by comparing Galois stabilizers."""
    return stabilizer(e.lift(t.conductor), t.base_h) == t.fixer_l


def _coefficient(t: AbelianTower, c) -> tuple[tuple[int, ...], int]:
    """c in K as numerators over a positive denominator: a CycloElem its num over den, a rational p/d ((p,), d)."""
    if isinstance(c, CycloElem):
        c = c.lift(t.conductor)
        if not c.is_rational() and stabilizer(c, t.base_h) != t.base_h:  # Q lies in K: only an irrational c is tested
            raise ValueError("a and b must lie in the base field")
    elif not (isinstance(c, Fraction) or is_integer(c)):
        raise ValueError(f"a coefficient must be rational or a CycloElem, got {c!r}")
    num, den = (c.num, c.den) if isinstance(c, CycloElem) else ((int(c.numerator),), int(c.denominator))
    if not any(num):
        raise ValueError("coefficients must be nonzero")
    return num, den


def combine_trace(t: AbelianTower, a, b) -> CycloElem:
    """The trace combinator: epsilon = a x + b (ell*y - Tr_{L/K(x)}(y)), from ell - 1 conjugates and one normalisation.

    a and b may be rationals (an int, a Fraction or any integer `is_integer` accepts) or elements of K (anything
    fixed by base_h); ValueError for anything else.  The reps r of Gal(L/K(x)) start at 1, so ell y - Tr y is the sum
    of y - sigma_r(y) over the ell - 1 others, w / y.den; with a = A / da and b = B / db over x.den and y.den and
    D = lcm(da, db), epsilon = ((D / da) A x.num + (D / db) B w) / D, two products of numerator lists.
    """
    (an, ad), (bn, bd) = _coefficient(t, a), _coefficient(t, b)
    y, k = t.y, t.ell - 1  # y lies in L by construction, and k = ell - 1 weighs y against its other conjugates
    w = [k * v - sum(c) for v, *c in zip(y.num, *(y.galois(r).num for r in t._reps[1:]))]
    den = math.lcm(da := ad * t.x.den, db := bd * y.den)
    ax, bw = _schoolbook([v * (den // da) for v in an], t.x.num), _schoolbook([v * (den // db) for v in bn], w)
    return CycloElem._make(t.conductor, [u + v for u, v in zip_longest(ax, bw, fillvalue=0)], den)


def combine_norm(t: AbelianTower, a: int, b: int, c: int, d: int, n: int = 1, m: int = 1) -> CycloElem:
    """The norm combinator: (a x + b)^n (c y + d)^{-m ell} N_{L/K(x)}((c y + d)^m).

    Requires the ratio conditions 2 < |a/b| and 2 < |c/d| and x, y algebraic
    integers; n, m nonzero integers.  It forms (ell - 1) + ([K(x):Q] - 1) conjugates, as every inverse is
    taken inside K(x) by _inverse_in_mid: N's, and that of a x + b for n < 0.
    """
    params = (a, b, c, d, n, m)
    # plain ints skip is_integer's per-value calls
    if not (type(a) is type(b) is type(c) is type(d) is type(n) is type(m) is int or all(map(is_integer, params))):
        raise ValueError("a, b, c, d, n and m must be integers")
    if not all(params):
        raise ValueError("all parameters must be nonzero")
    if not (2 * abs(b) < abs(a) and 2 * abs(d) < abs(c)):
        raise ValueError("need 2 < |a/b| and 2 < |c/d|")
    if t.x.den != 1 or t.y.den != 1:
        raise ValueError("x and y must be integral")
    ax_b = t.x._affine(int(a), int(b), 1)  # int: a numpy integer's products would wrap past 2^63
    power = ax_b**n if n > 0 else t._inverse_in_mid(ax_b) ** -n  # a x + b lies in K(x)
    if t.ell == 1:
        return power  # L = K(x), so u^-ell N_{L/K(x)}(u) = 1
    # with v = cy + d and rest its ell - 1 other conjugates over K(x), N = v rest = N_{L/K(x)}(v) lies in K(x);
    # u = v^m gives u^-ell N(u) = (v^-ell N)^m, with v^-ell N = rest^ell N^-(ell - 1) and its inverse v^ell N^-1
    v = t.y._affine(int(c), int(d), 1)
    rest = orbit_product(v, t._reps[1:])
    inv = t._inverse_in_mid(v * rest)
    f = rest**t.ell * inv ** (t.ell - 1) if m > 0 else v**t.ell * inv
    return power * f ** abs(m)
