"""The Q(zeta_5) CM apparatus: period matrix, CM point, regular representation,
reflex norm, and the simulated Galois (Artin) action on theta-constant
characteristics, together with the congruence criterion on first rows.

Embedding conventions, fixed once: sigma_1 = phi_1 (identity), sigma_2 = phi_2,
sigma_3 = phi_2^{-1}, sigma_4 = complex conjugation.  The constants zeta, the CM
basis xi_1..xi_4 and the xi of riemann_form are built once, at import.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .action import ActionResult, _move
from .exact import CycloElem, RootOfUnity, orbit_product, orbit_sum, solve_exact
from .symplectic import SiegelPoint, _g_member, _similitude, is_integer
from .theta import Characteristic, DEFAULT_SETTINGS, EvalSettings, _translation_shift, phi_eval, theta_null


_ZETA = CycloElem.zeta(5)
_BASIS = (_ZETA**2, _ZETA**4, _ZETA, _ZETA + _ZETA**3)  # the CM basis xi_1..xi_4
_XI = (_ZETA - _ZETA**4) / 5  # the xi of riemann_form


def _require_q5(x: CycloElem) -> None:
    if x.n != 5:
        raise ValueError(f"expected an element of Q(zeta_5), got one of Q(zeta_{x.n})")


def _integral_num(x: CycloElem) -> tuple[int, ...]:
    """The integer coefficients of x on 1, zeta, zeta^2, zeta^3; ValueError unless x is integral in Q(zeta_5)."""
    _require_q5(x)
    if x.den != 1:
        raise ValueError("x must be an algebraic integer")
    return x.num


def field_norm(x: CycloElem) -> Fraction:
    """Norm from Q(zeta_5) down to Q, exact."""
    _require_q5(x)
    return orbit_product(x, (1, 2, 3, 4)).rational_value()


def _reflex_num(num) -> list[int]:
    # x * sigma_3(x) for x = a + b zeta + c zeta^2 + d zeta^3, on the power basis: the product of the coefficients
    # of zeta^i and zeta^j lands on zeta^(i + 3j), and zeta^4 = -1 - zeta - zeta^2 - zeta^3
    a, b, c, d = num
    e4 = b * b + c * d + a * d  # the coefficient of zeta^4
    return [a * a + b * (c + d) - e4, (a + d) * (b + c) - e4, c * (a + b) + d * d - e4, a * (b + d) + c * c - e4]


def reflex_norm(x: CycloElem) -> CycloElem:
    """phi*(x) = x^(phi_1^{-1}) x^(phi_2^{-1}) = x * sigma_3(x)."""
    _require_q5(x)
    return CycloElem._make(5, _reflex_num(x.num), x.den * x.den)


@lru_cache(maxsize=None)
def _h_table() -> tuple[tuple[int, ...], ...]:
    # column-major: entry 4k + j lists h(zeta^i)[j, k] for i = 0..3, by exact solves on the CM basis
    bmat = [[_BASIS[k].coeffs[i] for k in range(4)] for i in range(4)]
    hs = []
    for i in range(4):
        zi = CycloElem.zeta(5, i)
        hs.append([solve_exact(bmat, list((zi * xj).coeffs)) for xj in _BASIS])
    return tuple(tuple(int(h[j][k]) for h in hs) for k in range(4) for j in range(4))


def _h_columns(c) -> tuple[tuple[int, ...], ...]:
    """The four columns of h(x) as tuples, in the layout of symplectic._columns.

    c holds the integer power-basis coefficients of x; h is Z-linear in x, so
    h(x) = sum_i c_i h(zeta^i).
    """
    c0, c1, c2, c3 = c
    h = tuple([c0 * a + c1 * b + c2 * d + c3 * e for a, b, d, e in _h_table()])  # column-major, as the table
    return h[:4], h[4:8], h[8:12], h[12:]


def _matrix(cols) -> np.ndarray:
    return np.array(cols, dtype=object).T


def h_map(x: CycloElem) -> np.ndarray:
    """The 4x4 integer matrix with x*xi_j = sum_k h[j,k] xi_k on the CM basis.

    x must be an algebraic integer of Q(zeta_5), that is integral on the power
    basis; raises ValueError otherwise.
    """
    return _matrix(_h_columns(_integral_num(x)))


def riemann_form(x: CycloElem, y: CycloElem) -> Fraction:
    """E(Phi(x), Phi(y)) = Tr_{K/Q}(xi * x * conj(y)) with xi = (zeta - zeta^4)/5, exact."""
    return orbit_sum(_XI * x * y.galois(4), (1, 2, 3, 4)).rational_value()


@dataclass(frozen=True)
class CMContext:
    basis: tuple[CycloElem, ...]
    z0: SiegelPoint
    settings: EvalSettings
    null0: complex

    def phi(self, chi: Characteristic) -> complex:
        """Phi_chi(Z0) with the cached theta-null denominator."""
        return phi_eval(chi, self.z0, self.settings, null_value=self.null0)


def build_context(settings: EvalSettings = DEFAULT_SETTINGS) -> CMContext:
    omega = np.array([[b.embed(t) for b in _BASIS] for t in (1, 2)])
    w1, w2 = omega[:, :2], omega[:, 2:]
    z0 = SiegelPoint(np.linalg.solve(w2, w1))
    return CMContext(basis=_BASIS, z0=z0, settings=settings, null0=theta_null(z0, settings))


def is_odd_prime(p: int) -> bool:
    """Whether p is an odd prime integer, numpy's included (a float or str is not): the one rule for p in
    GaloisActor.build and SuiteConfig.validate."""
    return is_integer(p) and p > 2 and p % 2 == 1 and all(p % q for q in range(3, math.isqrt(p) + 1, 2))


@dataclass(frozen=True)
class GaloisActor:
    """An integral x of Q(zeta_5) packaged as a level-2p^2 symplectic actor.

    h_matrix is the integral reflex-norm matrix h(phi*(x)), held once as
    tuples of Python-int columns in the layout symplectic._columns reads,
    so an actor shared by shared_actor cannot be changed; norm is N(x), the
    exact similitude of h, and nu is N(x) mod 2p^2 when h lies in G_{2p^2} by
    the rule of symplectic._g_member, and None otherwise.
    """

    p: int
    _cols: tuple = field(repr=False)
    nu: int | None
    norm: int

    @property
    def h_matrix(self) -> np.ndarray:
        """h(phi*(x)) as an integer matrix (dtype=object)."""
        return _matrix(self._cols)

    @property
    def in_group(self) -> bool:
        """Whether the reflex-norm matrix lies in G_{2p^2}."""
        return self.nu is not None

    @classmethod
    def build(cls, x: CycloElem, p: int) -> "GaloisActor":
        """The actor in one pass on Python ints: r = x sigma_3(x) as the four integer quadratic forms of
        _reflex_num (reflex_norm wraps them), then the columns of h(r) off _h_table, the cached column-major
        table of the Z-linear map h that h_map reads too."""
        if not is_odd_prime(p):
            raise ValueError(f"p = {p} must be an odd prime")
        p, cols = int(p), _h_columns(_reflex_num(_integral_num(x)))
        # E(ra, rb) = r conj(r) E(a, b) = N(x) E(a, b) for r = phi*(x): t(h) J h = N(x) J exactly, not tested here
        norm = _similitude(cols)
        return cls(p=p, _cols=cols, nu=_g_member(cols, norm, 2 * p * p), norm=norm)

    def act(self, chi: Characteristic) -> ActionResult:
        """The simulated Artin action of (x) on Phi_chi(Z0), chi with denominator p.

        Returns act_phi(h, chi, p).canonical() from one move y = t(h) p chi, the phase of reducing y / p
        (theta._translation_shift, the rule Characteristic.reduce reads) included.  Requires the norm of x
        prime to 2p and the reflex-norm matrix to land in G_{2p^2}.
        """
        p = self.p
        if self.nu is None:  # _g_member wants N(x) a unit mod 2p^2, so a norm not prime to 2p lands here too
            if math.gcd(self.norm, 2 * p) != 1:
                raise ValueError(f"norm {self.norm} of the actor is not prime to 2p = {2 * p}")
            raise ValueError("reflex-norm matrix is not in G_{2p^2}; criterion inapplicable")
        y, phase = _move(self._cols, self.nu, chi.scaled(p))  # raises unless g = 2, as h is 4 x 4
        phase += 2 * p * _translation_shift(y, p)
        # the constructor divides out gcd(p, *y), so an image = 0 mod p collapses to denominator 1
        return ActionResult(RootOfUnity._make(phase, 2 * p * p), Characteristic([v % p for v in y], p))

    def belong(self) -> BelongResult:
        """The first-row congruence test of belong_criterion on this actor."""
        a, b, c, d = (col[0] for col in self._cols)  # the first row of h
        value = -2 * a * b + 2 * a * c + a * d - 2 * b * c - 2 * c * d - 2 * d * d
        return BelongResult(
            first_row=(a, b, c, d),
            value=value,
            value_mod_p=value % self.p,
            satisfied=value % self.p == 0,
            norm=self.norm,
            norm_prime_to_2p=math.gcd(self.norm, 2 * self.p) == 1,
            in_group=self.in_group,
        )


def standard_actors(p: int) -> tuple[CycloElem, CycloElem]:
    """The two distinguished actors x_1 = 1 + 2p zeta, x_2 = 1 + 2p(z^2 - z^3 + z^4)."""
    return 1 + 2 * p * _ZETA, 1 + 2 * p * (_ZETA**2 - _ZETA**3 + _ZETA**4)


@lru_cache(maxsize=64)  # artin_action and verify reuse the two standard actors of each prime; 64 holds 32 primes
def shared_actor(x: CycloElem, p: int) -> GaloisActor:
    """GaloisActor.build(x, p), kept while (x, p) is among the 64 most recently used; cache_info() counts the hits.
    The one source of actors for artin_action and verify's checks on the standard actors."""
    return GaloisActor.build(x, p)


def artin_action(x: CycloElem, p: int, chi: Characteristic) -> ActionResult:
    """The simulated Artin action of (x) on Phi_chi(Z0), through shared_actor; see GaloisActor.act."""
    return shared_actor(x, p).act(chi)


def closed_phase(which: int, chi: Characteristic, p: int) -> RootOfUnity:
    """Closed-form Artin multiplier for the standard actors on chi = (a,b;c,d)/p.

    For the first actor the exponent is (-a^2+2ad-b^2-c^2-2cd-2d^2)/p.  For the
    second it is (-a^2+4ab-4ac-6ad-b^2+4bc-c^2+2cd+2d^2)/p: the composition of
    the raw transformation phase (a^2-4ab+b^2-c^2+2cd+2d^2)/p with the
    translation phase (-2a^2+8ab-4ac-6ad-2b^2+4bc)/p — note the -6ad cross
    term, which vanishes mod 3 but not mod larger primes.
    """
    a, b, c, d = chi.scaled(p)
    if which == 1:
        f = -a * a + 2 * a * d - b * b - c * c - 2 * c * d - 2 * d * d
    elif which == 2:
        f = -a * a + 4 * a * b - 4 * a * c - 6 * a * d - b * b + 4 * b * c - c * c + 2 * c * d + 2 * d * d
    else:
        raise ValueError("which must be 1 or 2")
    return RootOfUnity._make(f, p)


@dataclass(frozen=True)
class BelongResult:
    first_row: tuple[int, int, int, int]
    value: int
    value_mod_p: int
    satisfied: bool
    norm: int
    norm_prime_to_2p: bool
    in_group: bool


def belong_criterion(x, p: int) -> BelongResult:
    """First-row congruence test: the Artin symbol of (x) can fix the 2p^2-th
    power of the distinguished theta value only if
    -2ab+2ac+ad-2bc-2cd-2d^2 = 0 mod p, where (a,b,c,d) is the first row of
    the reflex-norm matrix of x.

    x is given by its five coordinates on 1, zeta, ..., zeta^4, which must be
    integers; raises ValueError for any other length, a non-integral
    coordinate or a p that is not an odd prime.  The actor is built fresh, not
    by shared_actor, as `cmtheta action` builds its own: their x rarely repeat.
    """
    coords = list(x)
    if len(coords) != 5:
        raise ValueError(f"expected 5 coordinates on 1, zeta, ..., zeta^4, got {len(coords)}")
    return GaloisActor.build(CycloElem(5, coords), p).belong()
