"""The Q(zeta_5) CM apparatus: period matrix, CM point, regular representation,
reflex norm, and the simulated Galois (Artin) action on theta-constant
characteristics, together with the congruence criterion on first rows.

Embedding conventions, fixed once: sigma_1 = phi_1 (identity), sigma_2 = phi_2,
sigma_3 = phi_2^{-1}, sigma_4 = complex conjugation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .action import ActionResult, act_phi
from .exact import CycloElem, RootOfUnity, orbit_product, orbit_sum, solve_exact
from .symplectic import SiegelPoint, even_theta_diagonals, jmat, sympl_multiplier
from .theta import Characteristic, DEFAULT_SETTINGS, EvalSettings, phi_eval, theta_null


def _zeta() -> CycloElem:
    return CycloElem.zeta(5)


def _basis() -> list[CycloElem]:
    z = _zeta()
    return [z**2, z**4, z, z + z**3]


def field_norm(x: CycloElem) -> Fraction:
    """Norm from Q(zeta_5) down to Q, exact."""
    if x.n != 5:
        raise ValueError(f"expected an element of Q(zeta_5), got one of Q(zeta_{x.n})")
    return orbit_product(x, (1, 2, 3, 4)).rational_value()


def reflex_norm(x: CycloElem) -> CycloElem:
    """phi*(x) = x^(phi_1^{-1}) x^(phi_2^{-1}) = x * sigma_3(x)."""
    if x.n != 5:
        raise ValueError(f"expected an element of Q(zeta_5), got one of Q(zeta_{x.n})")
    return x * x.galois(3)


@lru_cache(maxsize=None)
def _h_powers() -> tuple[tuple[tuple[int, ...], ...], ...]:
    # entry [j][k] lists h(zeta^i)[j, k] for i = 0..3, by exact solves on the CM basis
    basis = _basis()
    bmat = [[basis[k].coeffs[i] for k in range(4)] for i in range(4)]
    hs = []
    for i in range(4):
        zi = CycloElem.zeta(5, i)
        rows = [solve_exact(bmat, list((zi * xj).coeffs)) for xj in basis]
        assert all(v.denominator == 1 for row in rows for v in row)
        hs.append([[int(v) for v in row] for row in rows])
    return tuple(tuple(tuple(h[j][k] for h in hs) for k in range(4)) for j in range(4))


def h_map(x: CycloElem) -> np.ndarray:
    """The 4x4 rational matrix with x*xi_j = sum_k h[j,k] xi_k on the CM basis.

    h is Q-linear in x, so h(x) = sum_i c_i h(zeta^i) over the power-basis
    coefficients c_i of x.
    """
    if x.n != 5:
        raise ValueError(f"expected an element of Q(zeta_5), got one of Q(zeta_{x.n})")
    num, den = x.num, x.den
    rows = [[sum(c * v for c, v in zip(num, entry)) for entry in row] for row in _h_powers()]
    if den != 1:
        fracs = ([Fraction(v, den) for v in row] for row in rows)
        rows = [[int(q) if q.denominator == 1 else q for q in row] for row in fracs]
    out = np.empty((4, 4), dtype=object)
    out[:] = rows
    return out


def riemann_form(x: CycloElem, y: CycloElem, ctx: "CMContext | None" = None) -> Fraction:
    """E(Phi(x), Phi(y)) = Tr_{K/Q}(xi * x * conj(y)), exact."""
    z = _zeta()
    xi = ctx.xi if ctx is not None else (z - z**4) / 5
    return orbit_sum(xi * x * y.galois(4), (1, 2, 3, 4)).rational_value()


@dataclass(frozen=True)
class CMContext:
    zeta: CycloElem
    xi: CycloElem
    basis: tuple[CycloElem, ...]
    omega: np.ndarray
    z0: SiegelPoint
    settings: EvalSettings
    null0: complex

    def phi(self, chi: Characteristic) -> complex:
        """Phi_chi(Z0) with the cached theta-null denominator."""
        return phi_eval(chi, self.z0, self.settings, null_value=self.null0)


def build_context(settings: EvalSettings = DEFAULT_SETTINGS) -> CMContext:
    zeta = _zeta()
    xi = (zeta - zeta**4) / 5
    basis = _basis()
    omega = np.array([[b.embed(t) for b in basis] for t in (1, 2)])
    w1, w2 = omega[:, :2], omega[:, 2:]
    z0 = SiegelPoint(np.linalg.solve(w2, w1))
    ctx = CMContext(
        zeta=zeta,
        xi=xi,
        basis=tuple(basis),
        omega=omega,
        z0=z0,
        settings=settings,
        null0=theta_null(z0, settings),
    )
    gram = [[riemann_form(bj, bk, ctx) for bk in basis] for bj in basis]
    expect = jmat(2)
    assert all(
        gram[j][k] == expect[j, k] for j in range(4) for k in range(4)
    ), "Riemann form on the CM basis is not the standard symplectic form"
    assert abs(ctx.null0) > 0.1, "theta null at the CM point unexpectedly small"
    return ctx


@dataclass(frozen=True)
class GaloisActor:
    """An integral x of Q(zeta_5) packaged as a level-2p^2 symplectic actor."""

    x: CycloElem
    p: int
    reflex: CycloElem
    h_matrix: np.ndarray
    h_mod: np.ndarray
    first_row: tuple[int, int, int, int]
    nu: int | None
    norm: int
    in_group: bool

    @classmethod
    def build(cls, x: CycloElem, p: int) -> "GaloisActor":
        if p % 2 == 0 or p < 3:
            raise ValueError(f"p = {p} must be odd and > 2")
        if x.den != 1:
            raise ValueError("actor must be an algebraic integer")
        reflex = reflex_norm(x)
        h = h_map(reflex)
        assert all(isinstance(v, int) for v in h.flat)
        level = 2 * p * p
        nu = sympl_multiplier(h, modulus=level)
        norm = field_norm(x)
        assert norm.denominator == 1
        return cls(
            x=x,
            p=p,
            reflex=reflex,
            h_matrix=h,
            h_mod=h % level,
            first_row=tuple(h[0]),
            nu=nu,
            norm=int(norm),
            in_group=nu is not None and even_theta_diagonals(h),
        )


def standard_actors(p: int) -> tuple[CycloElem, CycloElem]:
    """The two distinguished actors x_1 = 1 + 2p zeta, x_2 = 1 + 2p(z^2 - z^3 + z^4)."""
    z = _zeta()
    return 1 + 2 * p * z, 1 + 2 * p * (z**2 - z**3 + z**4)


def artin_action(x: CycloElem, p: int, chi: Characteristic, ctx: CMContext | None = None) -> ActionResult:
    """The simulated Artin action of (x) on Phi_chi(Z0), chi with denominator p.

    Returns the total multiplier (including the translation phase of reducing
    back into [0,1)) and the reduced characteristic.  Requires the norm of x
    prime to 2p and the reflex-norm matrix to land in G_{2p^2}.
    """
    actor = GaloisActor.build(x, p)
    if math.gcd(actor.norm, 2 * p) != 1:
        raise ValueError(f"norm {actor.norm} of the actor is not prime to 2p = {2 * p}")
    if not actor.in_group:
        raise ValueError("reflex-norm matrix is not in G_{2p^2}; criterion inapplicable")
    return act_phi(actor.h_mod, chi, p).canonical()


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
    return RootOfUnity(Fraction(f, p))


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

    x may be a CycloElem or a length-5 integer coordinate vector on
    1, zeta, ..., zeta^4.  The quadratic forms in the coordinates are
    cross-checked against the literal matrix row.
    """
    if isinstance(x, CycloElem):
        if x.den != 1:
            raise ValueError("x must be an algebraic integer")
        coords = list(x.num) + [0]
    else:
        coords = [int(v) for v in x]
        if len(coords) != 5:
            raise ValueError(f"expected 5 coordinates on 1, zeta, ..., zeta^4, got {len(coords)}")
        x = CycloElem(5, coords)
    a0, a1, a2, a3, a4 = coords
    a = a0 * a0 - a0 * a1 - a0 * a3 + a1 * a2 + a1 * a3 - a1 * a4 - a2 * a2 + a2 * a4
    b = -a0 * a1 + a0 * a2 - a0 * a3 + a0 * a4 + a1 * a2 - a2 * a2 + a3 * a3 - a3 * a4
    c = -a0 * a1 - a0 * a2 + a0 * a3 + a0 * a4 + a1 * a1 - a1 * a3 + a2 * a4 - a4 * a4
    d = a0 * a2 - a0 * a3 + a1 * a3 - a1 * a4 - a2 * a2 + a2 * a3 - a3 * a4 + a4 * a4
    actor = GaloisActor.build(x, p)
    if (a, b, c, d) != actor.first_row:
        raise AssertionError(
            f"quadratic forms {(a, b, c, d)} disagree with the matrix row {actor.first_row}"
        )
    value = -2 * a * b + 2 * a * c + a * d - 2 * b * c - 2 * c * d - 2 * d * d
    return BelongResult(
        first_row=(a, b, c, d),
        value=value,
        value_mod_p=value % p,
        satisfied=value % p == 0,
        norm=actor.norm,
        norm_prime_to_2p=math.gcd(actor.norm, 2 * p) == 1,
        in_group=actor.in_group,
    )
