"""Group actions on theta constants through their characteristics.

Three mechanisms: the iota-twist on Fourier coefficients (substitutes s -> a s),
the action of G_N on the family of 2N^2-th powers (pure characteristic
bookkeeping through the transpose), and the action on a single theta constant
of odd denominator, which carries an explicit root-of-unity multiplier.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exact import RootOfUnity
from .symplectic import check_level, g_group_multiplier, intmat
from .theta import Characteristic


@dataclass(frozen=True)
class ActionResult:
    multiplier: RootOfUnity
    chi_out: Characteristic

    def canonical(self) -> "ActionResult":
        """Fold the translation phase of reducing chi_out into the multiplier."""
        red, extra = self.chi_out.reduce()
        return ActionResult(self.multiplier * extra, red)


def _transpose_apply(alpha: np.ndarray, chi: Characteristic) -> Characteristic:
    # alpha is an exact integer matrix, as from intmat
    out = alpha.T @ np.array(chi.num, dtype=object)
    return Characteristic.from_den(out[: chi.g], out[chi.g :], chi.den)


def act_iota_inv(a: int, chi: Characteristic) -> Characteristic:
    """Characteristic of Phi^{iota(a)^{-1}}: (r, s) -> (r, a s), canonical.

    In the power-family context the reduction is free of phase.
    """
    g = chi.g
    return Characteristic.from_den(chi.num[:g], [a * v for v in chi.num[g:]], chi.den).reduce()[0]


def act_power_family(alpha, chi: Characteristic, n: int) -> Characteristic:
    """Action of alpha in G_n on the family of 2n^2-th powers: chi -> t(alpha) chi mod 1, n as in check_level."""
    check_level(n)
    chi.scaled(n)
    alpha = intmat(alpha)
    if g_group_multiplier(alpha, n) is None:
        raise ValueError("alpha is not in G_n")
    return _transpose_apply(alpha, chi).reduce()[0]


def act_phi(alpha, chi: Characteristic, m: int) -> ActionResult:
    """Action on a single Phi_[r;s] with odd denominator m, alpha in G_{2m^2}.

    Returns the multiplier e((tr.a.s - tr'.s')/2) together with the raw image
    [r'; s'] = t(alpha)[r; s]; canonical reduction (and its translation phase)
    is left to the caller via ActionResult.canonical().
    """
    if m % 2 == 0:
        raise ValueError("denominator must be odd")
    alpha = intmat(alpha)
    a = g_group_multiplier(alpha, 2 * m * m)
    if a is None:
        raise ValueError("alpha is not in G_{2m^2}")
    return _act_phi_known(alpha, a, chi, m)


def _act_phi_known(alpha: np.ndarray, a: int, chi: Characteristic, m: int) -> ActionResult:
    """act_phi for an exact alpha known to lie in G_{2m^2} with multiplier a.

    Raises ValueError unless chi lies in (1/m)Z^2g.
    """
    x = chi.scaled(m)
    moved = _transpose_apply(alpha, chi)
    y, g = moved.scaled(m), chi.g
    before = a * sum(u * v for u, v in zip(x[:g], x[g:]))
    after = sum(u * v for u, v in zip(y[:g], y[g:]))
    return ActionResult(RootOfUnity(Fraction(before - after, 2 * m * m)), moved)
