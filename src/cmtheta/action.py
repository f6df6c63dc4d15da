"""Group actions on theta constants through their characteristics.

Three mechanisms: the iota-twist on Fourier coefficients (substitutes s -> a s),
the action of G_N on the family of 2N^2-th powers (pure characteristic
bookkeeping through the transpose), and the action on a single theta constant
of odd denominator, which carries an explicit root-of-unity multiplier.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import index, mul

from .exact import RootOfUnity
from .symplectic import _columns, _g_multiplier, check_level
from .theta import Characteristic


@dataclass(frozen=True)
class ActionResult:
    multiplier: RootOfUnity
    chi_out: Characteristic

    def canonical(self) -> "ActionResult":
        """Fold the translation phase of reducing chi_out into the multiplier."""
        red, extra = self.chi_out.reduce()
        return ActionResult(self.multiplier * extra, red)


def _move(cols, nu: int, x) -> tuple[list[int], int]:
    """y = tM x and the phase nu tx_r.x_s - ty_r.y_s for x = m [r; s], M given by its columns cols
    (see symplectic._columns) with multiplier nu: M in G_{2m^2} takes Phi at x/m to e(phase / 2m^2) times Phi
    at y/m (Igusa, Theta Functions, ch. V; Mumford, Tata Lectures on Theta I, II.5).  The one statement of the law:
    act_phi, act_power_family and GaloisActor.act call it once per characteristic;
    gamma_multiplier sums it over a product's terms as one contraction of ThetaProduct.moments."""
    if len(x) != len(cols):
        raise ValueError(f"expected {len(cols)} entries to move, got {len(x)}")
    y = [sum(map(mul, col, x)) for col in cols]  # entry j: column j of M dotted with x
    g = len(x) // 2
    return y, nu * sum(map(mul, x, x[g:])) - sum(map(mul, y, y[g:]))  # map stops after the r entries


def act_iota_inv(a: int, chi: Characteristic) -> Characteristic:
    """Characteristic of Phi^{iota(a)^{-1}}: (r, s) -> (r, a s), canonical.

    In the power-family context the reduction is free of phase.
    """
    g = chi.g
    return Characteristic.from_den(chi.num[:g], [a * v for v in chi.num[g:]], chi.den).reduce()[0]


def act_power_family(alpha, chi: Characteristic, n: int) -> Characteristic:
    """Action of alpha in G_n on the family of 2n^2-th powers: chi -> t(alpha) chi mod 1, n as in check_level."""
    n = check_level(n)
    chi.scaled(n)
    cols = _columns(alpha)
    if _g_multiplier(cols, n) is None:
        raise ValueError("alpha is not in G_n")
    # only the image: the phase over 2 chi.den^2 is trivial on 2n^2-th powers, as chi.den divides n
    return Characteristic(_move(cols, 0, chi.num)[0], chi.den).reduce()[0]


def act_phi(alpha, chi: Characteristic, m: int) -> ActionResult:
    """Action on a single Phi_[r;s] with odd denominator m, alpha in G_{2m^2}.

    Returns the multiplier e((tr.a.s - tr'.s')/2) of _move together with the raw
    image [r'; s'] = t(alpha)[r; s]; canonical reduction (and its translation
    phase) is left to the caller via ActionResult.canonical().
    """
    if (m := index(m)) % 2 == 0:  # an int from here on: numpy's integers overflow in the phase
        raise ValueError("denominator must be odd")
    cols = _columns(alpha)
    a = _g_multiplier(cols, 2 * m * m)
    if a is None:
        raise ValueError("alpha is not in G_{2m^2}")
    y, phase = _move(cols, a, chi.scaled(m))
    return ActionResult(RootOfUnity._make(phase, 2 * m * m), Characteristic(y, m))
