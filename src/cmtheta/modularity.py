"""Products of theta constants and the even-level modularity criterion.

A family is a formal product prod_i Phi_[r_i; s_i]^{m_i} with all
characteristics in (1/N)Z^2g for an even level N.  Such a product is modular
for Gamma(N) exactly when the integer congruences checked by check_family
hold; gamma_multiplier computes the obstruction e(X) for individual gamma.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul, sub

from .action import _move
from .exact import RootOfUnity
from .symplectic import SiegelPoint, _columns, _gamma_member, check_level, is_integer
from .theta import Characteristic, EvalSettings, DEFAULT_SETTINGS, phi_eval, theta_null


@dataclass(frozen=True)
class ThetaProduct:
    """prod_i Phi_{chi_i}^{m_i} with canonical, distinct, non-vanishing characteristics and nonzero int exponents."""

    level: int
    terms: tuple[tuple[Characteristic, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "level", check_level(self.level))
        object.__setattr__(self, "terms", tuple((chi, _exponent(m)) for chi, m in self.terms))
        seen = set()
        for chi, m in self.terms:
            if chi.g != self.g:
                raise ValueError(f"{chi} has genus {chi.g}, the first term has genus {self.g}")
            chi.scaled(self.level)
            if not chi.is_canonical():
                raise ValueError(f"{chi} is not reduced into [0,1)")
            if chi.in_sigma_minus():
                raise ValueError(f"{chi} indexes the zero function")
            if m == 0:
                raise ValueError("exponents must be nonzero")
            if chi in seen:
                raise ValueError(f"duplicate characteristic {chi}")
            seen.add(chi)

    @property
    def g(self) -> int:
        return self.terms[0][0].g if self.terms else 2


def _exponent(m) -> int:
    """m as an int; ValueError unless it is an Integral (numpy's too): a float, Fraction or str is refused."""
    if not is_integer(m):
        raise ValueError(f"exponents must be integers, got {m!r}")
    return int(m)


def theta_product(level: int, terms) -> ThetaProduct:
    """Build a ThetaProduct, canonicalizing characteristics and merging duplicates.

    Reduction here is mod-1 bookkeeping on the family's index set (translation
    phases are not tracked); exponent-zero terms are dropped.
    """
    merged: dict[Characteristic, int] = {}
    for chi, m in terms:
        red = chi if chi.is_canonical() else chi.reduce()[0]
        merged[red] = merged.get(red, 0) + _exponent(m)
    return ThetaProduct(level, tuple((chi, m) for chi, m in merged.items() if m != 0))


def parse(text: str) -> ThetaProduct:
    rows = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln]
    if not rows:
        raise ValueError("empty product file")
    g, level = (int(v) for v in rows[0].split())
    if g < 1:
        raise ValueError(f"genus must be at least 1, got {g}")
    terms = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 1 + 2 * g:
            raise ValueError(f"expected m and {2 * g} rationals: {ln!r}")
        terms.append((Characteristic.parse(parts[1:]), int(parts[0])))
    return theta_product(level, terms)


@dataclass
class FamilyCheck:
    ok: bool
    failures: list = field(default_factory=list)


def check_family(prod: ThetaProduct) -> FamilyCheck:
    """Exact modularity test for Gamma(level).

    With n_i = level * r_i and t_i = level * s_i (integer vectors), requires
    for all coordinate pairs (j, k):

        sum_i m_i n_ij n_ik = 0  (mod 2*level)
        sum_i m_i t_ij t_ik = 0  (mod 2*level)
        sum_i m_i n_ij t_ik = 0  (mod level)
    """
    n = prod.level
    g = prod.g
    terms = [(m, chi.scaled(n)) for chi, m in prod.terms]
    failures = []
    for j in range(g):
        for k in range(g):
            srr = sum(m * x[j] * x[k] for m, x in terms)
            sss = sum(m * x[g + j] * x[g + k] for m, x in terms)
            srs = sum(m * x[j] * x[g + k] for m, x in terms)
            if j <= k and srr % (2 * n):
                failures.append(("rr", j, k, srr % (2 * n), 2 * n))
            if j <= k and sss % (2 * n):
                failures.append(("ss", j, k, sss % (2 * n), 2 * n))
            if srs % n:
                failures.append(("rs", j, k, srs % n, n))
    return FamilyCheck(ok=not failures, failures=failures)


def gamma_multiplier(gamma, target, n: int) -> RootOfUnity:
    """The exact multiplier e(X) with Phi(gamma Z) = e(X) Phi(Z), gamma in Gamma(n).

    target may be a single Characteristic or a ThetaProduct (multipliers add
    with the exponents).  n must pass check_level and every characteristic be
    (1/n)-integral; raises ValueError unless gamma lies in Gamma(n).

    X is the transformation law of _move at nu = 1 plus the translation back: gamma = I
    mod n moves x = n [r; s] to y = t(gamma) x = n [r + a; s + b] with integer a, b, and
    Theta[r+a; s+b] = e(tr.b) Theta[r; s] (Characteristic.reduce), where tr.b is
    2 tx_r.(y_s - x_s) over 2n^2.  Summed over the terms Phi_[r_i; s_i]^{m_i}:

        X = sum_i m_i (tx_r.x_s - ty_r.y_s + 2 tx_r.(y_s - x_s)) / (2n^2).
    """
    n = check_level(n)
    cols = _columns(gamma)
    if not _gamma_member(cols, n):
        raise ValueError(f"gamma is not in Gamma({n})")
    total = 0
    terms = ((target, 1),) if isinstance(target, Characteristic) else target.terms
    for chi, m in terms:
        x, g = chi.scaled(n), chi.g
        y, phase = _move(cols, 1, x)
        total += m * (phase + 2 * sum(map(mul, x[:g], map(sub, y[g:], x[g:]))))
    return RootOfUnity._make(total, 2 * n * n)


def eval_product(prod: ThetaProduct, z, settings: EvalSettings = DEFAULT_SETTINGS) -> complex:
    """Numerical value of the product at Z, sharing one point, so one cut, and one theta-null denominator."""
    zp = z if isinstance(z, SiegelPoint) else SiegelPoint(z)
    den = theta_null(zp, settings)
    value = 1 + 0j
    for chi, m in prod.terms:
        value *= phi_eval(chi, zp, settings, null_value=den) ** m
    return value
