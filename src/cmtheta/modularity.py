"""Products of theta constants and the even-level modularity criterion.

A family is a formal product prod_i Phi_[r_i; s_i]^{m_i} with all
characteristics in (1/N)Z^2g for an even level N.  Such a product is modular
for Gamma(N) exactly when the integer congruences checked by check_family
hold; gamma_multiplier computes the obstruction e(X) for individual gamma.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import RootOfUnity
from .symplectic import identity, in_gamma, intmat
from .theta import Characteristic, EvalSettings, DEFAULT_SETTINGS, phi_eval, theta_null


@dataclass(frozen=True)
class ThetaProduct:
    """prod_i Phi_{chi_i}^{m_i} with canonical, distinct, non-vanishing characteristics."""

    level: int
    terms: tuple[tuple[Characteristic, int], ...]

    def __post_init__(self):
        if self.level % 2 or self.level <= 0:
            raise ValueError(f"level must be a positive even integer, got {self.level}")
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


def theta_product(level: int, terms) -> ThetaProduct:
    """Build a ThetaProduct, canonicalizing characteristics and merging duplicates.

    Reduction here is mod-1 bookkeeping on the family's index set (translation
    phases are not tracked); exponent-zero terms are dropped.
    """
    merged: dict[Characteristic, int] = {}
    for chi, m in terms:
        red = chi if chi.is_canonical() else chi.reduce()[0]
        merged[red] = merged.get(red, 0) + m
    kept = tuple((chi, m) for chi, m in merged.items() if m != 0)
    return ThetaProduct(level, kept)


def parse(text: str) -> ThetaProduct:
    rows = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln]
    if not rows:
        raise ValueError("empty product file")
    g, level = (int(v) for v in rows[0].split())
    terms = []
    for ln in rows[1:]:
        parts = ln.split()
        if len(parts) != 1 + 2 * g:
            raise ValueError(f"expected m and {2 * g} rationals: {ln!r}")
        m = int(parts[0])
        vals = [Fraction(p) for p in parts[1:]]
        terms.append((Characteristic.make(vals[:g], vals[g:]), m))
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
    with the exponents).  n must be even and every characteristic
    (1/n)-integral; raises ValueError unless gamma lies in Gamma(n).

    For gamma in Gamma(n), t(gamma) [r; s] = [r + a; s + b] with integer a, b.
    The action rule of act_phi at nu = 1 gives the phase e((tr s - t(r+a)(s+b))/2),
    and translating back to [r; s] costs e(tr b) (Characteristic.reduce), so
    X = (tr b - ta s - ta b)/2.  In integers, with x = n [r; s] and
    [a; b] = (t(gamma) - I) x / n, summed over the terms Phi_[r_i; s_i]^{m_i}:

        X = sum_i m_i (x_r.b - a.x_s - n a.b) / (2n).
    """
    if n % 2:
        raise ValueError(f"level must be even, got {n}")
    gamma = intmat(gamma)
    if not in_gamma(gamma, n):
        raise ValueError(f"gamma is not in Gamma({n})")
    g, total = gamma.shape[0] // 2, 0
    move = (gamma.T - identity(2 * g)) // n
    terms = ((target, 1),) if isinstance(target, Characteristic) else target.terms
    for chi, m in terms:
        x = chi.scaled(n)
        ab = move.dot(x)
        a, b = ab[:g], ab[g:]
        total += m * (b.dot(x[:g]) - a.dot(x[g:]) - n * a.dot(b))
    return RootOfUnity(Fraction(total, 2 * n))


def eval_product(prod: ThetaProduct, z, settings: EvalSettings = DEFAULT_SETTINGS) -> complex:
    """Numerical value of the product at Z, sharing one theta-null denominator."""
    den = theta_null(z, settings)
    value = 1 + 0j
    for chi, m in prod.terms:
        value *= phi_eval(chi, z, settings, null_value=den) ** m
    return value
