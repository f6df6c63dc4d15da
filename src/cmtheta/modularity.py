"""Products of theta constants and the even-level modularity criterion.

A family is a formal product prod_i Phi_[r_i; s_i]^{m_i} with all
characteristics in (1/N)Z^2g for an even level N.  Such a product is modular
for Gamma(N) exactly when the integer congruences checked by check_family
hold; gamma_multiplier computes the obstruction e(X) for individual gamma.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .exact import RootOfUnity
from .symplectic import SiegelPoint, _columns, _gamma_member, check_level, is_integer
from .theta import Characteristic, EvalSettings, DEFAULT_SETTINGS, phi_eval, theta_null


@dataclass(frozen=True)
class ThetaProduct:
    """prod_i Phi_{chi_i}^{m_i} with canonical, distinct, non-vanishing characteristics and nonzero int exponents.

    moments = (D, M), built once: D the lcm of the denominators, M = sum_i m_i x_i tx_i, x_i = D [r_i; s_i], as 2g rows
    of ints (none for no terms): check_family and gamma_multiplier read the terms only through it; not in == or repr.
    """

    level: int
    terms: tuple[tuple[Characteristic, int], ...]
    moments: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "level", check_level(self.level))
        object.__setattr__(self, "terms", tuple((chi, _exponent(m)) for chi, m in self.terms))
        seen, g = set(), self.terms[0][0].g if self.terms else 0
        for chi, m in self.terms:
            if chi.g != g:
                raise ValueError(f"{chi} has genus {chi.g}, the first term has genus {g}")
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
        den, size = lcm(*(chi.den for chi, _ in self.terms)), range(2 * g)
        xs = [(m, chi.scaled(den)) for chi, m in self.terms]
        mom = tuple(tuple(sum(m * x[a] * x[b] for m, x in xs) for b in size) for a in size)
        object.__setattr__(self, "moments", (den, mom))


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

        sum_i m_i n_ij n_ik = 0  (mod 2*level if j = k, mod level if j < k)
        sum_i m_i t_ij t_ik = 0  (mod 2*level if j = k, mod level if j < k)
        sum_i m_i n_ij t_ik = 0  (mod level)

    The moduli, for one term with N = level, a = N r and t = N s: Z -> Z + B multiplies the summand of Theta[r; s]
    at n by e((n + r)^t B (n + r) / 2), so by e(N n_j n_k + n_j a_k + a_j n_k + a_j a_k / N) = e(a_j a_k / N) for
    B = N (E_jk + E_kj), j != k, and by e(N n_j^2 / 2 + n_j a_j + a_j^2 / (2N)) = e(a_j^2 / (2N)) for B = N E_jj,
    N being even; the lower generators act so on t.  Z -> A Z tA, A = I + N E_jk, j != k, gives e(-a_j t_k / N), and
    the mixed generator at (j, j) gives e(a_j t_j / N) once rr and ss hold.  Exponents add phases; the null's is 1.

    As [n_i; t_i] = (level/D) x_i for (D, M) = prod.moments, the sums are the
    entries (j, k), (g+j, g+k) and (j, g+k) of (level/D)^2 M.
    """
    n = prod.level
    den, mom = prod.moments
    q, g, moduli = (n // den) ** 2, len(mom) // 2, (2 * n, n)  # moduli[j < k]: the diagonal's, then the rest's
    failures = []
    for j in range(g):
        for k in range(g):
            srr, sss, srs = q * mom[j][k], q * mom[g + j][g + k], q * mom[j][g + k]
            if j <= k:
                mod = moduli[j < k]
                if srr % mod:
                    failures.append(("rr", j, k, srr % mod, mod))
                if sss % mod:
                    failures.append(("ss", j, k, sss % mod, mod))
            if srs % n:
                failures.append(("rs", j, k, srs % n, n))
    return FamilyCheck(ok=not failures, failures=failures)


def gamma_multiplier(gamma, target, n: int) -> RootOfUnity:
    """The exact multiplier e(X) with Phi(gamma Z) = e(X) Phi(Z), gamma in Gamma(n).

    target may be a single Characteristic or a ThetaProduct (multipliers add
    with the exponents).  n must pass check_level and every characteristic be
    (1/n)-integral; raises ValueError unless gamma lies in Gamma(n) and a
    non-empty target has gamma's genus (the empty product is e(0) at any genus).

    Per term X is the law of action._move at nu = 1 plus the translation back, homogeneous of degree 2 in [r; s], so
    take x = D [r; s] with D | n: gamma = I mod n moves x to y = t(gamma) x = D [r + a; s + b] with integer a, b, and
    Theta[r+a; s+b] = e(tr.b) Theta[r; s] (Characteristic.reduce), tr.b being 2 tx_r.(y_s - x_s) over 2D^2.  So
    X 2D^2 = tx_r.x_s - ty_r.y_s + 2 tx_r.(y_s - x_s) = 2 tx_r.y_s - tx_r.x_s - ty_r.y_s, and with y_j = c_j.x
    (c_j column j of gamma) each part contracts x tx: tx_r.y_s = sum_l (x tx c_{g+l})_l, tx_r.x_s = sum_l
    (x tx)_{l,g+l}, ty_r.y_s = sum_l c_l.(x tx c_{g+l}).  Summed with the exponents, x tx becomes M of (D, M) =
    ThetaProduct.moments, one contraction at any term count (a single characteristic: x tx at D = chi.den):

        X 2D^2 = sum_{l<g} (2 (M c_{g+l})_l - M_{l,g+l} - c_l.(M c_{g+l})).
    """
    n = check_level(n)
    cols = _columns(gamma)
    if not _gamma_member(cols, n):
        raise ValueError(f"gamma is not in Gamma({n})")
    x = target.num if isinstance(target, Characteristic) else None
    den, mom = target.moments if x is None else (target.den, [[a * b for b in x] for a in x])
    if n % den:
        raise ValueError(f"{target} is not (1/{n})-integral")
    if mom and len(mom) != len(cols):
        raise ValueError(f"{target} has genus {len(mom) // 2}, gamma has genus {len(cols) // 2}")
    g, total = len(mom) // 2, 0
    for l in range(g):
        c, cl, total = cols[g + l], cols[l], total - mom[l][g + l]
        for a, row in enumerate(mom):
            v = 0  # (M c_{g+l})_a
            for b in range(2 * g):
                v += row[b] * c[b]
            total += ((2 if a == l else 0) - cl[a]) * v
    return RootOfUnity._make(total, 2 * den * den)


def eval_product(prod: ThetaProduct, z, settings: EvalSettings = DEFAULT_SETTINGS) -> complex:
    """Numerical value of the product at Z, sharing one point, so one cut, and one theta-null denominator."""
    zp = z if isinstance(z, SiegelPoint) else SiegelPoint(z)
    den = theta_null(zp, settings)
    value = 1 + 0j
    for chi, m in prod.terms:
        value *= phi_eval(chi, zp, settings, null_value=den) ** m
    return value
