"""Verification suites: every identity the package claims, run as named checks
with measured deviations, plus JSON report assembly for the CLI.

Checks are deterministic: each one draws from a PRNG seeded by (config.seed,
check index), so a fixed seed reproduces the report byte-for-byte apart from
runtime fields.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .action import act_iota_inv, act_phi, act_power_family
from .cmfield import (
    belong_criterion,
    build_context,
    closed_phase,
    is_odd_prime,
    riemann_form,
    shared_actor,
    standard_actors,
)
from .exact import CycloElem, RootOfUnity, orbit_sum, rel_trace_norm, unit_residues
from .modularity import ThetaProduct, check_family, eval_product, gamma_multiplier, theta_product
from .primgen import combine_norm, combine_trace, is_primitive, make_tower, subgroup_generated
from .symplectic import (
    act_siegel,
    identity,
    intmat,
    iota,
    is_symplectic,
    jmat,
    special_gamma,
    sympl_multiplier,
)
from .theta import (
    Characteristic,
    EvalSettings,
    all_characteristics,
    phi_eval,
    random_siegel,
    theta_eval,
    theta_null,
    zero_char,
)

SUITE_NAMES = ("theta", "modularity", "action", "cm", "primgen")


class ConfigError(ValueError):
    pass


@dataclass
class SuiteConfig:
    primes: tuple[int, ...] = (3, 5, 7)
    tol_numeric: float = 1e-8
    theta_tol: float = 1e-12
    seed: int = 20260815
    suites: tuple[str, ...] = SUITE_NAMES

    def validate(self) -> None:
        if not self.primes or not all(map(is_odd_prime, self.primes)):
            raise ConfigError("primes must be odd primes")
        if not all(0 < tol < math.inf for tol in (self.tol_numeric, self.theta_tol)):
            raise ConfigError("tolerances must be positive finite numbers")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        unknown = set(self.suites) - set(SUITE_NAMES)
        if unknown:
            raise ConfigError(f"unknown suites: {sorted(unknown)}")


@dataclass
class CheckResult:
    name: str
    suite: str
    status: str
    measured: float | None
    tolerance: float | None
    runtime_s: float
    detail: str = ""


@dataclass
class Report:
    config: SuiteConfig
    records: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.records)

    def to_json(self) -> str:
        def sig(x):
            return None if x is None else float(f"{x:.15g}")

        payload = {
            "seed": self.config.seed,
            "primes": list(self.config.primes),
            "tol_numeric": sig(self.config.tol_numeric),
            "theta_tol": sig(self.config.theta_tol),
            "suites": list(self.config.suites),
            "checks": [
                {
                    "name": r.name,
                    "suite": r.suite,
                    "status": r.status,
                    "measured": sig(r.measured),
                    "tolerance": sig(r.tolerance),
                    "runtime_s": sig(r.runtime_s),
                    "detail": r.detail,
                }
                for r in self.records
            ],
            "counts": {
                "pass": sum(r.status == "pass" for r in self.records),
                "fail": sum(r.status == "fail" for r in self.records),
            },
            "passed": self.passed,
        }
        return json.dumps(payload, indent=2)


class HarnessEnv:
    """Shared lazy state: the CM context and evaluation settings."""

    def __init__(self, config: SuiteConfig):
        self.config = config
        self.settings = EvalSettings(tol=config.theta_tol)

    @cached_property
    def ctx(self):
        return build_context(self.settings)


# ---------------------------------------------------------------------------
# helpers


def _rng(env: HarnessEnv, salt: int) -> np.random.Generator:
    return np.random.default_rng([env.config.seed, salt])


def _random_char(rng, den: int, exclude_sigma: bool = True) -> Characteristic:
    for _ in range(64):
        chi = Characteristic.from_den(
            [int(v) for v in rng.integers(0, den, 2)], [int(v) for v in rng.integers(0, den, 2)], den
        )
        if not (exclude_sigma and chi.in_sigma_minus()):
            return chi
    raise RuntimeError("no characteristic outside Sigma^- in 64 draws")


def _gamma_word(rng, n: int, max_len: int = 3):
    word = identity(4)
    for _ in range(int(rng.integers(1, max_len + 1))):
        kind = ("upper", "lower", "mixed")[int(rng.integers(0, 3))]
        j, k = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        word = word @ special_gamma(kind, j, k, n)
    return word


# The sampling guard: a drawn point is used only where the Siegel action and the
# theta quotients are well-conditioned, so absolute comparisons stay meaningful.


def _image(gamma, z):
    """gamma(z), or None if CZ + D is nearly singular or Im gamma(z) has an eigenvalue below 0.02."""
    try:
        w = act_siegel(gamma, z)
    except ValueError:
        return None
    return w if w.min_im_eig >= 0.02 else None


def _guarded_phis(env, chis, z, null_floor: float, band=(0.0, math.inf)):
    """(theta_null(z), [Phi_chi(z)]), or None if |theta_null(z)| < null_floor or some |Phi_chi(z)| is outside band."""
    null = theta_null(z, env.settings)
    if abs(null) < null_floor:
        return None
    phis = [phi_eval(chi, z, env.settings, null_value=null) for chi in chis]
    return (null, phis) if all(band[0] < abs(v) < band[1] for v in phis) else None


def _power_product(terms, phis) -> complex:
    """prod_i phis[i]^m_i over the (chi, m) terms of a family."""
    value = 1 + 0j
    for (_, m), v in zip(terms, phis):
        value *= v**m
    return value


def _random_passing_family(rng, n: int) -> ThetaProduct:
    for _ in range(32):
        terms = []
        for _ in range(int(rng.integers(1, 3))):
            chi = _random_char(rng, n)
            if rng.random() < 0.5:
                terms.append((chi, 2 * n))
            else:
                partner = Characteristic.make(chi.r, [(-v) % 1 for v in chi.s])
                terms.extend([(chi, n), (partner, n)])
        prod = theta_product(n, terms)
        # keep exponents moderate so absolute numeric comparisons stay well-conditioned
        if prod.terms and all(abs(m) <= 2 * n for _, m in prod.terms):
            if not check_family(prod).ok:
                raise RuntimeError("a family built from exponent-2n terms and partner pairs fails check_family")
            return prod
    raise RuntimeError("no moderate passing family in 32 draws")


def _random_failing_family(rng, n: int):
    """A random family failing check_family together with an exact generator witness."""
    for _ in range(32):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            chi = _random_char(rng, n)
            m = int(rng.integers(1, 4)) * (1 if rng.random() < 0.7 else -1)
            terms.append((chi, m))
        prod = theta_product(n, terms)
        if not prod.terms or check_family(prod).ok:
            continue
        for kind in ("upper", "lower", "mixed"):
            for j, k in ((1, 1), (2, 2), (1, 2)):
                gam = special_gamma(kind, j, k, n)
                mult = gamma_multiplier(gam, prod, n)
                if mult != RootOfUnity.one():
                    return prod, gam, mult
        # no witness among the distinguished generators (possible but rare); resample
    raise RuntimeError("no failing family with a generator witness in 32 draws")


def _family_value_guarded(rng, env, prod, factor_band, value_band, tries: int = 60):
    # pick a point where every factor and the product are well away from 0 and infinity
    for _ in range(tries):
        z = random_siegel(rng)
        at_z = _guarded_phis(env, [chi for chi, _ in prod.terms], z, 0.5, factor_band)
        if at_z is None:
            continue
        value = _power_product(prod.terms, at_z[1])
        if value_band[0] < abs(value) < value_band[1]:
            return z, value
    raise RuntimeError("no well-conditioned point found for family")


# ---------------------------------------------------------------------------
# theta suite


def check_theta_reference(env: HarnessEnv):
    val = theta_eval(np.eye(2) * 1j, zero_char(2), env.settings)
    ref = 1.1803405990160964  # (pi^(1/4) / Gamma(3/4))^2
    measured = abs(val - ref)
    return measured < 1e-10, measured, 1e-10, "theta null at iI2 vs closed-form reference"


def check_translation_formula(env: HarnessEnv):
    rng = _rng(env, 14)
    worst = 0.0
    for _ in range(100):
        z = random_siegel(rng)
        g = 2
        chi = Characteristic.make(
            [Fraction(int(v), 24) for v in rng.integers(-48, 48, g)],
            [Fraction(int(v), 24) for v in rng.integers(-48, 48, g)],
        )
        a = [int(v) for v in rng.integers(-3, 4, g)]
        b = [int(v) for v in rng.integers(-3, 4, g)]
        shifted = Characteristic.make([rv + av for rv, av in zip(chi.r, a)], [sv + bv for sv, bv in zip(chi.s, b)])
        lhs = theta_eval(z, shifted, env.settings)
        phase = RootOfUnity(sum((rv * bv for rv, bv in zip(chi.r, b)), Fraction(0))).value()
        rhs = phase * theta_eval(z, chi, env.settings)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-30)
        worst = max(worst, rel)
    return worst < 1e-9, worst, 1e-9, "theta translation covariance, 100 random (Z,r,s,a,b)"


def check_sign_symmetry(env: HarnessEnv):
    rng = _rng(env, 3)
    worst = 0.0
    for _ in range(20):
        z = random_siegel(rng)
        chi = _random_char(rng, int(rng.integers(2, 7)), exclude_sigma=False)
        lhs = theta_eval(z, chi.neg(), env.settings)
        rhs = theta_eval(z, chi, env.settings)
        worst = max(worst, abs(lhs - rhs))
    return worst < 1e-10, worst, 1e-10, "Theta(Z;-r,-s) = Theta(Z;r,s), 20 random inputs"


def check_sigma_minus(env: HarnessEnv):
    rng = _rng(env, 9)
    odd_chars = [chi for chi in all_characteristics(2, 2) if chi.in_sigma_minus()]
    if len(odd_chars) != 6:
        raise RuntimeError(f"expected 6 odd half-integral characteristics, found {len(odd_chars)}")
    worst = 0.0
    for _ in range(5):
        z = random_siegel(rng)
        for chi in odd_chars:
            worst = max(worst, abs(theta_eval(z, chi, env.settings)))
    return worst < 1e-10, worst, 1e-10, "all 6 odd half-integral theta nulls vanish at 5 random Z"


def check_conjugation(env: HarnessEnv):
    rng = _rng(env, 7)
    z0 = env.ctx.z0
    zbar = type(z0)(-z0.mat.conjugate())
    worst = 0.0
    for _ in range(20):
        den = int(rng.integers(0, 2)) + 3  # 3 or 4
        chi = _random_char(rng, den, exclude_sigma=False)
        lhs = env.ctx.phi(chi).conjugate()
        rhs = phi_eval(Characteristic.make(chi.r, [-v for v in chi.s]), zbar, env.settings)
        worst = max(worst, abs(lhs - rhs))
    return worst < env.config.tol_numeric, worst, env.config.tol_numeric, "conj(Phi_[r;s](Z0)) = Phi_[r;-s](-conj(Z0))"


# ---------------------------------------------------------------------------
# modularity suite


def check_single_2n(env: HarnessEnv):
    bad = 0
    total = 0
    for n in (2, 4):
        for chi in all_characteristics(n, 2):
            if chi.in_sigma_minus():
                continue
            total += 1
            prod = theta_product(n, [(chi, 2 * n)])
            if prod.terms and not check_family(prod).ok:
                bad += 1
    return bad == 0, float(bad), 0.0, f"single constant to the power 2N passes check_family ({total} cases)"


def check_passing_families(env: HarnessEnv):
    rng = _rng(env, 81)
    worst = 0.0
    compared = 0
    for n in (2, 4):
        for _ in range(10):
            prod = _random_passing_family(rng, n)
            zs = []
            base = []
            for _ in range(3):
                # no lower value bound: with absolute comparisons, tiny products are harmless
                z, val = _family_value_guarded(rng, env, prod, tries=240, factor_band=(0.1, 2.5), value_band=(1e-12, 2.0))
                zs.append(z)
                base.append(val)
            chis = [chi for chi, _ in prod.terms]
            for _ in range(20):
                gamma = _gamma_word(rng, n)
                for z, val in zip(zs, base):
                    w = _image(gamma, z)
                    at_w = None if w is None else _guarded_phis(env, chis, w, 0.3, (0.05, 5.0))
                    if at_w is None:
                        continue
                    worst = max(worst, abs(_power_product(prod.terms, at_w[1]) - val))
                    compared += 1
    detail = f"passing families are Gamma(N)-invariant ({compared} well-conditioned comparisons)"
    return worst < env.config.tol_numeric and compared >= 400, worst, env.config.tol_numeric, detail


def check_failing_families(env: HarnessEnv):
    rng = _rng(env, 82)
    closest = math.inf
    for n in (2, 4):
        for _ in range(10):
            for _ in range(16):  # the ratio test is forgiving; only degenerate families are resampled
                prod, gam, mult = _random_failing_family(rng, n)
                try:
                    z, val = _family_value_guarded(rng, env, prod, factor_band=(0.01, 20.0), value_band=(1e-6, 1e6))
                    break
                except RuntimeError:
                    continue
            else:
                raise RuntimeError("no well-conditioned point for 16 failing families")
            w = act_siegel(gam, z)
            moved = eval_product(prod, w, env.settings)
            closest = min(closest, abs(moved / val - 1))
    return closest > 1e-3, closest, 1e-3, "failing families have a generator witness with ratio far from 1"


@dataclass
class _WordSample:
    gamma: object
    z: object
    null_z: complex
    base: complex
    moved: complex


def _usable_sample(rng, env, n, chi) -> _WordSample:
    """A random generator word and point with Phi(chi) well-conditioned at z and gamma z."""
    for _ in range(64):
        gamma = _gamma_word(rng, n)
        for _ in range(30):
            for _ in range(10):
                z = random_siegel(rng)
                w = _image(gamma, z)
                if w is not None:
                    break
            else:
                break  # this word maps 10 draws in a row badly; draw another word
            at_z = _guarded_phis(env, [chi], z, 0.3, (0.05, 5.0))
            at_w = None if at_z is None else _guarded_phis(env, [chi], w, 0.05)
            if at_w is None:
                continue
            (null_z, (base,)), (_, (moved,)) = at_z, at_w
            return _WordSample(gamma, z, null_z, base, moved)
    raise RuntimeError("no usable word/point pair in 64 words")


def check_multiplier_cross(env: HarnessEnv):
    rng = _rng(env, 10)
    worst = 0.0
    for i in range(100):
        n = (2, 4)[i % 2]
        chi = _random_char(rng, n)
        smp = _usable_sample(rng, env, n, chi)
        mult = gamma_multiplier(smp.gamma, chi, n)
        worst = max(worst, abs(smp.moved / smp.base - mult.value()))
    return worst < env.config.tol_numeric, worst, env.config.tol_numeric, "congruence multiplier vs numeric ratio, 100 words"


def check_odd_action_overlap(env: HarnessEnv):
    rng = _rng(env, 11)
    agree = True
    cases = 0
    for m in (3, 5):
        level = 2 * m * m
        for _ in range(20):
            gamma = _gamma_word(rng, level, max_len=2)
            chi = _random_char(rng, m, exclude_sigma=False)
            res = act_phi(gamma, chi, m).canonical()
            mult = gamma_multiplier(gamma, chi, level)
            agree = agree and res.chi_out == chi and res.multiplier == mult
            cases += 1
    return agree, None, None, f"act_phi == congruence multiplier on {cases} Gamma(2M^2) words, exact"


# ---------------------------------------------------------------------------
# action suite


def check_power_family_words(env: HarnessEnv):
    rng = _rng(env, 52)
    ok = True
    for i in range(50):
        n = (2, 4)[i % 2]
        factors = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.3:
                a = int(rng.choice(unit_residues(n)))
                factors.append(iota(a, 2, n))
            else:
                factors.append(_gamma_word(rng, n, max_len=1))
        word = identity(4)
        for f in factors:
            word = word @ f
        chi = _random_char(rng, n, exclude_sigma=False)
        via_word = act_power_family(word, chi, n)
        step = chi
        for f in factors:  # transpose(f1 f2 ...) applies t(f1) first
            step = act_power_family(f, step, n)
        ok = ok and via_word == step
    return ok, None, None, "50 random G_N words: action composes factorwise, exact"


def check_power_family_numeric(env: HarnessEnv):
    rng = _rng(env, 53)
    n = 2
    power = 2 * n * n
    worst = 0.0
    for _ in range(15):
        chi = _random_char(rng, n)
        smp = _usable_sample(rng, env, n, chi)
        out = act_power_family(smp.gamma, chi, n)
        lhs = smp.moved**power
        rhs = phi_eval(out, smp.z, env.settings, null_value=smp.null_z) ** power
        worst = max(worst, abs(lhs / rhs - 1))
    return worst < 1e-7, worst, 1e-7, "2N^2-th powers move by characteristic bookkeeping alone (Gamma(N) words)"


def check_iota_twist(env: HarnessEnv):
    ok = True
    chi = Characteristic.from_den([1, 0], [1, 2], 3)
    ok &= act_iota_inv(1, chi) == chi.reduce()[0]
    minus = act_iota_inv(-1, chi)
    ok &= minus == Characteristic.make(chi.r, [(-v) % 1 for v in chi.s])
    for n in (4, 6, 18):
        units = unit_residues(n)
        for a in units:
            for b in units:
                lhs = iota(a, 2, n) @ iota(b, 2, n) % n
                rhs = iota(a * b % n, 2, n) % n
                ok &= bool((lhs == rhs).all())
            ok &= sympl_multiplier(iota(a, 2, n), modulus=n) == pow(a, -1, n)
    return ok, None, None, "iota examples: identity, s -> -s, homomorphism, nu = a^{-1}"


# ---------------------------------------------------------------------------
# cm suite


def check_riemann_matrix(env: HarnessEnv):
    ctx = env.ctx
    expect = jmat(2)
    gram_ok = all(
        riemann_form(bj, bk) == expect[j, k] for j, bj in enumerate(ctx.basis) for k, bk in enumerate(ctx.basis)
    )
    skew_ok = all(riemann_form(b, b) == 0 for b in ctx.basis)
    return gram_ok and skew_ok, None, None, "[E(Phi(xi_j), Phi(xi_k))] = J, exact"


def check_cm_point(env: HarnessEnv):
    ctx = env.ctx
    beta = intmat([[0, 0, 1, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 1, 0, 0]])
    if not is_symplectic(beta):
        return False, None, 1e-10, "beta not symplectic"
    moved = act_siegel(beta, ctx.z0)
    measured = float(np.abs(moved.mat + ctx.z0.mat.conjugate()).max())
    return measured < 1e-10, measured, 1e-10, "beta(Z0) = -conj(Z0); Z0 valid in H_2"


def check_theta_null_bound(env: HarnessEnv):
    measured = abs(env.ctx.null0)
    return measured > 0.1, measured, 0.1, "theta null at Z0 exceeds lower bound 0.1"


def _expected_h2(p: int):
    return intmat(
        [
            [1 - 2 * p, -2 * p, -2 * p, 0],
            [0, 1 - 2 * p, 0, -2 * p],
            [2 * p, 2 * p, 1, 0],
            [2 * p, 4 * p, 2 * p, 1],
        ]
    )


def _expected_h3(p: int):
    return intmat(
        [
            [1 + 2 * p, 6 * p, -2 * p, 4 * p],
            [-4 * p, 1 - 2 * p, 4 * p, -2 * p],
            [2 * p, -2 * p, 1 - 4 * p, 4 * p],
            [-2 * p, -4 * p, -6 * p, 1],
        ]
    )


def check_reflex_congruences(env: HarnessEnv):
    ok = True
    for p in env.config.primes:
        level = 2 * p * p
        a1, a2 = (shared_actor(x, p) for x in standard_actors(p))
        ok &= bool(((a1.h_matrix - _expected_h2(p)) % level == 0).all())
        ok &= bool(((a2.h_matrix - _expected_h3(p)) % level == 0).all())
        ok &= a1.nu == (1 - 2 * p) % level and a2.nu == (1 - 2 * p) % level
        ok &= a1.in_group and a2.in_group
    return ok, None, None, f"reflex matrices and nu match their mod-2p^2 targets, p in {env.config.primes}"


def check_artin_closed_form(env: HarnessEnv):
    rng = _rng(env, 72)
    ok = True
    cases = 0
    for p in env.config.primes:
        if p == 3:
            grid = [(a, b, c, d) for a in range(3) for b in range(3) for c in range(3) for d in range(3)]
        else:
            grid = [tuple(int(v) for v in rng.integers(0, p, 4)) for _ in range(30)]
        actors = [(which, shared_actor(x, p)) for which, x in zip((1, 2), standard_actors(p))]
        for a, b, c, d in grid:
            chi = Characteristic.from_den([a, b], [c, d], p)
            for which, actor in actors:
                res = actor.act(chi)
                ok &= res.chi_out == chi and res.multiplier == closed_phase(which, chi, p)
                cases += 1
    detail = (
        f"simulated Artin action fixes chi with the closed-form phase, p in {env.config.primes} "
        f"({cases} cases), exact"
    )
    return ok, None, None, detail


def check_reality(env: HarnessEnv):
    ctx = env.ctx
    worst = 0.0
    for p in (3, 5):
        for a in range(p):
            for b in range(p):
                r = (Fraction(a, p), Fraction(b, p))
                s = (r[0] - r[1], -r[0])
                chi = Characteristic.make(r, s)
                phase = RootOfUnity(-sum((rv * sv for rv, sv in zip(r, s)), Fraction(0)) / 2).value()
                val = phase * theta_eval(ctx.z0, chi, env.settings) / ctx.null0
                worst = max(worst, abs(val.imag))
    return worst < env.config.tol_numeric, worst, env.config.tol_numeric, "e(-trs/2) Phi_[r;s](Z0) is real on the CM locus"


def check_belong_example(env: HarnessEnv):
    res = belong_criterion([1, 2, 2, 0, 0], 7)
    ok = res.first_row == (-1, 0, 0, -2) and res.value == -6 and res.value_mod_p != 0
    for p in (11, 13):
        ok &= belong_criterion([1, 2, 2, 0, 0], p).value_mod_p != 0
    triv = belong_criterion([1, 0, 0, 0, 0], 7)
    ok &= triv.first_row == (1, 0, 0, 0) and triv.value == 0
    lone = belong_criterion([1, 2, 0, 0, 0], 7)
    ok &= lone.first_row == (-1, -2, 2, 0) and lone.value == 0
    return ok, None, None, "first-row criterion on the worked examples, exact"


# ---------------------------------------------------------------------------
# primgen suite


def check_trace_norm_example(env: HarnessEnv):
    z25 = CycloElem.zeta(25)
    sub = tuple((1 + 5 * k) % 25 for k in range(5))
    tr = rel_trace_norm(z25, sub, "trace")
    nm = rel_trace_norm(3 * z25 + 1, sub, "norm")
    expect = 243 * CycloElem.zeta(5) + 1
    ok = tr.is_zero() and nm == expect.lift(25)
    return ok, None, None, "Tr(zeta_25) = 0 and N(3 zeta_25 + 1) = 243 zeta_5 + 1 over the degree-5 step"


def check_surrogate_tower(env: HarnessEnv):
    z8 = CycloElem.zeta(8)
    x = z8 + z8**7
    y = z8**2
    tower = make_tower(8, unit_residues(8), x, y)
    ok = tower.ell == 2 and tower.degree == 4
    eps = combine_trace(tower, 1, 1)
    ok &= eps == x + 2 * y and is_primitive(eps, tower)
    ok &= tower.trace_mid(eps) == 1 * tower.x * tower.ell
    eps2 = combine_norm(tower, 3, 1, 3, 1, 1, 1)
    ok &= is_primitive(eps2, tower)
    ok &= tower.norm_mid(3 * tower.y + 1) == CycloElem.from_rational(8, 10)
    return ok, None, None, "Q(zeta_8) tower: both combinators primitive, trace identity exact"


def check_random_towers(env: HarnessEnv):
    rng = _rng(env, 13)
    conductors = (8, 12, 15, 16, 20, 24)
    ok = True
    trace_coeffs = (1, -1, 2, -2, Fraction(1, 5))
    norm_pairs = ((3, 1), (5, 2), (-7, 3))
    built = 0
    for _ in range(200):
        if built == 20:
            break
        n = int(rng.choice(conductors))
        units = unit_residues(n)
        base = subgroup_generated(n, [int(rng.choice(units)) for _ in range(2)] + [1])
        x = orbit_sum(CycloElem.zeta(n), subgroup_generated(n, [int(rng.choice(units))]))
        y = orbit_sum(CycloElem.zeta(n, 3), subgroup_generated(n, [int(rng.choice(units))]))
        tower = make_tower(n, base, x, y)
        if tower.degree == 1:
            continue  # both elements already in the base field; nothing to combine
        built += 1
        a = trace_coeffs[int(rng.integers(0, len(trace_coeffs)))]
        b = trace_coeffs[int(rng.integers(0, len(trace_coeffs)))]
        eps = combine_trace(tower, a, b)
        ok &= is_primitive(eps, tower)
        ok &= tower.trace_mid(eps) == a * tower.x * tower.ell
        (ca, cb) = norm_pairs[int(rng.integers(0, 3))]
        (cc, cd) = norm_pairs[int(rng.integers(0, 3))]
        ne, me = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        eps2 = combine_norm(tower, ca, cb, cc, cd, ne, me)
        ok &= is_primitive(eps2, tower)
    if built < 20:
        raise RuntimeError(f"only {built} towers of degree > 1 in 200 draws")
    return ok, None, None, "20 randomized cyclotomic towers: combinator outputs primitive, exact"


# ---------------------------------------------------------------------------
# registry and runner


CHECKS: dict[str, list] = {
    "theta": [
        ("theta-reference-value", check_theta_reference),
        ("translation-formula-fuzz", check_translation_formula),
        ("sign-symmetry", check_sign_symmetry),
        ("odd-characteristic-vanishing", check_sigma_minus),
        ("conjugation-at-cm-point", check_conjugation),
    ],
    "modularity": [
        ("single-constant-power-2N", check_single_2n),
        ("passing-family-invariance", check_passing_families),
        ("failing-family-witness", check_failing_families),
        ("multiplier-cross-validation", check_multiplier_cross),
        ("odd-action-vs-congruence-multiplier", check_odd_action_overlap),
    ],
    "action": [
        ("power-family-word-composition", check_power_family_words),
        ("power-family-numeric", check_power_family_numeric),
        ("iota-twist-examples", check_iota_twist),
    ],
    "cm": [
        ("riemann-form-matrix", check_riemann_matrix),
        ("cm-point-equation", check_cm_point),
        ("theta-null-lower-bound", check_theta_null_bound),
        ("reflex-matrix-congruences", check_reflex_congruences),
        ("artin-closed-form", check_artin_closed_form),
        ("reality-locus", check_reality),
        ("first-row-criterion-example", check_belong_example),
    ],
    "primgen": [
        ("cyclotomic-trace-norm-example", check_trace_norm_example),
        ("surrogate-tower", check_surrogate_tower),
        ("random-towers", check_random_towers),
    ],
}


def run_suite(config: SuiteConfig) -> tuple[Report, int]:
    config.validate()
    env = HarnessEnv(config)
    report = Report(config=config)
    for suite in SUITE_NAMES:
        if suite not in config.suites:
            continue
        for name, fn in CHECKS[suite]:
            start = time.perf_counter()
            try:
                ok, measured, tolerance, detail = fn(env)
            except Exception as exc:  # a crash is a failure, not an abort
                ok, measured, tolerance, detail = False, None, None, f"exception: {exc!r}"
            report.records.append(
                CheckResult(
                    name=name,
                    suite=suite,
                    status="pass" if ok else "fail",
                    measured=None if measured is None else float(measured),
                    tolerance=tolerance,
                    runtime_s=time.perf_counter() - start,
                    detail=detail,
                )
            )
    return report, (0 if report.passed else 1)
