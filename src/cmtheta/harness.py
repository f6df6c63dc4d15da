"""Verification suites: every identity the package claims, run as named checks
with measured deviations, plus JSON report assembly for the CLI.

Checks are deterministic: each one draws from a PRNG seeded by (config.seed,
check index), so a fixed seed reproduces the report byte-for-byte apart from
runtime fields.  A sampler that returns the first case it finds loops over
_draws; check_random_towers keeps its own loop of 200 draws, as it needs 20
towers of degree > 1, and check_passing_families a floor of 400 comparisons.
"""
from __future__ import annotations

import cmath
import json
import math
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import product
from numbers import Real
from operator import matmul

import numpy as np

from .action import act_iota_inv, act_phi, act_power_family
from .cmfield import (
    belong_criterion,
    build_context,
    closed_phase,
    field_norm,
    h_map,
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
    is_integer,
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
        """The one check of a configuration, suite names included (the parser takes any name): odd primes, positive
        finite tolerances, a non-negative integer seed and known suites, numpy scalars accepted; ConfigError else."""
        if not self.primes or not all(map(is_odd_prime, self.primes)):
            raise ConfigError("primes must be odd primes")
        if not all(isinstance(tol, Real) and 0 < tol < math.inf for tol in (self.tol_numeric, self.theta_tol)):
            raise ConfigError("tolerances must be positive finite numbers")
        if not is_integer(self.seed) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        unknown = set(self.suites) - set(SUITE_NAMES)
        if unknown:
            raise ConfigError(f"unknown suites: {sorted(unknown)}; the suites are {', '.join(SUITE_NAMES)}")
        self.primes, self.seed = tuple(map(int, self.primes)), int(self.seed)  # numpy integers stop here


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
        def sig(x):  # None, or NaN or inf, is null: the report stays strict JSON
            return float(f"{float(x):.15g}") if x is not None and math.isfinite(x) else None

        payload = {  # validate made seed and primes ints; sig's float() turns a numpy scalar or a Fraction into JSON
            "seed": self.config.seed,
            "primes": list(self.config.primes),
            "tol_numeric": sig(self.config.tol_numeric),
            "theta_tol": sig(self.config.theta_tol),
            "suites": list(self.config.suites),
            "checks": [
                {**asdict(r), "measured": sig(r.measured), "tolerance": sig(r.tolerance), "runtime_s": sig(r.runtime_s)}
                for r in self.records
            ],
            "counts": {status: sum(r.status == status for r in self.records) for status in ("pass", "fail")},
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


@dataclass(frozen=True)
class Outcome:
    """What one check measured, made by `_within`, `_above` or `_exact`; only `run_suite` turns it into a status."""

    passed: bool
    measured: float | None
    tolerance: float | None
    detail: str


def _within(deviations, tol: float, detail: str) -> Outcome:
    """Passes when every deviation is below tol; np.max keeps a NaN, and a NaN is not below tol."""
    worst = float(np.max(deviations))
    return Outcome(worst < tol, worst, tol, detail)


def _above(values, floor: float, detail: str) -> Outcome:
    """Passes when every value is above floor; np.min keeps a NaN, and a NaN is not above floor."""
    closest = float(np.min(values))
    return Outcome(closest > floor, closest, floor, detail)


def _exact(failures: list, detail: str) -> Outcome:
    """Passes when no case failed; a failure names the count and the first failing case."""
    if failures:
        detail += f"; {len(failures)} failing, first: {failures[0]}"
    return Outcome(not failures, None, None, detail)


def _failing(cases: dict) -> list:
    """The labels of the cases (label -> holds) that do not hold."""
    return [label for label, holds in cases.items() if not holds]


def _refuses(fn, *args) -> bool:
    """Whether fn(*args) raises ValueError."""
    try:
        fn(*args)
    except ValueError:
        return True
    return False


def _rng(env: HarnessEnv, salt: int) -> np.random.Generator:
    return np.random.default_rng([env.config.seed, salt])


def _draws(budget: int, what: str):
    """The loop of every sampler: budget draws, then the one RuntimeError of a sampler that found no `what`."""
    yield from range(budget)
    raise RuntimeError(f"no {what} in {budget} draws")


def _random_char(rng, den: int, exclude_sigma: bool = True) -> Characteristic:
    for _ in _draws(64, "characteristic outside Sigma^-"):
        chi = Characteristic.from_den(rng.integers(0, den, 2), rng.integers(0, den, 2), den)  # read as ints there
        if not (exclude_sigma and chi.in_sigma_minus()):
            return chi


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


def _finite(value: complex, chi, z) -> complex:
    """value, or FloatingPointError naming Phi_chi, or the theta null if chi is None.

    A NaN or infinite value is a fault, not a point to resample.  The name is
    formatted only then: a Characteristic prints through four Fractions.
    """
    if not cmath.isfinite(value):
        what = "theta null" if chi is None else f"Phi_{chi}"
        raise FloatingPointError(f"non-finite {what} {value} at a point with min_im_eig {z.min_im_eig:.3g}")
    return value


def _guarded_phis(env, chis, z, null_floor: float, band=(0.0, math.inf)):
    """(theta_null(z), [Phi_chi(z)]), or None if |theta_null(z)| < null_floor or some |Phi_chi(z)| is outside band.

    A non-finite null or Phi raises FloatingPointError, which no sampler catches.
    """
    null = _finite(theta_null(z, env.settings), None, z)
    if abs(null) < null_floor:
        return None
    phis = [_finite(phi_eval(chi, z, env.settings, null_value=null), chi, z) for chi in chis]
    return (null, phis) if all(band[0] < abs(v) < band[1] for v in phis) else None


def _power_product(terms, phis) -> complex:
    """prod_i phis[i]^m_i over the (chi, m) terms of a family."""
    return math.prod(v**m for (_, m), v in zip(terms, phis))


def _random_passing_family(rng, n: int) -> ThetaProduct:
    for _ in _draws(32, "moderate passing family"):
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


def _witness(prod: ThetaProduct, n: int):
    """The first distinguished generator of Gamma(n) whose multiplier on prod is not 1, or None."""
    gammas = (special_gamma(kind, j, k, n) for kind in ("upper", "lower", "mixed") for j, k in ((1, 1), (2, 2), (1, 2)))
    return next((gam for gam in gammas if gamma_multiplier(gam, prod, n) != RootOfUnity.one()), None)


def _random_failing_family(rng, n: int) -> ThetaProduct:
    """A random family failing check_family; one with no `_witness` (possible but rare) is resampled."""
    for _ in _draws(32, "failing family with a generator witness"):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            chi = _random_char(rng, n)
            m = int(rng.integers(1, 4)) * (1 if rng.random() < 0.7 else -1)
            terms.append((chi, m))
        prod = theta_product(n, terms)
        if prod.terms and not check_family(prod).ok and _witness(prod, n) is not None:
            return prod


def _family_with_points(rng, env, draw, n: int, count: int, tries: int, factor_band, value_band, what: str):
    """(prod, points): a family prod = draw(rng, n) and count points (z, prod(z)) at which every factor is in
    factor_band and the product in value_band; a family with fewer such points in its tries draws is redrawn,
    at most 16 times.  The one place a family is redrawn."""
    for _ in _draws(16, what):
        prod = draw(rng, n)
        points = []
        for _ in range(tries):
            z = random_siegel(rng)
            at_z = _guarded_phis(env, [chi for chi, _ in prod.terms], z, 0.5, factor_band)
            value = None if at_z is None else _power_product(prod.terms, at_z[1])
            if value is not None and value_band[0] < abs(value) < value_band[1]:
                points.append((z, value))
                if len(points) == count:
                    return prod, points


# ---------------------------------------------------------------------------
# theta suite


def check_theta_reference(env: HarnessEnv):
    val = theta_eval(np.eye(2) * 1j, zero_char(2), env.settings)
    ref = 1.1803405990160964  # (pi^(1/4) / Gamma(3/4))^2
    # at 200i I2 the factored sum would leave the float range, so the terms are summed one by one;
    # n = (0, 0) and (-1, 0) give 2 e^(-50 pi), and the next terms are e^(-200 pi) smaller
    far = theta_eval(np.eye(2) * 200j, Characteristic.from_den([1, 0], [0, 0], 2), env.settings)
    deviations = [abs(val - ref), abs(far / (2 * math.exp(-50 * math.pi)) - 1)]
    detail = "theta null at iI2 vs closed-form reference; Theta[1/2 0; 0 0](200i I2) vs 2e^(-50 pi), relative"
    return _within(deviations, 1e-10, detail)


def check_translation_formula(env: HarnessEnv):
    rng = _rng(env, 14)
    failures = []
    for _ in range(100):
        g = 2
        chi = Characteristic.make(
            [Fraction(int(v), 24) for v in rng.integers(-48, 48, g)],
            [Fraction(int(v), 24) for v in rng.integers(-48, 48, g)],
        )
        a = [int(v) for v in rng.integers(-3, 4, g)]
        b = [int(v) for v in rng.integers(-3, 4, g)]
        shifted = Characteristic.make([rv + av for rv, av in zip(chi.r, a)], [sv + bv for sv, bv in zip(chi.s, b)])
        red, phase = chi.reduce()
        if shifted.reduce() != (red, phase * RootOfUnity(sum(rv * bv for rv, bv in zip(chi.r, b)))):
            failures.append(f"chi={chi}, a={a}, b={b}")
    return _exact(failures, "translation formula on reduce, the phase theta_eval applies: e(r.b), 100 random (r,s,a,b)")


def check_sign_symmetry(env: HarnessEnv):
    rng = _rng(env, 3)
    deviations, drawn = [], []
    for _ in range(20):
        z = random_siegel(rng)
        chi = _random_char(rng, int(rng.integers(2, 7)), exclude_sigma=False)
        lhs = theta_eval(z, chi.neg(), env.settings)
        rhs = theta_eval(z, chi, env.settings)
        deviations.append(abs(lhs - rhs))
        drawn.append((z, chi, rhs))
    # the shifts are drawn after the signs' inputs; summed unreduced, r + a moves the sum off its candidate set
    for z, chi, value in drawn:
        a, b = ([int(v) for v in rng.integers(-4, 5, 2)] for _ in range(2))
        shifted = Characteristic.make([rv + av for rv, av in zip(chi.r, a)], [sv + bv for sv, bv in zip(chi.s, b)])
        phase = RootOfUnity(sum(rv * bv for rv, bv in zip(chi.r, b)))
        deviations.append(abs(theta_eval(z, shifted, env.settings) - phase.value() * value))
    detail = "Theta(Z;-r,-s) = Theta(Z;r,s) and Theta(Z;r+a,s+b) = e(r.b) Theta(Z;r,s) for integer |a|,|b| <= 4"
    return _within(deviations, 1e-10, detail + ", 20 random inputs each")


def check_sigma_minus(env: HarnessEnv):
    rng = _rng(env, 9)
    odd_chars = [chi for chi in all_characteristics(2, 2) if chi.in_sigma_minus()]
    if len(odd_chars) != 6:
        raise RuntimeError(f"expected 6 odd half-integral characteristics, found {len(odd_chars)}")
    deviations = []
    for _ in range(5):
        z = random_siegel(rng)
        deviations += [abs(theta_eval(z, chi, env.settings)) for chi in odd_chars]
    return _within(deviations, 1e-10, "all 6 odd half-integral theta nulls vanish at 5 random Z")


def check_conjugation(env: HarnessEnv):
    rng = _rng(env, 7)
    z0 = env.ctx.z0
    zbar = type(z0)(-z0.mat.conjugate())
    deviations = []
    for _ in range(20):
        den = int(rng.integers(0, 2)) + 3  # 3 or 4
        chi = _random_char(rng, den, exclude_sigma=False)
        lhs = env.ctx.phi(chi).conjugate()
        # theta_eval sums [r; -s] reduced, times its exact phase: not the mirror of the left side, so theta errors show
        rhs = phi_eval(Characteristic.make(chi.r, [-v for v in chi.s]), zbar, env.settings)
        deviations.append(abs(lhs - rhs))
    return _within(deviations, env.config.tol_numeric, "conj(Phi_[r;s](Z0)) = Phi_[r;-s](-conj(Z0))")


# ---------------------------------------------------------------------------
# modularity suite


def check_single_2n(env: HarnessEnv):
    cases = [(n, chi) for n in (2, 4) for chi in all_characteristics(n, 2) if not chi.in_sigma_minus()]
    failures = [f"N={n}, chi={chi}" for n, chi in cases if not check_family(theta_product(n, [(chi, 2 * n)])).ok]
    return _exact(failures, f"single constant to the power 2N passes check_family ({len(cases)} cases)")


def check_passing_families(env: HarnessEnv):
    rng = _rng(env, 81)
    deviations = []
    for n in (2, 4):
        for _ in range(10):
            prod, points = _family_with_points(
                rng, env, _random_passing_family, n, 3, 720, (0.1, 2.5), (1e-12, 2.0),
                "passing family with 3 well-conditioned points",
            )
            chis = [chi for chi, _ in prod.terms]
            for _ in range(20):
                gamma = _gamma_word(rng, n)
                for z, val in points:
                    w = _image(gamma, z)
                    at_w = None if w is None else _guarded_phis(env, chis, w, 0.3, (0.05, 5.0))
                    if at_w is None:
                        continue
                    deviations.append(abs(_power_product(prod.terms, at_w[1]) - val))
    compared = len(deviations)
    if compared < 400:
        raise RuntimeError(f"only {compared} well-conditioned comparisons, below the floor of 400")
    detail = f"passing families are Gamma(N)-invariant ({compared} well-conditioned comparisons)"
    return _within(deviations, env.config.tol_numeric, detail)


def check_failing_families(env: HarnessEnv):
    rng = _rng(env, 82)
    separations = []
    for n in (2, 4):
        for _ in range(10):
            # the ratio test is forgiving; only degenerate families are resampled
            prod, [(z, val)] = _family_with_points(
                rng, env, _random_failing_family, n, 1, 60, (0.01, 20.0), (1e-6, 1e6),
                "failing family with a well-conditioned point",
            )
            w = act_siegel(_witness(prod, n), z)
            moved = eval_product(prod, w, env.settings)
            separations.append(abs(moved / val - 1))
    return _above(separations, 1e-3, "failing families have a generator witness with ratio far from 1")


def _usable_sample(rng, env, n, chi):
    """(gamma, z, theta_null(z), Phi_chi(z), Phi_chi(gamma z)) for a random generator word gamma and point z
    with Phi_chi well-conditioned at z and gamma z."""
    for _ in _draws(64, "usable word/point pair"):
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
            return gamma, z, null_z, base, moved


def check_multiplier_cross(env: HarnessEnv):
    rng = _rng(env, 10)
    deviations = []
    for i in range(100):
        n = (2, 4)[i % 2]
        chi = _random_char(rng, n)
        gamma, _, _, base, moved = _usable_sample(rng, env, n, chi)
        deviations.append(abs(moved / base - gamma_multiplier(gamma, chi, n).value()))
    return _within(deviations, env.config.tol_numeric, "congruence multiplier vs numeric ratio, 100 words")


def check_odd_action_overlap(env: HarnessEnv):
    rng = _rng(env, 11)
    failures = []
    for m in (3, 5):
        level = 2 * m * m
        bent = identity(4)
        bent[0, 0] += level  # I mod level, but not symplectic
        cases = {f"Gamma({level}) refuses I + {level} E_11": _refuses(gamma_multiplier, bent, zero_char(2), level)}
        # h(zeta^2) and h(zeta^4) are symplectic; their tAC diagonals are even and their tBD diagonals odd
        for k in (2, 4):
            cases[f"G_{level} refuses h(zeta^{k})"] = _refuses(act_phi, h_map(CycloElem.zeta(5, k)), zero_char(2), m)
        failures += [f"M={m}: {label}" for label in _failing(cases)]
        for i in range(20):
            gamma = _gamma_word(rng, level, max_len=2)
            chi = _random_char(rng, m, exclude_sigma=False)
            res = act_phi(gamma, chi, m).canonical()
            if res.chi_out != chi or res.multiplier != gamma_multiplier(gamma, chi, level):
                failures.append(f"M={m}, word {i}, chi={chi}")
    detail = (
        "act_phi == congruence multiplier on 40 Gamma(2M^2) words, exact; "
        "Gamma(2M^2) refuses I + 2M^2 E_11, act_phi refuses h(zeta^2) and h(zeta^4)"
    )
    return _exact(failures, detail)


# ---------------------------------------------------------------------------
# action suite


def check_power_family_words(env: HarnessEnv):
    rng = _rng(env, 52)
    failures = []
    for i in range(50):
        n = (2, 4)[i % 2]
        factors = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.3:
                a = int(rng.choice(unit_residues(n)))
                factors.append(iota(a, 2, n))
            else:
                factors.append(_gamma_word(rng, n, max_len=1))
        word = reduce(matmul, factors, identity(4))
        chi = _random_char(rng, n, exclude_sigma=False)
        via_word = act_power_family(word, chi, n)
        step = chi
        for f in factors:  # transpose(f1 f2 ...) applies t(f1) first
            step = act_power_family(f, step, n)
        if via_word != step:
            failures.append(f"word {i}, N={n}, chi={chi}")
    return _exact(failures, "50 random G_N words: action composes factorwise, exact")


def check_power_family_numeric(env: HarnessEnv):
    rng = _rng(env, 53)
    n = 2
    power = 2 * n * n
    deviations = []
    for _ in range(15):
        chi = _random_char(rng, n)
        gamma, z, null_z, _, moved = _usable_sample(rng, env, n, chi)
        rhs = phi_eval(act_power_family(gamma, chi, n), z, env.settings, null_value=null_z) ** power
        deviations.append(abs(moved**power / rhs - 1))
    return _within(deviations, 1e-7, "2N^2-th powers move by characteristic bookkeeping alone (Gamma(N) words)")


def check_iota_twist(env: HarnessEnv):
    chi = Characteristic.from_den([1, 0], [1, 2], 3)
    cases = {
        "iota(1) fixes chi": act_iota_inv(1, chi) == chi.reduce()[0],
        "iota(-1) maps s to -s": act_iota_inv(-1, chi) == Characteristic.make(chi.r, [(-v) % 1 for v in chi.s]),
    }
    failures = _failing(cases)
    for n in (4, 6, 18):
        units = unit_residues(n)
        for a in units:
            for b in units:
                lhs = iota(a, 2, n) @ iota(b, 2, n) % n
                rhs = iota(a * b % n, 2, n) % n
                if not (lhs == rhs).all():
                    failures.append(f"iota({a}) iota({b}) != iota({a * b % n}) mod {n}")
            if sympl_multiplier(iota(a, 2, n), modulus=n) != pow(a, -1, n):
                failures.append(f"nu(iota({a})) != {a}^-1 mod {n}")
    return _exact(failures, "iota examples: identity, s -> -s, homomorphism, nu = a^{-1}")


# ---------------------------------------------------------------------------
# cm suite


def check_riemann_matrix(env: HarnessEnv):
    ctx = env.ctx
    expect = jmat(2)
    basis = list(enumerate(ctx.basis))
    failures = [f"entry ({j}, {k})" for j, bj in basis for k, bk in basis if riemann_form(bj, bk) != expect[j, k]]
    return _exact(failures, "[E(Phi(xi_j), Phi(xi_k))] = J, exact")


def check_cm_point(env: HarnessEnv):
    ctx = env.ctx
    beta = intmat([[0, 0, 1, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 1, 0, 0]])
    if not is_symplectic(beta):
        raise RuntimeError("beta is not symplectic")
    moved = act_siegel(beta, ctx.z0)
    return _within(np.abs(moved.mat + ctx.z0.mat.conjugate()), 1e-10, "beta(Z0) = -conj(Z0); Z0 valid in H_2")


def check_theta_null_bound(env: HarnessEnv):
    return _above(abs(env.ctx.null0), 0.1, "theta null at Z0 exceeds lower bound 0.1")


# the standard actors' reflex matrices are I + 2p K mod 2p^2, with one K per actor
_REFLEX_STEPS = (
    intmat([[-1, -1, -1, 0], [0, -1, 0, -1], [1, 1, 0, 0], [1, 2, 1, 0]]),
    intmat([[1, 3, -1, 2], [-2, -1, 2, -1], [1, -1, -2, 2], [-1, -2, -3, 0]]),
)


def check_reflex_congruences(env: HarnessEnv):
    failures = []
    for p in env.config.primes:
        level = 2 * p * p
        for which, (x, step) in enumerate(zip(standard_actors(p), _REFLEX_STEPS), 1):
            actor = shared_actor(x, p)
            cases = {
                "reflex matrix": ((actor.h_matrix - identity(4) - 2 * p * step) % level == 0).all(),
                "nu": actor.nu == (1 - 2 * p) % level,
                "norm": actor.norm == field_norm(x),
                "in the group": actor.in_group,
            }
            failures += [f"p={p}, actor {which}: {label}" for label in _failing(cases)]
    detail = f"reflex matrices and nu match their mod-2p^2 targets, the norm is N(x), p in {env.config.primes}"
    return _exact(failures, detail)


def check_artin_closed_form(env: HarnessEnv):
    rng = _rng(env, 72)
    primes = env.config.primes
    failures = []
    cases = 0
    for p in primes:
        grid = product(range(3), repeat=4) if p == 3 else [[int(v) for v in rng.integers(0, p, 4)] for _ in range(30)]
        actors = [(which, shared_actor(x, p)) for which, x in zip((1, 2), standard_actors(p))]
        for a, b, c, d in grid:
            chi = Characteristic.from_den([a, b], [c, d], p)
            for which, actor in actors:
                res = actor.act(chi)
                if res.chi_out != chi or res.multiplier != closed_phase(which, chi, p):
                    failures.append(f"p={p}, chi={chi}, actor {which}")
                cases += 1
    detail = f"simulated Artin action fixes chi with the closed-form phase, p in {primes} ({cases} cases), exact"
    return _exact(failures, detail)


def check_reality(env: HarnessEnv):
    ctx = env.ctx
    deviations = []
    for p in (3, 5):
        for a in range(p):
            for b in range(p):
                r = (Fraction(a, p), Fraction(b, p))
                s = (r[0] - r[1], -r[0])
                chi = Characteristic.make(r, s)
                phase = RootOfUnity(-sum((rv * sv for rv, sv in zip(r, s)), Fraction(0)) / 2).value()
                val = phase * theta_eval(ctx.z0, chi, env.settings) / ctx.null0
                deviations.append(abs(val.imag))
    return _within(deviations, env.config.tol_numeric, "e(-trs/2) Phi_[r;s](Z0) is real on the CM locus")


def check_belong_example(env: HarnessEnv):
    res = belong_criterion([1, 2, 2, 0, 0], 7)
    triv = belong_criterion([1, 0, 0, 0, 0], 7)
    lone = belong_criterion([1, 2, 0, 0, 0], 7)
    cases = {
        "x = (1, 2, 2, 0, 0), p = 7": res.first_row == (-1, 0, 0, -2) and res.value == -6 and res.value_mod_p != 0,
        **{f"x = (1, 2, 2, 0, 0), p = {p}": belong_criterion([1, 2, 2, 0, 0], p).value_mod_p != 0 for p in (11, 13)},
        "x = (1, 0, 0, 0, 0), p = 7": triv.first_row == (1, 0, 0, 0) and triv.value == 0,
        "x = (1, 2, 0, 0, 0), p = 7": lone.first_row == (-1, -2, 2, 0) and lone.value == 0,
    }
    return _exact(_failing(cases), "first-row criterion on the worked examples, exact")


# ---------------------------------------------------------------------------
# primgen suite


def check_trace_norm_example(env: HarnessEnv):
    z25 = CycloElem.zeta(25)
    sub = tuple((1 + 5 * k) % 25 for k in range(5))
    tr = rel_trace_norm(z25, sub, "trace")
    nm = rel_trace_norm(3 * z25 + 1, sub, "norm")
    expect = 243 * CycloElem.zeta(5) + 1
    failures = _failing({"Tr(zeta_25)": tr.is_zero(), "N(3 zeta_25 + 1)": nm == expect.lift(25)})
    return _exact(failures, "Tr(zeta_25) = 0 and N(3 zeta_25 + 1) = 243 zeta_5 + 1 over the degree-5 step")


def check_surrogate_tower(env: HarnessEnv):
    z8 = CycloElem.zeta(8)
    x = z8 + z8**7
    y = z8**2
    tower = make_tower(8, unit_residues(8), x, y)
    eps = combine_trace(tower, 1, 1)
    eps2 = combine_norm(tower, 3, 1, 3, 1, 1, 1)
    cases = {
        "ell = 2 and degree 4": tower.ell == 2 and tower.degree == 4,
        "trace combinator = x + 2y": eps == x + 2 * y,
        "trace combinator primitive": is_primitive(eps, tower),
        "relative trace of the trace combinator": tower.trace_mid(eps) == 1 * tower.x * tower.ell,
        "norm combinator primitive": is_primitive(eps2, tower),
        "relative norm of 3y + 1": tower.norm_mid(3 * tower.y + 1) == CycloElem.from_rational(8, 10),
    }
    return _exact(_failing(cases), "Q(zeta_8) tower: both combinators primitive, trace identity exact")


def check_random_towers(env: HarnessEnv):
    rng = _rng(env, 13)
    conductors = (8, 12, 15, 16, 20, 24)
    failures = []
    trace_coeffs = (1, -1, 2, -2, Fraction(1, 5))
    norm_pairs = ((3, 1), (5, 2), (-7, 3))
    norm_exps = (-2, -1, 1, 2)
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
        (ca, cb) = norm_pairs[int(rng.integers(0, 3))]
        (cc, cd) = norm_pairs[int(rng.integers(0, 3))]
        ne = norm_exps[int(rng.integers(0, 4))]  # ne < 0 inverts a x + b in K(x)
        me = norm_exps[int(rng.integers(0, 4))]  # either sign of me inverts N_{L/K(x)}(c y + d) once, in K(x)
        eps2 = combine_norm(tower, ca, cb, cc, cd, ne, me)
        cases = {
            "trace combinator primitive": is_primitive(eps, tower),
            "relative trace": tower.trace_mid(eps) == a * tower.x * tower.ell,
            "norm combinator primitive": is_primitive(eps2, tower),
            # a x + b and N_{L/K(x)}((c y + d)^m) lie in K(x), so the relative norm keeps only (a x + b)^(n ell)
            "relative norm": tower.norm_mid(eps2) == (ca * tower.x + cb) ** (ne * tower.ell),
        }
        failures += [f"tower {built} (n={n}): {label}" for label in _failing(cases)]
    if built < 20:
        raise RuntimeError(f"only {built} towers of degree > 1 in 200 draws")
    detail = (
        "20 randomized cyclotomic towers, norm exponents in {-2, -1, 1, 2}: combinator outputs primitive, "
        "relative trace and norm identities exact"
    )
    return _exact(failures, detail)


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
                out = fn(env)
            except Exception as exc:  # a crash is a failure, not an abort
                out = Outcome(False, None, None, f"exception: {exc!r}")
            status = "pass" if out.passed else "fail"
            runtime = time.perf_counter() - start
            report.records.append(CheckResult(name, suite, status, out.measured, out.tolerance, runtime, out.detail))
    return report, (0 if report.passed else 1)
