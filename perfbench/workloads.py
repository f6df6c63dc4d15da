"""The benchmark workloads: program objects built from generated inputs,
one timed pass, and the output check of a pass.  Each takes the CM context the
runner builds at set-up, as every CLI run does.

A pass is a closed loop: each public call starts after the previous one
returns.  `run_pass()` returns the latency of every operation and the raw
outputs; `check(outputs)` returns the number of failed operations and runs
outside the timed region.  Calls go through `cm.<name>` at call time so that
the traced run sees the tracer's wrappers.
"""
from __future__ import annotations

import itertools
import time
from fractions import Fraction

import numpy as np

import checks
import cmtheta as cm

clock = time.perf_counter


class Failed:
    """Output of an operation that raised."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


def timed(latencies: list, fn, *args):
    start = clock()
    try:
        out = fn(*args)
    except Exception as exc:  # a raise is a failed operation, counted by check()
        out = Failed(exc)
    latencies.append(clock() - start)
    return out


def _chars(p: int, g: int):
    """Every characteristic of denominator p, r-major then s-minor (checks.reference_table order)."""
    rows = list(itertools.product(range(p), repeat=g))
    return [cm.Characteristic.from_den(r, s, p) for r in rows for s in rows]


class Verify:
    """`cmtheta verify --p 3 5 7 11 13 --seed <seed>`, in-process.

    The operation timed is the whole verify run, the one call a user makes.
    Attempted and failed operations count checks, 23 per run.  Per-check
    times are not used as latency samples: a pass has only 23 of them, and the
    slow checks' times depend on the seed, so their percentiles would mostly
    measure the seed.
    """

    def __init__(self, inputs: dict, ctx) -> None:
        self.seed = inputs["seed"]
        self.primes = tuple(inputs["primes"])
        self.ops_per_pass = checks.VERIFY_CHECKS
        self.info = {"primes": list(self.primes)}

    def run_pass(self):
        lat: list[float] = []
        report = timed(lat, self._verify)
        return lat, report

    def _verify(self):
        report, _code = cm.run_suite(cm.SuiteConfig(primes=self.primes, seed=self.seed))
        report.to_json()
        return report

    def check(self, report) -> int:
        return self.ops_per_pass if isinstance(report, Failed) else checks.verify_failures(report)


class ThetaTable:
    """All p^4 theta constants at Z0 and at seeded g=2 points, all 3^6 at seeded g=3 points."""

    def __init__(self, inputs: dict, ctx) -> None:
        self.ctx = ctx
        self.settings = ctx.settings
        self.blocks = []  # (point or None for Z0 through ctx.phi, characteristics)
        refs, allowed = [], []

        def add(zmat, point, p, g, with_null):
            null, phis, n_terms = checks.reference_table(zmat, p, checks.reference_radius(zmat))
            if with_null:
                refs.append(np.array([null]))
                allowed.append(np.array([self.settings.tol + 4 * checks.EPS * n_terms]))
            refs.append(phis)
            allowed.append(checks.theta_allowed(phis, null, n_terms, self.settings.tol))
            self.blocks.append((point, with_null, _chars(p, g)))

        for p in inputs["primes"]:
            add(self.ctx.z0.mat, None, p, 2, False)
        for zmat in inputs["points_g2"]:
            point = cm.SiegelPoint(zmat)
            for i, p in enumerate(inputs["primes"]):
                add(zmat, point, p, 2, i == 0)
        for zmat in inputs["points_g3"]:
            add(zmat, cm.SiegelPoint(zmat), 3, 3, True)
        self.refs = np.concatenate(refs)
        self.allowed = np.concatenate(allowed)
        self.ops_per_pass = len(self.refs)
        self.info = {"constants_per_pass": self.ops_per_pass, "theta_tol": self.settings.tol, "max_err_ratio": 0.0}

    def run_pass(self):
        lat: list[float] = []
        out: list = []
        settings, phi_eval, theta_null = self.settings, cm.phi_eval, cm.theta_null
        null = None
        for point, with_null, chars in self.blocks:
            if point is None:
                out.extend(timed(lat, self.ctx.phi, chi) for chi in chars)
                continue
            if with_null:
                null = timed(lat, theta_null, point, settings)
                out.append(null)
            out.extend(timed(lat, phi_eval, chi, point, settings, null) for chi in chars)
        return lat, out

    def check(self, out) -> int:
        values = np.array([np.nan if isinstance(v, Failed) else v for v in out], dtype=complex)
        ratios = checks.theta_ratios(values, self.refs, self.allowed)
        self.info["max_err_ratio"] = max(self.info["max_err_ratio"], float(ratios.max()))
        return checks.theta_failures(ratios)


class Artin:
    """artin_action of both standard actors on seeded characteristics, and
    belong_criterion on seeded integral x in Z[zeta_5]."""

    def __init__(self, inputs: dict, ctx) -> None:
        actors = {}
        self.ops = []  # (kind, args, expected)
        keys = []
        for op in inputs["ops"]:
            if op[0] == "action":
                _, p, which, nums = op
                if p not in actors:
                    actors[p] = cm.standard_actors(p)
                x = actors[p][which - 1]
                chi = cm.Characteristic.from_den(nums[:2], nums[2:], p)
                self.ops.append(("action", (x, p, chi), cm.closed_phase(which, chi, p)))
            else:
                _, p, coords = op
                x = cm.CycloElem(5, coords)
                self.ops.append(("belong", (list(coords), p), checks.numeric_field_norm(coords)))
            keys.append((x.coeffs, p))
        self.ops_per_pass = len(self.ops)
        repeats = len(keys) - len(set(keys))
        self.info = {
            "artin_action_ops": sum(kind == "action" for kind, _, _ in self.ops),
            "belong_criterion_ops": sum(kind == "belong" for kind, _, _ in self.ops),
            "actor_reuse_share": repeats / len(keys),
        }

    def run_pass(self):
        lat: list[float] = []
        fns = {"action": cm.artin_action, "belong": cm.belong_criterion}
        return lat, [timed(lat, fns[kind], *args) for kind, args, _ in self.ops]

    def check(self, out) -> int:
        failed = 0
        for (kind, args, expected), res in zip(self.ops, out):
            if isinstance(res, Failed):
                ok = False
            elif kind == "action":
                ok = checks.artin_ok(res, args[2], expected)
            else:
                ok = checks.belong_ok(res, args[1], expected)
            failed += not ok
        return failed


class Towers:
    """Abelian towers over conductors 8..25 through both combinators, and
    relative trace/norm of seeded elements in Q(zeta_25)."""

    SUBGROUP_25 = tuple((1 + 5 * j) % 25 for j in range(5))

    def __init__(self, inputs: dict, ctx) -> None:
        self.towers = []  # (n, base, x, y, a, b, norm args)
        slots = inputs["norm_params"]
        for n, specs in inputs["candidates"].items():
            kept = 0
            for spec in specs:
                base = cm.subgroup_generated(n, spec["base_gens"])
                x = self._orbit_sum(cm.CycloElem.zeta(n), cm.subgroup_generated(n, [spec["x_gen"]]))
                y = self._orbit_sum(cm.CycloElem.zeta(n, 3), cm.subgroup_generated(n, [spec["y_gen"]]))
                if cm.make_tower(n, base, x, y).degree == 1:
                    continue  # both generators already lie in the base field; nothing to combine
                a, b = (Fraction(*v) for v in spec["trace_ab"])
                self.towers.append((n, base, x, y, a, b, slots[kept]))
                kept += 1
                if kept == len(slots):
                    break
            if kept < len(slots):
                raise RuntimeError(f"too few towers of degree > 1 for conductor {n}")
        z25 = cm.CycloElem.zeta(25)
        self.rel = [((c, d, k), c * z25**k + d) for c, d, k in inputs["rel"]]
        self.ops_per_pass = 5 * len(self.towers) + 2 * len(self.rel)
        self.info = {"towers": len(self.towers), "rel_cases": len(self.rel)}

    @staticmethod
    def _orbit_sum(e, subgroup):
        return sum((e.galois(t) for t in sorted(subgroup)), cm.CycloElem.from_rational(e.n, 0))

    def run_pass(self):
        lat: list[float] = []
        out = []
        make, trace, norm, primitive = cm.make_tower, cm.combine_trace, cm.combine_norm, cm.is_primitive
        for n, base, x, y, a, b, norm_args in self.towers:
            tower = timed(lat, make, n, base, x, y)
            if isinstance(tower, Failed):
                out.append(tower)
                continue
            eps = timed(lat, trace, tower, a, b)
            prim_trace = timed(lat, primitive, eps, tower)
            eps2 = timed(lat, norm, tower, *norm_args)
            prim_norm = timed(lat, primitive, eps2, tower)
            out.append((tower, a, eps, prim_trace, prim_norm))
        rel_trace_norm, sub = cm.rel_trace_norm, self.SUBGROUP_25
        for case, e in self.rel:
            out.append((case, timed(lat, rel_trace_norm, e, sub, "trace"), timed(lat, rel_trace_norm, e, sub, "norm")))
        return lat, out

    def check(self, out) -> int:
        failed = 0
        for item in out[: len(self.towers)]:
            if isinstance(item, Failed) or any(isinstance(v, Failed) for v in item):
                failed += 5
            else:
                failed += checks.tower_failures(*item)
        for case, tr, nm in out[len(self.towers) :]:
            failed += checks.rel_failures(case, tr, nm)
        return failed


class Modularity:
    """check_family and gamma_multiplier on seeded Gamma(n)-modular families and
    words of Gamma(n), and act_phi against gamma_multiplier on Gamma(2m^2)."""

    def __init__(self, inputs: dict, ctx) -> None:
        self.families = []  # (n, product, words)
        for n, terms, words in inputs["families"]:
            prod = cm.theta_product(n, [(cm.Characteristic.from_den(r, s, n), e) for r, s, e in terms])
            self.families.append((n, prod, [self._word(w, n) for w in words]))
        self.overlap = [
            (m, self._word(w, 2 * m * m), cm.Characteristic.from_den(r, s, m)) for m, w, (r, s) in inputs["overlap"]
        ]
        self.ops_per_pass = sum(1 + len(words) for _, _, words in self.families) + 2 * len(self.overlap)
        self.info = {"families": len(self.families), "overlap_cases": len(self.overlap)}

    @staticmethod
    def _word(word, n: int):
        gamma = cm.identity(4)
        for kind, j, k in word:
            gamma = gamma @ cm.special_gamma(kind, j, k, n)
        return gamma

    def run_pass(self):
        lat: list[float] = []
        out = []
        check_family, gamma_multiplier, act_phi = cm.check_family, cm.gamma_multiplier, cm.act_phi
        for n, prod, words in self.families:
            out.append(timed(lat, check_family, prod))
            out.extend(timed(lat, gamma_multiplier, gamma, prod, n) for gamma in words)
        for m, gamma, chi in self.overlap:
            out.append((timed(lat, act_phi, gamma, chi, m), timed(lat, gamma_multiplier, gamma, chi, 2 * m * m)))
        return lat, out

    def check(self, out) -> int:
        failed, i = 0, 0
        for _, _, words in self.families:
            failed += not checks.family_ok(out[i])
            failed += sum(not checks.multiplier_trivial(v) for v in out[i + 1 : i + 1 + len(words)])
            i += 1 + len(words)
        for (_, _, chi), (res, mult) in zip(self.overlap, out[i:]):
            failed += checks.overlap_failures(res, mult, chi)
        return failed


WORKLOADS = {
    "verify": Verify,
    "theta-table": ThetaTable,
    "artin": Artin,
    "towers": Towers,
    "modularity": Modularity,
}
