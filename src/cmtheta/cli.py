"""Command-line interface: verification suites plus small evaluation demos."""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .cmfield import GaloisActor, build_context
from .exact import CycloElem, rel_trace_norm, unit_residues
from .symplectic import SiegelPoint
from .theta import Characteristic, EvalSettings, divide_by_null, theta_eval, theta_null


def _parse_char(text: str) -> Characteristic:
    return Characteristic.parse(text.replace(",", " ").split())


def _cmd_verify(args) -> int:
    from .harness import SUITE_NAMES, SuiteConfig, run_suite

    config = SuiteConfig(
        primes=tuple(args.p),
        tol_numeric=args.tol,
        theta_tol=args.theta_tol,
        seed=args.seed,
        suites=tuple(args.suite or SUITE_NAMES),  # run_suite checks the names
    )
    report, code = run_suite(config)
    text = report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return code


def _cmd_theta(args) -> int:
    chi = _parse_char(args.char)
    settings = EvalSettings(tol=args.tol)
    if args.at == "cm":
        ctx = build_context(settings)
        z, null = ctx.z0, ctx.null0
    else:
        z, null = SiegelPoint(np.eye(chi.g) * 1j), None
    theta = theta_eval(z, chi, settings)
    print(f"theta = {theta.real:.15g}{theta.imag:+.15g}j")
    if not chi.in_sigma_minus():
        phi = divide_by_null(theta, theta_null(z, settings) if null is None else null)
        print(f"phi   = {phi.real:.15g}{phi.imag:+.15g}j")
    else:
        print("phi   = 0 (odd characteristic)")
    return 0


def _cmd_modularity(args) -> int:
    from .modularity import check_family, parse

    with open(args.file) as fh:
        prod = parse(fh.read())
    result = check_family(prod)
    if result.ok:
        print(f"modular for Gamma({prod.level}): all congruences hold")
        return 0
    for kind, j, k, value, modulus in result.failures:
        print(f"fails {kind}[{j},{k}]: residue {value} mod {modulus}")
    return 1


def _cmd_action(args) -> int:
    coords = [int(tok) for tok in args.x.replace(",", " ").split()]
    if len(coords) != 5:
        raise ValueError("x needs 5 integer coordinates on 1, zeta, ..., zeta^4")
    chi = _parse_char(args.char)
    actor = GaloisActor.build(CycloElem(5, coords), args.p)
    res = actor.act(chi)
    bel = actor.belong()
    print(f"multiplier = e({res.multiplier.exponent})")
    print(f"chi_out    = {res.chi_out}")
    print(f"first row  = {bel.first_row}, criterion value = {bel.value} "
          f"({'0' if bel.satisfied else bel.value_mod_p} mod {args.p})")
    return 0


def _cmd_primgen(args) -> int:
    from .primgen import combine_norm, combine_trace, is_primitive, make_tower

    z25 = CycloElem.zeta(25)
    sub = tuple((1 + 5 * k) % 25 for k in range(5))
    print(f"Tr(zeta_25) over the {{1+5k}} subgroup = {rel_trace_norm(z25, sub, 'trace')}")
    print(f"N(3 zeta_25 + 1) over the same step   = {rel_trace_norm(3 * z25 + 1, sub, 'norm')}")
    z8 = CycloElem.zeta(8)
    tower = make_tower(8, unit_residues(8), z8 + z8**7, z8**2)
    eps = combine_trace(tower, 1, 1)
    eps2 = combine_norm(tower, 3, 1, 3, 1, 1, 1)
    print(f"surrogate tower degree {tower.degree}, ell = {tower.ell}")
    print(f"trace combinator:  {eps}  (primitive: {is_primitive(eps, tower)})")
    print(f"norm combinator:   {eps2}  (primitive: {is_primitive(eps2, tower)})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="cmtheta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the verification suites and emit a JSON report")
    v.add_argument("--p", type=int, nargs="+", default=[3, 5, 7], metavar="P", help="odd primes for the CM checks")
    four = "conjugation-at-cm-point, passing-family-invariance, multiplier-cross-validation and reality-locus"
    v.add_argument("--tol", type=float, default=1e-8, help=f"tolerance of {four}; other checks are fixed or exact")
    v.add_argument("--theta-tol", type=float, default=1e-12, help="absolute theta-series tolerance")
    v.add_argument("--seed", type=int, default=20260815, help="PRNG seed for the randomized checks")
    v.add_argument("--suite", nargs="+", help="suites to run (default: all)")
    v.add_argument("--out", metavar="PATH", help="also write the report to this file")
    v.set_defaults(fn=_cmd_verify, what="configuration")

    t = sub.add_parser("theta", help="evaluate a theta constant")
    t.add_argument("--char", required=True, help="2g rationals: r then s, e.g. '1/3 2/3 0 1/3'")
    t.add_argument("--at", choices=("cm", "i"), default="cm", help="evaluate at the CM point or at iI_g")
    t.add_argument("--tol", type=float, default=1e-12)
    t.set_defaults(fn=_cmd_theta, what="input")

    m = sub.add_parser("modularity", help="check a theta-product file")
    m.add_argument("file", help="path to a serialized product ('g N' header, then 'm r.. s..' lines)")
    m.set_defaults(fn=_cmd_modularity, what="product file")

    a = sub.add_parser("action", help="apply the simulated Galois action of an element x")
    a.add_argument("--x", required=True, help="5 integers: coordinates of x on 1, zeta, ..., zeta^4")
    a.add_argument("--p", type=int, required=True, help="odd prime, the characteristic denominator")
    a.add_argument("--char", required=True, help="2g rationals with denominator p")
    a.set_defaults(fn=_cmd_action, what="input")

    g = sub.add_parser("primgen", help="run the primitive-generator demos")
    g.set_defaults(fn=_cmd_primgen, what="input")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # bad input, also under python -O; never a traceback
        print(f"invalid {args.what}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
