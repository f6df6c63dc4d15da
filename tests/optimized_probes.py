"""Input checks that must still fire under `python -O`, and what `import cmtheta` loads, run in one interpreter.

The `optimized` fixture in conftest.py runs this file as `python -O` on the
source tree and hands each test the outcome of its probe.  The import facts
come first, before anything imports a lazy layer: what `import cmtheta`,
`build_context()` and `dir()` load, what the `theta` and `action` commands add,
and how each exported name resolves.  A probe records the class name of what a
call raised, or None if it returned, so a check made only by an `assert` shows
up as None.  CLI probes go through `cli.main` and record the exit code, stdout
and stderr.
"""
import contextlib
import io
import json
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

import cmtheta


# Tolerances that are not positive finite; test_cli reads each outcome by its space-joined arguments.
BAD_TOLERANCE_ARGS = [
    ["theta", "--char", "1/2 1/2 0 0", "--at", "i", "--tol", "-1"],
    ["verify", "--suite", "primgen", "--theta-tol", "nan"],
    ["verify", "--suite", "primgen", "--tol", "inf"],
]


def raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc).__name__
    return None


def cli(args):
    from cmtheta.cli import main  # imported here, so the import snapshot sees no CLI
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except Exception as exc:  # a traceback instead of an exit code
            code = repr(exc)
    return [code, out.getvalue(), err.getvalue()]


def imports() -> dict:
    """What `import cmtheta` loads and exports, and what the `theta` and `action` commands add: run first."""
    cmtheta.build_context()
    dataclasses_loaded = "dataclasses" in sys.modules  # before the CLI and the lazy layers, which may load it
    listed = dir(cmtheta)
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "cmtheta")  # after dir(), so what dir() loads shows
    codes = [
        cli(["theta", "--at", "i", "--char", "0 0 0 0"])[0],
        cli(["action", "--x", "1 2 2 0 0", "--p", "7", "--char", "1/7 0 0 2/7"])[0],
    ]
    loaded_by_cli = sorted(m for m in sys.modules if m.split(".")[0] == "cmtheta")
    try:
        cmtheta.no_such_name
        missing = None
    except AttributeError as exc:
        missing = str(exc)
    values = {name: getattr(cmtheta, name) for name in cmtheta.__all__}
    star = {}
    exec("from cmtheta import *", star)
    return {
        "loaded": loaded,
        "dataclasses_loaded": dataclasses_loaded,
        "codes": codes,
        "loaded_by_cli": loaded_by_cli,
        "listed": listed,
        "missing": missing,
        "homes": {name: value.__module__ for name, value in values.items()},
        "same": [name for name, value in values.items() if getattr(sys.modules[value.__module__], name) is value],
        "star": [name for name in cmtheta.__all__ if star.get(name) is values[name]],
        "namespace": sorted(vars(cmtheta)),
        "mpmath_loaded": "mpmath" in sys.modules,  # with every layer and the CLI loaded
    }


def probes(tmp: Path) -> dict:
    from cmtheta.action import act_power_family
    from cmtheta.cmfield import GaloisActor, belong_criterion, field_norm
    from cmtheta.exact import CycloElem, _poly_divide_exact, unit_residues
    from cmtheta.modularity import check_family, gamma_multiplier, theta_product
    from cmtheta.primgen import combine_norm, combine_trace, make_tower, stabilizer
    from cmtheta.symplectic import identity, intmat, special_gamma
    from cmtheta.theta import Characteristic, EvalSettings

    odd_level = tmp / "fam.txt"
    odd_level.write_text("2 3\n6 1/3 0 0 0\n")
    z8 = CycloElem.zeta(8)
    tower = make_tower(8, unit_residues(8), CycloElem.from_rational(8, 1), z8**2)
    half = Characteristic.make([Fraction(1, 2), 0], [0, 0])
    not_symplectic = identity(4)
    not_symplectic[0, 0] = 3  # = I mod 2
    upper, half_half = special_gamma("upper", 1, 2, 4), Characteristic.make([Fraction(1, 2), 0], [0, Fraction(1, 2)])
    level_calls = (gamma_multiplier, act_power_family, lambda _, chi, n: check_family(theta_product(n, [(chi, 8)])))
    return {
        "cyclo_input_checks": [
            raised(lambda: CycloElem.zeta(10).galois(5)),
            raised(lambda: CycloElem.zeta(5).lift(7)),
            raised(lambda: _poly_divide_exact([1, 0, 1], [-1, 1])),
            raised(lambda: CycloElem.zeta(0)),
        ],
        "cyclo_zero_division": raised(lambda: CycloElem.zeta(5) / 0),
        "rational_value": raised(lambda: CycloElem.zeta(5).rational_value()),
        "intmat": raised(lambda: intmat([[0.5, 0], [0, 1]])),
        "eval_settings": [raised(lambda: EvalSettings(tol)) for tol in (0, -1, math.inf, math.nan)],
        "cm_input_checks": [
            raised(lambda: field_norm(CycloElem.zeta(7))),
            raised(lambda: belong_criterion([1, Fraction(5, 2), 2, 0, 0], 7)),
            raised(lambda: belong_criterion([1, 2.9, 2, 0, 0], 7)),
        ],
        "actor_act_guards": [
            raised(lambda: GaloisActor.build(x, 5).act(Characteristic.from_den([1, 0], [0, 1], 5)))
            for x in (CycloElem.zeta(5) - 1, CycloElem.zeta(5))  # norm 5 shares p; h(zeta^4) is outside G_50
        ],
        "float_p": [
            raised(lambda: belong_criterion([1, 2, 2, 0, 0], 7.0)),
            raised(lambda: GaloisActor.build(CycloElem.zeta(5), 7.0)),
        ],
        "non_symplectic_multiplier": raised(lambda: gamma_multiplier(not_symplectic, half, 2)),
        "level": [
            [raised(lambda: f(upper, half_half, n)) for f in level_calls]
            for n in (0, -2, 4.0, Fraction(4), "4", np.int64(4))
        ],
        "special_gamma_level": [
            raised(lambda: special_gamma("upper", 1, 1, n)) for n in (2.5, 4.0, Fraction(4), "4", np.int64(4))
        ],
        "tower_membership": [raised(lambda: tower.trace_mid(z8)), raised(lambda: tower.norm_mid(z8))],
        "stabilizer_non_unit": raised(lambda: stabilizer(CycloElem.from_rational(8, 3), [1, 2])),
        "combinator_types": [raised(lambda: combine_trace(tower, a, 1)) for a in (2.0, "2", None)]
        + [
            raised(lambda: combine_norm(tower, *args))
            for args in ((3.0, 1, 3, 1), (3, 1, 3, 1, 1, Fraction(3)), (3, 1, 3, "1"))
        ],
        "cli_odd_level": cli(["modularity", str(odd_level)]),
        "cli_even_p": cli(["action", "--x", "1 2 2 0 0", "--p", "4", "--char", "1/4 0 0 0"]),
        "cli_huge_s": cli(["theta", "--at", "i", "--char", "0 0 1e400 0"]),
        "cli_genus_3": cli(["theta", "--at", "i", "--char", "1/3 0 2/3 1/2 1/3 0"]),
        "cli_shifted_r": [cli(["theta", "--char", "1/3 2/3 0 1/3"]), cli(["theta", "--char", "13/3 -7/3 0 1/3"])],
        "cli_oversized_box": cli(["theta", "--at", "i", "--char", " ".join(["0"] * 10 + ["1/2"] + ["0"] * 9)]),
        "cli_primgen": cli(["primgen"]),
        "cli_impossible_tol": cli(["verify", "--suite", "modularity", "--p", "3", "--tol", "1e-30"]),
        "cli_bad_tolerances": {" ".join(args): cli(args) for args in BAD_TOLERANCE_ARGS},
        "cli_cm_primes_17_to_31": cli(["verify", "--suite", "cm", "--p", "17", "19", "23", "29", "31"]),
        "cli_primgen_seeds_1_42": [cli(["verify", "--suite", "primgen", "--seed", seed]) for seed in ("1", "42")],
    }


if __name__ == "__main__":
    facts = {"optimize": sys.flags.optimize, "imports": imports()}  # before probes() imports the lazy layers
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({**facts, **probes(Path(tmp))}))
