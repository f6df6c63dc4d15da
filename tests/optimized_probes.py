"""Input checks that must still fire under `python -O`, run in one interpreter.

The `optimized` fixture in conftest.py runs this file as `python -O` on the
source tree and hands each test the outcome of its probe.  A probe records the
class name of what a call raised, or None if it returned, so a check made only
by an `assert` shows up as None.  CLI probes go through `cli.main` and record
the exit code and stderr.
"""
import contextlib
import io
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from cmtheta.cli import main
from cmtheta.cmfield import belong_criterion, field_norm
from cmtheta.exact import CycloElem, unit_residues
from cmtheta.modularity import gamma_multiplier
from cmtheta.primgen import make_tower
from cmtheta.symplectic import identity, intmat
from cmtheta.theta import Characteristic

MPMATH_LOADED = "mpmath" in sys.modules  # after importing the package and its CLI, before any call


def raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc).__name__
    return None


def cli(args):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except Exception as exc:  # a traceback instead of an exit code
            code = repr(exc)
    return [code, err.getvalue()]


def probes(tmp: Path) -> dict:
    odd_level = tmp / "fam.txt"
    odd_level.write_text("2 3\n6 1/3 0 0 0\n")
    z8 = CycloElem.zeta(8)
    tower = make_tower(8, unit_residues(8), CycloElem.from_rational(8, 1), z8**2)
    half = Characteristic.make([Fraction(1, 2), 0], [0, 0])
    not_symplectic = identity(4)
    not_symplectic[0, 0] = 3  # = I mod 2
    return {
        "optimize": sys.flags.optimize,
        "mpmath_loaded": MPMATH_LOADED,
        "cyclo_input_checks": [raised(lambda: CycloElem.zeta(10).galois(5)), raised(lambda: CycloElem.zeta(5).lift(7))],
        "rational_value": raised(lambda: CycloElem.zeta(5).rational_value()),
        "intmat": raised(lambda: intmat([[0.5, 0], [0, 1]])),
        "cm_input_checks": [
            raised(lambda: field_norm(CycloElem.zeta(7))),
            raised(lambda: belong_criterion([1, Fraction(5, 2), 2, 0, 0], 7)),
            raised(lambda: belong_criterion([1, 2.9, 2, 0, 0], 7)),
        ],
        "non_symplectic_multiplier": raised(lambda: gamma_multiplier(not_symplectic, half, 2)),
        "tower_membership": [raised(lambda: tower.trace_mid(z8)), raised(lambda: tower.norm_mid(z8))],
        "cli_odd_level": cli(["modularity", str(odd_level)]),
        "cli_even_p": cli(["action", "--x", "1 2 2 0 0", "--p", "4", "--char", "1/4 0 0 0"]),
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(probes(Path(tmp))))
