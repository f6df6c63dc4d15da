import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cmtheta
from cmtheta import cli, theta
from cmtheta.cli import main
from cmtheta.cmfield import GaloisActor
from cmtheta.symplectic import SiegelPoint


def test_verify_primgen(capsys):
    code = main(["verify", "--suite", "primgen", "--seed", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["seed"] == 3
    assert all(c["suite"] == "primgen" for c in payload["checks"])


def test_verify_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "primgen", "--out", str(out)])
    assert code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk == json.loads(capsys.readouterr().out)


def test_verify_rejects_bad_primes(capsys):
    code = main(["verify", "--p", "4", "--suite", "primgen"])
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "-20260815"])
def test_verify_rejects_negative_seed(seed, capsys):
    assert main(["verify", "--suite", "primgen", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert "invalid configuration: seed must be a non-negative integer" in captured.err
    assert captured.out == ""  # no report whose checks seem to fail


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit):  # argparse rejects the choice itself
        main(["verify", "--suite", "nonsense"])


def test_theta_at_i(capsys):
    code = main(["theta", "--char", "0 0 0 0", "--at", "i"])
    assert code == 0
    out = capsys.readouterr().out
    assert "theta = 1.1803405990161+0j" in out
    assert "phi   = 1+0j" in out


def test_theta_reduces_a_huge_characteristic_exactly(capsys):
    # 10^300 and 10^400 are integers: [0; s] gives the theta null, and 10^300 = 1 mod 3 gives [1/3 0; 1 0]
    outs = []
    for char in ("0 0 0 0", "0 0 1e300 0", "0 0 1e400 0", "1/3 0 1 0", "1/3 0 1e300 0"):
        assert main(["theta", "--char", char, "--at", "i"]) == 0
        outs.append(capsys.readouterr().out)
    assert "theta = 1.1803405990161+0j" in outs[0]
    assert outs[0] == outs[1] == outs[2]
    assert outs[3] == outs[4]
    # against the unreduced sum, which theta_eval takes as given
    direct = theta.theta_eval(SiegelPoint(1j * np.eye(2)), theta.Characteristic.parse(["1/3", "0", "1", "0"]))
    assert abs(complex(outs[4].split()[2]) - direct) < 1e-12


def test_theta_odd_characteristic(capsys):
    code = main(["theta", "--char", "1/2 0 1/2 0", "--at", "i"])
    assert code == 0
    out = capsys.readouterr().out
    assert "phi   = 0 (odd characteristic)" in out


def test_modularity_pass(tmp_path, capsys):
    f = tmp_path / "fam.txt"
    f.write_text("2 2\n4 1/2 0 0 0\n")
    assert main(["modularity", str(f)]) == 0
    assert "modular for Gamma(2)" in capsys.readouterr().out


def test_modularity_fail(tmp_path, capsys):
    f = tmp_path / "fam.txt"
    f.write_text("2 2\n2 1/2 0 0 0\n")
    assert main(["modularity", str(f)]) == 1
    assert "fails rr[0,0]: residue 2 mod 4" in capsys.readouterr().out


def test_modularity_invalid_file(tmp_path, capsys):
    f = tmp_path / "fam.txt"
    f.write_text("2 2\n1 1/2 0 1/2 0\n")  # odd characteristic: the zero function
    assert main(["modularity", str(f)]) == 2
    assert "invalid product file" in capsys.readouterr().err


@pytest.mark.parametrize("header", ["0 4", "-1 4"])
def test_modularity_rejects_genus_below_one(header, tmp_path, capsys):
    f = tmp_path / "fam.txt"
    f.write_text(header + "\n")
    assert main(["modularity", str(f)]) == 2
    assert "genus must be at least 1" in capsys.readouterr().err


def test_modularity_missing_file(tmp_path, capsys):
    assert main(["modularity", str(tmp_path / "absent.txt")]) == 2
    assert "invalid product file" in capsys.readouterr().err


def test_action_output(capsys):
    code = main(["action", "--x", "1 2 2 0 0", "--p", "7", "--char", "1/7 0 0 2/7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "multiplier = e(" in out
    assert "first row  = (-1, 0, 0, -2), criterion value = -6" in out


def test_action_builds_one_actor(monkeypatch, capsys):
    built, build = [], GaloisActor.build
    monkeypatch.setattr(GaloisActor, "build", classmethod(lambda cls, x, p: built.append(p) or build(x, p)))
    assert main(["action", "--x", "1 2 2 0 0", "--p", "7", "--char", "1/7 0 0 2/7"]) == 0
    assert built == [7]


@pytest.mark.parametrize("at", ["i", "cm"])
def test_theta_builds_one_point_and_one_null(at, monkeypatch, capsys):
    points, evals = [], []
    init, theta_eval = SiegelPoint.__init__, theta.theta_eval
    monkeypatch.setattr(SiegelPoint, "__init__", lambda self, mat: points.append(mat) or init(self, mat))

    def counted(*args):
        evals.append(args[1])
        return theta_eval(*args)

    monkeypatch.setattr(theta, "theta_eval", counted)
    monkeypatch.setattr(cli, "theta_eval", counted)
    assert main(["theta", "--char", "1/2 0 0 1/2", "--at", at]) == 0
    assert len(points) == 1
    assert len(evals) == 2  # theta null once, Theta_chi once for both theta and phi


def test_primgen_demo(capsys):
    assert main(["primgen"]) == 0
    out = capsys.readouterr().out
    assert "Tr(zeta_25) over the {1+5k} subgroup = 0" in out
    assert "surrogate tower degree 4, ell = 2" in out
    assert "primitive: True" in out


@pytest.mark.parametrize("p", ["4", "9"])
def test_action_rejects_non_prime_p(p, capsys):
    assert main(["action", "--x", "1 2 2 0 0", "--p", p, "--char", "1/3 0 0 0"]) == 2
    assert "odd prime" in capsys.readouterr().err


def test_action_rejects_norm_not_prime_to_2p(capsys):
    assert main(["action", "--x", "3 0 0 0 0", "--p", "3", "--char", "1/3 0 0 1/3"]) == 2
    assert "not prime to 2p" in capsys.readouterr().err


def test_theta_rejects_genus_mismatch(capsys):
    assert main(["theta", "--char", "0 0 0 1/2 0 0", "--at", "cm"]) == 2
    assert "genus" in capsys.readouterr().err


def test_validation_survives_optimize_flag(optimized):
    code, err = optimized["cli_odd_level"]  # `modularity` on a product file of odd level
    assert code == 2, err
    assert "level must be a positive even integer" in err
    code, err = optimized["cli_even_p"]  # `action --p 4`
    assert code == 2, err


@pytest.mark.parametrize(
    "args",
    [
        ["theta", "--char", "1/2 1/2 0 0", "--at", "i", "--tol", "-1"],
        ["verify", "--suite", "primgen", "--theta-tol", "nan"],
        ["verify", "--suite", "primgen", "--tol", "inf"],
    ],
)
def test_tolerances_that_are_not_positive_finite_exit_2(args):
    # a subprocess with a timeout, so a tolerance that never stops the truncation fails instead of hanging
    env = dict(os.environ, PYTHONPATH=str(Path(cmtheta.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "cmtheta.cli", *args], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert "positive finite" in proc.stderr


@pytest.mark.parametrize(
    "args, message",
    [
        (["theta", "--char", "1/0 0 0 0"], "invalid input: zero denominator"),
        (["action", "--x", "1 0 0 0 0", "--p", "3", "--char", "1/0 0 0 0"], "invalid input: zero denominator"),
        (["theta", "--char", "", "--at", "i"], "invalid input: characteristic needs a positive even number"),
        (["theta", "--char", "1/2 0 0", "--at", "i"], "invalid input: characteristic needs a positive even number"),
    ],
)
def test_bad_characteristic_exits_2(args, message, capsys):
    assert main(args) == 2
    assert message in capsys.readouterr().err


def test_modularity_zero_denominator_exits_2(tmp_path, capsys):
    f = tmp_path / "fam.txt"
    f.write_text("2 2\n1 1/0 0 0 0\n")
    assert main(["modularity", str(f)]) == 2
    assert "invalid product file: zero denominator" in capsys.readouterr().err
