import json

import numpy as np
import pytest

from cmtheta import harness, theta
from cmtheta.cli import main
from cmtheta.cmfield import GaloisActor
from cmtheta.symplectic import SiegelPoint

from optimized_probes import BAD_TOLERANCE_ARGS
from reference import direct_sum


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


def test_verify_rejects_unknown_suite(capsys):
    # argparse takes any name: SuiteConfig.validate alone checks them, and its error names the valid ones
    assert main(["verify", "--suite", "nonsense"]) == 2
    captured = capsys.readouterr()
    message = "unknown suites: ['nonsense']; the suites are theta, modularity, action, cm, primgen"
    assert captured.err == f"invalid configuration: {message}\n"
    assert captured.out == ""


def test_verify_without_suite_runs_every_suite(monkeypatch, capsys):
    configs = []
    monkeypatch.setattr(harness, "run_suite", lambda config: configs.append(config) or (harness.Report(config), 0))
    assert main(["verify"]) == 0
    assert [c.suites for c in configs] == [("theta", "modularity", "action", "cm", "primgen")]


def test_verify_theta_suite_at_a_finer_theta_tolerance(capsys):
    assert main(["verify", "--suite", "theta", "--tol", "1e-8", "--theta-tol", "1e-10", "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["theta_tol"] == 1e-10


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
    # against the term-by-term sum at [1/3 0; 1 0], unreduced: a wrong phase or shift moves the printed value
    direct = direct_sum(1j * np.eye(2), theta.Characteristic.parse(["1/3", "0", "1", "0"]), 8)
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
    # theta_eval, theta_null and phi_eval all sum through theta._theta, so it counts every evaluation
    points, evals = [], []
    init, sum_theta = SiegelPoint.__init__, theta._theta
    monkeypatch.setattr(SiegelPoint, "__init__", lambda self, mat: points.append(mat) or init(self, mat))

    def counted(*args):
        evals.append(args[1])
        return sum_theta(*args)

    monkeypatch.setattr(theta, "_theta", counted)
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


def test_theta_refuses_an_oversized_candidate_box(capsys):
    # at iI_10 the truncation box holds 6.2e10 candidates: an input error, not a MemoryError traceback
    assert main(["theta", "--at", "i", "--char", " ".join(["0"] * 10 + ["1/2"] + ["0"] * 9)]) == 2
    assert "invalid input: truncation box has 61917364224 candidates at genus 10" in capsys.readouterr().err


def test_validation_survives_optimize_flag(optimized):
    code, _, err = optimized["cli_odd_level"]  # `modularity` on a product file of odd level
    assert code == 2, err
    assert "level must be a positive even integer" in err
    code, _, err = optimized["cli_even_p"]  # `action --p 4`
    assert code == 2, err
    code, _, err = optimized["cli_oversized_box"]  # 6.2e10 candidates at iI_10: a 4.5 TiB box if built
    assert code == 2, err
    assert "truncation box has 61917364224 candidates" in err


@pytest.mark.parametrize(
    "probe, line",
    [
        # 1e400 is an integer s beyond the float range, so [0; s] reduces to the theta null
        ("cli_huge_s", "theta = 1.1803405990161+0j"),
        # at iI3 Theta is prod_j theta(i; r_j, s_j); summed in 30-digit mpmath that is
        # 0.20791095542904192337 + 0.36011233825328891624i, on the factored path
        ("cli_genus_3", "theta = 0.207910955429042+0.360112338253289j"),
        # that tower has ell = 2, so the combinator inverts N_{L/K(x)}(3y + 1) inside K(x)
        ("cli_primgen", "norm combinator:   -4/5 - 21/5*z8 - 3/5*z8^2 + 3/5*z8^3  (primitive: True)"),
    ],
)
def test_cli_prints_the_exact_line_under_optimize_flag(probe, line, optimized):
    code, out, err = optimized[probe]
    assert code == 0, err
    assert line in out.splitlines()


def test_theta_prints_the_same_digits_for_r_and_r_plus_4_minus_3_under_optimize_flag(optimized):
    # b = 0, so the phase is e(0) = 1 exactly; a characteristic summed unreduced prints other digits
    (code, out, err), (shifted_code, shifted_out, shifted_err) = optimized["cli_shifted_r"]
    assert code == shifted_code == 0, err + shifted_err
    assert out.startswith("theta = ")
    assert out == shifted_out


@pytest.mark.parametrize(
    "probe, expected",
    [
        ("cli_impossible_tol", 1),  # --suite modularity --p 3 --tol 1e-30: no computed deviation is that small
        ("cli_cm_primes_17_to_31", 0),  # --suite cm at primes beyond the default list
    ],
)
def test_verify_exit_code_under_optimize_flag(probe, expected, optimized):
    code, out, err = optimized[probe]
    assert code == expected, err or out


def test_verify_primgen_suite_at_seeds_1_and_42_under_optimize_flag(optimized):
    for code, out, err in optimized["cli_primgen_seeds_1_42"]:
        assert code == 0, err or out


@pytest.mark.parametrize("args", BAD_TOLERANCE_ARGS)
def test_tolerances_that_are_not_positive_finite_exit_2(args, optimized):
    # run by the fixture's interpreter, whose timeout turns a truncation that never stops into a failure
    code, out, err = optimized["cli_bad_tolerances"][" ".join(args)]
    assert code == 2, err or out
    assert "positive finite" in err


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
