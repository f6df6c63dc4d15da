import json
import math
import platform
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from cmtheta import cmfield, harness
from cmtheta.cmfield import GaloisActor, standard_actors
from cmtheta.exact import CycloElem, RootOfUnity
from cmtheta.harness import SUITE_NAMES, ConfigError, HarnessEnv, Report, SuiteConfig, run_suite
from cmtheta.modularity import FamilyCheck

from pin_reports import PRIMES, SEEDS, TESTS


def stripped(report: Report):
    return [(r.name, r.suite, r.status, r.measured, r.tolerance, r.detail) for r in report.records]


def test_empty_suite_selection():
    report, code = run_suite(SuiteConfig(suites=()))
    assert code == 0
    assert report.records == []
    assert report.passed
    payload = json.loads(report.to_json())
    assert payload["checks"] == []
    assert payload["counts"] == {"pass": 0, "fail": 0}
    assert payload["passed"] is True


def test_primgen_suite_passes():
    report, code = run_suite(SuiteConfig(suites=("primgen",)))
    assert code == 0
    assert report.passed
    assert {r.suite for r in report.records} == {"primgen"}
    assert [r.name for r in report.records] == [
        "cyclotomic-trace-norm-example",
        "surrogate-tower",
        "random-towers",
    ]


def test_config_validation():
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(primes=(4,)))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(primes=(9,)))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(primes=()))
    for p in (7.0, "7", Fraction(7)):  # not integers
        with pytest.raises(ConfigError, match="odd primes"):
            SuiteConfig(primes=(3, p)).validate()
    SuiteConfig(primes=(3, np.int64(7))).validate()
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(tol_numeric=-1e-8))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(theta_tol=0.0))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(theta_tol=float("nan")))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(tol_numeric=float("inf")))
    with pytest.raises(ConfigError):
        run_suite(SuiteConfig(suites=("theta", "bogus")))
    for seed in (1.5, 7.0, "7", Fraction(7), None):  # not integers
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            SuiteConfig(seed=seed).validate()
    for tol in ("1e-8", None, 1e-8j):  # not real numbers
        with pytest.raises(ConfigError, match="tolerances"):
            SuiteConfig(tol_numeric=tol).validate()
        with pytest.raises(ConfigError, match="tolerances"):
            SuiteConfig(theta_tol=tol).validate()
    numpy_scalars = dict(primes=(3, np.int64(7)), theta_tol=np.float32(1e-12), seed=np.int64(7))
    accepted = SuiteConfig(tol_numeric=Fraction(1, 10**8), **numpy_scalars)
    accepted.validate()
    assert (accepted.seed, accepted.primes) == (7, (3, 7))
    assert all(type(v) is int for v in (accepted.seed, *accepted.primes))
    payload = json.loads(Report(accepted).to_json())
    assert (payload["seed"], payload["primes"], payload["tol_numeric"]) == (7, [3, 7], 1e-8)


def test_numpy_primes_are_written_as_ints():
    config = SuiteConfig(primes=(np.int64(3),))
    config.validate()
    env = HarnessEnv(config)
    for check in (harness.check_reflex_congruences, harness.check_artin_closed_form):
        outcome = check(env)
        assert outcome.passed and "p in (3,)" in outcome.detail


def test_unattainable_tolerance_fails_closed():
    config = SuiteConfig(tol_numeric=1e-30, suites=("modularity",))
    report, code = run_suite(config)
    assert code == 1
    assert not report.passed
    failed = [r for r in report.records if r.status == "fail"]
    assert failed, "an impossible tolerance must produce failures"
    for r in failed:
        assert r.measured is None or r.measured > r.tolerance
    # exact (non-numeric) checks are unaffected by the tolerance
    exact = next(r for r in report.records if r.name == "single-constant-power-2N")
    assert exact.status == "pass"


# the tolerance each check reports; the four of TOL_NUMERIC follow --tol, None marks an exact check
TOL_NUMERIC = ("conjugation-at-cm-point", "passing-family-invariance", "multiplier-cross-validation", "reality-locus")
FIXED_TOLERANCES = {
    "theta-reference-value": 1e-10,
    "translation-formula-fuzz": None,
    "sign-symmetry": 1e-10,
    "odd-characteristic-vanishing": 1e-10,
    "single-constant-power-2N": None,
    "failing-family-witness": 1e-3,
    "odd-action-vs-congruence-multiplier": None,
    "power-family-word-composition": None,
    "power-family-numeric": 1e-7,
    "iota-twist-examples": None,
    "riemann-form-matrix": None,
    "cm-point-equation": 1e-10,
    "theta-null-lower-bound": 0.1,
    "reflex-matrix-congruences": None,
    "artin-closed-form": None,
    "first-row-criterion-example": None,
    "cyclotomic-trace-norm-example": None,
    "surrogate-tower": None,
    "random-towers": None,
}


@pytest.mark.parametrize("tol", [1e-9, 3e-9])
def test_tol_numeric_governs_exactly_four_checks(tol):
    # two values of --tol, so a check that follows it and one that merely equals it are told apart
    report, code = run_suite(SuiteConfig(tol_numeric=tol))
    assert code == 0
    assert {r.name: r.tolerance for r in report.records} == {**FIXED_TOLERANCES, **dict.fromkeys(TOL_NUMERIC, tol)}


def test_too_few_comparisons_fail_passing_families_by_their_floor(monkeypatch):
    monkeypatch.setattr(harness, "_image", lambda gamma, z: None)  # no image is well-conditioned
    monkeypatch.setitem(harness.CHECKS, "modularity", [("passing-family-invariance", harness.check_passing_families)])
    report, code = run_suite(SuiteConfig(suites=("modularity",)))
    assert code == 1
    (record,) = report.records
    assert record.status == "fail"
    assert record.measured is None
    assert "only 0 well-conditioned comparisons, below the floor of 400" in record.detail


def test_exact_failure_names_its_count_and_first_case(monkeypatch):
    closed_phase = harness.closed_phase
    half = RootOfUnity(Fraction(1, 2))
    monkeypatch.setattr(harness, "closed_phase", lambda which, chi, p: closed_phase(which, chi, p) * half)
    monkeypatch.setitem(harness.CHECKS, "cm", [("artin-closed-form", harness.check_artin_closed_form)])
    report, code = run_suite(SuiteConfig(suites=("cm",)))
    assert code == 1
    (record,) = report.records
    assert record.status == "fail"
    assert record.measured is None and record.tolerance is None
    # every case fails: 3^4 grid points at p = 3 and 30 draws at p = 5 and 7, each under two actors
    assert record.detail.endswith("(282 cases), exact; 282 failing, first: p=3, chi=[0 0; 0 0], actor 1")


def test_reports_are_deterministic_for_fixed_seed():
    config = SuiteConfig(suites=("theta",), seed=7)
    first, _ = run_suite(config)
    second, _ = run_suite(SuiteConfig(suites=("theta",), seed=7))
    assert stripped(first) == stripped(second)
    other, _ = run_suite(SuiteConfig(suites=("theta",), seed=8))
    a = next(r for r in first.records if r.name == "sign-symmetry")
    b = next(r for r in other.records if r.name == "sign-symmetry")
    assert a.measured != b.measured  # different draws, different worst case


def same_measured(live, pinned) -> bool:
    """null only where the pinned report has null; else within 1e-12 absolute or 1e-9 relative of the pinned number.

    Off x86-64 the Haswell kernel tests/pin_reports.py fixes does not load, and another OpenBLAS kernel may round a
    theta sum differently in its last bits.  That moves an O(1) value by about 1e-16 relative, and a rounding-level
    deviation (1e-15 to 1e-13) by about its own size; 1e-12 is 1% of the smallest tolerance a `measured` is judged
    against (1e-10).
    """
    if live is None or pinned is None:
        return live is pinned
    return math.isclose(live, pinned, rel_tol=1e-9, abs_tol=1e-12)


X86_64 = platform.machine().lower() in ("x86_64", "amd64")


def test_default_seed_report_matches_its_pinned_file(tmp_path):
    # tests/pin_reports.py writes the six reports again, in one fresh interpreter under the OpenBLAS kernel it fixes;
    # on x86-64 every field must match exactly, elsewhere every field but `measured`, and `measured` by same_measured.
    # Beside the default seed, seed 1 redraws a failing family, 42 and 134 a passing one, and 134 also redraws a
    # family that has too few points.
    assert SuiteConfig.seed in SEEDS
    script = [sys.executable, str(TESTS / "pin_reports.py"), str(tmp_path)]
    proc = subprocess.run(script, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rule = "exact" if X86_64 else "same_measured"
    for seed in SEEDS:
        live, pinned = (json.loads((data / f"verify-{seed}.json").read_text()) for data in (tmp_path, TESTS / "data"))
        if not X86_64:
            checks = zip(live["checks"], pinned["checks"])
            measured = [(ran.pop("measured"), kept.pop("measured")) for ran, kept in checks]
            assert all(same_measured(*pair) for pair in measured), (seed, rule, measured)
        assert live == pinned, (seed, rule)


def test_suite_order_is_canonical():
    report, _ = run_suite(SuiteConfig(suites=("primgen", "theta")))
    suites_seen = [r.suite for r in report.records]
    assert suites_seen == sorted(suites_seen, key=SUITE_NAMES.index)
    assert suites_seen[0] == "theta"


def test_json_payload_shape():
    config = SuiteConfig(suites=("theta",))
    report, _ = run_suite(config)
    payload = json.loads(report.to_json())
    assert payload["seed"] == config.seed
    assert payload["primes"] == [3, 5, 7]
    assert payload["suites"] == ["theta"]
    assert payload["counts"]["pass"] + payload["counts"]["fail"] == len(payload["checks"])
    for entry in payload["checks"]:
        assert set(entry) == {"name", "suite", "status", "measured", "tolerance", "runtime_s", "detail"}
        assert entry["status"] in ("pass", "fail")
        if entry["measured"] is not None:
            assert entry["measured"] == float(f"{entry['measured']:.15g}")


def test_exit_code_tracks_passed():
    report, code = run_suite(SuiteConfig(suites=("primgen",)))
    assert (code == 0) == report.passed


def test_usable_sample_returns_the_first_usable_pair_and_draws_a_word_per_pair(monkeypatch, env):
    # _image refuses the first 12 pairs and every value is well-conditioned: the 13th pair is returned, and each of
    # the 13 draws drew its own word
    refused, words, pairs = 12, [], []
    gamma_word = harness._gamma_word

    def image(gamma, z):
        pairs.append((gamma, z))
        return z if len(pairs) > refused else None

    monkeypatch.setattr(harness, "_gamma_word", lambda rng, n: words.append(gamma_word(rng, n)) or words[-1])
    monkeypatch.setattr(harness, "_image", image)
    monkeypatch.setattr(harness, "_guarded_phis", lambda env, chis, z, floor, band=None: (1.5, [2.5]))
    chi = harness.Characteristic.from_den([1, 0], [0, 0], 4)
    drawn, gamma, z, null_z, base, moved = harness._usable_sample(np.random.default_rng(0), env, 4, chi)
    assert (drawn, null_z, base, moved) == (refused + 1, 1.5, 2.5, 2.5)
    assert len(pairs) == len(words) == refused + 1
    assert gamma is pairs[-1][0] and z is pairs[-1][1]
    assert all(word is drew for word, (drew, _) in zip(words, pairs))


def test_exhausted_sampler_is_a_failed_check(monkeypatch):
    monkeypatch.setattr(harness, "_image", lambda gamma, z: None)  # no word maps any point well
    monkeypatch.setitem(harness.CHECKS, "modularity", [("multiplier-cross-validation", harness.check_multiplier_cross)])
    report, code = run_suite(SuiteConfig(suites=("modularity",)))
    assert code == 1
    (record,) = report.records
    assert record.status == "fail"
    assert "no usable word/point pair" in record.detail


def test_artin_closed_form_builds_one_actor_per_prime_and_actor(monkeypatch):
    build = GaloisActor.build.__func__
    built = []

    def counted(cls, x, p):
        built.append(p)
        return build(cls, x, p)

    monkeypatch.setattr(GaloisActor, "build", classmethod(counted))
    cmfield.shared_actor.cache_clear()  # no actor left from earlier tests
    assert harness.check_artin_closed_form(HarnessEnv(SuiteConfig(primes=(3, 5, 7, 11, 13)))).passed
    assert sorted(built) == [3, 3, 5, 5, 7, 7, 11, 11, 13, 13]


def test_verify_builds_each_standard_actor_once(monkeypatch):
    # reflex-congruences and artin-closed-form share the actors through cmfield.shared_actor
    build = GaloisActor.build.__func__
    built = []

    def counted(cls, x, p):
        built.append((x, p))
        return build(cls, x, p)

    monkeypatch.setattr(GaloisActor, "build", classmethod(counted))
    cmfield.shared_actor.cache_clear()
    primes = (3, 5, 7, 11, 13)
    report, code = run_suite(SuiteConfig(primes=primes, suites=("cm",)))
    assert code == 0
    standard = [(x, p) for p in primes for x in standard_actors(p)]
    assert [built.count(pair) for pair in standard] == [1] * 10
    assert len(built) == 15  # the 10 standard actors and the 5 of belong-criterion-example


def test_belong_example_evaluates_each_criterion_once(monkeypatch):
    seen = []
    belong = harness.belong_criterion

    def counted(x, p):
        seen.append((tuple(x), p))
        return belong(x, p)

    monkeypatch.setattr(harness, "belong_criterion", counted)
    out = harness.check_belong_example(HarnessEnv(SuiteConfig()))
    assert out.passed and out.measured is None and out.tolerance is None
    assert out.detail == "first-row criterion on the worked examples, exact"
    assert len(seen) == len(set(seen)) == 5


def test_passing_families_pass_at_seed_5():
    # at seed 5 two families need 36 and 39 point draws for their three well-conditioned points
    env = HarnessEnv(SuiteConfig(seed=5))
    out = harness.check_passing_families(env)
    assert out.passed and out.measured < out.tolerance
    assert "720 well-conditioned comparisons" in out.detail


def test_passing_families_pass_at_seed_134():
    # at seed 134 one level-4 family is below the 1e-12 product floor at every point; it is redrawn, not kept
    env = HarnessEnv(SuiteConfig(seed=134))
    out = harness.check_passing_families(env)
    assert out.passed and out.measured < out.tolerance
    assert "735 well-conditioned comparisons" in out.detail


def test_failing_family_sampler_is_bounded(monkeypatch):
    # if every family passed, the failing-family search must give up, not loop forever
    monkeypatch.setattr(harness, "check_family", lambda prod: FamilyCheck(ok=True))
    with pytest.raises(RuntimeError, match="no failing family"):
        harness.check_failing_families(HarnessEnv(SuiteConfig()))


def test_failing_family_witness_names_its_families_and_point_draws():
    # every family's worst ratio is |e(1/8) - 1|, so only the detail shows which families were drawn
    out = harness.check_failing_families(HarnessEnv(SuiteConfig()))
    assert out.passed and math.isclose(out.measured, 2 * math.sin(math.pi / 8), abs_tol=1e-12)
    assert out.detail.startswith(
        "failing families have a generator witness with ratio far from 1, 20 point draws; 10 at N=2, then 10 at N=4: "
        "[0 1/2; 1/2 0]^1, [1/2 1/2; 1/2 1/2]^3 [1/2 0; 0 1/2]^2, [1/2 1/2; 0 0]^2,"
    )
    assert out.detail.endswith(", [0 1/2; 0 3/4]^3 [3/4 3/4; 1/2 0]^1 [3/4 1/2; 3/4 1/4]^1")


def test_failing_family_without_a_witness_fails_its_check_by_name(monkeypatch):
    monkeypatch.setattr(harness, "_witness", lambda prod, n: None)
    monkeypatch.setitem(harness.CHECKS, "modularity", [("failing-family-witness", harness.check_failing_families)])
    report, code = run_suite(SuiteConfig(suites=("modularity",)))
    assert code == 1
    (record,) = report.records
    assert record.status == "fail"
    assert "the failing family [0 1/2; 1/2 0]^1 at N=2 has no generator witness" in record.detail


# the checks that compare values of Phi or Theta at drawn characteristics, through phi_eval or theta_eval
COMPARED = (
    "passing-family-invariance",
    "multiplier-cross-validation",
    "power-family-numeric",
    "sign-symmetry",
    "conjugation-at-cm-point",
    "reality-locus",
)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_compared_sample_can_fail(monkeypatch, seed):
    # no compared characteristic has a constant Phi (zero, or in Sigma^-); sign-symmetry compares no chi = -chi and
    # conjugation-at-cm-point no s = -s (mod 1), where the two sides would sum one series or its mirror image
    seen = []
    phi_eval, theta_eval = harness.phi_eval, harness.theta_eval
    monkeypatch.setattr(harness, "phi_eval", lambda chi, *args, **kw: seen.append(chi) or phi_eval(chi, *args, **kw))
    monkeypatch.setattr(harness, "theta_eval", lambda z, chi, *args: seen.append(chi) or theta_eval(z, chi, *args))
    checks = {name: fn for registry in harness.CHECKS.values() for name, fn in registry}
    env = HarnessEnv(SuiteConfig(primes=PRIMES, seed=seed))
    for name in COMPARED:
        seen.clear()
        assert checks[name](env).passed, name
        assert seen, name
        for chi in {chi.reduce()[0] for chi in seen}:
            assert chi.den > 1 and not chi.in_sigma_minus(), (name, str(chi))
            if name == "sign-symmetry":
                assert chi.neg().reduce()[0] != chi, (name, str(chi))
            if name == "conjugation-at-cm-point":
                assert any(2 * v % 1 for v in chi.s), (name, str(chi))


def test_exhausted_char_and_tower_budgets_are_failed_checks(monkeypatch):
    # every characteristic lands in Sigma^-, so its Phi is constant, and every tower has degree 1, so both
    # bounded samplers run out of draws
    monkeypatch.setattr(harness.Characteristic, "in_sigma_minus", lambda chi: True)
    monkeypatch.setattr(harness, "orbit_sum", lambda a, residues: CycloElem.from_rational(a.n, 1))
    monkeypatch.setitem(harness.CHECKS, "modularity", [("multiplier-cross-validation", harness.check_multiplier_cross)])
    monkeypatch.setitem(harness.CHECKS, "primgen", [("random-towers", harness.check_random_towers)])
    report, code = run_suite(SuiteConfig(suites=("modularity", "primgen")))
    assert code == 1
    chars, towers = report.records
    assert chars.status == towers.status == "fail"
    assert "no characteristic with a non-constant Phi in 64 draws" in chars.detail
    assert "no 20th tower of degree > 1 in 200 draws" in towers.detail


def no_constant(name):
    raise AssertionError(f"the report holds {name}, which strict JSON has no value for")


# each check that folds many deviations, and the evaluation a NaN reaches it through; where
# the sampler's guard sees the NaN first, it names the non-finite value instead of resampling
SAMPLED = {"passing-family-invariance", "multiplier-cross-validation", "power-family-numeric"}


@pytest.mark.parametrize(
    "target, suite, name",
    [
        ("theta_eval", "theta", "sign-symmetry"),
        ("theta_eval", "theta", "odd-characteristic-vanishing"),
        ("theta_eval", "cm", "reality-locus"),
        ("phi_eval", "theta", "conjugation-at-cm-point"),
        ("phi_eval", "modularity", "passing-family-invariance"),
        ("phi_eval", "modularity", "multiplier-cross-validation"),
        ("phi_eval", "action", "power-family-numeric"),
        ("eval_product", "modularity", "failing-family-witness"),
    ],
)
def test_a_nan_deviation_fails_its_check(monkeypatch, target, suite, name):
    monkeypatch.setattr(harness, target, lambda *args, **kwargs: complex(math.nan, math.nan))
    monkeypatch.setitem(harness.CHECKS, suite, [(name, dict(harness.CHECKS[suite])[name])])
    report, code = run_suite(SuiteConfig(suites=(suite,)))
    assert code == 1
    (record,) = report.records
    assert record.status == "fail"
    (entry,) = json.loads(report.to_json(), parse_constant=no_constant)["checks"]
    assert entry["measured"] is None
    if name in SAMPLED:
        assert "FloatingPointError('non-finite Phi_[" in record.detail
        assert "(nan+nanj) at a point with min_im_eig 0." in record.detail


def test_a_non_finite_theta_null_is_named_not_resampled(monkeypatch):
    monkeypatch.setattr(harness, "theta_null", lambda *args, **kwargs: complex(math.inf, 0.0))
    monkeypatch.setitem(harness.CHECKS, "action", [("power-family-numeric", harness.check_power_family_numeric)])
    report, code = run_suite(SuiteConfig(suites=("action",)))
    assert code == 1
    (record,) = report.records
    assert "FloatingPointError('non-finite theta null (inf+0j) at a point with min_im_eig 0." in record.detail


def test_judges_fold_a_nan_among_finite_values():
    assert not harness._within([0.0, math.nan, 0.0], 1.0, "").passed
    assert not harness._above([math.inf, math.nan, math.inf], 0.0, "").passed
    assert harness._within([0.0, 0.5], 1.0, "").measured == 0.5
    assert harness._above([3.0, 2.0], 1.0, "").measured == 2.0


def test_exhausted_family_resamples_name_their_budget(monkeypatch):
    monkeypatch.setattr(harness, "_guarded_phis", lambda *args, **kwargs: None)  # no point suits any family
    env = HarnessEnv(SuiteConfig())
    with pytest.raises(RuntimeError, match=f"no passing family with 3 well-conditioned points in {16 * 720} draws"):
        harness.check_passing_families(env)
    with pytest.raises(RuntimeError, match=f"no failing family with a well-conditioned point in {16 * 60} draws"):
        harness.check_failing_families(env)
