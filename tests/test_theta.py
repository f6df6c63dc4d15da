import itertools
import math
import operator
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings as hsettings, strategies as st

from cmtheta import theta
from cmtheta.cmfield import build_context
from cmtheta.exact import RootOfUnity
from cmtheta.symplectic import SiegelPoint, act_siegel, blocks, identity, special_gamma
from cmtheta.theta import (
    Characteristic,
    EvalSettings,
    all_characteristics,
    phi_eval,
    random_siegel,
    theta_eval,
    theta_null,
    zero_char,
)

from reference import (
    cholesky_candidates,
    direct_sum,
    doubling_radius,
    fraction_in_sigma_minus,
    fraction_reduce,
    genus_one_sum,
    mp_box_sum,
    per_term_rounding,
    python_route_exponents,
    reshaped_contraction,
)


def test_null_value_at_i_identity():
    # theta(0, iI_2; 0, 0) = (pi^{1/4} / Gamma(3/4))^2, computed independently
    mp.mp.dps = 30
    expected = float((mp.pi ** mp.mpf("0.25") / mp.gamma(mp.mpf(3) / 4)) ** 2)
    got = theta_null(np.eye(2) * 1j)
    assert abs(got - expected) < 1e-13


def test_genus_one_against_mpmath():
    mp.mp.dps = 30
    tau = np.array([[1j]])
    q = mp.exp(-mp.pi)
    assert abs(theta_eval(tau, zero_char(1)) - float(mp.jtheta(3, 0, q))) < 1e-14
    chi = Characteristic.make([F(1, 2)], [0])
    assert abs(theta_eval(tau, chi) - float(mp.jtheta(2, 0, q))) < 1e-14
    # nonzero s: Theta(tau; 0, 1/2) = jtheta(4, 0, q) and Theta(tau; 1/2, 1/2) = jtheta(1, 0, q) = 0
    assert abs(theta_eval(tau, Characteristic.make([0], [F(1, 2)])) - float(mp.jtheta(4, 0, q))) < 1e-14
    assert abs(theta_eval(tau, Characteristic.make([F(1, 2)], [F(1, 2)])) - float(mp.jtheta(1, 0, q))) < 1e-14


def test_truncation_tail_is_sound():
    # the same point's certified cut at tol 1e-30 is a strictly wider sum; it must not move the value
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = random_siegel(rng)
        chi = Characteristic.make([F(1, 3), F(2, 3)], [F(1, 3), 0])
        base = theta_eval(z, chi)
        fat = theta_eval(z, chi, EvalSettings(1e-30))
        assert abs(base - fat) < 1e-12


def wide_sum_error(z, chi, tol=1e-12):
    """|certified sum at tol - the same point's certified sum at 1e-30|, as in test_truncation_tail_is_sound.

    This checks truncation only: both sums share t and const, so an error in
    either moves both alike.  test_summation_paths_agree compares the two
    summation paths.
    """
    certified = theta_eval(z, chi, EvalSettings(tol))
    wide = theta_eval(z, chi, EvalSettings(1e-30))
    assert all(isinstance(cut, theta._Factored) for cut in z._theta_cuts.values())
    return abs(certified - wide)


def test_truncation_with_non_canonical_characteristics():
    rng = np.random.default_rng(22)
    z = random_siegel(rng)
    for nums in ([-7, 11, 13, -5], [9, -1, -6, 14], [-3, -3, 5, 7]):
        chi = Characteristic.from_den(nums[:2], nums[2:], 4)
        assert not chi.is_canonical()
        assert wide_sum_error(z, chi) < 1e-12


def test_truncation_in_genus_three():
    rng = np.random.default_rng(23)
    z = random_siegel(rng, 3)
    chi = Characteristic.make([F(1, 3), 0, F(2, 3)], [0, F(1, 3), F(1, 3)])
    assert wide_sum_error(z, chi) < 1e-12


def test_truncation_geometry_is_kept_per_tolerance():
    # a cut kept per point only would serve the 1e-14 call from the 1e-6 one
    z = random_siegel(np.random.default_rng(24), base=0.1)
    chi = Characteristic.make([F(1, 4), F(3, 4)], [F(1, 2), 0])
    assert wide_sum_error(z, chi, tol=1e-6) > 1e-14
    assert wide_sum_error(z, chi, tol=1e-14) < 1e-14


def test_one_cut_per_point_and_tolerance(monkeypatch):
    # a theta table at one point builds its cut once; each new tolerance builds one more, a seen one none
    built = []
    certified = theta._certified
    monkeypatch.setattr(theta, "_certified", lambda zp, tol: built.append(tol) or certified(zp, tol))
    z = random_siegel(np.random.default_rng(32))
    theta_null(z)
    for chi in all_characteristics(3, 2):
        phi_eval(chi, z)
    assert built == [1e-12]
    loose = EvalSettings(1e-6)
    theta_null(z, loose)
    theta_eval(z, zero_char(2))
    phi_eval(zero_char(2), z, loose)
    assert built == [1e-12, 1e-6]
    assert set(z._theta_cuts) == {1e-12, 1e-6}


def test_understated_tail_fails_the_comparison(monkeypatch):
    # the comparisons above can fail: with a tail bound 1e-12 too small the cut is too short
    tail_bound = theta._tail_bound
    monkeypatch.setattr(theta, "_tail_bound", lambda big_r, rho, g: tail_bound(big_r, rho, g) * 1e-12)
    z = random_siegel(np.random.default_rng(7))
    chi = Characteristic.make([F(1, 3), F(2, 3)], [F(1, 3), 0])
    assert wide_sum_error(z, chi) > 1e-12


# diagonal, so Theta factors into genus-1 sums; its axes have 18, 10 and 6 candidates
UNEQUAL_AXES = 1j * np.diag([0.3, 1.0, 2.5])


def test_unequal_axes_match_product_of_genus_one_sums():
    # a contraction that reshapes by the wrong axis length passes at equal axis lengths, not here
    zp = SiegelPoint(UNEQUAL_AXES)
    chis = [
        zero_char(3),
        Characteristic.make([F(1, 3), 0, F(2, 3)], [F(1, 2), F(1, 3), 0]),
        Characteristic.make([F(1, 2), F(1, 5), F(3, 4)], [F(2, 3), F(1, 4), F(4, 5)]),
        Characteristic.make([F(7, 8), F(1, 2), 0], [0, F(5, 6), F(1, 7)]),
    ]
    for chi in chis:
        got = theta_eval(zp, chi)
        want = math.prod(genus_one_sum(y, r, s) for y, r, s in zip((0.3, 1.0, 2.5), chi.r, chi.s))
        assert abs(got - want) < 1e-14 * abs(want)
    cut = zp._theta_cuts[1e-12]
    assert isinstance(cut, theta._Factored) and len(set(cut.dims)) == 3


def test_summation_paths_agree(monkeypatch):
    # with no exponent range left the guard sends every cut term by term; both paths give the same sum
    rng = np.random.default_rng(31)
    chi2 = Characteristic.make([F(1, 3), F(2, 3)], [F(1, 5), 0])
    chi3 = Characteristic.make([F(1, 3), 0, F(2, 3)], [0, F(1, 3), F(1, 3)])
    cases = [
        (random_siegel(rng), chi2),
        (random_siegel(rng, base=0.1), chi2),
        (random_siegel(rng, 3), chi3),
        (SiegelPoint(UNEQUAL_AXES), chi3),
    ]
    factored = [theta_eval(z, chi) for z, chi in cases]
    assert all(isinstance(cut, theta._Factored) for z, _ in cases for cut in z._theta_cuts.values())
    monkeypatch.setattr(theta, "_EXP_RANGE", 0)
    for (z, chi), want in zip(cases, factored):
        fresh = SiegelPoint(z.mat)
        got = theta_eval(fresh, chi)
        assert all(isinstance(cut, theta._Terms) for cut in fresh._theta_cuts.values())
        assert abs(got - want) < 1e-14 * abs(want)  # rounding scales with |Theta|, here up to 1.8


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_tail_bound_closed_form_matches_quadrature(g):
    mp.mp.dps = 30
    for big_r, rho in ((6.5, 1.2), (3.0, 0.4), (0.9, 0.9)):
        h = mp.mpf(rho) / 2
        integral = mp.quad(lambda t: mp.exp(-((t - h) ** 2)) * t ** (g - 1), [big_r - h, mp.inf])
        expect = g * (2 / mp.mpf(rho)) ** g * integral
        assert abs(theta._tail_bound(big_r, rho, g) / float(expect) - 1) < 1e-12


def test_certified_cut_meets_its_budget():
    z = random_siegel(np.random.default_rng(25))
    theta_eval(z, zero_char(2))
    cut = z._theta_cuts[1e-12]
    assert cut.tail <= 0.5e-12 and cut.rounding <= 0.5e-12
    # the least grid point rho + m/32: one step shorter would miss the budget
    assert theta._tail_bound(cut.radius - 1 / 32, math.sqrt(math.pi * z.min_im_eig), 2) > 0.5e-12


def test_radius_search_matches_doubling_reference(monkeypatch):
    # the least grid point rho + m/32 meeting tol/2, with its bound kept, in at most 4 bounds a search on the mean;
    # tol 5e-324 halves to a target of 0, which only a bound that underflows to 0 meets
    bound, calls = theta._tail_bound, []
    monkeypatch.setattr(theta, "_tail_bound", lambda *args: calls.append(args) or bound(*args))
    made = searches = 0
    tols = (1e-6, 1e-12, 1e-15, 1e-300, 1e-320, 5e-324)
    for g, tol, rho in itertools.product((1, 2, 3), tols, np.linspace(0.05, 3, 60).tolist()):
        want = doubling_radius(rho, g, tol / 2)
        before = len(calls)
        got, tail = theta._radius(rho, g, tol / 2)
        made, searches = made + len(calls) - before, searches + 1
        steps = round((got - rho) * 32)
        assert got == rho + steps / 32 and tail == bound(got, rho, g) <= tol / 2
        assert steps == 1 or bound(rho + (steps - 1) / 32, rho, g) > tol / 2
        if abs(got - want) > 1e-12:  # the reference's float width test rounded up and it halved once more
            assert got - want == pytest.approx(1 / 64, abs=1e-12) and bound(want, rho, g) <= tol / 2
    assert made <= 4 * searches


CUT_TOLERANCES = (1e-6, 1e-12, 1e-15)


def cut_test_points():
    """Points whose cuts take both summation paths: g = 1 to 3 and least eigenvalues of Im Z from 0.02 to 2.8."""
    rng = np.random.default_rng(41)
    # rho about 0.05 at genus 1, then a point summed term by term
    points = [SiegelPoint(np.array([[0.1 + 0.0008j]])), SiegelPoint(300j * np.eye(2) + 0.25)]
    return points + [random_siegel(rng, g, base) for g in (1, 2, 3) for base in (0.02, 0.1, 0.5, 1.5, 2.8)]


def test_radius_search_keeps_the_candidates(monkeypatch):
    # the reference's radius to rounding, so the same axis lengths and candidates, on both summation paths
    points, tols = cut_test_points(), CUT_TOLERANCES
    cuts = [theta._certified(zp, tol) for zp in points for tol in tols]

    def reference_radius(rho, g, target):
        radius = doubling_radius(rho, g, target)
        return radius, theta._tail_bound(radius, rho, g)

    monkeypatch.setattr(theta, "_radius", reference_radius)
    wants = [theta._certified(zp, tol) for zp in points for tol in tols]
    assert {type(cut) for cut in cuts} == {theta._Factored, theta._Terms}
    for got, want in zip(cuts, wants):
        assert got.radius == pytest.approx(want.radius, abs=1e-12) and got.dims == want.dims
        assert got.tail == pytest.approx(want.tail, rel=1e-12)
        assert type(got) is type(want) and np.array_equal(got.coords, want.coords)
        if isinstance(got, theta._Factored):
            assert np.array_equal(got.factor != 0, want.factor != 0)


def test_eigh_geometry_matches_cholesky_and_inverse():
    # T = sqrt(pi) Lambda^(1/2) tV and diag(Im Z^-1) from the point's eigh give the box and the candidates
    # that the Cholesky factor and the inverse of Im Z gave, on both summation paths
    paths = set()
    for zp in cut_test_points():
        for tol in CUT_TOLERANCES:
            cut = theta._certified(zp, tol)
            dims, grid, inside = cholesky_candidates(zp, cut.radius)
            assert cut.dims == dims
            if isinstance(cut, theta._Terms):
                assert np.array_equal(cut.coords, grid[inside].astype(complex))
            else:
                assert np.array_equal(cut.factor.ravel() != 0, inside)
            paths.add(type(cut))
    assert paths == {theta._Factored, theta._Terms}


def test_im_z_is_factored_once_per_point(monkeypatch):
    # one eigh per point feeds its cuts at every tolerance and act_siegel's range test; inv is taken of CZ + D only
    calls = []

    def counted(name):
        real = getattr(np.linalg, name)
        return lambda mat, *args, **kwargs: calls.append((name, np.array(mat))) or real(mat, *args, **kwargs)

    for name in ("eigh", "eigvalsh", "cholesky", "inv"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    zp = random_siegel(np.random.default_rng(44))
    for tol in (1e-6, 1e-12):
        theta_null(zp, EvalSettings(tol))
    assert len(zp._theta_cuts) == 2
    gamma = special_gamma("lower", 1, 2, 2)
    w = act_siegel(gamma, zp)
    c, d = (blk.astype(float) for blk in blocks(gamma)[2:])
    assert [name for name, _ in calls] == ["eigh", "inv", "eigh"]
    assert np.array_equal(calls[0][1], zp.mat.imag) and np.array_equal(calls[2][1], w.mat.imag)
    assert np.array_equal(calls[1][1], c @ zp.mat + d)
    # an image below the float range: the source's eigh, the image's, and the refusal reads the source's
    m = identity(4)
    m[2, 0] = m[3, 1] = 10**300
    with pytest.raises(ValueError, match="outside the float range"):
        act_siegel(m, 1j * np.eye(2))
    assert [name for name, _ in calls[3:]] == ["eigh", "inv", "eigh"]


def test_contraction_matches_reshaped_reference():
    # bit for bit: the stored slices and the exponent list give the products the reshaping contraction gives
    rng = np.random.default_rng(43)
    points = [
        random_siegel(rng, 1),
        build_context().z0,
        random_siegel(rng, 2),
        SiegelPoint(np.array([[0.13 + 0.02j, 0.21], [0.21, -0.4 + 0.7j]])),  # min_im_eig 0.02
        random_siegel(rng, 3),
        SiegelPoint(UNEQUAL_AXES),
    ]
    assert points[3].min_im_eig == 0.02
    for zp in points:
        g = zp.g
        chis = [
            zero_char(g),
            Characteristic.from_den(range(1, g + 1), range(g, 0, -1), 7),
            Characteristic.from_den([9] * g, [-4, 13, 22][:g], 5),  # non-canonical: reduced with a phase
        ]
        assert not chis[2].is_canonical()
        for chi in chis:
            assert theta_eval(zp, chi) == reshaped_contraction(zp._theta_cuts[1e-12], chi)
        cut = zp._theta_cuts[1e-12]
        starts = np.cumsum((0, *cut.dims)).tolist()
        assert isinstance(cut, theta._Factored) and cut.last == slice(starts[-2], starts[-1])
        assert cut.inner == tuple((cut.dims[j], slice(starts[j], starts[j + 1])) for j in reversed(range(g - 1)))


def test_exponent_matrix_matches_python_route():
    # one product exponents.x and the Python route t = Z shift + s, coords . 2 pi i t, pi i t(shift) (t + s), each
    # against 40-digit values within its own count: an entry for row y within m_w u 2 pi sum_j |y_j| tau_j, the
    # constant within m_c u kappa; the matrix route has m_w = g + 5 on a _Factored cut and 3g + 3 on a _Terms one
    mp.mp.dps = 40
    u, paths = theta.EPS / 2, set()
    for zp in cut_test_points():
        g, cut = zp.g, theta._certified(zp, 1e-12)
        paths.add(type(cut))
        m_w, m_old = (3 * g + 3, 2 * g + 4) if isinstance(cut, theta._Terms) else (g + 5, g + 5)
        m_c, zm = 2 * g + 5, [[mp.mpc(v) for v in row] for row in zp.mat.tolist()]
        for chi in (
            zero_char(g),
            Characteristic.from_den(range(1, g + 1), range(g, 0, -1), 7),
            Characteristic.from_den([6] * g, [5, 1, 3][:g], 7),
        ):
            x = [v / chi.den for v in chi.num]
            full = cut.exponents.dot(x)
            got = full[:-g], sum(map(operator.mul, x, full[-g:].tolist()))
            old = python_route_exponents(zp, cut, x)
            xe = [mp.mpf(v) / chi.den for v in chi.num]
            t = [mp.fsum(a * b for a, b in zip(row, xe)) + c for row, c in zip(zm, xe[g:])]
            want_lin = [2j * mp.pi * mp.fsum(y * tj for y, tj in zip(row, t)) for row in cut.coords.tolist()]
            want_const = 1j * mp.pi * mp.fsum(a * (b + c) for a, b, c in zip(xe, t, xe[g:]))
            tau = np.abs(zp.mat) @ np.array(x[:g]) + np.array(x[g:])
            scale = 2 * np.pi * (np.abs(cut.coords) @ tau)
            kappa = np.pi * float(np.array(x[:g]) @ (tau + x[g:]))
            for (lin, const), m in ((got, m_w), (old, m_old)):
                assert all(abs(a - complex(b)) <= m * u * w for a, b, w in zip(lin.tolist(), want_lin, scale.tolist()))
                assert abs(const - complex(want_const)) <= m_c * u * kappa
            assert np.all(np.abs(got[0] - old[0]) <= (m_w + m_old) * u * scale)
    assert paths == {theta._Factored, theta._Terms}


def test_well_conditioned_cuts_are_factored():
    zs = [build_context().z0, random_siegel(np.random.default_rng(26)), random_siegel(np.random.default_rng(27), 3)]
    for z in zs:
        theta_null(z)
        cut = z._theta_cuts[1e-12]
        assert isinstance(cut, theta._Factored)
        assert cut.factor.shape == (math.prod(cut.dims[:-1]), cut.dims[-1])
        assert cut.factor.size == math.prod(cut.dims)
        assert cut.coords.shape == (sum(cut.dims), z.g)
        assert 0 < np.count_nonzero(cut.factor) < cut.factor.size


def within_tail_plus_rounding(zp, reaches, kind):
    """Max of |theta_eval - mp_box_sum| / (tail + rounding) at zp over two characteristics; the cut must be a kind."""
    ratios = []
    for chi in (zero_char(zp.g), Characteristic.from_den(range(1, zp.g + 1), range(zp.g, 0, -1), zp.g + 1)):
        got = theta_eval(zp, chi)
        cut = zp._theta_cuts[1e-12]
        assert isinstance(cut, kind)
        ratios.append(abs(got - mp_box_sum(zp.mat, chi, reaches)) / (cut.tail + cut.rounding))
    return max(ratios)


def test_factored_sum_within_tail_plus_rounding():
    # against a 30-digit sum: the error stays below the cut's tail + rounding, also where that exceeds tol/2
    # (lambda_min 0.05 and 0.02, and g = 3); the error/bound ratios are 2.7e-4, 2.2e-4, 3.7e-4 and 2.4e-4
    cases = [
        (random_siegel(np.random.default_rng(28)), (7, 7)),
        (random_siegel(np.random.default_rng(29), base=0.05), (18, 18)),
        (random_siegel(np.random.default_rng(30), 3), (5, 5, 5)),
        (SiegelPoint(np.array([[0.13 + 0.02j, 0.21], [0.21, -0.4 + 0.7j]])), (30, 6)),  # min_im_eig 0.02
    ]
    assert cases[3][0].min_im_eig == 0.02
    for zp, reaches in cases:
        assert within_tail_plus_rounding(zp, reaches, theta._Factored) <= 1


def test_term_sum_within_tail_plus_rounding(monkeypatch):
    # the same comparison where the range guard sends the cut term by term, and at a point the guard keeps
    # factored that is summed term by term here; the error/bound ratios are 1.7e-94, 3.4e-160 and 3.0e-4
    assert within_tail_plus_rounding(SiegelPoint(300j * np.eye(2) + 0.25), (2, 2), theta._Terms) <= 1
    assert within_tail_plus_rounding(SiegelPoint(300j * np.eye(3) + 0.25), (2, 2, 2), theta._Terms) <= 1
    monkeypatch.setattr(theta, "_EXP_RANGE", 0)
    assert within_tail_plus_rounding(random_siegel(np.random.default_rng(28)), (7, 7), theta._Terms) <= 1


def test_rounding_bound_dominates_per_term_model():
    # the closed form bounds the per-term sum for every shift at once; at each of these points it is 1.2 to 9.4
    # times the sum at the closest shift: a bound 10 times too small fails at every one of them
    points = [
        SiegelPoint(np.array([[0.2 + 0.05j]])),
        SiegelPoint(np.array([[0.1 + 0.05j, 0.3 + 0.01j], [0.3 + 0.01j, -0.2 + 0.4j]])),
        *(random_siegel(np.random.default_rng(seed), g, base) for seed, g, base in ((2, 2, 0.04), (4, 2, 0.05))),
        *(random_siegel(np.random.default_rng(seed), g, base) for seed, g, base in ((5, 3, 0.05), (7, 3, 0.8))),
        random_siegel(np.random.default_rng(8), 1),
        random_siegel(np.random.default_rng(6), 2),
        random_siegel(np.random.default_rng(9), 2, base=0.2),
        SiegelPoint(300j * np.eye(2) + 0.25),  # summed term by term, as are the two below
        SiegelPoint(np.array([[0.3 + 250j, -0.1 + 120j], [-0.1 + 120j, 0.2 + 260j]])),
        SiegelPoint(300j * np.eye(3) + 0.25),  # where a row's entry sum_j y_j Z_jl gives m_w = 3g + 5 > 2g + 7
    ]
    assert sum(zp.min_im_eig <= 0.06 for zp in points) == 4
    for zp in points:
        theta_null(zp)
        cut = zp._theta_cuts[1e-12]
        assert isinstance(cut, theta._Terms) == (zp.min_im_eig > 100)
        for r in itertools.product((0, 0.25, 0.5, 0.75, 0.999), repeat=zp.g):
            for s in (0, 0.999):
                assert cut.rounding >= per_term_rounding(zp, cut, np.array(r), np.full(zp.g, s))
    assert {type(cut) for zp in points for cut in zp._theta_cuts.values()} == {theta._Factored, theta._Terms}


@pytest.mark.parametrize(
    "z",
    [300j * np.eye(2) + 0.25, np.array([[0.3 + 250j, -0.1 + 120j], [-0.1 + 120j, 0.2 + 260j]])],
)
def test_range_guard_keeps_large_imaginary_parts_finite(z):
    # here the factors exp(2 pi i y_j t_j) would overflow (|y_j| = 2, sum_l |Im Z_jl| >= 300): term by term instead
    zp = SiegelPoint(z)
    for chi in all_characteristics(3, 2):
        got = theta_eval(zp, chi)
        want = direct_sum(z, chi, 3)
        assert np.isfinite(got)
        assert abs(got - want) <= 1e-11 * abs(want)  # exponents near -100 leave about 100 eps
    assert isinstance(zp._theta_cuts[1e-12], theta._Terms)


def test_sign_symmetry():
    rng = np.random.default_rng(3)
    z = random_siegel(rng)
    chi = Characteristic.make([F(1, 5), F(3, 5)], [F(2, 5), F(4, 5)])
    neg = chi.neg()
    assert abs(theta_eval(z, neg) - theta_eval(z, chi)) < 1e-12


def test_translation_by_integers():
    # theta_eval sums the reduced characteristic times e(r.b); the reference sums the shifted one term by term
    rng = np.random.default_rng(4)
    z = random_siegel(rng)
    chi = Characteristic.make([F(1, 4), F(3, 4)], [F(1, 2), F(1, 4)])
    # r moved by (4, -3): summed unreduced, the candidate set misses terms and the sum moves by 0.05
    shifted = Characteristic.make([F(1, 4) + 4, F(3, 4) - 3], [F(1, 2) + 1, F(1, 4) + 3])
    reduced, phase = shifted.reduce()
    assert reduced == chi
    assert phase == RootOfUnity(F(1, 2))  # e(1/4 + 9/4): a dropped phase flips the sign
    assert abs(theta_eval(z, shifted) - direct_sum(z.mat, shifted, 12)) < 1e-12


def test_huge_s_is_reduced_exactly():
    # 10^300 and 10^400 are integers, so [0 0; s 0] is the theta null, reduced on the numerators, never a float
    z = SiegelPoint(1j * np.eye(2))
    for big in (10**300, 10**400):
        chi = Characteristic.make([0, 0], [big, 0])
        assert abs(theta_eval(z, chi) - 1.1803405990161) < 1e-12
        assert abs(phi_eval(chi, z) - 1) < 1e-15
    # 10^300 = 1 mod 3: both characteristics reduce to [1/3 0; 0 0] with the phase e(1/3)
    far = theta_eval(z, Characteristic.make([F(1, 3), 0], [10**300, 0]))
    assert far == theta_eval(z, Characteristic.make([F(1, 3), 0], [1, 0]))


def test_only_a_non_canonical_characteristic_is_reduced(monkeypatch):
    # a canonical call skips reduce on the flag its characteristic set when built; a non-canonical one reduces once
    calls = []
    reduce = Characteristic.reduce
    monkeypatch.setattr(Characteristic, "reduce", lambda chi: calls.append(chi) or reduce(chi))
    z = random_siegel(np.random.default_rng(33))
    for chi in all_characteristics(5, 2):
        phi_eval(chi, z)
    assert calls == []
    chi = Characteristic.make([F(6, 5), 0], [F(-1, 5), 0])
    phi_eval(chi, z)
    assert calls == [chi]


def test_reduce_phase_value():
    chi = Characteristic.make([F(1, 4) + 1, F(3, 4)], [F(1, 2), F(1, 4)])
    reduced, phase = chi.reduce()
    # only r was shifted, so the phase <r_red, b> has b = 0
    assert phase == RootOfUnity.one()
    chi2 = Characteristic.make([F(1, 4), F(3, 4)], [F(1, 2) + 1, F(1, 4)])
    reduced2, phase2 = chi2.reduce()
    assert reduced2 == reduced
    assert phase2 == RootOfUnity(F(1, 4))  # e(<(1/4, 3/4), (1, 0)>)


def test_sigma_minus_classification():
    odd = [chi for chi in all_characteristics(2, 2) if chi.in_sigma_minus()]
    assert len(odd) == 6
    assert Characteristic.make([F(1, 2), 0], [F(1, 2), 0]).in_sigma_minus()
    assert not zero_char(2).in_sigma_minus()
    assert not Characteristic.make([F(1, 2), 0], [0, F(1, 2)]).in_sigma_minus()
    # non-half-integral characteristics never qualify
    assert not Characteristic.make([F(1, 3), 0], [F(1, 3), 0]).in_sigma_minus()


def test_sigma_minus_nulls_vanish():
    rng = np.random.default_rng(9)
    z = random_siegel(rng)
    for chi in all_characteristics(2, 2):
        if chi.in_sigma_minus():
            assert abs(theta_eval(z, chi)) < 1e-12


def test_all_characteristics_counts():
    assert len(list(all_characteristics(2, 2))) == 16
    assert len(list(all_characteristics(3, 2))) == 81
    chars = list(all_characteristics(2, 1))
    assert len(chars) == 4
    assert all(chi.is_canonical() for chi in chars)


def test_characteristic_api():
    chi = Characteristic.make([F(1, 2), 0], [0, F(1, 2)])
    assert chi.g == 2 and chi.den == 2
    assert str(chi) == "[1/2 0; 0 1/2]"
    assert chi.r + chi.s == (F(1, 2), F(0), F(0), F(1, 2))
    assert Characteristic.from_den((1, 0), (0, 1), 2) == chi
    assert chi.neg().reduce()[0] == chi  # 2-torsion


def test_phi_eval_guard_and_consistency():
    rng = np.random.default_rng(12)
    z = random_siegel(rng)
    chi = Characteristic.make([F(1, 4), 0], [0, F(1, 4)])
    null = theta_null(z)
    direct = phi_eval(chi, z)
    assert abs(direct - theta_eval(z, chi) / null) < 1e-13
    assert abs(phi_eval(chi, z, null_value=null) - direct) < 1e-15
    with pytest.raises(ValueError):
        phi_eval(chi, z, null_value=1e-12)


def test_settings_tolerance_tightens_radius():
    z = SiegelPoint(np.eye(2) * 0.15j)
    chi = zero_char(2)
    loose = theta_eval(z, chi, settings=EvalSettings(tol=1e-6))
    tight = theta_eval(z, chi, settings=EvalSettings(tol=1e-14))
    assert abs(loose - tight) < 1e-6


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_settings_reject_tolerances_that_are_not_positive_finite(tol):
    with pytest.raises(ValueError, match="positive finite"):
        EvalSettings(tol=tol)


def test_small_imaginary_part_rejected():
    z = SiegelPoint(np.eye(2) * 1e-7j)  # needs a truncation radius far beyond MAX_RADIUS = 200
    with pytest.raises(ValueError, match="truncation radius exceeds 200"):
        theta_eval(z, zero_char(2), settings=EvalSettings(tol=1e-12))


@pytest.mark.parametrize("scale, g", [(1, 10), (0.001, 3), (0.01, 4)])
def test_oversized_candidate_box_rejected(scale, g):
    # MAX_RADIUS allows all three; their boxes hold 6.2e10, 1.3e7 and 3.7e7 candidates, refused before any is built
    with pytest.raises(ValueError, match=f"candidates at genus {g}, more than 1000000"):
        theta_eval(SiegelPoint(scale * 1j * np.eye(g)), zero_char(g))


def test_random_siegel_is_valid():
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = random_siegel(rng)
        assert isinstance(z, SiegelPoint)
        assert z.min_im_eig > 0
        assert np.allclose(z.mat, z.mat.T)


# -- the integer representation against the Fraction definitions -------------


raw_chars = st.integers(1, 3).flatmap(
    lambda g: st.tuples(
        st.lists(st.integers(-30, 30), min_size=g, max_size=g),
        st.lists(st.integers(-30, 30), min_size=g, max_size=g),
        st.integers(1, 12),
    )
)


@hsettings(max_examples=80, deadline=None)
@given(raw_chars)
def test_from_den_matches_make_and_round_trips(raw):
    rn, sn, den = raw
    chi = Characteristic.from_den(rn, sn, den)
    r, s = tuple(F(v, den) for v in rn), tuple(F(v, den) for v in sn)
    assert chi == Characteristic.make(r, s)
    assert hash(chi) == hash(Characteristic.make(r, s))
    assert chi.r == r and chi.s == s
    assert Characteristic.make(chi.r, chi.s) == chi
    assert all(type(v) is int for v in chi.num) and chi.den > 0
    assert np.gcd.reduce([chi.den, *chi.num]) == 1
    assert chi.den == np.lcm.reduce([v.denominator for v in r + s])


@hsettings(max_examples=80, deadline=None)
@given(raw_chars)
def test_reduce_matches_fraction_reference(raw):
    chi = Characteristic.from_den(*raw)
    assert chi.reduce() == fraction_reduce(chi)
    assert chi.in_sigma_minus() == fraction_in_sigma_minus(chi)
    assert chi.reduce()[0].is_canonical()
    assert chi.neg() == Characteristic.make([-v for v in chi.r], [-v for v in chi.s])


@hsettings(max_examples=80, deadline=None)
@given(raw_chars)
def test_canonical_flag_is_set_when_built(raw):
    chi = Characteristic.from_den(*raw)
    red = chi.reduce()[0]
    assert chi.is_canonical() == all(0 <= v < chi.den for v in chi.num)
    assert red.is_canonical() and all(0 <= v < red.den for v in red.num)
    # reduce skips normalising: it must equal, and hash like, the normalising constructor's result
    built = Characteristic(tuple(v % chi.den for v in chi.num), chi.den)
    assert red == built and hash(red) == hash(built)
    assert (red.num, red.den) == (built.num, built.den)


@hsettings(max_examples=80, deadline=None)
@given(raw_chars, st.integers(1, 24))
def test_scaled_raises_exactly_off_the_lattice(raw, n):
    chi = Characteristic.from_den(*raw)
    if all((n * v).denominator == 1 for v in chi.r + chi.s):
        assert chi.scaled(n) == [int(n * v) for v in chi.r + chi.s]
    else:
        with pytest.raises(ValueError):
            chi.scaled(n)


def test_numpy_denominator_is_read_as_an_int():
    chi = Characteristic((1, 2, 3, 4), np.int64(5))
    assert chi == Characteristic((1, 2, 3, 4), 5) and type(chi.den) is int
    assert all(type(v) is int for v in Characteristic((np.int64(2), 4, 6, 8), np.int64(10)).num + (chi.den,))


def test_unreduced_numerators_normalise():
    chi = Characteristic.from_den([2, 0], [0, 0], 4)
    assert chi == Characteristic.make([F(1, 2), 0], [0, 0])
    assert hash(chi) == hash(Characteristic.make([F(1, 2), 0], [0, 0]))
    assert (chi.num, chi.den) == ((1, 0, 0, 0), 2)
    assert Characteristic.from_den([3, 6], [9, 0], 3) == Characteristic((1, 2, 3, 0), 1)
    assert Characteristic.from_den([3, 6], [9, 0], 3).reduce()[0] == zero_char(2)
    with pytest.raises(ValueError):
        Characteristic.from_den([1, 0], [0, 0], 0)
    with pytest.raises(ValueError):
        Characteristic.from_den([1, 0], [0, 0], -2)
    with pytest.raises(ValueError):
        Characteristic.from_den([1, 0], [0], 2)
    with pytest.raises(ValueError):
        Characteristic.make([F(1, 2)], [0, 0])
    # numerators are read through operator.index: a float or a Fraction is a TypeError, never truncated
    with pytest.raises(TypeError):
        Characteristic((0.5, 0, 0, 0), 1)
    with pytest.raises(TypeError):
        Characteristic((F(1, 2), 0, 0, 0), 1)
    assert repr(chi) == "Characteristic(num=(1, 0, 0, 0), den=2)"


def test_genus_mismatch_is_a_value_error():
    z = 1j * np.eye(2)
    for chi in (zero_char(1), zero_char(3), Characteristic.make([F(7, 3)], [F(-1, 3)])):
        with pytest.raises(ValueError, match="genus"):
            theta_eval(z, chi)
        with pytest.raises(ValueError, match="genus"):
            phi_eval(chi, z)


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("g", [1, 2])
def test_sigma_minus_matches_fraction_reference(n, g):
    chars = list(all_characteristics(n, g))
    assert len(set(chars)) == n ** (2 * g)
    assert [chi.in_sigma_minus() for chi in chars] == [fraction_in_sigma_minus(chi) for chi in chars]
