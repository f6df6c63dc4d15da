import itertools
import math
from fractions import Fraction as F
from operator import mul

import numpy as np
import pytest

from cmtheta import cmfield, symplectic
from cmtheta.action import ActionResult, act_phi
from cmtheta.cmfield import (
    GaloisActor,
    _BASIS,
    artin_action,
    belong_criterion,
    closed_phase,
    field_norm,
    h_map,
    is_odd_prime,
    reflex_norm,
    riemann_form,
    shared_actor,
    standard_actors,
)
from cmtheta.exact import CycloElem, RootOfUnity
from cmtheta.symplectic import _columns, _form, _g_multiplier, _j_form, act_siegel, intmat, is_symplectic, jmat
from cmtheta.theta import Characteristic, theta_eval

from reference import fraction_act_phi, fraction_reduce, h_map_by_solves, paper_first_row, reference_memberships

ZETA = CycloElem.zeta(5)


def test_field_norm_values():
    assert field_norm(1 + 2 * ZETA) == 11
    assert field_norm(CycloElem.from_rational(5, 2)) == 16
    for p in (3, 5, 7):
        assert field_norm(1 + 2 * p * ZETA) == 16 * p**4 - 8 * p**3 + 4 * p**2 - 2 * p + 1


def test_reflex_norm():
    assert reflex_norm(ZETA) == ZETA**4
    x = 1 + ZETA
    assert reflex_norm(x) == x * x.galois(3)
    # multiplicative
    y = 2 - ZETA**2
    assert reflex_norm(x * y) == reflex_norm(x) * reflex_norm(y)


def test_h_map_reference():
    assert (h_map(ZETA) == intmat([[0, 0, -1, 1], [-1, -1, 0, -1], [1, 0, 0, 0], [1, 1, 0, 0]])).all()
    assert (h_map(CycloElem.from_rational(5, 1)) == np.eye(4, dtype=int)).all()


def test_h_map_matches_solve_definition():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = CycloElem(5, [int(v) for v in rng.integers(-9, 10, 4)])
        h = h_map(x)
        assert [[h[j, k] for k in range(4)] for j in range(4)] == h_map_by_solves(x)
        assert all(type(v) is int for v in h.flat)


def test_h_map_is_ring_homomorphism():
    rng = np.random.default_rng(8)
    for _ in range(5):
        x = CycloElem(5, [int(v) for v in rng.integers(-3, 4, 4)])
        y = CycloElem(5, [int(v) for v in rng.integers(-3, 4, 4)])
        assert (h_map(x * y) == h_map(x) @ h_map(y)).all()
        assert (h_map(x + y) == h_map(x) + h_map(y)).all()


def test_reflex_norm_scales_symplectic_form():
    # y = phi*(x) satisfies y conj(y) = N(x) in Q, so t(h(y)) J h(y) = N(x) J
    # over the integers
    rng = np.random.default_rng(19)
    j = jmat(2)
    for _ in range(5):
        x = CycloElem(5, [int(v) for v in rng.integers(-2, 3, 4)])
        if field_norm(x) == 0:
            continue
        h = intmat(h_map(reflex_norm(x)))
        assert (h.T @ j @ h == int(field_norm(x)) * j).all()
        assert reflex_norm(x) * reflex_norm(x).galois(4) == CycloElem.from_rational(5, field_norm(x))


def test_riemann_form_is_standard(ctx):
    j = jmat(2)
    for a, ba in enumerate(ctx.basis):
        for b, bb in enumerate(ctx.basis):
            e = riemann_form(ba, bb)
            assert e == j[a, b]
            assert e == -riemann_form(bb, ba)
    assert riemann_form(ctx.basis[0], ctx.basis[2]) == -1
    assert riemann_form(ctx.basis[0], ctx.basis[1]) == 0
    assert riemann_form(ctx.basis[2], ctx.basis[0]) == 1


def test_cm_point_reference(ctx):
    z0 = ctx.z0.mat
    expect = np.array(
        [
            [1.1755705046j, -0.1909830056 - 0.5877852523j],
            [-0.1909830056 - 0.5877852523j, -0.3090169944 + 0.9510565163j],
        ]
    )
    assert np.abs(z0 - expect).max() < 1e-9
    assert ctx.z0.min_im_eig > 0.05
    assert abs(ctx.null0 - (1.0502862579537884 - 0.1663490011465624j)) < 1e-10


def test_cm_point_negated_by_beta(ctx):
    beta = intmat([[0, 0, 1, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 1, 0, 0]])
    assert is_symplectic(beta)
    moved = act_siegel(beta, ctx.z0)
    assert np.abs(moved.mat + ctx.z0.mat.conjugate()).max() < 1e-10


def test_period_matrix_conjugation(ctx):
    # complex conjugation permutes the embeddings: conj(Omega) = Omega alpha
    alpha = np.array([[0, 0, 0, 1], [0, 0, 1, 1], [-1, 1, 0, 0], [1, 0, 0, 0]])
    omega = np.array([[b.embed(t) for b in ctx.basis] for t in (1, 2)])
    assert np.abs(omega.conj() - omega @ alpha).max() < 1e-12


def test_standard_actor_congruences():
    z = ZETA
    for p in (3, 5, 7):
        level = 2 * p * p
        x1, x2 = standard_actors(p)
        a1 = GaloisActor.build(x1, p)
        a2 = GaloisActor.build(x2, p)
        # reflex norm of x1 is 1 + 2p(z + z^3) up to a multiple of 2p^2
        diff = reflex_norm(x1) - (1 + 2 * p * (z + z**3))
        assert all(c % level == 0 for c in diff.coeffs)
        assert a1.nu == a2.nu == (1 - 2 * p) % level
        assert a1.in_group and a2.in_group
        assert math.gcd(a1.norm, 2 * p) == 1


def test_first_row_matches_paper_quadratic_forms():
    rng = np.random.default_rng(10)
    for _ in range(300):
        coords = [int(v) for v in rng.integers(-6, 7, 5)]
        for p in (3, 7):
            assert belong_criterion(coords, p).first_row == paper_first_row(coords)


def test_actor_first_row_and_build_guards():
    assert tuple(GaloisActor.build(1 + 2 * ZETA, 3).h_matrix[0]) == paper_first_row([1, 2, 0, 0, 0])
    with pytest.raises(ValueError):
        GaloisActor.build(ZETA / 2, 3)  # not integral
    with pytest.raises(ValueError, match="algebraic integer"):
        h_map(ZETA / 2)
    with pytest.raises(ValueError):
        GaloisActor.build(ZETA, 4)  # even p
    with pytest.raises(ValueError, match="odd prime"):
        GaloisActor.build(ZETA, 9)  # odd, not prime
    with pytest.raises(ValueError):
        belong_criterion([1, 2, 0, 0], 3)  # four coordinates
    chi = Characteristic.from_den([1, 0], [0, 1], 7)
    for p in (7.0, "7", F(7)):  # not integers, however prime their value
        assert not is_odd_prime(p)
        for call in (lambda: belong_criterion([1, 2, 2, 0, 0], p), lambda: GaloisActor.build(ZETA, p)):
            with pytest.raises(ValueError, match="odd prime"):
                call()
        with pytest.raises(ValueError, match="odd prime"):
            artin_action(1 + 2 * ZETA, p, chi)
    assert is_odd_prime(np.int64(7))
    assert belong_criterion([1, 2, 2, 0, 0], np.int64(7)) == belong_criterion([1, 2, 2, 0, 0], 7)


def test_numpy_prime_is_read_as_an_int():
    # p is read once, as an int, so the actor and its belong result carry no numpy scalar
    actor = GaloisActor.build(1 + 14 * ZETA, np.int64(7))
    assert actor == GaloisActor.build(1 + 14 * ZETA, 7) and type(actor.p) is int
    assert [type(v) for v in actor.belong()] == [tuple, int, int, bool, int, bool, bool]


def test_numpy_coordinates_stay_exact():
    # numpy integer coordinates enter CycloElem as Python ints, so the norm of order 10^20 does not wrap at 2^63
    coords = (100003, -70001, 50000, 3, 9)
    res = belong_criterion([np.int64(v) for v in coords], 7)
    assert res == belong_criterion(list(coords), 7)
    assert res.norm == 105_749_126_792_370_432_131
    assert all(type(v) is int for v in (*res.first_row, res.value, res.value_mod_p, res.norm))


@pytest.mark.parametrize("coords", [[1, F(5, 2), 2, 0, 0], [1, 2.9, 2, 0, 0]])
def test_belong_rejects_non_integral_coordinates(coords):
    # int() would truncate both to [1, 2, 2, 0, 0]
    with pytest.raises(ValueError, match="algebraic integer"):
        belong_criterion(coords, 7)


def test_cm_input_checks_survive_optimize_flag(optimized):
    # field_norm(CycloElem.zeta(7)), belong_criterion([1, 5/2, 2, 0, 0], 7) and belong_criterion([1, 2.9, 2, 0, 0], 7)
    assert optimized["cm_input_checks"] == ["ValueError", "ValueError", "ValueError"]


def test_float_p_check_survives_optimize_flag(optimized):
    # belong_criterion([1, 2, 2, 0, 0], 7.0) and GaloisActor.build(zeta, 7.0)
    assert optimized["float_p"] == ["ValueError", "ValueError"]


def test_artin_matches_closed_form_exactly():
    rng = np.random.default_rng(44)
    for p in (3, 5, 7):
        x1, x2 = standard_actors(p)
        grid = [(a, b, c, d) for a in range(3) for b in range(3) for c in range(3) for d in range(3)] if p == 3 else [
            tuple(int(v) for v in rng.integers(0, p, 4)) for _ in range(12)
        ]
        for a, b, c, d in grid:
            chi = Characteristic.from_den([a, b], [c, d], p)
            for which, x in ((1, x1), (2, x2)):
                res = artin_action(x, p, chi)
                assert res.chi_out == chi
                assert res.multiplier == closed_phase(which, chi, p)


def test_second_closed_form_cross_term():
    # the -6ad cross term of the second closed form is invisible mod 3 but
    # real at p = 5: dropping it changes the phase by e(-6ad/p)
    def without_cross(coords, p):
        a, b, c, d = coords
        f = -a * a + 4 * a * b - 4 * a * c - b * b + 4 * b * c - c * c + 2 * c * d + 2 * d * d
        return RootOfUnity(F(f, p))

    chi = Characteristic.from_den([1, 3], [2, 1], 5)
    truncated = without_cross((1, 3, 2, 1), 5)
    assert closed_phase(2, chi, 5) == truncated * RootOfUnity(F(-6 * 1 * 1, 5))
    assert closed_phase(2, chi, 5) != truncated
    chi3 = Characteristic.from_den([1, 0], [0, 1], 3)
    assert closed_phase(2, chi3, 3) == without_cross((1, 0, 0, 1), 3)


def test_closed_phase_validation():
    chi = Characteristic.from_den([1, 0], [0, 1], 3)
    with pytest.raises(ValueError):
        closed_phase(3, chi, 3)
    with pytest.raises(ValueError):
        closed_phase(1, Characteristic.make([F(1, 2), 0], [0, 0]), 3)  # not (1/3)-integral


def test_artin_rejects_bad_actors():
    chi = Characteristic.from_den([1, 0], [0, 1], 5)
    with pytest.raises(ValueError):
        artin_action(ZETA - 1, 5, chi)  # norm 5 shares a factor with 2p
    with pytest.raises(ValueError):
        artin_action(CycloElem.from_rational(5, 2), 5, chi)  # norm 16 is even


def test_actor_act_rejects_bad_actors():
    # the checks live in GaloisActor.act: building the actor succeeds, acting does not; zeta has norm 1,
    # prime to 2p, but h(phi*(zeta)) = h(zeta^4) fails the parity rule of G_{2p^2}
    chi = Characteristic.from_den([1, 0], [0, 1], 5)
    bad = [(ZETA - 1, "not prime to 2p"), (CycloElem.from_rational(5, 2), "not prime to 2p"), (ZETA, "not in G_")]
    for x, match in bad:
        actor = GaloisActor.build(x, 5)
        with pytest.raises(ValueError, match=match):
            actor.act(chi)


def test_actor_act_guards_survive_optimize_flag(optimized):
    # GaloisActor.act at p = 5 for x = zeta - 1 (norm 5, not prime to 2p) and x = zeta (h outside G_{2p^2})
    assert optimized["actor_act_guards"] == ["ValueError", "ValueError"]


def test_fused_action_matches_the_raw_action_reduced():
    # act reduces its image in the same pass as the move; seeded examples, so a mutant fails fast
    rng = np.random.default_rng(36)
    collapsed = 0
    for p in (3, 5, 7, 11, 13):
        actors = []
        for _ in range(400):
            actor = GaloisActor.build(CycloElem(5, [int(v) for v in rng.integers(-4, 5, 4)]), p)
            if actor.in_group and math.gcd(actor.norm, 2 * p) == 1:
                actors.append(actor)
            if len(actors) == 3:
                break
        assert len(actors) == 3, f"only {len(actors)} usable actors at p = {p} in 400 draws"
        chis = [Characteristic([int(v) for v in rng.integers(-3 * p, 3 * p + 1, 4)], p) for _ in range(8)]
        chis.append(Characteristic([p, -3 * p, 2 * p, 0], p))  # integral, so its image is 0 mod p
        for actor in actors:
            h = actor.h_matrix
            for chi in chis:
                got = actor.act(chi)
                assert got == act_phi(h, chi, p).canonical()
                raw = fraction_act_phi(h, chi, p)
                red, extra = fraction_reduce(raw.chi_out)
                assert got == ActionResult(raw.multiplier * extra, red)
                collapsed += got.chi_out.den == 1
    assert collapsed == 15  # the integral chi at each actor: its image collapses to denominator 1


def test_actor_image_is_in_lowest_terms():
    # act builds its image with Characteristic._make, taking gcd(p, *image) = 1 for p prime and a nonzero image
    for p in (3, 5, 7):
        for x in standard_actors(p):
            actor = GaloisActor.build(x, p)
            for num in itertools.product(range(p), repeat=4):
                if not any(num):
                    continue
                out = actor.act(Characteristic(num, p)).chi_out
                ref = Characteristic(list(out.num), out.den)
                assert (out.num, out.den, out._canonical) == (ref.num, p, ref._canonical) and ref.den == p


def test_actor_act_reuses_the_built_multiplier():
    # GaloisActor.build derives nu once and act reads it: a forged nu moves the phase by e((nu' - nu) tr s / 2)
    chis = [Characteristic.from_den([1, 2], [3, 4], 5), Characteristic.from_den([0, 4], [2, 0], 5)]
    for x in standard_actors(5):
        actor = GaloisActor.build(x, 5)
        forged = actor._replace(nu=actor.nu + 2)
        for chi in chis:
            got = actor.act(chi)
            assert got == act_phi(actor.h_matrix, chi, 5).canonical()
            assert got == act_phi(actor.h_matrix % 50, chi, 5).canonical()
            x5 = chi.scaled(5)
            shift = RootOfUnity(F(2 * sum(map(mul, x5[:2], x5[2:])), 50))
            assert forged.act(chi) == ActionResult(got.multiplier * shift, got.chi_out)


def test_actor_build_matches_definitional_composition():
    rng = np.random.default_rng(37)
    cases = []
    for p in (q for q in range(3, 32) if is_odd_prime(q)):
        ys = [CycloElem(5, [int(v) for v in rng.integers(-30, 31, 5)]) for _ in range(3)]
        cases += [(CycloElem(5, [0] * 5), p), *((x, p) for x in standard_actors(p))]
        cases += [(y, p) for y in ys] + [(2 * ys[0], p), (p * ys[1], p)]  # norms divisible by 2 and by p
    in_group = 0
    for x, p in cases:
        actor = GaloisActor.build(x, p)
        h = actor.h_matrix
        assert all(type(v) is int for v in h.flat)
        # the definition of h, in CycloElem arithmetic: r xi_j = sum_k h[j, k] xi_k for r = x sigma_3(x)
        r = x * x.galois(3)
        for j, xj in enumerate(_BASIS):
            assert r * xj == sum((h[j, k] * xk for k, xk in enumerate(_BASIS)), CycloElem(5, [0]))
        assert actor.nu == _g_multiplier(_columns(h), 2 * p * p)
        assert actor.norm == field_norm(x) and type(actor.norm) is int
        in_group += actor.in_group
    assert 20 <= in_group < len(cases)


def test_actor_membership_worked_examples():
    # nu is N(x) mod 2p^2 when N(x) is prime to 2p and tAC, tBD have even diagonals; checked against the definition
    two, three, five = (CycloElem.from_rational(5, v) for v in (2, 3, 5))
    cases = [
        (1 + 2 * ZETA, 7, 11),  # N = 11
        (five, 7, 625 % 98),  # N = 625
        (ZETA, 7, None),  # N = 1, but h(zeta^4) has an odd diagonal
        (two, 7, None),  # N = 16 is even; the diagonals are even
        (three, 3, None),  # N = 81 shares p; the diagonals are even
        (five, 5, None),
    ]
    for x, p, nu in cases:
        actor = GaloisActor.build(x, p)
        assert actor.nu == nu
        ref_nu, _, even = reference_memberships(actor.h_matrix, 2 * p * p)
        assert actor.nu == (ref_nu if even else None)


def test_actor_norm_is_the_exact_similitude_of_h():
    # t(h) J h = N(x) J holds exactly, so build tests no form identity; here it is tested, at full size
    rng = np.random.default_rng(370)
    xs = [CycloElem(5, [int(v) for v in rng.integers(-30, 31, 5)]) for _ in range(40)]
    for _ in range(40):  # coordinates near +-10**40
        high, low = rng.integers(-9, 10, 5), rng.integers(-9, 10, 5)
        xs.append(CycloElem(5, [int(v) * 10**40 + int(w) for v, w in zip(high, low)]))
    norms = []
    for x in xs:
        actor = GaloisActor.build(x, 3)
        assert actor.norm == field_norm(x)
        assert _form(actor.cols) == [actor.norm * j for j in _j_form(4)]
        norms.append(actor.norm)
    assert max(norms) > 10**150


def test_actor_nu_matches_the_full_membership_test():
    # the three outcomes of build against _g_multiplier, which also tests t(h) J h = nu J mod 2p^2
    rng = np.random.default_rng(371)
    primes = [q for q in range(3, 32) if is_odd_prime(q)]
    outcomes = {"in group": 0, "odd diagonal": 0, "norm not prime to 2p": 0}
    for _ in range(3000):
        x = CycloElem(5, [int(v) for v in rng.integers(-30, 31, 5)])
        p = primes[rng.integers(len(primes))]
        actor = GaloisActor.build(x, p)
        assert actor.nu == _g_multiplier(actor.cols, 2 * p * p)
        if math.gcd(actor.norm, 2 * p) != 1:
            outcomes["norm not prime to 2p"] += 1
        else:
            outcomes["in group" if actor.in_group else "odd diagonal"] += 1
    assert min(outcomes.values()) >= 300, outcomes


def test_actor_build_takes_one_similitude_and_no_form_identity(monkeypatch):
    # build reads the one entry N(x) and no form; _g_multiplier reads nu off its one form pass, with no similitude
    calls = {"similitude": 0, "form": 0}

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    similitude = counted("similitude", symplectic._similitude)
    monkeypatch.setattr(symplectic, "_similitude", similitude)
    monkeypatch.setattr(cmfield, "_similitude", similitude)
    monkeypatch.setattr(symplectic, "_form", counted("form", symplectic._form))
    for x in standard_actors(7):
        GaloisActor.build(x, 7)
    assert calls == {"similitude": 2, "form": 0}
    cols = GaloisActor.build(ZETA, 7).cols
    assert calls == {"similitude": 3, "form": 0}
    _g_multiplier(cols, 98)  # the patches see the full membership test
    assert calls == {"similitude": 3, "form": 1}


def test_actor_reads_h_once(monkeypatch):
    # build reads h(phi*(x)) straight off the Z-linear table as Python ints; act and belong read those
    calls = []

    def counted(m):
        calls.append(1)
        return intmat(m)

    monkeypatch.setattr(symplectic, "intmat", counted)
    chi = Characteristic.from_den([1, 2], [3, 4], 5)
    for x in standard_actors(5):
        actor = GaloisActor.build(x, 5)
        for _ in range(3):
            actor.act(chi)
        actor.belong()
    assert calls == []


@pytest.fixture
def fresh_actors():
    """shared_actor emptied before and after the test, so its counts are the test's own."""
    shared_actor.cache_clear()
    yield
    shared_actor.cache_clear()


def test_shared_actor_is_built_once_per_x_and_p(monkeypatch, fresh_actors):
    built = []
    build = GaloisActor.build.__func__
    monkeypatch.setattr(GaloisActor, "build", classmethod(lambda cls, x, p: built.append((x, p)) or build(cls, x, p)))
    x1, x2 = standard_actors(5)
    first = shared_actor(x1, 5)
    assert shared_actor(1 + 10 * ZETA, 5) is first  # an equal x that is another object
    assert shared_actor(x2, 5) is not first
    assert built == [(x1, 5), (x2, 5)]
    with pytest.raises(ValueError, match="odd prime"):
        shared_actor(x1, 9)
    assert shared_actor.cache_info().currsize == 2  # a failed build is not kept


def test_shared_actor_is_per_prime(fresh_actors):
    x = standard_actors(3)[0]  # 1 + 6 zeta, of norm 1111
    a3, a7 = shared_actor(x, 3), shared_actor(x, 7)
    assert a3 is not a7 and (a3.p, a7.p) == (3, 7)
    assert a3.nu == GaloisActor.build(x, 3).nu == 13 and a7.nu == GaloisActor.build(x, 7).nu == 33
    assert shared_actor(x, 3) is a3


def test_shared_actor_keeps_the_most_recently_used(fresh_actors):
    size = shared_actor.cache_info().maxsize
    xs = [1 + 2 * k * ZETA for k in range(size + 1)]
    first = shared_actor(xs[0], 3)
    for x in xs[1:size]:
        shared_actor(x, 3)
    assert shared_actor(xs[0], 3) is first  # a hit makes xs[0] the most recent, so xs[1] is next out
    shared_actor(xs[size], 3)
    assert shared_actor.cache_info()[:] == (1, size + 1, size, size)  # hits, misses, maxsize, currsize
    assert shared_actor(xs[0], 3) is first
    assert shared_actor.cache_info().hits == 2
    shared_actor(xs[1], 3)
    assert shared_actor.cache_info().misses == size + 2


def test_artin_action_matches_a_fresh_actor_on_hits_and_misses(fresh_actors):
    rng = np.random.default_rng(61)
    for p in (3, 5, 7):
        for x in (*standard_actors(p), 1 + 42 * ZETA):
            for _ in range(2):  # a miss, then a hit
                chi = Characteristic.from_den(*(list(map(int, rng.integers(0, p, 2))) for _ in range(2)), p)
                assert artin_action(x, p, chi) == GaloisActor.build(x, p).act(chi)
    assert shared_actor.cache_info()[:] == (9, 9, 64, 9)


def test_artin_action_reuses_the_standard_actors(fresh_actors):
    # the reuse the artin workload relies on: N calls on 10 standard actors build each once
    rng = np.random.default_rng(67)
    calls = 0
    for p in (3, 5, 7, 11, 13):
        for which, x in enumerate(standard_actors(p), 1):
            for _ in range(8):
                chi = Characteristic.from_den(*(list(map(int, rng.integers(0, p, 2))) for _ in range(2)), p)
                assert artin_action(x, p, chi) == ActionResult(closed_phase(which, chi, p), chi)
                calls += 1
    assert shared_actor.cache_info().hits == calls - 10
    assert shared_actor.cache_info().misses == 10


def test_belong_worked_examples():
    res = belong_criterion([1, 2, 2, 0, 0], 7)
    assert res.first_row == (-1, 0, 0, -2)
    assert res.value == -6
    assert not res.satisfied and res.value_mod_p == 1
    assert belong_criterion([1, 2, 2, 0, 0], 3).satisfied  # -6 = 0 mod 3
    lone = belong_criterion([1, 2, 0, 0, 0], 7)
    assert lone.first_row == (-1, -2, 2, 0) and lone.value == 0 and lone.satisfied
    triv = belong_criterion([1, 0, 0, 0, 0], 7)
    assert triv.first_row == (1, 0, 0, 0) and triv.value == 0


def test_belong_reports_arithmetic_flags():
    res = belong_criterion([1, 2, 2, 0, 0], 7)
    assert res.norm == field_norm(1 + 2 * ZETA + 2 * ZETA**2)
    assert res.norm_prime_to_2p == (math.gcd(res.norm, 14) == 1)


def test_reality_reference_values(ctx):
    # e(-<r,s>/2) Phi_[r;s](Z0) is real when s = (r1 - r2, -r1)
    frozen = {
        (F(1, 3), F(2, 3)): -0.2175869005,
        (F(2, 3), F(2, 3)): -0.8136723259,
    }
    for r, expect in frozen.items():
        s = (r[0] - r[1], -r[0])
        chi = Characteristic.make(r, s)
        phase = RootOfUnity(-sum((rv * sv for rv, sv in zip(r, s)), F(0)) / 2).value()
        val = phase * theta_eval(ctx.z0, chi) / ctx.null0
        assert abs(val.imag) < 1e-12
        assert abs(val.real - expect) < 1e-8
