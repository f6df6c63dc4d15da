"""Seeded input generation for the cmtheta benchmark.

Every workload's inputs come from `generate(workload, seed)` and are plain
Python/numpy data: integers, tuples and complex matrices.  Nothing here imports
cmtheta, so the program under test only ever sees the generated values; the
same seed always gives the same inputs.
"""
from __future__ import annotations

import math

import numpy as np

# Sizes of one pass of each workload.  A pass is the fixed amount of work that
# `wall_s` times; a run repeats it for the requested number of seconds.
VERIFY_PRIMES = (3, 5, 7, 11, 13)
TABLE_PRIMES = (3, 5, 7)
TABLE_POINTS_G2 = 2  # seeded g=2 points, each with all p^4 constants for p in TABLE_PRIMES
TABLE_POINTS_G3 = 1  # seeded g=3 points, each with all 3^6 constants
ARTIN_PRIMES = (3, 5, 7, 11, 13)
ARTIN_CHARS_PER_PRIME = 32  # each characteristic is acted on by both standard actors
ARTIN_BELONG_PER_PRIME = 48
TOWER_CONDUCTORS = (8, 12, 15, 16, 20, 24, 25)
TOWER_CANDIDATES = 64  # drawn per conductor; the first of degree > 1 fill the NORM_PARAMS slots
# The tower fields and the norm-combinator parameters come from this fixed
# stream and table, not from --seed: one Q(zeta_25) tower's combine_norm costs
# from 6 ms to 200 ms depending on its subgroups, exponents and coefficients, so
# seeding them would make a pass's time a property of the seed.  The seed draws
# the trace-combinator coefficients and the rel_trace_norm cases.
TOWER_FIELDS_SEED = 0
# (a, b, c, d, n, m) for combine_norm, one tower slot per row within a conductor
NORM_PARAMS = (
    (3, 1, 5, 2, 1, 1),
    (5, 2, -7, 3, 1, 2),
    (-7, 3, 3, 1, 2, 1),
    (3, 1, -7, 3, 2, 2),
    (5, 2, 7, -3, 1, 1),
    (-3, 1, 5, -2, 1, 2),
)
REL_PER_PASS = 4  # rel_trace_norm cases in Q(zeta_25), each run as trace and norm

TRACE_COEFFS = ((1, 1), (-1, 1), (2, 1), (-2, 1), (1, 5))  # (numerator, denominator)
MOD_LEVELS = (2, 4)
MOD_FAMILIES_PER_LEVEL = 80  # seeded Gamma(n)-modular families, drawn like the passing-family check
MOD_WORDS_PER_FAMILY = 8
OVERLAP_DENOMINATORS = (3, 5)  # act_phi against gamma_multiplier on Gamma(2m^2)
OVERLAP_PER_DENOMINATOR = 200
GAMMA_KINDS = ("upper", "lower", "mixed")


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def siegel_point(rng: np.random.Generator, g: int, base: float = 0.8) -> np.ndarray:
    """A point of H_g drawn like cmtheta.random_siegel, then with Im Z shifted so
    that its smallest eigenvalue is exactly `base`.

    The theta truncation radius depends only on that eigenvalue, so every seed
    sums the same number of lattice terms: the seed changes values, not work.
    """
    x = rng.uniform(-0.5, 0.5, (g, g))
    l = rng.uniform(-0.4, 0.4, (g, g))
    y = l @ l.T
    y += (base - np.linalg.eigvalsh(y).min()) * np.eye(g)
    return (x + x.T) / 2 + 1j * y


def _units(n: int) -> list[int]:
    return [a for a in range(1, n) if math.gcd(a, n) == 1]


def verify_inputs(seed: int) -> dict:
    return {"seed": seed, "primes": VERIFY_PRIMES}


def theta_table_inputs(seed: int) -> dict:
    rng = _rng(seed, 1)
    return {
        "primes": TABLE_PRIMES,
        "points_g2": [siegel_point(rng, 2) for _ in range(TABLE_POINTS_G2)],
        "points_g3": [siegel_point(rng, 3) for _ in range(TABLE_POINTS_G3)],
    }


def artin_inputs(seed: int) -> dict:
    """("action", p, which, (a, b, c, d)) and ("belong", p, coords) operations."""
    rng = _rng(seed, 2)
    ops = []
    for p in ARTIN_PRIMES:
        for _ in range(ARTIN_CHARS_PER_PRIME):
            nums = tuple(int(v) for v in rng.integers(0, p, 4))
            ops.append(("action", p, 1, nums))
            ops.append(("action", p, 2, nums))
        for _ in range(ARTIN_BELONG_PER_PRIME):
            while True:
                coords = tuple(int(v) for v in rng.integers(-3, 4, 5))
                if len(set(coords)) > 1:  # all-equal coordinates give x = 0
                    break
            ops.append(("belong", p, coords))
    return {"ops": ops}


def _gamma_word(rng: np.random.Generator, length: int, g: int = 2) -> tuple:
    """A word of `length` distinguished generators of Gamma(n): ((kind, j, k), ...), 1-based j, k."""
    return tuple(
        (GAMMA_KINDS[int(rng.integers(0, 3))], int(rng.integers(1, g + 1)), int(rng.integers(1, g + 1)))
        for _ in range(length)
    )


def _char_nums(rng: np.random.Generator, den: int, g: int = 2, even: bool = True) -> tuple:
    """(r numerators, s numerators) of a characteristic with denominator den.

    With `even`, the half-integral characteristics whose theta constant vanishes
    identically (2r, 2s integral and 4 r.s odd) are drawn again.
    """
    while True:
        r = tuple(int(v) for v in rng.integers(0, den, g))
        s = tuple(int(v) for v in rng.integers(0, den, g))
        half = all(2 * v % den == 0 for v in r + s)
        if not (even and half and sum((2 * a // den) * (2 * b // den) for a, b in zip(r, s)) % 2):
            return r, s


def modularity_inputs(seed: int) -> dict:
    """Gamma(n)-modular families with words of Gamma(n), and (word, characteristic) pairs.

    A family is a list of (r, s, exponent) terms over denominator n:
    Phi_chi^{2n} Phi_chi2^n Phi_chi3^n with chi2 = [r2; s2] and chi3 = [r2; -s2], as
    in the passing-family check.  Such products are modular for Gamma(n)
    whatever chi and chi2 are.  The seed draws characteristics and generators;
    the family shapes and word lengths are fixed, because the cost of a
    gamma_multiplier call grows with the number of terms: the seed changes
    values, not work.
    """
    rng = _rng(seed, 4)
    families = []
    for n in MOD_LEVELS:
        for _ in range(MOD_FAMILIES_PER_LEVEL):
            (r, s), (r2, s2) = _char_nums(rng, n), _char_nums(rng, n)
            terms = [(r, s, 2 * n), (r2, s2, n), (r2, tuple(-v % n for v in s2), n)]
            words = [_gamma_word(rng, 1 + i % 3) for i in range(MOD_WORDS_PER_FAMILY)]
            families.append((n, terms, words))
    overlap = []
    for m in OVERLAP_DENOMINATORS:
        for i in range(OVERLAP_PER_DENOMINATOR):
            overlap.append((m, _gamma_word(rng, 1 + i % 2), _char_nums(rng, m, even=False)))
    return {"families": families, "overlap": overlap}


def towers_inputs(seed: int) -> dict:
    """Candidate towers per conductor, drawn like the random-towers check.

    base/x/y subgroups are given by generators of (Z/n)^*; x is the orbit sum of
    zeta_n and y that of zeta_n^3 over their subgroups.  The fields come from
    TOWER_FIELDS_SEED; the seed draws the trace-combinator coefficients (a, b)
    of every candidate and the rel_trace_norm cases c zeta_25^k + d.
    """
    fields = _rng(TOWER_FIELDS_SEED, 3)
    rng = _rng(seed, 3)
    candidates = {}
    for n in TOWER_CONDUCTORS:
        units = _units(n)
        candidates[n] = [
            {
                "base_gens": [int(fields.choice(units)) for _ in range(2)] + [1],
                "x_gen": int(fields.choice(units)),
                "y_gen": int(fields.choice(units)),
                "trace_ab": tuple(TRACE_COEFFS[int(i)] for i in rng.integers(0, len(TRACE_COEFFS), 2)),
            }
            for _ in range(TOWER_CANDIDATES)
        ]
    rel = []
    for _ in range(REL_PER_PASS):
        k = int(rng.choice([u for u in range(1, 25) if u % 5]))
        c = int(rng.integers(2, 6)) * (1 if rng.random() < 0.5 else -1)
        d = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
        rel.append((c, d, k))
    return {"candidates": candidates, "norm_params": NORM_PARAMS, "rel": rel}


GENERATORS = {
    "verify": verify_inputs,
    "theta-table": theta_table_inputs,
    "artin": artin_inputs,
    "towers": towers_inputs,
    "modularity": modularity_inputs,
}


def generate(workload: str, seed: int) -> dict:
    return GENERATORS[workload](seed)
