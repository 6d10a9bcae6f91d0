"""Polynomial engine: rising-factorial polynomials, the P/Q machinery,
exponential sums, the mod-p sum facts, the input checks, the KS4 product
against a schoolbook oracle, the P/Q coefficient rule against the formal
derivatives and the chirp-z values against Horner's rule."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supercong import polyengine
from supercong.exactnum import is_odd_prime
from supercong.polyengine import (
    POLY_MAX_P,
    RatPoly,
    _cube_mod,
    _p_and_q_coeffs,
    _quotient_sum,
    _rising_coeffs,
    _values_mod,
    coefficient_facts_check,
    exp_sum_check,
    lemma_sum_checks,
    p_identity_check,
    p_poly,
    pochhammer_poly,
    q_poly,
)

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _horner(poly, x):
    """The value of poly at x (an int or a Fraction), by Horner's rule."""
    acc = 0
    for c in reversed(poly.coeffs):
        acc = acc * x + c
    return acc


def _derivative(poly, order=1):
    """The formal derivative of the given order: the oracle route of the
    coefficient rule that builds P and Q."""
    cs = poly.coeffs
    for _ in range(order):
        cs = tuple(k * cs[k] for k in range(1, len(cs)))
    return RatPoly(cs)


def _derivative_p_and_q(cube):
    """P = d/dz [z F^3] and Q = (z/2) d^2/dz^2 [z F^3] from the cube F^3 by
    formal derivatives, Q halved over the rationals."""
    lifted = cube.shifted(1)
    halves = [Fraction(c, 2) for c in _derivative(lifted, 2).shifted(1).coeffs]
    assert all(h.denominator == 1 for h in halves)
    return _derivative(lifted), RatPoly(int(h) for h in halves)


def _neg(poly):
    return RatPoly(tuple(-c for c in poly.coeffs))


def _sub(f, g):
    return f + _neg(g)


def test_pochhammer_poly_examples():
    assert pochhammer_poly(0) == RatPoly((1,))
    assert pochhammer_poly(2) == RatPoly((2, 3, 1))  # z^2 + 3z + 2
    for m in range(9):
        poly = pochhammer_poly(m)
        assert poly.coefficient(0) == math.factorial(m)
        assert poly.degree == m
        assert _horner(poly, 0) == math.factorial(m)


def test_derivative_examples():
    cube = RatPoly((0, 0, 0, 1))
    assert _derivative(cube) == RatPoly((0, 0, 3))
    assert _derivative(cube, 2) == RatPoly((0, 6))
    assert _derivative(pochhammer_poly(2)) == RatPoly((3, 2))


def _random_poly(rng, max_deg=10):
    return RatPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, max_deg + 1))])


def test_derivative_linearity_and_product_rule():
    rng = random.Random(13)
    for _ in range(1000):
        f = _random_poly(rng)
        g = _random_poly(rng)
        assert _derivative(f + g) == _derivative(f) + _derivative(g)
        assert _derivative(f * g) == _derivative(f) * g + f * _derivative(g)


def test_the_coefficient_rule_matches_the_derivatives():
    # any integer cube, odd coefficients included: the rule needs no halving
    rng = random.Random(15)
    for _ in range(300):
        cube = _random_poly(rng)
        big_p, big_q = _p_and_q_coeffs(cube.coeffs)
        assert (RatPoly(big_p), RatPoly(big_q)) == _derivative_p_and_q(cube)


def test_horner_matches_termwise_evaluation():
    rng = random.Random(14)
    for _ in range(300):
        f = _random_poly(rng)
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        termwise = sum(c * x**k for k, c in enumerate(f.coeffs))
        assert _horner(f, x) == termwise


def test_div_linear():
    f = (2, 3, 1)  # (z+1)(z+2)
    assert _quotient_sum(f, [1]) == [2, 1]
    assert _quotient_sum(f, [2]) == [1, 1]
    with pytest.raises(ArithmeticError):
        _quotient_sum(f, [1, 3])
    # sum_r F/(z+r) over every root of F is F' (the product rule)
    for m in range(1, 30):
        f = pochhammer_poly(m)
        assert _quotient_sum(f.coeffs, range(1, m + 1)) == list(_derivative(f).coeffs)


def test_p_poly_example():
    assert p_poly(3) == RatPoly((1, 6, 9, 4))  # 4z^3 + 9z^2 + 6z + 1
    for p in SMALL_PRIMES:
        m = (p - 1) // 2
        poly = p_poly(p)
        assert poly.coefficient(0) == math.factorial(m) ** 3
        assert poly.degree == (3 * p - 3) // 2
        assert all(isinstance(c, int) for c in poly.coeffs)


def test_q_poly_example():
    assert q_poly(3) == RatPoly((0, 3, 9, 6))  # 6z^3 + 9z^2 + 3z
    for p in SMALL_PRIMES:
        poly = q_poly(p)
        assert poly.coefficient(0) == 0
        assert all(isinstance(c, int) for c in poly.coeffs)


def test_p_identity_small():
    assert p_identity_check(3)
    assert p_identity_check(5)
    assert p_identity_check(13)
    assert p_identity_check(307)


def test_coefficient_facts_p3():
    big_p = p_poly(3)
    assert big_p.coefficient(2) == 9 and big_p.coefficient(2) % 3 == 0
    assert big_p.coefficient(0) == 1  # 1!^3
    big_q = q_poly(3)
    assert big_q.coefficient(2) == 9 and big_q.coefficient(0) == 0
    assert coefficient_facts_check(3)
    assert coefficient_facts_check(5)


def test_exp_sum_examples():
    assert sum(j**4 for j in range(1, 5)) == 354 and 354 % 5 == 4  # -1 mod 5
    assert exp_sum_check(5, 4)
    assert sum(j**2 for j in range(1, 5)) == 30  # 0 mod 5
    assert exp_sum_check(5, 2)
    assert (1 + 4) % 3 == 2  # -1 mod 3, the (p-1) | k case
    assert exp_sum_check(3, 2)
    with pytest.raises(ValueError):
        exp_sum_check(5, 0)


@pytest.mark.parametrize("k", (2.0, Fraction(2), "2"))
def test_exp_sum_refuses_an_exponent_that_is_not_an_int(k):
    # on an empty store and again after exp_sum_check(13, 2) has kept the
    # class of 2: a float equal to 2 must not read that kept sum
    for _ in range(2):
        with pytest.raises(TypeError, match="k must be an integer"):
            exp_sum_check(13, k)
        assert exp_sum_check(13, 2)


def _exp_sum_unfolded(p, k):
    # the sum with k as given, no Fermat fold
    total = sum(pow(j, k, p) for j in range(1, p)) % p
    return total == ((p - 1) if k % (p - 1) == 0 else 0)


@pytest.mark.parametrize("p", (3, 5, 7, 101))
def test_exp_sum_fold_agrees_with_the_unfolded_sum(p):
    for k in range(1, 3 * (p - 1) + 1):
        assert exp_sum_check(p, k) == _exp_sum_unfolded(p, k)
    if p > 3:
        # 30000-digit exponents, divisible by p - 1 and not
        for k in (10**30000, 10**30000 + 1, (p - 1) * 10**29999):
            assert exp_sum_check(p, k) == _exp_sum_unfolded(p, k)


def test_exp_sum_memo_keeps_only_the_last_prime(spy):
    # interleaved primes and exponents over three folds: every answer from
    # the kept power sums matches the unfolded sum, each exponent class is
    # summed once per visit of its prime, and a return to an earlier prime
    # sums its classes again; the walk they read is built once per visit,
    # again on a return, and lemma_sum_checks reads the same kept walk, so
    # each visit seeks one primitive root
    sums = spy(polyengine, "_power_sum")
    walks = spy(polyengine, "_walk")
    roots = spy(polyengine, "primitive_root")
    for p in (5, 7, 5):
        for k in range(1, 3 * (p - 1) + 1):
            assert exp_sum_check(p, k) == _exp_sum_unfolded(p, k)
    assert sums == [(5, k) for k in range(1, 5)] + [(7, k) for k in range(1, 7)] + [(5, k) for k in range(1, 5)]
    assert walks == [(5,), (7,), (5,)]
    exp_sum_check(5, 7)
    assert lemma_sum_checks(5)
    assert walks == [(5,), (7,), (5,)]
    exp_sum_check(7, 3)
    assert lemma_sum_checks(7)
    assert sums[14:] == [(7, 3)]
    assert walks[3:] == [(7,)]
    assert lemma_sum_checks(11)
    exp_sum_check(11, 2)
    assert walks[4:] == [(11,)]
    assert roots == walks


@pytest.mark.parametrize("p", [n for n in range(3, 300, 2) if is_odd_prime(n)] + [7919, 104729])
def test_power_sum_matches_the_direct_sum(p):
    # the subgroup sum over the walk against the direct sum of powers, at
    # every exponent class below 300 and at sampled classes above
    classes = range(1, p) if p < 300 else (1, 2, 3, 4, 6, 12, (p - 1) // 2, p - 1)
    for k in classes:
        assert polyengine._power_sum(p, k) == sum(pow(j, k, p) for j in range(1, p)) % p, (p, k)


def test_lemma_sums_p3_recomputed_oracle():
    # direct evaluation oracle: P = 4z^3 + 9z^2 + 6z + 1 gives P(1) = 20 and
    # P(2) = 81, so the full sum is 101, congruent to -1!^3 = -1 = 2 mod 3
    big_p = p_poly(3)
    assert _horner(big_p, 1) == 20 and _horner(big_p, 2) == 81
    assert (_horner(big_p, 1) + _horner(big_p, 2)) % 3 == 2 == (-1) % 3
    big_q = q_poly(3)
    assert _horner(big_q, 1) == 18 and _horner(big_q, 2) == 90
    assert (_horner(big_q, 1) + _horner(big_q, 2)) % 3 == 0
    assert lemma_sum_checks(3)


def test_lemma_sums_small():
    for p in (3, 5, 7, 13):
        assert lemma_sum_checks(p)


def test_upper_range_vanishing():
    # P(j) = 0 mod p for (p-1)/2 < j < p, checked directly
    for p in (5, 7, 11):
        big_p = p_poly(p)
        for j in range((p - 1) // 2 + 1, p):
            assert _horner(big_p, j) % p == 0


def test_ratpoly_trimming_and_zero():
    assert RatPoly((0, 0)).degree == -1
    assert RatPoly(()) == RatPoly((0,))
    assert _sub(RatPoly((1, 1)), RatPoly((1, 1))).degree == -1
    assert RatPoly((1, 2)).shifted(2) == RatPoly((0, 0, 1, 2))
    assert RatPoly((1, 2)).scaled(2) == RatPoly((2, 4))


def test_ratpoly_rejects_non_int_coefficients():
    for bad in (Fraction(1, 2), Fraction(2, 1), 1.0, "1"):
        with pytest.raises(TypeError):
            RatPoly((1, bad))
    with pytest.raises(TypeError):
        RatPoly((2, 4)).scaled(Fraction(1, 2))


def _schoolbook_mul(f, g):
    """The O(len(f) len(g)) product: the oracle for RatPoly.__mul__."""
    a, b = f.coeffs, g.coeffs
    if not a or not b:
        return RatPoly()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return RatPoly(out)


_BIG = 2**5000
_coefficients = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-_BIG, _BIG),
)
_polys = st.lists(_coefficients, max_size=12).map(RatPoly)


# _AT_BOUND * 31 = 2^125 - 1, the largest product bound of an 8-byte digit
# (bits(bound) + 3 = 16 * 8): a coefficient exactly at the slot bound
_AT_BOUND = (2**125 - 1) // 31


@settings(max_examples=300, deadline=None, database=None)
@given(_polys, _polys)
@example(RatPoly(()), RatPoly((1, 2)))
@example(RatPoly((5,)), RatPoly((0, 0, -3)))
@example(RatPoly((-1, 1)), RatPoly((1, 1)))  # z^2 - 1: slot 0 holds -1
@example(RatPoly((-1,)), RatPoly((1, 1, 1)))  # every slot negative, a borrow chain
@example(RatPoly((-(2**5000), 2**5000)), RatPoly((2**5000, 2**5000)))
@example(RatPoly((7,)), RatPoly((-3,)))  # 1 x 1: no odd half in either factor
@example(RatPoly((2,)), RatPoly((5,)))  # a single-slot product
@example(RatPoly((1, -2, 3)), RatPoly((4, 5)))  # odd x even lengths
@example(RatPoly((-1, -1, -1, -1, -1)), RatPoly((1, 1, 1, 1)))  # every slot of both halves borrows
@example(RatPoly((-1, 1, -1, 1, -1, 1)), RatPoly((1, 1, 1)))  # mixed signs in both halves
@example(RatPoly((31,)), RatPoly((_AT_BOUND,)))  # c_0 = bound, the top of its slot
@example(RatPoly((-31,)), RatPoly((_AT_BOUND,)))  # c_0 = -bound
@example(RatPoly((_AT_BOUND,) * 31), RatPoly((-1,) * 31))  # c_30 = -bound, among 61
@example(RatPoly((-_AT_BOUND,) * 31), RatPoly((-1,) * 31))  # c_30 = +bound
@example(RatPoly((3, -1, 4)), RatPoly((1, -5, 9)))  # length 5: the reversal keeps the classes
@example(RatPoly((3, -1, 4)), RatPoly((1, -5, 9, -2)))  # length 6: the reversal swaps them
@example(RatPoly((2, 7)), RatPoly((-1, 8)))  # length 3, two-coefficient factors
@example(RatPoly((-6,)), RatPoly((1, -2, 3, -4, 5, -6, 7, -8)))  # 1 x n
@example(RatPoly((1, 2, 3, 4, 5, 6, 7)), RatPoly((-9,)))  # n x 1
@example(RatPoly((-(2**300),) * 9), RatPoly((-(2**200),) * 10))  # all-negative rows
@example(RatPoly((1, -1) * 6), RatPoly((-1, 1) * 5))  # alternating rows
@example(RatPoly((2**200, 1)), RatPoly((1, 1)))  # a factor coefficient spans two digits
# a 127-bit bound takes 9-byte digits; 8 (bound < X^2/2, one guard bit)
# would let the tails of these long equal rows carry past half a digit
@example(RatPoly(((2**127 - 1) // 5,) * 5), RatPoly((1,) * 5))
def test_product_matches_schoolbook(f, g):
    assert f * g == _schoolbook_mul(f, g)
    assert g * f == f * g
    assert f * f == _schoolbook_mul(f, f)  # the squaring branch


def _schoolbook_cube(m):
    f = RatPoly((1,))
    for r in range(1, m + 1):
        f = _schoolbook_mul(f, RatPoly((r, 1)))
    return f, _schoolbook_mul(_schoolbook_mul(f, f), f)


@pytest.mark.parametrize("p", (3, 5, 101, 499))
def test_cube_p_and_q_against_schoolbook(p):
    f, cube = _schoolbook_cube((p - 1) // 2)
    assert pochhammer_poly((p - 1) // 2) == f
    assert f * f * f == cube
    # the formal derivatives, Q halved over the rationals: independent of
    # the coefficient rule in p_poly and q_poly
    assert (p_poly(p), q_poly(p)) == _derivative_p_and_q(cube)
    assert all(isinstance(c, int) for c in p_poly(p).coeffs + q_poly(p).coeffs)


@pytest.mark.parametrize("p", [n for n in range(3, 200, 2) if is_odd_prime(n)])
def test_the_two_readers_of_the_p_and_q_rule_agree(p):
    # the rule over the one-point cube of F mod p, as lemma_sum_checks reads
    # it, against the exact P and Q of the layer reduced mod p
    f = pochhammer_poly((p - 1) // 2)
    readers = _p_and_q_coeffs(_cube_mod([c % p for c in f.coeffs], p))
    exact = (p_poly(p), q_poly(p))
    for read, poly in zip(readers, exact):
        assert [c % p for c in read] == [c % p for c in poly.coeffs]


@pytest.mark.parametrize("p", (211, 307, 499))
def test_facts_at_larger_primes(p):
    assert coefficient_facts_check(p)
    assert lemma_sum_checks(p)


def _horner_mod(coeffs, x, p):
    """Horner's rule mod p: the oracle for the chirp-z values."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _p_and_q_mod(p):
    """The coefficients of P and Q mod p, from F mod p by schoolbook products
    and the formal derivatives."""
    f = RatPoly(c % p for c in pochhammer_poly((p - 1) // 2).coeffs)
    big_p, big_q = _derivative_p_and_q(_schoolbook_mul(_schoolbook_mul(f, f), f))
    return [c % p for c in big_p.coeffs], [c % p for c in big_q.coeffs]


@pytest.mark.parametrize("p", [n for n in range(3, 200, 2) if is_odd_prime(n)] + [499, 997])
def test_chirp_z_values_match_horner(p):
    polys = _p_and_q_mod(p)
    horner = [[_horner_mod(coeffs, j, p) for j in range(p)] for coeffs in polys]
    assert _values_mod(polys, p) == horner


@pytest.mark.parametrize("p", [n for n in range(3, POLY_MAX_P + 1, 2) if is_odd_prime(n)])
def test_one_point_cube_matches_the_schoolbook_cube_mod_p(p):
    f = RatPoly(c % p for c in pochhammer_poly((p - 1) // 2).coeffs)
    cube = _schoolbook_mul(_schoolbook_mul(f, f), f)
    assert _cube_mod(list(f.coeffs), p) == [c % p for c in cube.coeffs]


def test_one_point_cube_slots_hold_the_largest_coefficients():
    # every coefficient p - 1: the middle slot of the cube comes within 3/4
    # of its bound n^2 (p-1)^3, and at 997 a slot one byte short would carry
    for p, n in ((3, 2), (5, 3), (997, 499)):
        f = RatPoly([p - 1] * n)
        cube = _schoolbook_mul(_schoolbook_mul(f, f), f)
        assert _cube_mod(list(f.coeffs), p) == [c % p for c in cube.coeffs]


def test_the_layer_keeps_each_prime_its_own_p_and_q(spy):
    # two primes interleaved: each call returns its own prime's P and Q,
    # equal to the schoolbook build, and F is built once per visit of a
    # prime, however many entry points read it there
    expected = {}
    for p in (11, 13):
        _, cube = _schoolbook_cube((p - 1) // 2)
        expected[p] = _derivative_p_and_q(cube)
    builds = spy(polyengine, "pochhammer_poly")
    for p in (11, 13, 11):
        assert (p_poly(p), q_poly(p)) == expected[p]
        assert p_identity_check(p) and coefficient_facts_check(p) and lemma_sum_checks(p)
    assert builds == [(5,), (6,), (5,)]


def test_chirp_z_rejects_a_root_that_is_not_primitive(monkeypatch):
    monkeypatch.setattr(polyengine, "primitive_root", lambda p: 4)  # a square
    for p in (5, 13, 199):
        with pytest.raises(ArithmeticError):
            lemma_sum_checks(p)


_ENTRY_POINTS = (p_poly, q_poly, p_identity_check, coefficient_facts_check, lemma_sum_checks)


@pytest.mark.parametrize("p", (1, 9, 15, 561, 1000001))
def test_entry_points_reject_a_p_that_is_not_an_odd_prime(p):
    for fn in _ENTRY_POINTS:
        with pytest.raises(ValueError):
            fn(p)
    with pytest.raises(ValueError):
        exp_sum_check(p, 4)


def test_entry_points_reject_a_prime_above_the_cap_promptly():
    above = next(n for n in range(POLY_MAX_P + 2, 2 * POLY_MAX_P, 2) if is_odd_prime(n))
    start = time.perf_counter()
    for fn in _ENTRY_POINTS:
        with pytest.raises(ValueError, match="polynomial cap"):
            fn(above)
    for m in ((above - 1) // 2, 10**12):
        with pytest.raises(ValueError):
            pochhammer_poly(m)
    assert time.perf_counter() - start < 0.5
    assert POLY_MAX_P >= 499


def test_pochhammer_poly_refuses_m_above_the_largest_entry_point_build(monkeypatch):
    # m = (p - 1)/2 at POLY_MAX_P is the largest F any entry point builds
    assert len(pochhammer_poly((POLY_MAX_P - 1) // 2).coeffs) == (POLY_MAX_P + 1) // 2
    monkeypatch.setattr(polyengine, "POLY_MAX_P", 11)
    assert pochhammer_poly(5) == RatPoly(_rising_coeffs(5))
    with pytest.raises(ValueError, match="0..5"):
        pochhammer_poly(6)
    with pytest.raises(ValueError):
        pochhammer_poly(-1)
