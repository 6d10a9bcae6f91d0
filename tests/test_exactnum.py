"""Rational reduction to plain int residues, the API checks and the p-adic
valuation against an extended-gcd oracle."""

import math
import random
import time
from fractions import Fraction

import pytest

from supercong import exactnum
from supercong.exactnum import (
    NotPIntegral,
    check_modulus,
    is_odd_prime,
    powers,
    prime_layer,
    primitive_root,
    residue_from_rational,
)
from supercong.padic_gamma import _valuation


def egcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def inv_oracle(a, n):
    g, s, _ = egcd(a % n, n)
    assert g == 1
    return s % n


def test_residue_from_rational_examples():
    assert residue_from_rational(Fraction(0, 1), 7, 3) == 0
    r = residue_from_rational(Fraction(1, 2), 3, 3)
    assert r == 14
    assert 2 * 14 % 27 == 1  # oracle: 14 inverts 2 mod 27
    big = residue_from_rational(Fraction(29835, 32768), 5, 3)
    # oracle chain: 32768 = 18, 18^-1 = 7, 29835 = 85, 85*7 = 95 (mod 125)
    assert 32768 % 125 == 18
    assert inv_oracle(18, 125) == 7
    assert 29835 % 125 == 85 and 85 * 7 % 125 == 95
    assert big == 95


def test_residue_from_rational_denominator_error():
    with pytest.raises(NotPIntegral):
        residue_from_rational(Fraction(1, 3), 3, 2)


def test_modulus_cache_stays_bounded():
    # a long sweep validates one (p, m) pair after another; the cache must
    # not keep them all
    maxsize = check_modulus.cache_info().maxsize
    assert maxsize is not None
    primes = [n for n in range(3, 10**4) if is_odd_prime(n)][: 2 * maxsize + 1]
    for p in primes:
        for m in (1, 3):
            assert check_modulus(p, m) == p**m
    assert check_modulus.cache_info().currsize <= maxsize


def test_a_float_prime_never_reads_the_pair_kept_for_its_int():
    # 7.0 == 7, so an untyped cache would answer 343 for it and let a
    # residue be reduced mod 343.0
    assert check_modulus(7, 3) == 343
    with pytest.raises(TypeError):
        check_modulus(7.0, 3)
    with pytest.raises(TypeError):
        residue_from_rational(5, 7.0, 3)
    assert residue_from_rational(Fraction(1, 2), 5, 1) == 3


def test_the_layer_store_keeps_one_prime_and_files_under_the_right_one():
    calls = []

    @prime_layer
    def inner(p, k):
        calls.append(("inner", p, k))
        return p * k

    @prime_layer
    def outer(p):
        calls.append(("outer", p))
        return inner(p + 2, 1) + p  # asks a layer at another prime

    assert inner(3, 1) == inner(3, 1) == 3 and inner(3, 2) == 6
    assert calls == [("inner", 3, 1), ("inner", 3, 2)]
    # the nested call moves the store to 5 and empties it: outer(3) is not
    # filed there (outer(5) is built, not read), and 3's layers are built
    # again when asked
    assert outer(3) == 8 and inner(5, 1) == 5 and outer(5) == 12 and inner(3, 1) == 3
    assert calls[2:] == [("outer", 3), ("inner", 5, 1), ("outer", 5), ("inner", 7, 1), ("inner", 3, 1)]


def test_inverse_examples():
    assert residue_from_rational(Fraction(1, 1), 5, 3) == 1
    assert residue_from_rational(Fraction(1, 18), 5, 3) == inv_oracle(18, 125) == 7
    with pytest.raises(NotPIntegral):
        residue_from_rational(Fraction(1, 5), 5, 3)


def test_inverse_random_against_oracle():
    rng = random.Random(71)
    for _ in range(300):
        p = rng.choice([3, 5, 11, 101])
        m = rng.randint(1, 4)
        pm = p**m
        a = rng.randrange(1, pm)
        if a % p == 0:
            continue
        assert residue_from_rational(Fraction(1, a), p, m) == inv_oracle(a, pm)


def test_p_valuation_examples():
    # v_p has one definition, on the nonzero integers the series loops meet
    assert _valuation(27 * 32, 3) == 3
    assert _valuation(-9, 3) == 2
    assert _valuation(7, 5) == 0
    assert _valuation(5**12, 5) == 12


def test_p_valuation_multiplicative():
    rng = random.Random(17)
    for _ in range(1000):
        p = rng.choice([3, 5, 7])
        x = rng.randint(1, 4000) * rng.choice([1, -1])
        y = rng.randint(1, 4000)
        assert _valuation(x * y, p) == _valuation(x, p) + _valuation(y, p)


def _random_p_integral(rng, p):
    while True:
        q = Fraction(rng.randint(-9999, 9999), rng.randint(1, 9999))
        if q.denominator % p:
            return q


@pytest.mark.parametrize("p,m", [(3, 3), (5, 2), (7, 1), (13, 4)])
def test_residue_from_rational_is_ring_hom(p, m):
    rng = random.Random(1000 * p + m)
    for _ in range(1000):
        a = _random_p_integral(rng, p)
        b = _random_p_integral(rng, p)
        pm = p**m
        fa = residue_from_rational(a, p, m)
        fb = residue_from_rational(b, p, m)
        assert residue_from_rational(a + b, p, m) == (fa + fb) % pm
        assert residue_from_rational(a * b, p, m) == fa * fb % pm


def test_reciprocal_property():
    rng = random.Random(5)
    for _ in range(200):
        p, m = rng.choice([(3, 3), (5, 3), (11, 2)])
        q = _random_p_integral(rng, p)
        if q == 0 or q.numerator % p == 0:
            continue
        prod = residue_from_rational(q, p, m) * residue_from_rational(1 / q, p, m)
        assert prod % p**m == 1


def test_reduction_commutes_with_ring_ops():
    # the image mod p^(m-1) is the image mod p^m reduced, also of sums,
    # products and negatives
    rng = random.Random(9)
    for _ in range(400):
        p, m = rng.choice([(3, 4), (7, 3), (19, 2)])
        lo = p ** (m - 1)
        a = _random_p_integral(rng, p)
        b = _random_p_integral(rng, p)
        fa = residue_from_rational(a, p, m)
        fb = residue_from_rational(b, p, m)
        assert residue_from_rational(a + b, p, m - 1) == (fa + fb) % lo
        assert residue_from_rational(a * b, p, m - 1) == fa * fb % lo
        assert residue_from_rational(-a, p, m - 1) == -fa % lo


def test_fraction_normalization_invariants():
    q = Fraction(-4, -6)
    assert q.numerator == 2 and q.denominator == 3
    assert Fraction(3, -6).denominator == 2  # sign lives in the numerator
    assert Fraction(0, 7) == Fraction(0, 1)


def test_api_boundary_caps():
    for p, m in (
        (4, 1),  # composite
        (2, 1),  # even
        (5, 9),  # exponent cap
        (5, 0),
        (10**6 + 3, 1),  # prime cap
    ):
        with pytest.raises(ValueError):
            check_modulus(p, m)
        with pytest.raises(ValueError):
            residue_from_rational(0, p, m)


def test_is_odd_prime_against_trial_division():
    def trial(n):
        if n < 3 or n % 2 == 0:
            return False
        return all(n % d for d in range(3, int(math.isqrt(n)) + 1, 2))

    for n in range(1, 2000):
        assert is_odd_prime(n) == trial(n)


def test_is_odd_prime_refuses_beyond_its_proved_range():
    # 3215031751 = 151 * 751 * 28351 is the least strong pseudoprime to the
    # bases 2, 3, 5 and 7: from there on they could call a composite prime
    n = 3215031751
    assert 151 * 751 * 28351 == n
    for big in (n, n + 2, 10**40 + 1):
        with pytest.raises(ValueError, match="proved Miller-Rabin range"):
            is_odd_prime(big)
    assert exactnum.MILLER_RABIN_BOUND == n
    # just below the bound the answer still stands (trial division: 3215031749
    # is prime, 3215031747 is not)
    assert is_odd_prime(n - 2) and not is_odd_prime(n - 4)


def test_residue_takes_only_an_int_value():
    # a residue is reduced from an int or a Fraction only: a float stood for
    # its binary double (residue_from_rational(0.1, 5, 2) returned 4, though
    # 1/10 is not 5-integral), and a str is no number at all
    for value in (0.1, 2.5, 3.0, "1/2"):
        with pytest.raises(TypeError, match="int or a Fraction"):
            residue_from_rational(value, 5, 2)
    with pytest.raises(NotPIntegral):
        residue_from_rational(Fraction(1, 10), 5, 2)


def test_rational_returns_a_fraction_itself_and_converts_an_int():
    # a Fraction is immutable, so it is returned, not copied
    x = Fraction(3, 4)
    assert exactnum.rational(x) is x
    one = exactnum.rational(1)
    assert type(one) is Fraction and one == 1
    for value in (0.75, "3/4"):
        with pytest.raises(TypeError, match="int or a Fraction"):
            exactnum.rational(value)


def test_prime_gate_refuses_before_the_caller_works():
    assert exactnum.check_prime(7, 7, "test") is None
    with pytest.raises(ValueError, match="prime 11 exceeds the test cap 7"):
        exactnum.check_prime(11, 7, "test")
    for p in (1, 9, 10**6 + 3):  # not an odd prime, or above the API cap
        with pytest.raises(ValueError):
            exactnum.check_prime(p, 10**7, "test")


def test_the_walk_refuses_a_root_that_is_zero_mod_p():
    # 7 and 14 are 0 mod 7: the walk never meets 1 early, and it returned
    # [1, 0, 0, 0, 0, 0] until g^(p - 1) = 1 was required after it
    for g in (7, 14):
        with pytest.raises(ArithmeticError, match=f"{g} is not a primitive root mod 7"):
            powers(g, 7)
    assert powers(3, 7) == [1, 3, 2, 6, 4, 5]


def test_the_walk_reduces_a_huge_root_mod_p_promptly():
    # each step multiplied by g as given, about p * bits(g) of work: a
    # 28-kbit g took 7-8 s at p = 999983
    p = 10007
    g = primitive_root(p)
    big = g + p * 7**10**6
    zero = p * 7**10**6
    start = time.perf_counter()
    assert powers(big, p) == powers(g, p)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(ArithmeticError, match="-bit integer> is not a primitive root mod 10007"):
        powers(zero, p)


def test_the_walk_refuses_a_p_that_is_not_an_odd_prime():
    # below 2 each raised IndexError from the walk's list, and a p above
    # the API cap would have allocated its p - 1 entries before any check
    for p in (-3, 0, 1, 2, 9, 1000003):
        with pytest.raises(ValueError):
            powers(2, p)
    assert powers(3, 7) == [1, 3, 2, 6, 4, 5]


def test_primitive_root_refuses_a_p_that_is_not_an_odd_prime():
    # each answered 2, though 15 and 21 have no primitive root at all and
    # 1000001 = 101 * 9901 is above the API cap
    for p in (1, 2, 9, 15, 21, 1000001):
        with pytest.raises(ValueError):
            primitive_root(p)
