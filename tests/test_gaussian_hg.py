"""The Legendre symbol, the least primitive root, p^2 * 3F2(1) by Ono's
closed form with its Hermite-Serret sum of two squares, and the oracles
of the finite-field series: explicit quadratic-residue sets, a
brute-force search for the two squares, the definitional complex
character sum of `charsum_oracle` (with its own character-table,
Jacobi-sum and normalized-binomial tests), Greene's recursion over full
tables at any n and lambda (checked against the character sum, and with
its inverse-pair relation), that recursion unrolled into the exact double
sum over discrete logs, and an exact plus-minus-one computation at
p = 3."""

import cmath
import functools
import math
import random

import pytest

import charsum_oracle
from charsum_oracle import (
    CharacterTable,
    RoundingResidualTooLarge,
    _double_sum,
    _least_primitive_root,
    charsum_nFn_phi,
    greene_binom,
    greene_tables,
    jacobi_sum,
)
from supercong import exactnum, gaussian_hg
from supercong.exactnum import is_odd_prime, primitive_root
from supercong.gaussian_hg import _two_squares, gaussian_3f2, legendre
from supercong.supercongruence import cor5_check

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def qr_set(p):
    return {x * x % p for x in range(1, p)}


def test_legendre_examples():
    assert legendre(0, 7) == 0
    assert legendre(-1, 5) == 1
    assert legendre(-1, 7) == -1


def test_legendre_against_qr_set_oracle():
    rng = random.Random(12)
    for p in (3, 5, 13, 41, 97):
        squares = qr_set(p)
        for _ in range(60):
            a = rng.randint(-300, 300)
            expect = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre(a, p) == expect


def test_table_round_trip_and_bijection():
    for p in SMALL_PRIMES:
        tab = CharacterTable(p)
        assert sorted(tab.log[1:]) == list(range(p - 1))
        for a in range(1, p):
            assert pow(tab.g, tab.log[a], p) == a


def test_least_primitive_root():
    def order(g, p):
        k, x = 1, g % p
        while x != 1:
            x = x * g % p
            k += 1
        return k

    for p in SMALL_PRIMES:
        tab = CharacterTable(p)
        assert order(tab.g, p) == p - 1
        for smaller in range(2, tab.g):
            assert order(smaller, p) != p - 1


def test_primitive_root_matches_the_oracles_own():
    # exactnum.primitive_root tests the prime factors of p - 1; the oracle
    # walks every power of each candidate
    for p in filter(is_odd_prime, range(3, 998)):
        assert primitive_root(p) == _least_primitive_root(p), p


def test_double_sum_rejects_a_root_that_is_not_primitive(monkeypatch):
    # 4 has order 6 mod 13: the walk over g^i meets 1 at i = 6 and raises
    # before any row is summed
    monkeypatch.setattr(charsum_oracle, "primitive_root", lambda p: 4)
    with pytest.raises(ArithmeticError, match="4 is not a primitive root mod 13"):
        _double_sum(13)


def test_double_sum_rejects_a_root_that_is_zero_mod_p(monkeypatch):
    # 13 is 0 mod 13: its walk is 1, 0, 0, ... and never meets 1 early, so
    # it is refused after the walk, where g^(p - 1) must be 1
    monkeypatch.setattr(charsum_oracle, "primitive_root", lambda p: 13)
    with pytest.raises(ArithmeticError, match="13 is not a primitive root mod 13"):
        _double_sum(13)


def test_char_eval_zero_extension():
    tab = CharacterTable(7)
    assert tab.epsilon(0) == 1
    assert tab.phi(0) == 0
    assert tab.char(1)(0) == 0


def test_phi_matches_legendre():
    for p in (5, 13, 29):
        tab = CharacterTable(p)
        for a in range(p):
            assert abs(tab.phi(a) - legendre(a, p)) < 1e-12


def test_char_multiplicativity():
    rng = random.Random(5)
    for p in (7, 13, 31):
        tab = CharacterTable(p)
        for _ in range(80):
            t = rng.randrange(p - 1)
            chi = tab.char(t)
            a, b = rng.randint(1, p - 1), rng.randint(1, p - 1)
            assert abs(chi(a * b) - chi(a) * chi(b)) < 1e-10


def test_jacobi_examples():
    tab5 = CharacterTable(5)
    assert abs(jacobi_sum(tab5.phi, tab5.phi) - (-1)) < 1e-9
    for p in SMALL_PRIMES:
        tab = CharacterTable(p)
        assert abs(jacobi_sum(tab.epsilon, tab.epsilon) - (p - 2)) < 1e-9


def test_jacobi_against_brute_oracle():
    # brute force with the same zero-at-zero rule applied by hand
    rng = random.Random(3)
    for p in (7, 13, 23):
        tab = CharacterTable(p)
        for _ in range(15):
            t1, t2 = rng.randrange(p - 1), rng.randrange(p - 1)
            expect = 0j
            for a in range(p):
                b = (1 - a) % p
                if a == 0 or b == 0:
                    continue
                expect += cmath.exp(
                    2j * cmath.pi * (t1 * tab.log[a] + t2 * tab.log[b]) / (p - 1)
                )
            got = jacobi_sum(tab.char(t1), tab.char(t2))
            assert abs(got - expect) < 1e-9


def test_jacobi_modulus():
    for p in (5, 13, 41, 97):
        tab = CharacterTable(p)
        for t1 in range(1, p - 1, max(1, (p - 1) // 6)):
            for t2 in range(1, p - 1, max(1, (p - 1) // 6)):
                if (t1 + t2) % (p - 1) == 0:
                    continue
                assert abs(abs(jacobi_sum(tab.char(t1), tab.char(t2))) - math.sqrt(p)) < 1e-8


def test_greene_binom_examples():
    tab5 = CharacterTable(5)
    assert abs(greene_binom(tab5.epsilon, tab5.epsilon) - 0.6) < 1e-9  # 3/5
    # direct-summation oracle for (phi over epsilon) at p = 5:
    # eps(-1)/5 * J(phi, eps) and J(phi, eps) = sum over a outside {0,1} of phi(a)
    expect = sum(legendre(a, 5) for a in range(2, 5)) / 5
    assert abs(greene_binom(tab5.phi, tab5.epsilon) - expect) < 1e-9


def test_greene_binom_conjugation():
    for p in (7, 13):
        tab = CharacterTable(p)
        for tA in range(p - 1):
            for tB in range(p - 1):
                left = greene_binom(tab.char(-tA), tab.char(-tB))
                right = greene_binom(tab.char(tA), tab.char(tB)).conjugate()
                assert abs(left - right) < 1e-10


def test_character_orthogonality():
    for p in (7, 19, 31):
        tab = CharacterTable(p)
        for t in range(1, p - 1):
            chi = tab.char(t)
            assert abs(sum(chi(a) for a in range(1, p))) < 1e-8


def test_greene_binom_modulus_bound():
    for p in (7, 19, 53, 97):
        tab = CharacterTable(p)
        bound = (math.sqrt(p) + 1) / p + 1e-8
        for t in range(p - 1):
            assert abs(greene_binom(tab.phi * tab.char(t), tab.char(t))) <= bound


def test_gaussian_series_p3_exact_oracle():
    # F_3 has two characters with values in {1, -1}; the whole series is
    # exact integer arithmetic.  chi_t(1) = 1 and chi_t(2) = (-1)^t.
    p = 3

    def chi_val(t, a):
        a %= p
        if a == 0:
            return 0
        return 1 if (t == 0 or a == 1) else -1

    def jac(t1, t2):
        return sum(
            chi_val(t1, a) * chi_val(t2, 1 - a)
            for a in range(p)
            if a != 0 and (1 - a) % p != 0
        )

    phi_t = 1
    # p * greene_binom(phi chi_t, chi_t) is chi_t(-1) * J(phi chi_t, conj chi_t),
    # an integer; so p^2 * 3F2(1) = [sum of those cubed] / (p - 1) exactly.
    total = 0
    for t in range(p - 1):
        p_times_binom = chi_val(t, -1) * jac((phi_t + t) % 2, (-t) % 2)
        total += p_times_binom**3 * chi_val(t, 1)
    assert total % (p - 1) == 0
    assert gaussian_3f2(3) == total // (p - 1)


def test_gaussian_series_real_and_integral():
    for p in (3, 5, 7, 13, 29, 53, 97):
        # tight residual: passing at tol 1e-8 certifies reality + integrality
        # of the character sum, and the closed form must land on it
        value = gaussian_3f2(p)
        assert isinstance(value, int)
        assert charsum_nFn_phi(p, 2, 1, tol=1e-8) == value


def test_gaussian_series_lambda_zero():
    # lambda = 0 kills every term under the series zero rules
    for p in (5, 7):
        assert charsum_nFn_phi(p, 2, 0, tol=1e-6) == 0
        assert charsum_nFn_phi(p, 2, p, tol=1e-6) == 0


def test_gaussian_series_rejects_bad_arguments(spy):
    # the gate goes before the 0 branch: 1000003 (the first prime above
    # MAX_PRIME) and the pseudoprime 3215031751 are 3 (mod 4) and would
    # answer 0 behind it; 9 and 1 are 1 (mod 4) and would reach the squares
    squares = spy(gaussian_hg, "_two_squares")
    for p in (1, 2, 9, 1000003, 3215031751):
        with pytest.raises(ValueError):
            gaussian_3f2(p)
    assert squares == []
    assert not any(exactnum._layers.values())


def test_prime_checks_refuse_a_strong_pseudoprime_to_bases_2_3_5_7():
    # 3215031751 = 151 * 751 * 28351 passed Miller-Rabin with the bases
    # 2, 3, 5 and 7: legendre answered 1 for it, and the series tried to
    # build a 3.2-billion-entry table.  is_odd_prime goes first, so no
    # later call runs where it still answers.
    n = 3215031751
    with pytest.raises(ValueError):
        is_odd_prime(n)
    with pytest.raises(ValueError):
        legendre(2, n)
    with pytest.raises(ValueError):
        gaussian_3f2(n)


@pytest.mark.parametrize("p", (7, 499))
def test_series_is_zero_at_3_mod_4_without_the_sum(spy, p):
    # p = 3 (mod 4): the value is 0, so no two squares are sought and
    # nothing is filed in the store
    squares = spy(gaussian_hg, "_two_squares")
    assert gaussian_3f2(p) == 0
    assert squares == []
    assert not any(exactnum._layers.values())


def test_rounding_residual_guard():
    with pytest.raises(RoundingResidualTooLarge):
        charsum_nFn_phi(13, 2, 1, tol=1e-30)
    # NaN compares False with everything, so it must fail the guard, not pass it
    with pytest.raises(RoundingResidualTooLarge):
        charsum_nFn_phi(13, 2, 1, tol=float("nan"))


def _oracles_agree(n, p_max):
    for p in filter(is_odd_prime, range(3, p_max + 1)):
        top = greene_tables(p, n)[n]
        for lam in (0, 1, 2, 5, p - 1, p):
            expect = 0 if lam % p == 0 else top[lam % p]  # the recursion gives (-1)^n at 0
            assert charsum_nFn_phi(p, n, lam) == expect, (p, n, lam)


@pytest.mark.parametrize("n, p_max", ((1, 199), (2, 199), (3, 97)))
def test_integer_route_matches_charsum_oracle(n, p_max):
    # Greene's recursion in exact integers against the definitional sum
    _oracles_agree(n, p_max)


@pytest.mark.parametrize("n, p_max", ((1, 499), (2, 499), (3, 97)))
def test_full_tables_match_charsum_oracle(n, p_max):
    _oracles_agree(n, p_max)


@functools.cache
def _double_sum_at(p):
    """_double_sum(p), summed once for the three tests that read it at the
    same primes; the oracle itself stays uncached, for the tests that
    monkeypatch its primitive root."""
    return _double_sum(p)


def test_double_sum_matches_full_tables():
    # the oracle's sum over discrete logs against Greene's full tables
    for p in filter(is_odd_prime, range(3, 500)):
        assert _double_sum_at(p) == greene_tables(p, 2)[2][1], p


def test_double_sum_is_zero_at_3_mod_4():
    # the theorem that gaussian_3f2's 0 branch returns, held on the sum
    for p in (*filter(is_odd_prime, range(3, 998, 4)), 5099):
        assert p % 4 == 3
        assert _double_sum_at(p) == 0, p


def test_full_tables_reflect_over_inverse_pairs():
    # T_k(1/x) = phi(-1)^(k+1) phi(x) T_k(x) for x != 0: at k = 0 because
    # phi(1 - 1/x) = phi(-1) phi(x) phi(1 - x), and at k > 0 by y -> 1/y in
    # the level sum, since phi(1/y) w(1/y) = phi(-1) w(y)
    for p in filter(is_odd_prime, range(3, 98)):
        phi = [legendre(a, p) for a in range(p)]
        for k, table in enumerate(greene_tables(p, 3)):
            flip = phi[p - 1] ** (k + 1)
            for x in range(1, p):
                assert table[pow(x, -1, p)] == flip * phi[x] * table[x], (p, k, x)


def _brute_two_squares(p):
    # every odd x below sqrt(p) with p - x^2 a square: exactly one for a
    # prime p = 1 (mod 4)
    (x,) = [x for x in range(1, math.isqrt(p) + 1, 2) if math.isqrt(p - x * x) ** 2 == p - x * x]
    return x, math.isqrt(p - x * x)


def _ono(p):
    # K. Ono, Trans. AMS 350 (1998): p^2 * 3F2(1) is 0 for p = 3 (mod 4) and
    # 4x^2 - 2p for p = x^2 + y^2 with x odd
    if p % 4 == 3:
        return 0
    x, _ = _brute_two_squares(p)
    return 4 * x * x - 2 * p


def test_two_squares_matches_a_brute_force_search():
    for p in (*filter(is_odd_prime, range(5, 10**4, 4)), 999917, 999953, 999961):
        assert p % 4 == 1 and is_odd_prime(p)
        x, y = _two_squares(p)
        assert x % 2 == 1 and x * x + y * y == p, p
        assert (x, y) == _brute_two_squares(p), p


def test_ono_closed_form():
    for p in filter(is_odd_prime, range(3, 998)):
        assert gaussian_3f2(p) == _ono(p), p


@pytest.mark.parametrize("p", (5099, 5101))
def test_ono_closed_form_at_the_cap(p):
    # one prime of each class mod 4 at 5101, the largest p the double sum
    # was once run at; the closed form now has no cap below MAX_PRIME
    assert gaussian_3f2(p) == _ono(p)


def test_closed_form_matches_the_double_sum():
    # the production closed form against the oracle's exact character sum,
    # at both classes mod 4, up to the rows of 5099 and 5101
    for p in (*filter(is_odd_prime, range(3, 2000)), 5099, 5101):
        assert gaussian_3f2(p) == _double_sum_at(p), p


def test_corollary5_small():
    assert cor5_check(3).passed
    assert cor5_check(5).passed
    assert cor5_check(7).passed
    assert cor5_check(13).passed


def test_corollary5_modulus_is_sharp():
    # p J_4^2 = p (4x^2 - 2p) - p J'^2 with v_p(J'^2) = 2 (cor5_check's
    # docstring): the row holds mod p^3 at every odd prime and fails mod
    # p^4 at exactly the primes p = 1 (mod 4)
    primes = list(filter(is_odd_prime, range(3, 2000)))
    assert all(cor5_check(p, 3).passed for p in primes)
    assert [p for p in primes if not cor5_check(p, 4).passed] == [p for p in primes if p % 4 == 1]
