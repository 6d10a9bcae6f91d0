"""p-adic Gamma tests; the oracle is the plain one-at-a-time signed product."""

import random
from fractions import Fraction

import pytest

from supercong import exactnum, gaussian_hg, padic_gamma
from supercong.exactnum import NotPIntegral, is_odd_prime, residue_from_rational
from supercong.gaussian_hg import rhs_vanhamme, rhs_vanhamme_b
from supercong.padic_gamma import gamma_p_int, gamma_p_rational


def gamma_oracle(n, p, pm):
    acc = 1
    for j in range(1, n):
        if j % p:
            acc = acc * j % pm
    return (-acc) % pm if n % 2 else acc


def test_gamma_p_int_examples():
    for p, m in [(3, 1), (5, 2), (7, 3), (13, 2)]:
        assert gamma_p_int(0, p, m) == 1
    assert gamma_p_int(4, 5, 2) == 6  # 1*2*3 = 6
    # n = 7 skips j = 5: -(1*2*3*4*6) = -144 = 6 (mod 25)
    assert -144 % 25 == 6
    assert gamma_p_int(7, 5, 2) == 6


def test_gamma_p_int_sign_convention():
    for p in (3, 5, 7, 11, 13):
        assert gamma_p_int(1, p, 2) == p * p - 1  # -1
        assert gamma_p_int(2, p, 2) == 1


def test_gamma_p_int_against_oracle():
    rng = random.Random(42)
    for _ in range(60):
        p = rng.choice([3, 5, 7, 13, 97])
        m = rng.randint(1, 3)
        n = rng.randrange(0, 2500)
        assert gamma_p_int(n, p, m) == gamma_oracle(n, p, p**m)


@pytest.mark.parametrize(("p", "m"), [(5, 2), (101, 3)])
def test_a_huge_n_is_reduced_mod_p_m_before_the_product(spy, p, m):
    # Gamma_p(n) mod p^m depends only on n mod p^m; a 2.8-Mbit n once
    # reached the block route whole, where pow(block, q, p^m) took 50 s at
    # p = 999983
    pm = p**m
    n = 7**10**4 + 3
    calls = spy(padic_gamma, "_unit_product")
    value = gamma_p_int(n, p, m)
    assert len(calls) == 1 and calls[0][0] < pm
    assert value == gamma_p_int(n % pm, p, m)
    for k in (1, 2, 3, 10, p, 7**50):
        assert gamma_p_int(n + k * pm, p, m) == value


def gamma_oracle_at(ns, p, pm):
    """gamma_oracle at every n in ns, from one pass of the plain product."""
    wanted = set(ns)
    found = {}
    acc = 1
    for j in range(max(wanted) + 1):
        if j in wanted:
            found[j] = (-acc) % pm if j % 2 else acc
        if j and j % p:
            acc = acc * j % pm
    return found


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 97, 101])
def test_block_route_against_oracle(p):
    # block boundaries qp-1, qp, qp+1 with q below and above the m + 2
    # samples of the block logarithm, seeded random n up to 2p^m (so n
    # also runs past p^m, which gamma_p_int reduces first), at every m
    # with p^m <= 10^6
    rng = random.Random(1000 + p)
    m = 1
    while m <= 8 and p**m <= 10**6:
        pm = p**m
        ns = {q * p + d for q in range(1, m + 6) for d in (-1, 0, 1)}
        ns |= {q * p + d for q in (pm // p, 2 * pm // p) for d in (-1, 0, 1)}
        ns |= {rng.randrange(0, 2 * pm) for _ in range(40)}
        want = gamma_oracle_at(ns, p, pm)
        for n in sorted(ns):
            assert gamma_p_int(n, p, m) == want[n], (n, p, m)
        m += 1


def test_block_route_tail_prefixes_against_oracle():
    # above 1024 a tail starts from a cached prefix of the block, whose log
    # is Newton-evaluated at q; cover both sides of several prefixes
    p, m = 1031, 2
    pm = p**m
    rng = random.Random(1031)
    ns = {q * p + r for q in (0, 1, 5, p - 1) for r in (1023, 1024, 1025, 1026, p - 1)}
    ns |= {rng.randrange(0, pm) for _ in range(60)}
    want = gamma_oracle_at(ns, p, pm)
    for n in sorted(ns):
        assert gamma_p_int(n, p, m) == want[n], n


def test_block_route_on_long_products():
    # n = 70000 at p = 101 wraps past p^2 and is reduced to 8794, which
    # crosses 87 full blocks; 515151 is the length of the Gamma_p(1/2)
    # mod p^3 product at p = 101
    assert gamma_p_int(70000, 101, 2) == gamma_oracle(70000, 101, 101**2)
    n = residue_from_rational(Fraction(1, 2), 101, 3)
    assert n == 515151
    assert gamma_p_int(n, 101, 3) == gamma_oracle(n, 101, 101**3)


def reflection_sign(x, p):
    """(-1)^x0 with x0 in 1..p and x0 = x (mod p)."""
    x0 = x.numerator * pow(x.denominator, -1, p) % p or p
    return (-1) ** x0


@pytest.mark.parametrize("p", [101, 499, 997, 7919, 999983])
def test_reflection_formula_beyond_the_plain_product(p):
    # Gamma_p(x) Gamma_p(1-x) = (-1)^x0: an oracle independent of any
    # product, at sizes (up to p^m ~ 10^48) the plain product cannot reach
    for m in range(2, 9):
        pm = p**m
        for x in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)):
            g = gamma_p_rational(x, p, m)
            h = gamma_p_rational(1 - x, p, m)
            assert g * h % pm == reflection_sign(x, p) % pm, (x, p, m)


def test_rhs_at_the_prime_cap():
    assert rhs_vanhamme(999983, 3) == 0  # 999983 = 3 (mod 4)
    # 999961 = 1 (mod 4): -p / Gamma_p(3/4)^4 = -p * Gamma_p(1/4)^4 by the
    # reflection formula, so the right-hand side follows from Gamma_p(1/4)
    p = 999961
    g = gamma_p_rational(Fraction(1, 4), p, 2)
    assert rhs_vanhamme(p, 3) == -p * pow(g, 4, p**2) % p**3


def block_route_rhs(p):
    """-p gamma_p(1/4)^4 = -p / gamma_p(3/4)^4 mod p^8 through the block
    route, from one gamma_p(1/4) mod p^7: reduced mod p^m it serves every
    m <= 8, the leading p supplying the last digit."""
    g = gamma_p_rational(Fraction(1, 4), p, 7)
    return -p * pow(g, 4, p**8)


def test_rhs_vanhamme_against_the_block_route():
    # the closed form p J_4^2 (Gross-Koblitz) is the production route; the
    # block route is its oracle at every odd prime below 2000, in both
    # classes mod 4, at every m = 1..8
    for p in filter(is_odd_prime, range(3, 2000, 2)):
        expect = block_route_rhs(p) if p % 4 == 1 else 0
        for m in range(1, 9):
            assert rhs_vanhamme(p, m) == expect % p**m, (p, m)


def test_rhs_vanhamme_against_the_block_route_near_the_cap():
    # the largest prime of each class up to MAX_PRIME, at m = 8, where the
    # block route needs its longest tables
    assert rhs_vanhamme(999961, 8) == block_route_rhs(999961) % 999961**8
    assert rhs_vanhamme(999983, 8) == 0  # 999983 = 3 (mod 4)


def test_rhs_vanhamme_gate_runs_before_the_squares(spy):
    # 1 and 9 are 1 (mod 4) and would reach the squares behind the gate;
    # 1000003 (the first prime above MAX_PRIME) and the pseudoprime
    # 3215031751 are 3 (mod 4) and would answer 0 behind it
    squares = spy(gaussian_hg, "_two_squares")
    for p in (1, 9, 1000003, 3215031751):
        with pytest.raises(ValueError):
            rhs_vanhamme(p, 3)
    assert squares == []
    assert not any(exactnum._layers.values())
    # p = 3 (mod 4): the value is 0 and no squares are sought
    for p in (3, 7, 499, 999983):
        assert rhs_vanhamme(p, 3) == 0
    assert squares == []
    # p = 1 (mod 4): one pair of squares, kept for the prime, so a second
    # precision and Ono's closed form read it without a second build
    value = rhs_vanhamme(13, 8)
    assert squares == [(13,)]
    assert list(exactnum._layers) == [13]
    assert rhs_vanhamme(13, 3) == value % 13**3
    gaussian_hg.gaussian_3f2(13)
    assert squares == [(13,)]
    assert value == block_route_rhs(13) % 13**8


@pytest.mark.parametrize("p", [3, 5, 7, 13, 101, 997, 999961, 999983])
def test_companion_closed_form_against_the_block_route(p):
    # rhs_vanhamme_b is p (-1/p) by reflection; the block route gives
    # -p / gamma_p(1/2)^2 at precision max(m-1, 1), exact thanks to the
    # leading p.  One gamma_p mod p^7 serves every m: reduced mod p^k it is
    # gamma_p mod p^k (test_precision_coherence)
    g = gamma_p_rational(Fraction(1, 2), p, 7)
    for m in range(1, 9):
        pk = p ** max(m - 1, 1)
        expect = -p * pow(g % pk, -2, pk) % p**m
        assert rhs_vanhamme_b(p, m) == expect, (p, m)


def test_gamma_p_rational_examples():
    assert gamma_p_rational(2, 7, 3) == gamma_p_int(2, 7, 3)
    assert gamma_p_rational(Fraction(3, 4), 5, 2) == 6
    with pytest.raises(NotPIntegral):
        gamma_p_rational(Fraction(1, 3), 3, 2)


def test_gamma_p_takes_only_an_int_or_a_fraction():
    # a float stood for its binary double: gamma_p_rational(0.1, 7, 2) was
    # 47, though gamma_7(1/10) is 25 mod 49, and gamma_p_int(2.0, 5, 2)
    # failed inside range(); each is refused before the store is touched
    assert gamma_p_rational(Fraction(1, 10), 7, 2) == 25
    kept = {p: dict(layers) for p, layers in exactnum._layers.items()}
    for call in (
        lambda: gamma_p_rational(0.1, 7, 2),
        lambda: gamma_p_rational("1/10", 7, 2),
        lambda: residue_from_rational(0.75, 5, 2),
        lambda: gamma_p_int(2.0, 5, 2),
        lambda: gamma_p_int("3", 5, 2),
    ):
        with pytest.raises(TypeError):
            call()
        assert exactnum._layers == kept


def test_product_bound_is_the_representative():
    # the defining product of gamma_p_rational(x) mod p^m runs up to x's
    # residue mod p^m
    assert residue_from_rational(Fraction(3, 4), 5, 2) == 7  # 3 * 4^-1 = 7 (mod 25)
    assert residue_from_rational(2, 7, 3) == 2
    # the defining product for the bound reproduces the value
    n = residue_from_rational(Fraction(3, 4), 5, 2)
    assert gamma_p_rational(Fraction(3, 4), 5, 2) == gamma_oracle(n, 5, 25)


def test_rhs_vanhamme_examples():
    assert rhs_vanhamme(3, 3) == 0
    assert rhs_vanhamme(5, 3) == 95
    assert rhs_vanhamme(7, 3) == 0  # 7 = 3 (mod 4)


def test_rhs_vanhamme_agrees_with_full_precision_gamma():
    # the leading p factor makes precision m-1 exact; cross-check against
    # a gamma computed at full precision m
    for p in (5, 13, 17, 29):
        m = 3
        pm = p**m
        n = Fraction(3, 4).numerator * pow(4, -1, pm) % pm
        g_full = gamma_oracle(n, p, pm)
        expect = (-p) * pow(g_full, -4, pm) % pm
        assert rhs_vanhamme(p, m) == expect


def test_precision_coherence():
    rng = random.Random(7)
    for _ in range(40):
        p = rng.choice([3, 5, 7, 11])
        m = rng.randint(2, 4)
        num = rng.randint(0, 50)
        den = rng.choice([1, 2, 4, 7, 9, 11])
        if den % p == 0:
            continue
        x = Fraction(num, den)
        hi = gamma_p_rational(x, p, m)
        lo = gamma_p_rational(x, p, m - 1)
        assert hi % p ** (m - 1) == lo


def test_gamma_is_a_unit():
    rng = random.Random(8)
    for _ in range(50):
        p = rng.choice([3, 5, 11])
        m = rng.randint(1, 3)
        n = rng.randrange(0, 400)
        assert gamma_p_int(n, p, m) % p != 0


def test_gamma_at_negative_p_integral_rational():
    # v_p >= 0 is the only requirement; negative rationals resolve through
    # their canonical representative like everything else
    x = Fraction(-1, 2)
    for p, m in [(5, 2), (7, 3)]:
        pm = p**m
        rep = (-1) * pow(2, -1, pm) % pm
        assert gamma_p_rational(x, p, m) == gamma_oracle(rep, p, pm)
        lo = gamma_p_rational(x, p, m - 1)
        assert gamma_p_rational(x, p, m) % p ** (m - 1) == lo


def test_independent_of_approximating_sequence():
    rng = random.Random(11)
    for p, m, x in [(5, 2, Fraction(3, 4)), (7, 2, Fraction(1, 2)), (3, 3, Fraction(2, 7))]:
        pm = p**m
        base = gamma_p_rational(x, p, m)
        rep = x.numerator * pow(x.denominator, -1, pm) % pm
        for _ in range(10):
            n_prime = rep + pm * rng.randint(0, 40)
            assert gamma_p_int(n_prime, p, m) == base
