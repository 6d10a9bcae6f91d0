"""Core congruence machinery: truncated sums, X/Y/Z, decomposition checks,
the specialized well-poised instance, and the Pochhammer-pair congruences."""

import itertools
import math
import time
from fractions import Fraction

import pytest

from exact_oracle import (
    COMPANION,
    QUINTIC,
    ROWS,
    Z,
    binom_half,
    central_residue,
    central_sum,
    four_product_terms,
    harmonic_prefix,
    poch_congruence_records,
    whipple_instance_terms,
    x_sum,
    xyz_from_odd_sums,
    xyz_from_prefix_tables,
    y_sum,
)
from supercong import exactnum, padic_gamma, polyengine
from supercong import supercongruence as sc
from supercong.cli import main
from supercong.exactnum import MAX_EXPONENT, MAX_PRIME, is_odd_prime, residue_from_rational
from supercong.gaussian_hg import gaussian_3f2, legendre
from supercong.supercongruence import (
    STATEMENTS,
    WHIPPLE_INST_MAX_P,
    _central_sum,
    _inverses,
    _prefix_quotients,
    _xy_mod,
    cor5_check,
    lemma1_check,
    lemma2_check,
    lhs_vanhamme,
    lhs_vanhamme_b,
    poch_congruence_checks,
    prop3_check,
    rhs_vanhamme,
    rhs_vanhamme_b,
    theorem_os_check,
    vanhamme_b_verify,
    vanhamme_verify,
    whipple_instance_check,
    whipple_instance_sides,
)

PRIMES_TO_50 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def test_harmonic_examples():
    assert harmonic_prefix(1, 0) == [0]
    assert harmonic_prefix(1, 3)[3] == Fraction(11, 6)
    assert harmonic_prefix(2, 2)[2] == Fraction(5, 4)


def test_harmonic_cache_invariants():
    for order in (1, 2):
        values = harmonic_prefix(order, 40)
        assert values[0] == 0
        for n in range(1, 41):
            assert values[n] - values[n - 1] == Fraction(1, n**order)
            assert values[n] == sum(Fraction(1, j**order) for j in range(1, n + 1))


def test_lhs_vanhamme_examples():
    # p = 3: 1 - 5/32 = 27/32, with 3-adic valuation 3
    assert sum((4 * k + 1) * binom_half(k) ** 5 for k in range(2)) == Fraction(27, 32)
    assert lhs_vanhamme(3, 3) == 0
    # p = 5: exact sum 29835/32768
    assert sum((4 * k + 1) * binom_half(k) ** 5 for k in range(3)) == Fraction(29835, 32768)
    assert lhs_vanhamme(5, 3) == 95
    assert lhs_vanhamme(7, 3) == 0
    # the oracle's quintic row is the defining sum
    for p in PRIMES_TO_50:
        k_max = (p - 1) // 2
        assert central_sum(p, *QUINTIC) == sum(
            (4 * k + 1) * binom_half(k) ** 5 for k in range(k_max + 1)
        )


def test_lhs_vanhamme_b_examples():
    # p = 3: exact sum 1 + 7/32 = 39/32
    exact = sum(
        Fraction((-1) ** k * (6 * k + 1), 4**k) * binom_half(k) ** 3 for k in range(2)
    )
    assert exact == Fraction(39, 32)
    assert lhs_vanhamme_b(3) == 39 * pow(32, -1, 81) % 81 == 24
    # the oracle's companion row is the defining sum
    for p in PRIMES_TO_50:
        assert central_sum(p, *COMPANION) == sum(
            Fraction((-1) ** k * (6 * k + 1), 4**k) * binom_half(k) ** 3
            for k in range((p - 1) // 2 + 1)
        )
    # summand denominators stay p-units through k = (p-1)/2
    for p in (3, 5, 13):
        k = (p - 1) // 2
        term = Fraction((-1) ** k * (6 * k + 1), 4**k) * binom_half(k) ** 3
        assert term.denominator % p != 0


def test_rhs_vanhamme_b_and_the_p3_finding():
    # the mod-p^4 companion congruence holds at 5 but genuinely fails at 3,
    # where the two sides agree only mod p^3
    assert rhs_vanhamme_b(3) == 78
    rec3 = vanhamme_b_verify(3)
    assert not rec3.passed
    assert (rec3.lhs - rec3.rhs) % 27 == 0
    rec5 = vanhamme_b_verify(5)
    assert rec5.passed
    assert rec5.lhs == rec5.rhs == 5


def test_gamma_half_square_observed_sign():
    # rhs_vanhamme_b relies on this sign: gamma_p(1/2)^2 = (-1)^((p+1)/2)
    # = -(-1/p) by the reflection formula; the block route pins it here
    from supercong.padic_gamma import gamma_p_rational

    for p in (3, 5, 7, 13, 29):
        g = gamma_p_rational(Fraction(1, 2), p, 3)
        assert g * g % p**3 == (-legendre(-1, p)) % p**3


def test_rhs_vanhamme_b_agrees_with_full_precision_gamma():
    # the shipped path is the closed form p (-1/p); the plain product at
    # full precision pins it down
    for p in (3, 5, 13):
        pm = p**4
        n = (pm + 1) // 2  # representative of 1/2 mod p^4
        acc = 1
        for j in range(1, n):
            if j % p:
                acc = acc * j % pm
        g = (-acc) % pm if n % 2 else acc
        expect = (-p) * pow(g * g % pm, -1, pm) % pm
        assert rhs_vanhamme_b(p, 4) == expect


def test_x_quantity():
    # hand value at p = 3: j=1 contributes (1/8)(3/2 + 9/8 - 3/8) = 9/32
    # (the j = 0 bracket vanishes identically)
    assert x_sum(3) == Fraction(9, 32)
    assert lemma2_check(3).lhs == 0
    assert lemma2_check(5).lhs == 0
    assert residue_from_rational(x_sum(5), 5, 1) == 0


def test_y_quantity():
    # hand value at p = 3: 1 + (1/8)(1 + 3/2 - 9/4) = 33/32
    assert y_sum(3) == Fraction(33, 32)
    assert lemma1_check(3).lhs == 0
    assert lemma1_check(7).lhs == 0
    assert residue_from_rational(y_sum(7), 7, 1) == 0


def test_telescoped_middle_term():
    for p in (5, 7, 13):
        m = (p - 1) // 2
        h1 = harmonic_prefix(1, p - 1)
        for j in range(m + 1):
            expect = sum(Fraction(4 * p, p * p - (2 * r + 1) ** 2) for r in range(j))
            assert h1[m + j] - h1[m - j] == expect


def test_z_quantity():
    assert _xy_mod(3)[2] == residue_from_rational(Fraction(9, 8), 3, 3) == 18
    # equivalence with the alternating binom(-1/2,j)^3 form, exactly
    for p in PRIMES_TO_50:
        m = (p - 1) // 2
        lhs = sum(Fraction(math.comb(2 * j, j) ** 3, 64**j) for j in range(m + 1))
        rhs = sum((-1) ** j * binom_half(j) ** 3 for j in range(m + 1))
        assert lhs == rhs == central_sum(p, *Z)
        assert _xy_mod(p)[2] == residue_from_rational(lhs, p, 3)
    assert _xy_mod(5)[2] == residue_from_rational(
        sum(Fraction(math.comb(2 * j, j) ** 3, 64**j) for j in range(3)), 5, 3
    )


def test_prop3_examples():
    rec3 = prop3_check(3)
    assert rec3.passed and rec3.lhs == 0
    # rhs oracle at p = 3: (-1) * 3 * 9/8 = -27/8, which is 0 mod 27
    assert residue_from_rational(Fraction(-27, 8), 3, 3) == 0
    rec5 = prop3_check(5)
    assert rec5.passed and rec5.lhs == rec5.rhs == 95


def test_theorem_os_examples():
    for p in (3, 5, 7, 13):
        rec = theorem_os_check(p)
        assert rec.passed, (p, rec)
        assert rec.modulus == p**3


def test_vanhamme_verify_examples():
    rec3 = vanhamme_verify(3)
    assert rec3.passed and rec3.lhs == 0 and rec3.modulus == 27
    rec5 = vanhamme_verify(5)
    assert rec5.passed and rec5.lhs == 95 and rec5.modulus == 125
    for p in PRIMES_TO_50:
        rec = vanhamme_verify(p)
        assert rec.passed
        assert (rec.rhs == 0) == (p % 4 == 3)


def test_cor5_record():
    for p in (3, 5, 13):
        rec = cor5_check(p)
        assert rec.passed and rec.statement == "cor5"


def test_record_invariants():
    for p in (3, 5):
        for rec in (vanhamme_verify(p), prop3_check(p), lemma1_check(p), lemma2_check(p)):
            assert rec.passed == (rec.lhs == rec.rhs)
            assert rec.statement in STATEMENTS
    assert not sc._record("lemma1", 5, 1, 5, 5).passed


def test_a_record_is_its_row_as_a_tuple():
    # each side is reduced at the record's one modulus, whatever its sign
    assert sc._record("lemma1", 5, -1, 24, 25) == ("lemma1", 5, 24, 24, 25, True)
    with pytest.raises(AttributeError):
        sc._record("lemma1", 5, -1, 24, 25).passed = False
    assert sc.Statement(None, lemma1_check).max_p == MAX_PRIME


@pytest.mark.parametrize("p", (3, 5, 13))
def test_each_record_modulus_is_the_modulus_of_the_sides_it_reads(p):
    # every side is an int already reduced mod the p^m its record holds
    def row(rec):
        return rec.lhs, rec.rhs, rec.modulus

    assert row(vanhamme_verify(p)) == (lhs_vanhamme(p), rhs_vanhamme(p), p**3)
    assert row(vanhamme_verify(p, 5)) == (lhs_vanhamme(p, 5), rhs_vanhamme(p, 5), p**5)
    assert row(vanhamme_b_verify(p)) == (lhs_vanhamme_b(p), rhs_vanhamme_b(p), p**4)
    assert row(vanhamme_b_verify(p, 2)) == (lhs_vanhamme_b(p, 2), rhs_vanhamme_b(p, 2), p**2)
    x, y, z = _xy_mod(p)
    assert row(lemma1_check(p)) == (y % p, 0, p)
    assert row(lemma2_check(p)) == (x % p, 0, p)
    assert row(prop3_check(p)) == (lhs_vanhamme(p, 3), legendre(-1, p) * p * z % p**3, p**3)
    assert theorem_os_check(p).modulus == p**3
    assert theorem_os_check(p).lhs == gaussian_3f2(p) % p**3
    assert row(cor5_check(p)) == (p * gaussian_3f2(p) % p**3, rhs_vanhamme(p, 3), p**3)
    assert row(cor5_check(p, 5)) == (p * gaussian_3f2(p) % p**5, rhs_vanhamme(p, 5), p**5)
    lhs, rhs = whipple_instance_sides(p)
    rec = whipple_instance_check(p)
    assert row(rec) == (residue_from_rational(lhs, p, 4), residue_from_rational(rhs, p, 4), p**4)


def test_every_quantity_is_an_int_below_its_modulus():
    # each function returns an int v with 0 <= v < p^m, signs included: the
    # odd-n sign of gamma_p_int, negative rationals, and both classes mod 4
    primes = [p for p in range(3, 200) if is_odd_prime(p)]
    assert {p % 4 for p in primes} == {1, 3}

    def reduced(v, pm):
        return type(v) is int and 0 <= v < pm

    for p in primes:
        assert reduced(lemma2_check(p).lhs, p) and reduced(lemma1_check(p).lhs, p)
        assert reduced(_xy_mod(p)[2], p**3)
        for m in range(1, MAX_EXPONENT + 1):
            pm = p**m
            values = [
                *(residue_from_rational(x, p, m) for x in (-1, -2, Fraction(-3, 4), Fraction(-1, 2), Fraction(7, 2))),
                *(padic_gamma.gamma_p_int(n, p, m) for n in (0, 1, 2, p, p + 1, pm - 2, pm - 1)),
                *(padic_gamma.gamma_p_rational(x, p, m) for x in (-3, Fraction(3, 4), Fraction(-3, 4))),
                rhs_vanhamme(p, m),
                rhs_vanhamme_b(p, m),
                lhs_vanhamme(p, m),
                lhs_vanhamme_b(p, m),
                _central_sum(p, m, *Z),
            ]
            assert all(reduced(v, pm) for v in values), (p, m, values)


def test_poch_congruences_small():
    for p in (3, 5, 7, 13):
        records = poch_congruence_checks(p)
        assert len(records) == 4 * ((p - 1) // 2 + 1)
        assert all(rec.passed for rec in records)
    # k = 0 rows are all 1 = 1
    for rec in poch_congruence_checks(5)[:4]:
        assert rec.lhs == 1 and rec.rhs == 1


def test_poch_rows_hold_reduced_sides():
    # (-1)^k binom(-1/2,k) is negative at odd k before its reduction
    for p in (n for n in range(3, 98, 2) if is_odd_prime(n)):
        for rec in poch_congruence_checks(p):
            assert 0 <= rec.lhs < rec.modulus and 0 <= rec.rhs < rec.modulus


@pytest.mark.parametrize(
    "p", [n for n in range(3, 200, 2) if is_odd_prime(n)] + [307, 499, 997, WHIPPLE_INST_MAX_P]
)
def test_poch_congruences_match_the_eight_reduction_oracle(p):
    # the residue walk against the exact walk, each side reduced on its own:
    # equal (statement, lhs, rhs, modulus, passed) records, in order
    assert poch_congruence_checks(p) == poch_congruence_records(p)


_POCH_READERS = ("poch_shift_square", "poch_shift_linear", "poch_conj_quartic", "poch_real_square")


@pytest.mark.parametrize(
    "which, e, readers",
    (
        (0, 0, _POCH_READERS),
        (0, 1, ("poch_shift_square", "poch_conj_quartic", "poch_real_square")),
        (1, 0, ("poch_conj_quartic",)),
        (1, 3, ("poch_conj_quartic",)),
        (2, 0, ("poch_real_square",)),
        (2, 1, ("poch_real_square",)),
    ),
)
def test_a_wrong_pochhammer_residue_fails_exactly_the_records_that_read_it(monkeypatch, which, e, readers):
    # a value off by p^e at one k must fail every record that reads it at a
    # precision above p^e, each side reduced on its own (binom(-1/2,k) off
    # by p is still right mod p)
    p, k = 13, 3
    m = (p - 1) // 2
    values = [list(seq) for seq in sc._pochhammer_residues(p)]
    values[which][k] += p**e
    monkeypatch.setattr(sc, "_pochhammer_residues", lambda q: tuple(values))
    b, qk, rk = (seq[k] for seq in values)
    signed = (-1) ** k * b
    cw, cn = math.comb(m + k, k), math.comb(m, k)
    expected = {
        "poch_shift_square": (cw * cn % p**2, signed * b % p**2, p**2),
        "poch_shift_linear": (signed % p, cw % p, p),
        "poch_conj_quartic": (qk % p**4, b**4 % p**4, p**4),
        "poch_real_square": (rk % p**2, b * b % p**2, p**2),
    }
    records = poch_congruence_checks(p)
    assert [(i // 4, rec.statement) for i, rec in enumerate(records) if not rec.passed] == [
        (k, name) for name in readers
    ]
    for rec in records:
        if rec.passed:
            assert rec.lhs == rec.rhs
            continue
        lhs, rhs, modulus = expected[rec.statement]
        assert lhs != rhs
        assert (rec.lhs, rec.rhs, rec.modulus) == (lhs, rhs, modulus)


@pytest.mark.parametrize(
    "walker", (poch_congruence_checks, whipple_instance_sides, whipple_instance_check)
)
def test_pochhammer_walkers_reject_a_prime_above_the_cap_promptly(walker):
    # 4001 is the first prime above the cap, which bounds the exact nested
    # sums; the residue walk of poch_congruence_checks keeps the same gate.
    # 3987 = 3 * 1329 lies below the cap.
    assert WHIPPLE_INST_MAX_P < 4001 and is_odd_prime(4001)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="Pochhammer-walker cap"):
        walker(4001)
    for p in (1, 9, 3987):
        with pytest.raises(ValueError, match="not an odd prime"):
            walker(p)
    assert time.perf_counter() - start < 0.5


# statement -> (module, name) of the cap constant its costliest layer
# enforces; every other statement runs to the API-wide MAX_PRIME
_LAYER_CAPS = {
    "vanhamme_a": (sc, "QUINTIC_SUM_MAX_P"),
    "prop3": (sc, "QUINTIC_SUM_MAX_P"),
    "whipple_inst": (sc, "WHIPPLE_INST_MAX_P"),
}


def test_every_statement_cap_is_the_constant_its_layer_enforces(monkeypatch, spy):
    # shrink each layer constant to 7: the check itself, not the sweep's
    # registry, then stops above it
    for statement, entry in STATEMENTS.items():
        if statement not in _LAYER_CAPS:
            assert entry.max_p == MAX_PRIME, statement
            continue
        module, name = _LAYER_CAPS[statement]
        assert entry.max_p == getattr(module, name), statement
        with monkeypatch.context() as patch:
            patch.setattr(module, name, 7)
            assert entry.check(7, entry.default_m).passed, statement
            with pytest.raises(ValueError, match="cap 7$"):
                entry.check(11, entry.default_m)


def test_entry_points_refuse_the_first_prime_above_their_cap_promptly():
    # below the cap one call takes up to about 5 s, and the cost of the
    # exact sum grows like p^3; the walker's cap is checked at 4001 above
    p, cap = 7717, sc.QUINTIC_SUM_MAX_P
    assert is_odd_prime(p) and not any(map(is_odd_prime, range(cap + 1, p)))
    start = time.perf_counter()
    for call in (lambda p: lhs_vanhamme(p, 3), vanhamme_verify, prop3_check):
        with pytest.raises(ValueError, match=f"prime {p} exceeds the quintic-sum cap {cap}$"):
            call(p)
    assert time.perf_counter() - start < 1


def test_a_refused_prime_leaves_the_layer_store_as_it_was():
    # every gate runs before the store is touched: cor5_check(9) once
    # emptied the store and filed an empty entry for 9 before refusing it
    def first_prime_above(cap):
        return next(q for q in itertools.count(cap + 1) if is_odd_prime(q))

    checks = [(lambda p, e=entry: e.check(p, e.default_m), entry.max_p) for entry in STATEMENTS.values()]
    polys = (polyengine.p_identity_check, polyengine.coefficient_facts_check, polyengine.lemma_sum_checks)
    checks += [(fn, polyengine.POLY_MAX_P) for fn in polys]
    checks.append((lambda p: polyengine.exp_sum_check(p, 1), MAX_PRIME))
    assert vanhamme_verify(13).passed
    kept = {p: dict(layers) for p, layers in exactnum._layers.items()}
    assert list(kept) == [13]
    for check, cap in checks:
        for p in (9, first_prime_above(cap)):
            with pytest.raises(ValueError):
                check(p)
            assert exactnum._layers == kept, (check, p)


def test_poch_congruence_shift_square_spot_value():
    # p = 5, k = 2: C(4,2) C(2,2) = 6 against (3/8)^2 mod 25 - both reduce to 6
    lhs = residue_from_rational(Fraction(math.comb(4, 2) * math.comb(2, 2)), 5, 2)
    rhs = residue_from_rational(binom_half(2) ** 2, 5, 2)
    assert lhs == rhs == 6


def test_whipple_instance_small():
    for p in (3, 5, 7, 11):
        rec = whipple_instance_check(p)
        assert rec.passed
    # p = 3 is a two-term sum on each side; check the exact sums directly
    lhs_terms, rhs_terms = whipple_instance_terms(3)
    assert len(lhs_terms) == len(rhs_terms) == 2
    assert sum(lhs_terms) == legendre(-1, 3) * 3 * sum(rhs_terms)


@pytest.mark.parametrize(
    "p", [n for n in range(3, 200, 2) if is_odd_prime(n)] + [499, 997, WHIPPLE_INST_MAX_P]
)
def test_whipple_nested_sums_equal_the_exact_walk(p):
    # each nested side against the sum of the exact walk's Fraction terms:
    # the rationals themselves, not only the pass flag
    lhs_terms, rhs_terms = whipple_instance_terms(p)
    lhs, rhs = whipple_instance_sides(p)
    assert lhs == sum(lhs_terms, Fraction(0))
    assert rhs == legendre(-1, p) * p * sum(rhs_terms, Fraction(0))
    assert lhs == rhs


@pytest.mark.parametrize("length", (0, 1, 2, 3, 7))
def test_prefix_quotients_match_the_fractions(length):
    # lengths 1 and 2 are the walks of p = 3 and 5, where the backward sweep
    # takes one and two steps; negative, non-reduced ratios whose
    # denominators are units at every modulus below
    steps = [(-(2 * i + 1) * 11, 2 ** (i + 1) * 11) for i in range(length)]
    for modulus in (3**4, 5**2, 7**4):
        expected, value = [1], Fraction(1)
        for n, d in steps:
            value *= Fraction(n, d)
            expected.append(value.numerator * pow(value.denominator, -1, modulus) % modulus)
        assert _prefix_quotients(steps, modulus) == expected


def test_whipple_instance_terms_match_the_four_product_oracle():
    # the exact walk's running ratios against the separate Pochhammer
    # products, as exact Fractions, term by term
    for p in filter(is_odd_prime, range(3, 98)):
        assert whipple_instance_terms(p) == four_product_terms(p)


def test_whipple_instance_matches_quintic_sum_termwise():
    # each term of the paired 6F5 side reduces to (4k+1) binom(-1/2,k)^5 mod p^4
    for p in (3, 5, 7, 13):
        lhs_terms, _ = whipple_instance_terms(p)
        p4 = p**4
        for k, term in enumerate(lhs_terms):
            target = (4 * k + 1) * binom_half(k) ** 5
            diff = term - target
            assert residue_from_rational(diff, p, 4) == 0


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("p", (3, 5, 7, 97, 997))
def test_inverse_table_matches_pow(p, m):
    # the recurrence 1/i = -(pm // i) / (pm % i) against one inversion per i
    pm = p**m
    assert _inverses(p - 1, pm)[1:] == [pow(i, -1, pm) for i in range(1, p)]


def test_sine_parity_matches_quadratic_character():
    for p in PRIMES_TO_50:
        assert (-1) ** ((p - 1) // 2) == legendre(-1, p)


def test_exact_vs_modular_accumulation_small():
    # the exact quintic sum against the kernel, the modular sums against the
    # exact oracle
    for p in (3, 5, 7, 11, 13):
        assert lhs_vanhamme(p, 3) == _central_sum(p, 3, *QUINTIC)
        assert lhs_vanhamme_b(p, 4) == central_residue(p, 4, COMPANION)
        assert _xy_mod(p)[2] == central_residue(p, 3, Z)
        assert lemma2_check(p).lhs == residue_from_rational(x_sum(p), p, 1)
        assert lemma1_check(p).lhs == residue_from_rational(y_sum(p), p, 1)


def test_exact_vs_modular_spot_large():
    # spot-check each production route against the other one well past the
    # small range
    for p in (97, 199):
        assert lemma2_check(p).lhs == residue_from_rational(x_sum(p), p, 1)
        assert lemma1_check(p).lhs == residue_from_rational(y_sum(p), p, 1)
        assert lhs_vanhamme(p, 3) == _central_sum(p, 3, *QUINTIC)
    assert lhs_vanhamme_b(499, 4) == central_residue(499, 4, COMPANION)
    # the pass's Z, which prop3 and thm_os read, against the exact oracle at
    # every prime of the finite_field and default_sweep benchmark ranges
    for p in range(3, 1000, 2):
        if is_odd_prime(p):
            assert _xy_mod(p)[2] == central_residue(p, 3, Z)


@pytest.mark.parametrize("p", (3, 5, 7, 97, 199))
def test_kept_quintic_sum_reduces_at_every_modulus(p):
    # the exact quintic sum is kept per prime and reduced at whatever
    # modulus is asked; the kernel matches the exact oracle on every row
    for m in range(1, MAX_EXPONENT + 1):
        assert lhs_vanhamme(p, m) == _central_sum(p, m, *QUINTIC)
        for row in ROWS:
            assert _central_sum(p, m, *row) == central_residue(p, m, row)


def test_y_mod_p_squared_agrees_with_exact():
    # theorem_os_check reads X mod p, Y mod p^2 and Z mod p^3 from one pass
    # mod p^3; validate each against the exact sums at that precision
    for p in filter(is_odd_prime, range(3, 200)):
        x, y, z = _xy_mod(p)
        assert (x % p, y % p**2, z) == (
            residue_from_rational(x_sum(p), p, 1),
            residue_from_rational(y_sum(p), p, 2),
            central_residue(p, 3, Z),
        )


def test_xy_mod_p_is_the_mod_p_cubed_pass_reduced():
    # the lemmas read X and Y as the pass mod p^3 reduced mod p, where both
    # vanish, and the pass's Z, which prop3 and thm_os read, is the
    # kernel's Z row, at every prime of the finite_field and default_sweep
    # benchmark ranges
    for p in filter(is_odd_prime, range(3, 998)):
        x, y, z = _xy_mod(p)
        assert (lemma2_check(p).lhs, lemma1_check(p).lhs) == (x % p, y % p) == (0, 0)
        assert z == _central_sum(p, 3, *Z)


def test_stepped_pass_equals_the_prefix_table_loop():
    # the whole triple mod p^3, X and Y too, not only at the precision the
    # statements read them at, against the loop over full harmonic prefix
    # tables, at both classes mod 4 and well past the exact oracle's range
    for p in (*filter(is_odd_prime, range(3, 2000)), 7681, 7703, 99989, 99991):
        assert _xy_mod(p) == xyz_from_prefix_tables(p), p


def test_stepped_pass_equals_the_odd_sum_loop():
    # the whole triple mod p^3 against a loop that shares no table and no
    # index m + j with the pass: A, B and C are p-polynomials in running
    # sums over 1/j and 1/(2j-1) that do not depend on p, in both classes
    # mod 4 up to about 10^5, where the pass's unreduced differences are long
    for p in (*filter(is_odd_prime, range(3, 2000)), 99989, 99991):
        assert _xy_mod(p) == xyz_from_odd_sums(p), p


def test_only_vanhamme_b_runs_the_modular_kernel(spy):
    # at both classes mod 4: lemma1, lemma2, prop3 and thm_os read the one
    # X/Y/Z pass, and no statement but vanhamme_b runs the modular kernel
    kernel = spy(sc, "_central_sum")
    for p in (101, 103):
        for name, statement in STATEMENTS.items():
            if name != "vanhamme_b":
                assert statement.check(p, statement.default_m).passed, name
        assert kernel == []
        assert STATEMENTS["vanhamme_b"].check(p, 4).passed
        assert kernel == [(p, 4, *COMPANION)]
        kernel.clear()


@pytest.mark.parametrize("statements, m", [(("lemma1", "lemma2"), 1), (("thm_os",), 3)])
def test_harmonic_tables_are_built_once_per_prime(spy, statements, m):
    # lemma1 and lemma2 read X and Y mod p, thm_os reads X, Y and Z mod
    # p^3: either way from one pass mod p^3, one inverse table per prime
    builds = spy(sc, "_inverses")
    p = 101
    for name in statements:
        rec = STATEMENTS[name].check(p, None)
        assert rec.passed and rec.modulus == p**m
    assert builds == [(p - 1, p**3)]


def test_every_order_of_the_statements_builds_each_layer_once(spy):
    # at one prime, p = 1 (mod 4) so that vanhamme_a and cor5 read Gamma_p:
    # the quintic once and the X/Y/Z pass once, mod p^3, in whatever order
    # the statements come; their Gamma_p side is the closed form p J_4^2,
    # so no statement builds a Gamma_p block table
    p = 13
    quintic = spy(sc, "_quintic_sum")
    tables = spy(sc, "_inverses")
    blocks = spy(padic_gamma, "_block_table")
    expected = None
    for order in itertools.permutations(("vanhamme_a", "prop3", "lemma1", "lemma2", "thm_os", "cor5")):
        exactnum._layers.clear()
        for calls in (quintic, tables, blocks):
            calls.clear()
        records = {name: STATEMENTS[name].check(p, STATEMENTS[name].default_m) for name in order}
        assert all(rec.passed for rec in records.values())
        assert expected in (None, records)
        expected = records
        assert quintic == [(p,)]
        assert tables == [(p - 1, p**3)]
        assert blocks == []


@pytest.mark.parametrize("statements", ("lemma1,thm_os,lemma2", "lemma2,thm_os,lemma1"))
def test_harmonic_tables_are_built_once_per_prime_and_precision(spy, capsys, statements):
    # the lemmas read X and Y mod p and thm_os mod p^3, all from the one
    # pass mod p^3 of each prime, so interleaving the statements rebuilds
    # nothing
    builds = spy(sc, "_inverses")
    assert main(["verify", "--statements", statements, "--primes", "101..103", "--format", "json-lines"]) == 0
    assert capsys.readouterr().out.count('"pass": true') == 6
    assert builds == [(100, 101**3), (102, 103**3)]


def test_x_sum_random_p_integrality():
    # the exact reduced forms are p-integral and divisible by p: v_p >= 1
    for p in (3, 5, 7, 13, 31):
        assert residue_from_rational(x_sum(p), p, 1) == 0
        assert residue_from_rational(y_sum(p), p, 1) == 0
