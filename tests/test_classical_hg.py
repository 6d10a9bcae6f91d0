"""Classical hypergeometric machinery: exact Pochhammer/binomial identities,
terminating sums, the well-poised transformation, and float series."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_oracle import (
    PoleAtNonpositiveInteger,
    binom_half,
    central_binom_identity_check,
    entry20_loop,
    gamma_limit_approx,
    ramanujan_loop,
    reflection_check,
)
from supercong import classical_hg
from supercong.classical_hg import (
    MAX_SERIES_TERMS,
    LowerParamPole,
    ParameterPole,
    _nested_sum,
    entry20_partial_sum,
    entry20_target,
    hypergeom_terminating,
    pochhammer,
    ramanujan_partial_sum,
    ramanujan_target,
    whipple_check,
)


def test_pochhammer_examples():
    rng = random.Random(3)
    for _ in range(20):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        assert pochhammer(a, 0) == 1
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    for k in range(11):
        assert pochhammer(Fraction(5, 4), k) / pochhammer(Fraction(1, 4), k) == 4 * k + 1


def test_exact_entry_points_take_only_an_int_or_a_fraction():
    # a float stood for its binary double and a str was parsed:
    # pochhammer(0.1, 2) was a 100-bit fraction, not 11/100, and
    # pochhammer("1/2", 2) was 3/4
    assert pochhammer(Fraction(1, 10), 2) == Fraction(11, 100)
    assert hypergeom_terminating([-1, Fraction(1, 10)], [1], 1) == Fraction(9, 10)
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    for call in (
        lambda: pochhammer(0.1, 2),
        lambda: pochhammer("1/2", 2),
        lambda: hypergeom_terminating([-1, 0.1], [1], 1),
        lambda: hypergeom_terminating([-1], [0.5], 1),
        lambda: hypergeom_terminating([-1], [1], 1.0),
        lambda: whipple_check(0.5, third, quarter, third, 2),
    ):
        with pytest.raises(TypeError, match="int or a Fraction"):
            call()


def test_pochhammer_recurrence():
    rng = random.Random(4)
    for _ in range(200):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        n = rng.randint(0, 12)
        assert pochhammer(a, n + 1) == pochhammer(a, n) * (a + n)


def test_binom_half_examples():
    assert binom_half(0) == 1
    assert binom_half(1) == Fraction(-1, 2)
    assert binom_half(2) == Fraction(3, 8)  # (-1/2)(-3/2)/2!


def test_binom_half_pochhammer_form():
    for k in range(31):
        assert binom_half(k) == (-1) ** k * pochhammer(Fraction(1, 2), k) / math.factorial(k)


def test_central_binom_identity():
    assert central_binom_identity_check(0)
    assert math.comb(4, 2) == 16 * Fraction(3, 8)
    assert central_binom_identity_check(2)
    assert all(central_binom_identity_check(j) for j in range(1, 51))


def test_hypergeom_terminating_zero_upper():
    rng = random.Random(6)
    for _ in range(20):
        upper = (Fraction(0), Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        lower = (Fraction(rng.randint(1, 9), rng.randint(1, 5)),)
        z = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert hypergeom_terminating(upper, lower, z) == 1


def test_hypergeom_terminating_two_terms():
    rng = random.Random(7)
    for _ in range(50):
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 7))
        z = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        got = hypergeom_terminating((Fraction(-1), b), (c,), z)
        assert got == 1 - b * z / c


def test_hypergeom_terminating_pole_detection():
    # int parameters are normalised to Fractions inside
    with pytest.raises(LowerParamPole):
        hypergeom_terminating((-3, 1), (-1,), 1)
    # a pole past the termination index is harmless
    value = hypergeom_terminating((-1, 1), (-5,), 1)
    assert value == 1 - Fraction(1, -5)
    with pytest.raises(ValueError):
        hypergeom_terminating((Fraction(1, 2),), (), Fraction(1))


def test_hypergeom_terminating_matches_the_pochhammer_term_sum():
    # stepping one term ratio gives the defining sum's exact rationals:
    # sum_k prod (a)_k / prod (b)_k z^k / k!, where (a)_k = 0 past -a
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(0, 9)
        upper = [Fraction(-n)] + [
            Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(rng.randint(0, 3))
        ]
        lower = [Fraction(rng.randint(1, 9), rng.randint(1, 7)) for _ in range(rng.randint(0, 3))]
        z = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        expected = sum(
            math.prod(pochhammer(a, k) for a in upper)
            / math.prod(pochhammer(b, k) for b in lower)
            * z**k
            / math.factorial(k)
            for k in range(n + 1)
        )
        assert hypergeom_terminating(upper, lower, z) == expected


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(0, 12).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(-10**6, 10**6), min_size=k + 1, max_size=k + 1),
            st.lists(
                st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool)),
                min_size=k,
                max_size=k,
            ),
        )
    )
)
@example(([7], []))  # K = 0: the sum is c_0
@example(([-3, 5], [(-2, 7)]))  # a negative numerator
@example(([1, 1, 1], [(-4, 3), (5, -9)]))  # a negative denominator
def test_nested_sum_matches_the_term_by_term_sum(case):
    coeffs, ratios = case
    expected, term = Fraction(0), Fraction(1)
    for k, c in enumerate(coeffs):
        if k:
            term *= Fraction(*ratios[k - 1])
        expected += c * term
    assert _nested_sum(coeffs, ratios) == expected


def test_exact_counts_refuse_a_count_above_the_cap(monkeypatch):
    # the size bound caps each count: with the bound at the size of the
    # largest count, that count runs and the next one raises
    half = Fraction(1, 2)
    whipple = (Fraction(1), half, Fraction(1, 3), Fraction(1, 4))
    monkeypatch.setattr(classical_hg, "MAX_EXACT_SIZE", classical_hg._size(3, (half,)))
    assert pochhammer(half, 3) == Fraction(15, 8)
    with pytest.raises(ValueError, match="exceeds the bound"):
        pochhammer(half, 4)
    monkeypatch.setattr(classical_hg, "MAX_EXACT_SIZE", _hypergeom_size((-2, 1), (1,), -1))
    assert hypergeom_terminating((-2, 1), (1,), -1) == 4  # (1 - z)^2 at z = -1
    with pytest.raises(ValueError, match="exceeds the bound"):
        hypergeom_terminating((-3, 1), (1,), -1)
    monkeypatch.setattr(classical_hg, "MAX_EXACT_SIZE", _whipple_size(*whipple, 2))
    assert whipple_check(*whipple, 2)
    with pytest.raises(ValueError, match="exceeds the bound"):
        whipple_check(*whipple, 3)


def _first_count_past_the_bound(size_of) -> int:
    """The least count n whose size exceeds MAX_EXACT_SIZE (size_of grows with n)."""
    lo, hi = 0, classical_hg.MAX_EXACT_SIZE + 1  # a size is at least its count
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if size_of(mid) <= classical_hg.MAX_EXACT_SIZE else (lo, mid)
    return hi


def test_exact_counts_refuse_a_huge_count_promptly():
    # at 10**12 each of these never returned: the loop ran the count given;
    # the first count past the size bound is refused before any step too
    half = Fraction(1, 2)
    params = (Fraction(1), half, Fraction(1, 3), Fraction(1, 4))
    cases = (
        (lambda n: pochhammer(half, n), lambda n: classical_hg._size(n, (half,))),
        (lambda n: hypergeom_terminating((-n,), (), 1), lambda n: _hypergeom_size((-n,), (), 1)),
        (lambda n: whipple_check(*params, n), lambda n: _whipple_size(*params, n)),
    )
    start = time.perf_counter()
    for call, size_of in cases:
        for n in (_first_count_past_the_bound(size_of), 10**12):
            with pytest.raises(ValueError, match="exceeds the bound"):
                call(n)
    assert time.perf_counter() - start < 1


def test_exact_counts_refuse_a_non_integer_count_up_front(spy):
    # 2.0 reached _size (no bit_length) and the pole loop (no denominator)
    # as an AttributeError; a count equal to 2 is still not an int
    half = Fraction(1, 2)
    params = (1, half, Fraction(1, 3), Fraction(1, 4))
    sizes = spy(classical_hg, "_size")
    for count in (2.0, Fraction(2), "2"):
        with pytest.raises(TypeError, match="n must be an integer"):
            pochhammer(half, count)
        with pytest.raises(TypeError, match="m must be an integer"):
            whipple_check(*params, count)
    assert sizes == []
    assert pochhammer(half, 2) == Fraction(3, 4)
    assert whipple_check(*params, 2)


def _hypergeom_size(upper, lower, z):
    """The size hypergeom_terminating books: its termination index times
    the bits of its parameters and argument."""
    row = [Fraction(x) for x in (*upper, *lower, z)]
    n = min(-int(a) for a in map(Fraction, upper) if a.denominator == 1 and a <= 0)
    return classical_hg._size(n, row)


def _whipple_size(a, c, d, e, m):
    """The size whipple_check books: its 6F5 and 3F2 rows and its two
    Pochhammer symbols, recounted from the transformation."""
    f = Fraction(-m)
    six = (a, 1 + a / 2, c, d, e, f, a / 2, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a - f, -1)
    three = (1 + a - c - d, e, f, 1 + a - c, 1 + a - d, 1)
    return sum(classical_hg._size(m, row) for row in (six, three, (1 + a,), (1 + a - e,)))


def test_exact_sizes_refuse_one_past_the_bound(monkeypatch):
    # term count × parameter bits: with the bound at a call's size the call
    # runs; one below, it raises before any step and names the bound
    tiny = Fraction(1, 10**100)
    third = Fraction(1, 3)
    whipple = (Fraction(1), tiny, third, Fraction(1, 4), 3)
    cases = (
        (lambda: pochhammer(tiny, 3), classical_hg._size(3, (tiny,))),
        (lambda: hypergeom_terminating((-3, tiny), (third,), 1), _hypergeom_size((-3, tiny), (third,), 1)),
        (lambda: whipple_check(*whipple), _whipple_size(*whipple)),
    )
    for call, size in cases:
        monkeypatch.setattr(classical_hg, "MAX_EXACT_SIZE", size)
        call()
        monkeypatch.setattr(classical_hg, "MAX_EXACT_SIZE", size - 1)
        with pytest.raises(ValueError, match=f"size {size} .* exceeds the bound {size - 1}$"):
            call()


def test_exact_sizes_refuse_large_parameters_promptly():
    # pochhammer(1/10^100, 4000) took 11.3 s when each step reduced a
    # Fraction; modest counts with parameters this large are refused before
    # the first step
    tiny = Fraction(1, 10**1000)
    start = time.perf_counter()
    for call in (
        lambda: pochhammer(Fraction(1, 10**100), 4000),
        lambda: hypergeom_terminating((-2200, tiny), (Fraction(1, 3),), 1),
        lambda: whipple_check(tiny, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 1800),
    ):
        with pytest.raises(ValueError, match="exceeds the bound"):
            call()
    assert time.perf_counter() - start < 0.5


def test_small_whipple_tuples_stay_far_inside_the_size_bound(monkeypatch):
    # parameters with |numerator|, denominator <= 12 and m <= 8 (the
    # machinery benchmark's tuples) pass under a hundredth of the bound
    monkeypatch.setattr(classical_hg, "MAX_EXACT_SIZE", classical_hg.MAX_EXACT_SIZE // 100)
    for a, c, d, e, m in _random_whipple_tuples(7, 40):
        assert whipple_check(a, c, d, e, m)


def test_whipple_example():
    assert whipple_check(1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 2)


def test_whipple_prefactor_pole():
    # e = 1 + a makes (1+a-e)_m vanish
    with pytest.raises(ParameterPole):
        whipple_check(1, Fraction(1, 2), Fraction(1, 3), 2, 2)


def _whipple_pole(a, c, d, e, m):
    for b in (a / 2, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a + m):
        if b.denominator == 1 and 0 >= b > -m:
            return True
    for g in (1 + a, 1 + a - e + m):
        if g.denominator == 1 and g <= 0:
            return True
    return False


def _random_whipple_tuples(seed, count, max_abs=12, max_m=8):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        a, c, d, e = (
            Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_abs))
            for _ in range(4)
        )
        m = rng.randint(1, max_m)
        if _whipple_pole(a, c, d, e, m):
            continue
        found.append((a, c, d, e, m))
    return found


def test_whipple_random_sample():
    for a, c, d, e, m in _random_whipple_tuples(20250810, 40):
        assert whipple_check(a, c, d, e, m)


def test_whipple_c_d_symmetry():
    for a, c, d, e, m in _random_whipple_tuples(99, 15):
        assert whipple_check(a, c, d, e, m) == whipple_check(a, d, c, e, m)


def test_ramanujan_partial_sum_examples():
    assert ramanujan_partial_sum(0) == 1.0
    assert ramanujan_partial_sum(1) == float(Fraction(27, 32))  # 1 - 5/32
    assert ramanujan_partial_sum(1) == 0.84375


def test_ramanujan_terms_alternate_and_decay():
    previous_sum = ramanujan_partial_sum(1)
    previous_gap = None
    for n in range(2, 60):
        current = ramanujan_partial_sum(n)
        gap = current - previous_sum
        assert gap * (-1) ** n > 0  # terms alternate in sign
        if previous_gap is not None:
            assert abs(gap) < previous_gap
        previous_gap = abs(gap)
        previous_sum = current


def test_entry20_partial_sum_examples():
    assert entry20_partial_sum(0) == 1.0
    assert entry20_partial_sum(1) == 1.21875  # 1 + 7/32
    assert abs(entry20_partial_sum(60) - entry20_target()) < 1e-12


@pytest.mark.parametrize(
    "partial_sum, loop",
    [(ramanujan_partial_sum, ramanujan_loop), (entry20_partial_sum, entry20_loop)],
)
def test_partial_sums_match_the_hand_written_loops_bit_for_bit(partial_sum, loop):
    # both rows go through one kernel; each series' own loop is its oracle
    for n in (*range(2001), 10**5):
        assert partial_sum(n) == loop(n), n


def test_partial_sums_reject_n_terms_outside_the_cap():
    for partial_sum in (ramanujan_partial_sum, entry20_partial_sum):
        for n_terms in (-1, MAX_SERIES_TERMS + 1):
            with pytest.raises(ValueError):
                partial_sum(n_terms)


def test_targets():
    assert abs(ramanujan_target() - 2 / math.gamma(0.75) ** 4) == 0
    assert abs(entry20_target() - 4 / math.pi) == 0


def test_gamma_limit_examples():
    for k in (1, 10, 1000):
        assert gamma_limit_approx(1, k) == 1.0
    assert abs(gamma_limit_approx(2, 1000) - 1.0) < 1e-2
    assert abs(gamma_limit_approx(Fraction(3, 4), 10**6) - 1.2254) < 1e-3
    with pytest.raises(PoleAtNonpositiveInteger):
        gamma_limit_approx(0, 10)
    with pytest.raises(PoleAtNonpositiveInteger):
        gamma_limit_approx(-3, 10)


def test_reflection_examples():
    assert reflection_check(0.5)
    assert reflection_check(0.25)
    assert reflection_check(-0.3)
    with pytest.raises(ValueError):
        reflection_check(2.0)
