"""Dense integer polynomials and the P/Q lemma machinery.

The paper's vanishing lemmas rest on

    P(z) = d/dz [ z F(z)^3 ]   and   Q(z) = (z/2) d^2/dz^2 [ z F(z)^3 ],

where F = (z+1)(z+2)...(z+m) with m = (p-1)/2.  Every polynomial here
has integer coefficients: `RatPoly` rejects any other coefficient type.

Products (KS4, multipoint Kronecker substitution at +-2^b for both factors
and for their reversals; D. Harvey, "Faster polynomial multiplication via
multipoint Kronecker substitution", J. Symbolic Comput. 44, 2009, sections
4-5).  A product coefficient is a sum of at most n = min(len(a), len(b))
terms, so |c_k| <= B = max|a| * max|b| * n.  A digit is W bytes, with
X = 2^(8W) and bits(B) + 3 <= 16W, so |c_k| < X^2/8: each coefficient spans
two digits.  At x = 2^(4W), a(+-x) = a_e(X) +- x a_o(X) for the even and
odd coefficient lists, each packed as two byte-aligned lists of every
other coefficient at 2W bytes.  `RatPoly.__mul__` forms h(x) and h(-x) for
h = a b, and h~(x) and h~(-x) for the reversal h~(z) = z^(n-1) h(1/z) =
a~(z) b~(z): four big-int products, each about half as long as one of the
two products of KS2 at the same bound (CPython's Karatsuba does the work;
a square packs its factor once and squares).  (h(x) + h(-x)) / 2 and
(h(x) - h(-x)) / (2x) are h_e(X) and h_o(X); the reversal gives each
parity class read backwards, its even and odd halves swapped when
len(h) is even.

Recovery, per parity class c_0 .. c_(N-1), from F = sum c_i X^i and
R = sum c_i X^(N-1-i), in one O(N) pass over digits.  Write
c_i = u_i + X v_i with 0 <= u_i < X.  The low digit u_i comes from F: with
the borrow b_i = floor(sum_(j<i) c_j X^(j-i)), u_i = (digit i of F - b_i)
mod X and b_(i+1) = v_i + floor((b_i + u_i) / X).  The high digit v_i comes
from R: digits N-1-i and N-i of R read c_i + e_i + X c_(i-1) mod X^2, where
the tail e_i = floor(sum_(j>i) c_j X^(i-j)) lies within X/4 + 1 of 0, so
v_i = digit N-i of R - u_(i-1) + round((digit N-1-i of R - u_i) / X),
lifted to the residue mod X nearest 0.  Signed coefficients need nothing
more: digits are read in two's complement, and |v_i| < X/8 + 1.

Builds.  `pochhammer_poly` multiplies by one linear factor (z + r) at a
time, an O(d) step, and `_quotient_sum` divides F by every (z + r) into
one coefficient list for `p_identity_check`.  The exact F of a prime,
F^2, F^3, and P and Q together are kept layers (`_f`, `_f2`, `_f3`,
`_p_and_q`), each built on first use: `p_poly`, `q_poly`,
`p_identity_check`, `coefficient_facts_check` and `lemma_sum_checks`
share them, so P is built once per prime.  P and Q come from one
coefficient rule over c_k = [z^k] F^3 (`_p_and_q_coeffs`): [z^k] P =
(k+1) c_k and [z^k] Q = k(k+1)/2 c_k, integers since k(k+1) is even.
`_p_and_q` applies it to the exact F^3, `lemma_sum_checks` to F^3 mod p;
the formal derivatives are its oracle in the tests.

Values mod p.  The facts of `lemma_sum_checks` need only F mod p: the
kept F reduced mod p is cubed by one nonnegative one-point Kronecker
product (`_cube_mod`: slots of bits(n^2 (p-1)^3) bits, rounded up to
bytes, for n coefficients below p; one square and one product), and P and
Q mod p follow from F^3 mod p by the same rule, so the full-size P and Q
are never reduced.  Their values at every j != 0 come from one chirp-z
transform (L. Bluestein, 1970) each, over the kept walk g^i of one
primitive root g (`exactnum.primitive_root`, `exactnum.powers`) and one
chirp table read from that walk.  With n = p - 1 and j^n = 1, exponents
fold mod n, and ik = C(i+k,2) - C(i,2) - C(k,2) turns

    f(g^i) = g^-C(i,2) * sum_k [c_k g^-C(k,2)] g^C(i+k,2)

into one correlation, read off a single packed product of nonnegative
slots of bits((p-1)^3) + 1 bits, rounded up to bytes.  Both products
read their slots through `_digits`, the digit reader of KS4's recovery, so
slots are unpacked in one place.  The walk over g^i (`exactnum.powers`)
raises if g^i = 1 before i = n, so a g of smaller order cannot leave a
value unset.

Kept layers.  The layers above, the walk over one primitive root (`_walk`)
and the power sums of `exp_sum_check` (`_power_sum`, one per folded
exponent asked) sit in `exactnum`'s per-prime store (`prime_layer`), which
keeps the layers of the last prime asked only, so nothing is kept across a
sweep.  The walk serves both readers of a prime: the chirp-z values take
their generator, chirp tables and points from it, and each power sum is a
subgroup sum over it.  The first class asked at a prime builds the walk in
O(p), and each further class costs O(p/d), d = gcd(k, p - 1); a sweep that
asks k = 1..3(p-1) sums each exponent class once.

Inputs.  Every entry point passes `exactnum.check_prime` with the cap
`POLY_MAX_P` (`exp_sum_check`: `exactnum.check_modulus`, so at most
`exactnum.MAX_PRIME`, after a `TypeError` for an exponent that is not an
int, and its exponent folded mod p - 1 first), so a p that
is not an odd prime within the cap raises `ValueError` before any work:
the vanishing lemmas and the coefficient facts are facts about primes, and
the exact products grow like p^3.2.  `pochhammer_poly(m)` takes m up to
(POLY_MAX_P - 1)/2, the largest F any entry point builds.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from typing import Iterable, Sequence

from .exactnum import check_modulus, check_prime, powers, prime_layer, primitive_root

#: The largest prime the polynomial entry points accept.  Together,
#: p_identity_check and coefficient_facts_check at 997 took 2.8-4.9 s alone
#: in a fresh process on a 2-vCPU host (Python 3.11) whose speed drifted by
#: tens of percent, almost all of it in the KS4 products of the identity:
#: within the 5 s rule of the statement caps in `supercongruence`.
POLY_MAX_P = 997


def _pack(coeffs: tuple[int, ...], width: int) -> int:
    """sum_k coeffs[k] * 2^(8 width k) for signed integers below 2^(8 width)
    in absolute value, byte-packed: a list with a negative coefficient as
    its positive part minus its negated negative part."""

    def packed(values) -> int:
        return int.from_bytes(b"".join(map(int.to_bytes, values, repeat(width), repeat("little"))), "little")

    if min(coeffs, default=0) >= 0:
        return packed(coeffs)
    return packed([c if c > 0 else 0 for c in coeffs]) - packed([-c if c < 0 else 0 for c in coeffs])


def _evaluations(coeffs: tuple[int, ...], width: int) -> tuple[int, int]:
    """(a(x), a(-x)) at x = 2^(4 width) for |a_k| < x^4: a(x) is the sum over
    r < 4 of x^r times the pack of a[r::4] at x^4 = 2^(16 width), so each
    coefficient fits its slot however far it overlaps the next power of x."""
    wide, shift = 2 * width, 8 * width
    even = _pack(coeffs[0::4], wide) + (_pack(coeffs[2::4], wide) << shift)
    odd = (_pack(coeffs[1::4], wide) + (_pack(coeffs[3::4], wide) << shift)) << (shift // 2)
    return even + odd, even - odd


def _digits(value: int, count: int, width: int) -> list[int]:
    """The `count` lowest base-2^(8 width) digits of value (two's complement)."""
    raw = (value & ((1 << (8 * width * count)) - 1)).to_bytes(count * width, "little")
    return [int.from_bytes(raw[s : s + width], "little") for s in range(0, count * width, width)]


def _recover(forward: int, reverse: int, count: int, width: int) -> list[int]:
    """c_0 .. c_(count-1) from forward = sum c_i X^i and reverse =
    sum c_i X^(count-1-i), X = 2^(8 width), |c_i| < X^2/8 (module docstring)."""
    w = 8 * width
    mask = (1 << w) - 1
    half = 1 << (w - 1)
    rev = _digits(reverse, count + 1, width)
    out = []
    borrow = low = 0
    for digit, lo, hi in zip(_digits(forward, count, width), reversed(rev[:count]), reversed(rev[1:])):
        prev, low = low, (digit - borrow) & mask
        high = ((hi - prev + ((lo - low + half) >> w) + half) & mask) - half
        borrow = high + ((borrow + low) >> w)
        out.append(low + (high << w))
    return out


class RatPoly:
    """Dense integer polynomial; coefficient list indexed by degree,
    trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        if not all(map(isinstance, cs, repeat(int))):
            raise TypeError("RatPoly coefficients must be int")
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coeffs)!r})"

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        """KS4 product: four quarter-slot big-int multiplications, at +-x for
        both factors and for their reversals (module docstring).  A square
        packs its factor once."""
        if not self.coeffs or not other.coeffs:
            return RatPoly()
        a, b = self.coeffs, other.coeffs
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        width = (bound.bit_length() + 3 + 15) // 16  # bound < X^2/8, X = 2^(8 width)
        plus_a, minus_a = _evaluations(a, width)
        rplus_a, rminus_a = _evaluations(a[::-1], width)
        if other is self:
            plus, minus = plus_a * plus_a, minus_a * minus_a
            rplus, rminus = rplus_a * rplus_a, rminus_a * rminus_a
        else:
            plus_b, minus_b = _evaluations(b, width)
            rplus_b, rminus_b = _evaluations(b[::-1], width)
            plus, minus = plus_a * plus_b, minus_a * minus_b
            rplus, rminus = rplus_a * rplus_b, rminus_a * rminus_b
        n = len(a) + len(b) - 1
        shift = 4 * width + 1
        reverse = ((rplus + rminus) >> 1, (rplus - rminus) >> shift)
        if n % 2 == 0:  # the reversal swaps the parity classes
            reverse = reverse[::-1]
        out = [0] * n
        out[0::2] = _recover((plus + minus) >> 1, reverse[0], (n + 1) // 2, width)
        out[1::2] = _recover((plus - minus) >> shift, reverse[1], n // 2, width)
        return RatPoly(out)

    def scaled(self, c: int) -> "RatPoly":
        return RatPoly(tuple(c * x for x in self.coeffs))

    def shifted(self, k: int) -> "RatPoly":
        """Multiply by z**k."""
        if not self.coeffs:
            return RatPoly()
        return RatPoly((0,) * k + self.coeffs)


def _quotient_sum(coeffs: tuple[int, ...], roots: Iterable[int]) -> list[int]:
    """The coefficients of sum_r f / (z + r) over `roots`, each exact quotient
    formed by synthetic division straight into one list; raises
    ArithmeticError when some (z + r) does not divide f."""
    top = len(coeffs) - 1
    acc = [0] * top
    for r in roots:
        carry = coeffs[top]
        for k in range(top - 1, -1, -1):
            acc[k] += carry
            carry = coeffs[k] - r * carry
        if carry:
            raise ArithmeticError(f"(z + {r}) does not divide this polynomial")
    return acc


def _rising_coeffs(m: int) -> list[int]:
    """Coefficients of (z+1)...(z+m): one O(d) step c_k <- r c_k + c_{k-1}
    per linear factor (z + r)."""
    cs = [1]
    for r in range(1, m + 1):
        cs = [r * c + lower for c, lower in zip(cs + [0], [0] + cs)]
    return cs


def pochhammer_poly(m: int) -> RatPoly:
    """(z+1)(z+2)...(z+m), the rising factorial of z+1 as a polynomial, for
    m up to (POLY_MAX_P - 1)/2, the largest m any entry point builds."""
    top = (POLY_MAX_P - 1) // 2
    if not 0 <= m <= top:
        raise ValueError(f"m must lie in 0..{top}")
    return RatPoly(_rising_coeffs(m))


def _p_and_q_coeffs(cube: Sequence[int]) -> tuple[list[int], list[int]]:
    """The coefficients of P and Q from c_k = [z^k] F^3: [z^k] P = (k+1) c_k
    and [z^k] Q = k(k+1)/2 c_k, since z F^3 = sum_k c_k z^(k+1)."""
    return [(k + 1) * c for k, c in enumerate(cube)], [k * (k + 1) // 2 * c for k, c in enumerate(cube)]


# The exact polynomials of p, kept layers; callers pass the prime gate first.


@prime_layer
def _f(p: int) -> RatPoly:
    """F = pochhammer_poly((p-1)/2)."""
    return pochhammer_poly((p - 1) // 2)


@prime_layer
def _f2(p: int) -> RatPoly:
    f = _f(p)
    return f * f


@prime_layer
def _f3(p: int) -> RatPoly:
    return _f2(p) * _f(p)


@prime_layer
def _p_and_q(p: int) -> tuple[RatPoly, RatPoly]:
    big_p, big_q = _p_and_q_coeffs(_f3(p).coeffs)
    return RatPoly(big_p), RatPoly(big_q)


def p_poly(p: int) -> RatPoly:
    """d/dz [ z * pochhammer_poly((p-1)/2)^3 ]; integer coefficients."""
    check_prime(p, POLY_MAX_P, "polynomial")
    return _p_and_q(p)[0]


def q_poly(p: int) -> RatPoly:
    """(z/2) * d^2/dz^2 [ z * pochhammer_poly((p-1)/2)^3 ].

    Divisible by z with integer coefficients: [z^k] Q = k(k+1)/2 [z^k] F^3.
    """
    check_prime(p, POLY_MAX_P, "polynomial")
    return _p_and_q(p)[1]


def p_identity_check(p: int) -> bool:
    """True iff P(z) factors as F^3 * [1 + 3z * sum_r 1/(z+r)] with F the
    rising-factorial polynomial, i.e. P = F^3 + 3z F^2 sum_r prod_{s!=r}(z+s)."""
    big_p = p_poly(p)  # builds F, F^2, F^3 and P for this prime
    partial = RatPoly(_quotient_sum(_f(p).coeffs, range(1, (p - 1) // 2 + 1)))
    rhs = _f3(p) + (_f2(p) * partial).shifted(1).scaled(3)
    return big_p == rhs


def coefficient_facts_check(p: int) -> bool:
    """Coefficient facts tying P, Q and the cube of the rising factorial:
    p | a_{p-1} for both, a_0(P) = ((p-1)/2)!^3, a_0(Q) = 0, and the z^{p-1}
    coefficient of F^3 equals a_{p-1}(P)/p and 2 a_{p-1}(Q)/(p(p-1)).
    All six follow from the coefficient rule (`_p_and_q_coeffs`) and from
    c_0 = ((p-1)/2)!^3, so they cannot fail; the rule itself is checked
    against the formal derivatives in the tests."""
    check_prime(p, POLY_MAX_P, "polynomial")
    m = (p - 1) // 2
    big_p = p_poly(p)
    big_q = q_poly(p)
    cube_coeff = _f3(p).coefficient(p - 1)
    ap1_p = big_p.coefficient(p - 1)
    ap1_q = big_q.coefficient(p - 1)
    return (
        ap1_p % p == 0
        and big_p.coefficient(0) == math.factorial(m) ** 3
        and ap1_q % p == 0
        and big_q.coefficient(0) == 0
        and ap1_p == p * cube_coeff
        and 2 * ap1_q == p * (p - 1) * cube_coeff
    )


def exp_sum_check(p: int, k: int) -> bool:
    """True iff sum_{j=1}^{p-1} j^k is -1 mod p when (p-1) | k, else 0 mod p.

    k is folded to 1 + (k - 1) mod (p - 1) first (Fermat: j^(p-1) = 1 for
    every j in range), so the time does not grow with the digits of k; the
    sum of each folded exponent is a kept layer (`_power_sum`), read off the
    kept walk: the first class asked at a prime costs O(p), each further
    class O(p/d), d = gcd(k, p - 1).  A k that is not an int raises
    TypeError before any check and before the store.
    """
    if not isinstance(k, int):
        raise TypeError("k must be an integer")
    check_modulus(p, 1)
    if k < 1:
        raise ValueError("k must be >= 1")
    k = 1 + (k - 1) % (p - 1)
    expected = (p - 1) if k == p - 1 else 0
    return _power_sum(p, k) == expected


@prime_layer
def _walk(p: int) -> list:
    """[g^i mod p for i < p - 1] for the least primitive root g: the one
    walk of a prime, read by the chirp-z values and the power sums."""
    return powers(primitive_root(p), p)


@prime_layer
def _power_sum(p: int, k: int) -> int:
    """sum_{j=1}^{p-1} j^k mod p as a subgroup sum over the walk: with
    j = g^i, as i runs over 0..p-2 the exponent ik mod (p - 1) hits each
    multiple of d = gcd(k, p - 1) exactly d times, so the sum is d times
    the sum of walk[::d], an O(p/d) slice.  This holds only because g has
    order p - 1, which `exactnum.powers` checks as it builds the walk.
    Each exponent class is summed once however many k fold to it, and only
    the classes asked are summed."""
    d = math.gcd(k, p - 1)
    return d * sum(_walk(p)[::d]) % p


def _values_mod(polys: list[list[int]], p: int) -> list[list[int]]:
    """[[f(j) mod p for 0 <= j < p] for each f = sum_k coeffs[k] z^k in
    polys]: the kept walk g^i gives the points and the chirp tables, and
    one chirp-z correlation per polynomial (module docstring)."""
    n = p - 1
    walk = _walk(p)
    exps = [e % n for e in accumulate(range(2 * n - 2), initial=0)]  # C(t,2) mod n, t < 2n - 1
    chirp = [walk[e] for e in exps]  # g^C(t,2) for t < 2n - 1
    unchirp = [walk[-e] for e in exps[:n]]  # g^-C(t,2) = g^(n - C(t,2)) for t < n
    # sum_k u_k chirp[i + k] is the z^(n-1+i) coefficient of U V, with U the
    # reversed u; every slot sum is at most n (p-1)^2 = (p-1)^3
    width = ((p - 1) ** 3).bit_length() // 8 + 1
    v = _pack(chirp, width)
    out = []
    for coeffs in polys:
        folded = [0] * n
        for k, c in enumerate(coeffs):
            folded[k % n] += c  # j^n = 1 for every j != 0
        u = _pack([folded[k] * unchirp[k] % p for k in reversed(range(n))], width)
        vals = [0] * p
        vals[0] = coeffs[0] % p if coeffs else 0
        slots = _digits((u * v) >> (8 * width * (n - 1)), n, width)
        for j, slot, w in zip(walk, slots, unchirp):
            vals[j] = slot * w % p
        out.append(vals)
    return out


def _cube_mod(coeffs: list[int], p: int) -> list[int]:
    """The coefficients of f^3 mod p for f = sum_k coeffs[k] z^k with
    0 <= coeffs[k] < p: one nonnegative one-point Kronecker product.  A
    coefficient of f^3 sums at most n^2 products below p^3, n = len(coeffs),
    so slots of bits(n^2 (p-1)^3) bits, rounded up to bytes, never carry."""
    n = len(coeffs)
    width = ((n * n * (p - 1) ** 3).bit_length() + 7) // 8
    x = _pack(coeffs, width)
    return [c % p for c in _digits(x * x * x, 3 * n - 2, width)]


def lemma_sum_checks(p: int) -> bool:
    """The mod-p sum facts that finish both vanishing lemmas:
    sum P(j) over 1..p-1 is -((p-1)/2)!^3; the head ((p-1)/2)!^3 + sum over
    1..(p-1)/2 vanishes; P(j) = 0 for (p-1)/2 < j < p; and sum Q(j) = 0.

    P and Q mod p come from c_k = [z^k] F^3 mod p, the cube of the kept
    exact F reduced mod p, read by `_p_and_q_coeffs`."""
    check_prime(p, POLY_MAX_P, "polynomial")
    m = (p - 1) // 2
    pc, qc = _p_and_q_coeffs(_cube_mod([c % p for c in _f(p).coeffs], p))
    mf3 = pow(math.factorial(m) % p, 3, p)
    p_vals, q_vals = (vals[1:] for vals in _values_mod([pc, qc], p))
    return (
        sum(p_vals) % p == (-mf3) % p
        and (mf3 + sum(p_vals[:m])) % p == 0
        and all(v == 0 for v in p_vals[m:])
        and sum(q_vals) % p == 0
    )
