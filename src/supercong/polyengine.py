"""Dense integer polynomials and the P/Q lemma machinery.

The paper's vanishing lemmas rest on

    P(z) = d/dz [ z F(z)^3 ]   and   Q(z) = (z/2) d^2/dz^2 [ z F(z)^3 ],

where F = (z+1)(z+2)...(z+m) with m = (p-1)/2.  Every polynomial here
has integer coefficients: `RatPoly` rejects any other coefficient type.

Products (KS2, Kronecker substitution at +-2^b; D. Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution",
J. Symbolic Comput. 44, 2009).  A product coefficient is a sum of at most
n = min(len(a), len(b)) terms, so |c_k| <= max|a| * max|b| * n.  A slot
is W bytes, bits(max|a| * max|b| * n) + 2 rounded up to an even number of
bytes, which keeps |c_k| below a quarter of the slot.  Each factor is
split as a(z) = a_e(z^2) + z a_o(z^2), and the even and odd coefficient
lists are packed separately, slot k of an int holding coefficient k, so
the ints read a_e(x^2) and a_o(x^2) at x = 2^(4W), half a slot.  Then
a(+-x) = a_e(x^2) +- x a_o(x^2), and `RatPoly.__mul__` forms h(x) and
h(-x) for h = a b with two big-int products, each half the length of the
one product a single evaluation point needs (CPython's Karatsuba does the
work; a square packs its factor once and squares).  The even coefficients
of h are the slots of (h(x) + h(-x)) / 2 = h_e(x^2), and the odd ones
those of (h(x) - h(-x)) / (2x) = h_o(x^2), both at the full slot width.
A negative slot borrows one from the slot above, so slot k reads c_k
minus the borrow of slot k-1; `_unpack` adds it back.

Builds.  `pochhammer_poly` multiplies by one linear factor (z + r) at a
time, an O(d) step.  F, F^2 and F^3 are built once per prime (a cache of
two entries, so nothing is kept across a sweep) and shared by `p_poly`,
`q_poly`, `p_identity_check` and `coefficient_facts_check`.  Q's factor
1/2 is an exact integer halving: k(k-1) is even, and an odd coefficient
would raise `ArithmeticError`.

Values mod p.  The facts of `lemma_sum_checks` need only F mod p: F^3 mod
p has coefficients below p, and P and Q mod p follow from it coefficient
by coefficient, so the full-size P and Q are never reduced.  Their values
at every j != 0 come from one chirp-z transform (L. Bluestein, 1970) over
a primitive root g.  With n = p - 1 and j^n = 1, exponents fold mod n, and
ik = C(i+k,2) - C(i,2) - C(k,2) turns

    f(g^i) = g^-C(i,2) * sum_k [c_k g^-C(k,2)] g^C(i+k,2)

into one correlation, read off a single packed product of nonnegative
slots of bits((p-1)^3) + 1 bits, rounded up to bytes.  The walk over g^i
raises if g^i = 1 before i = n, so a g of smaller order cannot leave a
value unset.

Inputs.  Every entry point passes `exactnum.check_prime` with the cap
`POLY_MAX_P` (`exp_sum_check`: `exactnum.check_modulus`, so at most
`exactnum.MAX_PRIME`, its exponent folded mod p - 1 first), so a p that
is not an odd prime within the cap raises `ValueError` before any work:
the vanishing lemmas and the coefficient facts are facts about primes, and
the exact products grow like p^3.2.  `pochhammer_poly(m)` takes m up to
(POLY_MAX_P - 1)/2, the largest F any entry point builds.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Optional

from .exactnum import check_modulus, check_prime

#: The largest prime the polynomial entry points accept.  Together,
#: p_identity_check and coefficient_facts_check at 997 took 5.3-8.0 s alone
#: in a fresh process on a 2-vCPU host (Python 3.11) whose speed drifted by
#: tens of percent: near the 5 s rule of the statement caps in
#: `supercongruence`.
POLY_MAX_P = 997


def _pack(coeffs: tuple[int, ...], width: int) -> int:
    """sum_k coeffs[k] * 2^(8 width k) for signed integers below 2^(8 width)
    in absolute value: the positive and negative parts, byte-packed."""
    pos = b"".join((c if c > 0 else 0).to_bytes(width, "little") for c in coeffs)
    neg = b"".join((-c if c < 0 else 0).to_bytes(width, "little") for c in coeffs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(value: int, count: int, width: int) -> list[int]:
    """The `count` signed slot values of `value`, each below a quarter of
    the 8*width-bit slot in absolute value."""
    raw = value.to_bytes(count * width, "little", signed=True)
    half = 1 << (8 * width - 1)
    full = half << 1
    out = []
    borrow = 0
    for start in range(0, count * width, width):
        digit = int.from_bytes(raw[start : start + width], "little") + borrow
        borrow = digit >= half
        out.append(digit - full if borrow else digit)
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

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        """KS2 product: two half-length big-int multiplications, at +x and
        at -x (module docstring).  A square packs its factor once."""
        if not self.coeffs or not other.coeffs:
            return RatPoly()
        a, b = self.coeffs, other.coeffs
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        width = (bound.bit_length() + 2 + 15) // 16 * 2
        half = 4 * width  # x = 2^half, half a slot
        a_even, a_odd = _pack(a[0::2], width), _pack(a[1::2], width) << half
        plus_a, minus_a = a_even + a_odd, a_even - a_odd
        if other is self:
            plus, minus = plus_a * plus_a, minus_a * minus_a
        else:
            b_even, b_odd = _pack(b[0::2], width), _pack(b[1::2], width) << half
            plus, minus = plus_a * (b_even + b_odd), minus_a * (b_even - b_odd)
        n = len(a) + len(b) - 1
        out = [0] * n
        out[0::2] = _unpack((plus + minus) >> 1, (n + 1) // 2, width)
        out[1::2] = _unpack((plus - minus) >> (half + 1), n // 2, width)
        return RatPoly(out)

    def scaled(self, c: int) -> "RatPoly":
        return RatPoly(tuple(c * x for x in self.coeffs))

    def shifted(self, k: int) -> "RatPoly":
        """Multiply by z**k."""
        if not self.coeffs:
            return RatPoly()
        return RatPoly((0,) * k + self.coeffs)

    def derivative(self, order: int = 1) -> "RatPoly":
        """Formal derivative of order 1 or 2."""
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        cs = self.coeffs
        for _ in range(order):
            cs = tuple(k * cs[k] for k in range(1, len(cs)))
        return RatPoly(cs)

    def div_linear(self, r: int) -> "RatPoly":
        """Exact quotient by (z + r); the remainder must vanish."""
        if not self.coeffs:
            return RatPoly()
        out = [0] * (len(self.coeffs) - 1)
        carry = self.coeffs[-1]
        for k in range(len(self.coeffs) - 2, -1, -1):
            out[k] = carry
            carry = self.coeffs[k] - r * carry
        if carry != 0:
            raise ArithmeticError(f"(z + {r}) does not divide this polynomial")
        return RatPoly(out)

    def __call__(self, x):
        """The value at x (an int or a Fraction), by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


def _rising_coeffs(m: int, modulus: Optional[int] = None) -> list[int]:
    """Coefficients of (z+1)...(z+m), optionally reduced mod `modulus`:
    one O(d) step c_k <- r c_k + c_{k-1} per linear factor (z + r)."""
    cs = [1]
    for r in range(1, m + 1):
        cs = [r * c + lower for c, lower in zip(cs + [0], [0] + cs)]
        if modulus is not None:
            cs = [c % modulus for c in cs]
    return cs


def pochhammer_poly(m: int) -> RatPoly:
    """(z+1)(z+2)...(z+m), the rising factorial of z+1 as a polynomial, for
    m up to (POLY_MAX_P - 1)/2, the largest m any entry point builds."""
    top = (POLY_MAX_P - 1) // 2
    if not 0 <= m <= top:
        raise ValueError(f"m must lie in 0..{top}")
    return RatPoly(_rising_coeffs(m))


@lru_cache(maxsize=2)
def _powers(m: int) -> tuple[RatPoly, RatPoly, RatPoly]:
    """F, F^2 and F^3 for F = pochhammer_poly(m)."""
    f = pochhammer_poly(m)
    f2 = f * f
    return f, f2, f2 * f


def p_poly(p: int) -> RatPoly:
    """d/dz [ z * pochhammer_poly((p-1)/2)^3 ]; integer coefficients."""
    check_prime(p, POLY_MAX_P, "polynomial")
    return _powers((p - 1) // 2)[2].shifted(1).derivative()


def _halved(poly: RatPoly) -> RatPoly:
    """poly / 2, which must have integer coefficients."""
    out = []
    for c in poly.coeffs:
        half, odd = divmod(c, 2)
        if odd:
            raise ArithmeticError("half-integer coefficient in Q")
        out.append(half)
    return RatPoly(out)


def q_poly(p: int) -> RatPoly:
    """(z/2) * d^2/dz^2 [ z * pochhammer_poly((p-1)/2)^3 ].

    Divisible by z with integer coefficients (k(k-1) is always even).
    """
    check_prime(p, POLY_MAX_P, "polynomial")
    return _halved(_powers((p - 1) // 2)[2].shifted(1).derivative(2).shifted(1))


def p_identity_check(p: int) -> bool:
    """True iff P(z) factors as F^3 * [1 + 3z * sum_r 1/(z+r)] with F the
    rising-factorial polynomial, i.e. P = F^3 + 3z F^2 sum_r prod_{s!=r}(z+s)."""
    check_prime(p, POLY_MAX_P, "polynomial")
    m = (p - 1) // 2
    big_p = p_poly(p)  # builds F, F^2 and F^3 for this prime
    f, f2, f3 = _powers(m)
    partial = RatPoly()
    for r in range(1, m + 1):
        partial = partial + f.div_linear(r)
    rhs = f3 + (f2 * partial).shifted(1).scaled(3)
    return big_p == rhs


def coefficient_facts_check(p: int) -> bool:
    """Coefficient facts tying P, Q and the cube of the rising factorial:
    p | a_{p-1} for both, a_0(P) = ((p-1)/2)!^3, a_0(Q) = 0, and the z^{p-1}
    coefficient of F^3 equals a_{p-1}(P)/p and 2 a_{p-1}(Q)/(p(p-1))."""
    check_prime(p, POLY_MAX_P, "polynomial")
    m = (p - 1) // 2
    big_p = p_poly(p)
    big_q = q_poly(p)
    cube_coeff = _powers(m)[2].coefficient(p - 1)
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
    every j in range), so the time does not grow with the digits of k.
    """
    check_modulus(p, 1)
    if k < 1:
        raise ValueError("k must be >= 1")
    k = 1 + (k - 1) % (p - 1)
    total = sum(pow(j, k, p) for j in range(1, p)) % p
    expected = (p - 1) if k == p - 1 else 0
    return total == expected


def _primitive_root(p: int) -> int:
    """The least primitive root mod the odd prime p."""
    n = rest = p - 1
    factors = []
    q = 2
    while q * q <= rest:
        if rest % q == 0:
            factors.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        factors.append(rest)
    g = 2
    while any(pow(g, n // q, p) == 1 for q in factors):
        g += 1
    return g


def _values_mod(coeffs: list[int], p: int) -> list[int]:
    """[f(j) mod p for 0 <= j < p] for f = sum_k coeffs[k] z^k: one chirp-z
    correlation over a primitive root g (module docstring)."""
    n = p - 1
    g = _primitive_root(p)
    g_inv = pow(g, -1, p)
    folded = [0] * n
    for k, c in enumerate(coeffs):
        folded[k % n] += c  # j^n = 1 for every j != 0
    chirp = []  # g^C(t,2) for t < 2n - 1
    unchirp = []  # g^-C(t,2) for t < n
    c = c_inv = step = step_inv = 1
    for t in range(2 * n - 1):
        chirp.append(c)
        c, step = c * step % p, step * g % p
        if t < n:
            unchirp.append(c_inv)
            c_inv, step_inv = c_inv * step_inv % p, step_inv * g_inv % p
    # sum_k u_k chirp[i + k] is the z^(n-1+i) coefficient of U V, with U the
    # reversed u; every slot sum is at most n (p-1)^2 = (p-1)^3
    width = ((p - 1) ** 3).bit_length() // 8 + 1
    u = b"".join((folded[k] * unchirp[k] % p).to_bytes(width, "little") for k in reversed(range(n)))
    v = b"".join(x.to_bytes(width, "little") for x in chirp)
    product = (int.from_bytes(u, "little") * int.from_bytes(v, "little")).to_bytes((3 * n - 1) * width, "little")
    vals = [0] * p
    vals[0] = coeffs[0] % p if coeffs else 0
    j = 1
    for i in range(n):
        if i and j == 1:
            raise ArithmeticError(f"{g} is not a primitive root mod {p}")
        start = (n - 1 + i) * width
        vals[j] = int.from_bytes(product[start : start + width], "little") * unchirp[i] % p
        j = j * g % p
    return vals


def lemma_sum_checks(p: int) -> bool:
    """The mod-p sum facts that finish both vanishing lemmas:
    sum P(j) over 1..p-1 is -((p-1)/2)!^3; the head ((p-1)/2)!^3 + sum over
    1..(p-1)/2 vanishes; P(j) = 0 for (p-1)/2 < j < p; and sum Q(j) = 0.

    P and Q mod p come from c_k = [z^k] F^3 mod p: [z^k] P = (k+1) c_k and
    [z^k] Q = k(k+1)/2 c_k."""
    check_prime(p, POLY_MAX_P, "polynomial")
    m = (p - 1) // 2
    f = RatPoly(_rising_coeffs(m, p))
    cube = [c % p for c in (f * f * f).coeffs]
    pc = [(k + 1) * c % p for k, c in enumerate(cube)]
    qc = [k * (k + 1) // 2 * c % p for k, c in enumerate(cube)]
    mf3 = pow(math.factorial(m) % p, 3, p)
    vals = _values_mod(pc, p)[1:]
    return (
        sum(vals) % p == (-mf3) % p
        and (mf3 + sum(vals[:m])) % p == 0
        and all(v == 0 for v in vals[m:])
        and sum(_values_mod(qc, p)[1:]) % p == 0
    )
