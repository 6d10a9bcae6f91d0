"""Dense integer polynomials and the P/Q lemma machinery.

The paper's vanishing lemmas rest on

    P(z) = d/dz [ z F(z)^3 ]   and   Q(z) = (z/2) d^2/dz^2 [ z F(z)^3 ],

where F = (z+1)(z+2)...(z+m) with m = (p-1)/2.  Every polynomial here
has integer coefficients: `RatPoly` rejects any other coefficient type.

Products (Kronecker substitution; D. Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", J. Symbolic Comput.
44, 2009).  `RatPoly.__mul__` packs each signed coefficient list into one
Python int with slot k holding the coefficient of z^k, multiplies the two
ints once, so that CPython's Karatsuba does the work, and unpacks the
slots with a borrow.  A product coefficient is a sum of at most
n = min(len(a), len(b)) terms, so |c_k| <= max|a| * max|b| * n.  The slot
width is bits(max|a| * max|b| * n) + 2 rounded up to whole bytes, which
keeps |c_k| below a quarter of the slot: the slot bits determine c_k once
read as signed, and the packed product fits a signed int of the full
width.  A negative c_k borrows one from the slot above, so slot k reads
c_k minus the borrow of slot k-1; the unpacking adds it back.

Builds.  `pochhammer_poly` multiplies by one linear factor (z + r) at a
time, an O(d) step.  F, F^2 and F^3 are built once per prime (a cache of
two entries, so nothing is kept across a sweep) and shared by `p_poly`,
`q_poly`, `p_identity_check` and `coefficient_facts_check`.  Q's factor
1/2 is an exact integer halving: k(k-1) is even, and an odd coefficient
would raise `ArithmeticError`.

The mod-p facts of `lemma_sum_checks` need only F mod p: F^3 mod p has
coefficients below p, and P and Q mod p follow from it coefficient by
coefficient, so the full-size P and Q are never reduced.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Optional


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
        """Kronecker product: one big-int multiplication (module docstring)."""
        if not self.coeffs or not other.coeffs:
            return RatPoly()
        a, b = self.coeffs, other.coeffs
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        width = (bound.bit_length() + 2 + 7) // 8
        return RatPoly(_unpack(_pack(a, width) * _pack(b, width), len(a) + len(b) - 1, width))

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
    """(z+1)(z+2)...(z+m), the rising factorial of z+1 as a polynomial."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return RatPoly(_rising_coeffs(m))


@lru_cache(maxsize=2)
def _powers(m: int) -> tuple[RatPoly, RatPoly, RatPoly]:
    """F, F^2 and F^3 for F = pochhammer_poly(m)."""
    f = pochhammer_poly(m)
    f2 = f * f
    return f, f2, f2 * f


def p_poly(p: int) -> RatPoly:
    """d/dz [ z * pochhammer_poly((p-1)/2)^3 ]; integer coefficients."""
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
    return _halved(_powers((p - 1) // 2)[2].shifted(1).derivative(2).shifted(1))


def p_identity_check(p: int) -> bool:
    """True iff P(z) factors as F^3 * [1 + 3z * sum_r 1/(z+r)] with F the
    rising-factorial polynomial, i.e. P = F^3 + 3z F^2 sum_r prod_{s!=r}(z+s)."""
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
    """True iff sum_{j=1}^{p-1} j^k is -1 mod p when (p-1) | k, else 0 mod p."""
    if k < 1:
        raise ValueError("k must be >= 1")
    total = sum(pow(j, k, p) for j in range(1, p)) % p
    expected = (p - 1) if k % (p - 1) == 0 else 0
    return total == expected


def _eval_mod(coeffs_mod: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(coeffs_mod):
        acc = (acc * x + c) % p
    return acc


def lemma_sum_checks(p: int) -> bool:
    """The mod-p sum facts that finish both vanishing lemmas:
    sum P(j) over 1..p-1 is -((p-1)/2)!^3; the head ((p-1)/2)!^3 + sum over
    1..(p-1)/2 vanishes; P(j) = 0 for (p-1)/2 < j < p; and sum Q(j) = 0.

    P and Q mod p come from c_k = [z^k] F^3 mod p: [z^k] P = (k+1) c_k and
    [z^k] Q = k(k+1)/2 c_k."""
    m = (p - 1) // 2
    f = RatPoly(_rising_coeffs(m, p))
    cube = [c % p for c in (f * f * f).coeffs]
    pc = [(k + 1) * c % p for k, c in enumerate(cube)]
    qc = [k * (k + 1) // 2 * c % p for k, c in enumerate(cube)]
    mf3 = pow(math.factorial(m) % p, 3, p)
    vals = [_eval_mod(pc, j, p) for j in range(1, p)]
    return (
        sum(vals) % p == (-mf3) % p
        and (mf3 + sum(vals[:m])) % p == 0
        and all(v == 0 for v in vals[m:])
        and sum(_eval_mod(qc, j, p) for j in range(1, p)) % p == 0
    )
