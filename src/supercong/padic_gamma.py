"""The p-adic Gamma function at integers and at p-integral rationals.
Each value is a plain int in [0, p^m), validated once by `check_modulus`
and reduced once, its sign included.

gamma_p(n) for an integer n >= 0 is (-1)^n times the product of all j < n
coprime to p.  A p-integral rational x, an int or a Fraction, is handled
through the least nonnegative integer congruent to x mod p^m; by
continuity the result is correct mod p^m whatever approximating sequence
is used.  For the same reason an integer n is reduced mod p^m first, so
the work never grows with n itself.

That product has about n factors, and n runs up to p^m, so it is not
formed directly.  Write n = qp + r with 0 <= r < p and split the factors
into q full blocks and a tail:

    prod_{0<j<n, (j,p)=1} j = prod_{k<q} f(k) * prod_{0<j<r} (qp + j),
    f(k) = prod_{j=1}^{p-1} (kp + j) = (p-1)! * u(k).

Block.  Each u(k) = prod_j (1 + kp/j) is a 1-unit, so it has a p-adic
logarithm F(k) = log_p u(k) = sum_{t>=1} (-1)^(t+1) s_t (kp)^t / t with
s_t = sum_j j^-t.  The t-th coefficient has valuation at least
t - v_p(t); once that reaches m the term vanishes mod p^m.  So, mod p^m,
F is a polynomial in k of degree below T, the first t with
t - floor(log_p t) >= m (T = m once p > m, T <= m + 2 for every m <= 8).

Log.  F is sampled at k = 0..T-1 from the block products themselves,
each a chunked product reduced mod p^(m+g), and the logarithms of the
units f(k)/(p-1)! are taken by the series above, cut after T - 1 terms
for the same reason.  The samples depend only on (p, m), so they are a
kept layer of p in `exactnum`'s per-prime store, one table per m asked.

Newton sum.  With the forward differences D_d = Delta^d F(0),
sum_{k<q} F(k) = sum_{d<T} D_d * C(q, d+1): integer binomials, no
division.  The sum is only known mod p^m, which is all exp needs.

Exp.  prod_{k<q} u(k) = exp_p(sum_{k<q} F(k)), because log_p is a
bijection of 1 + pZ_p onto pZ_p for odd p, and exp_p of a value known
mod p^m is itself exact mod p^m.  The series is cut once
t - floor((t-1)/(p-1)) >= m, which bounds t - v_p(t!) from below.

Tail.  The tail is a block cut short, so the same argument applies to
its prefixes prod_{0<j<=e} (kp + j): their logarithms relative to k = 0
are polynomials of degree below T in k, evaluated at q by Newton's
forward formula sum_d D_d * C(q, d).  The sampled block products keep
their prefixes every _STRIDE factors; a tail costs one such prefix plus
fewer than _STRIDE direct factors, and one exp_p covers blocks and tail.

Guard digits.  Both series divide by a power of p: x^t / t loses v_p(t)
digits, s^t / t! loses v_p(t!).  Each power is formed mod p^(m+g) with
g = v_p((2m+2)!) + 2, which covers every divisor reached before the
series are cut (t < T <= m + 2 for log, t < 2m for exp); the power of p
then divides exactly as integers, and the quotient is still right mod
p^m.  The same route serves every p, small ones included; only a tail
shorter than _STRIDE is ever multiplied out.  The work is T * p
multiplications once per (p, m) and O(_STRIDE) per value after that,
instead of O(n).  It serves `gamma-p` and general x, and it is the tests'
oracle of the closed-form Van Hamme sides in `gaussian_hg`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import check_modulus, prime_layer, residue_from_rational


_CHUNK = 64  # factors multiplied as plain integers before each reduction
_STRIDE = 1024  # spacing of the cached prefix products inside a block


def _range_product(lo: int, hi: int, mod: int) -> int:
    """prod(range(lo, hi)) mod `mod`, in chunks so no operand grows large."""
    acc = 1
    prod = math.prod
    for a in range(lo, hi, _CHUNK):
        acc = acc * prod(range(a, min(a + _CHUNK, hi))) % mod
    return acc


def _valuation(n: int, p: int) -> int:
    """v_p(n) for an integer n != 0: the one p-adic valuation of the package."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _log_terms(p: int, m: int) -> int:
    """First t with t - floor(log_p t) >= m: series terms and samples needed."""
    t, logt, pk = 1, 0, p
    while t - logt < m:
        t += 1
        if t == pk:
            logt, pk = logt + 1, pk * p
    return t


def _exp_terms(p: int, m: int) -> int:
    """First t with t - floor((t-1)/(p-1)) >= m; v_p(t!) never exceeds that floor."""
    t = 1
    while t - (t - 1) // (p - 1) < m:
        t += 1
    return t


def _guard_digits(p: int, m: int) -> int:
    return _valuation(math.factorial(2 * m + 2), p) + 2


def _log(u: int, p: int, m: int, big: int) -> int:
    """log_p(u) mod p^m for u = 1 (mod p), with u given mod big = p^(m+g)."""
    pm = p**m
    x = (u - 1) % big
    acc, power = 0, 1
    for t in range(1, _log_terms(p, m)):
        power = power * x % big
        v = _valuation(t, p)
        term = (power // p**v) * pow(t // p**v, -1, pm)
        acc += term if t % 2 else -term
    return acc % pm


def _exp(s: int, p: int, m: int, big: int) -> int:
    """exp_p(s) mod p^m for s = 0 (mod p), with powers formed mod big."""
    pm = p**m
    acc, power, fact = 1, 1, 1
    for t in range(1, _exp_terms(p, m)):
        power = power * s % big
        fact *= t
        v = _valuation(fact, p)
        acc += (power // p**v) * pow(fact // p**v, -1, pm)
    return acc % pm


def _log_differences(values: list, p: int, m: int, big: int) -> list:
    """Forward differences at k = 0 of log_p(values[k] / values[0]), mod p^m."""
    pm = p**m
    inv = pow(values[0], -1, big)
    row = [_log(v * inv, p, m, big) for v in values]
    diffs = []
    while row:
        diffs.append(row[0])
        row = [(b - a) % pm for a, b in zip(row, row[1:])]
    return diffs


@prime_layer
def _block_table(p: int, m: int) -> tuple:
    """Prefix lengths e_i and, for k < T, prod_{0<j<=e_i} (kp + j) mod p^(m+g).

    The last prefix is the full block; the others are _STRIDE apart, so a
    tail needs fewer than _STRIDE factors beyond its nearest prefix.
    """
    big = p ** (m + _guard_digits(p, m))
    ends = (*range(0, p - 1, _STRIDE), p - 1)
    rows = []
    for k in range(_log_terms(p, m)):
        acc, row = 1, [1]
        for lo, hi in zip(ends, ends[1:]):
            acc = acc * _range_product(k * p + lo + 1, k * p + hi + 1, big) % big
            row.append(acc)
        rows.append(tuple(row))
    return big, ends, tuple(rows)


def _unit_product(n: int, p: int, m: int) -> int:
    """Product of 1 <= j < n with p coprime to j, mod p^m (block route)."""
    pm = p**m
    q, r = divmod(n, p)
    i = max(r - 1, 0) // _STRIDE  # the tail's cached prefix
    if q == 0 and i == 0:
        return _range_product(1, r, pm)  # a tail shorter than _STRIDE
    big, ends, rows = _block_table(p, m)
    full = _log_differences([row[-1] for row in rows], p, m, big)
    s = sum(d * math.comb(q, j + 1) for j, d in enumerate(full))
    if i:
        part = _log_differences([row[i] for row in rows], p, m, big)
        s += sum(d * math.comb(q, j) for j, d in enumerate(part))
    head = pow(rows[0][-1], q, pm) * rows[0][i] % pm
    base = q * p % pm
    rest = _range_product(base + ends[i] + 1, base + r, pm)
    return head * _exp(s % pm, p, m, big) * rest % pm


def gamma_p_int(n: int, p: int, m: int) -> int:
    """gamma_p at a nonnegative integer, in [0, p^m): (-1)^n times the unit
    product below n.  By continuity the value mod p^m depends only on
    n mod p^m, so n is reduced first and a huge n costs what its residue
    does."""
    if not isinstance(n, int):
        raise TypeError("n must be an integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    pm = check_modulus(p, m)
    n %= pm
    core = _unit_product(n, p, m)
    return (-core if n % 2 else core) % pm


def gamma_p_rational(x: Fraction | int, p: int, m: int) -> int:
    """gamma_p at a p-integral rational (integers pass straight through)."""
    return gamma_p_int(residue_from_rational(x, p, m), p, m)
