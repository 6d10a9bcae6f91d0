"""Finite-field side: the quadratic character of F_p and the exact integer
p^2 * 3F2(1) of the all-quadratic-character Gaussian hypergeometric series.

Ono's theorem (K. Ono, "Values of Gaussian hypergeometric series",
Trans. AMS 350, 1998) gives that integer in closed form:

    p^2 * 3F2(1) = 0                 if p = 3 (mod 4),
                   4x^2 - 2p         if p = x^2 + y^2 with x odd.

For p = 1 (mod 4) the two squares come from Hermite and Serret's
construction (J. Brillhart, "Note on representing a prime as a sum of two
squares", Math. Comp. 26, 1972): with c the least quadratic non-residue,
t = c^((p-1)/4) is a square root of -1 mod p, and Euclid's algorithm on
(p, t) stops at the first remainder below sqrt(p); that remainder and the
next are x and y in some order.  The cost is a few modular powers and
O(log p) Euclid steps, about 20 us near p = 10^6.  The pair is a kept
layer in `exactnum`'s per-prime store, so a request that reads it twice
at one prime (thm_os and cor5 through `gaussian_3f2`, cor5 and vanhamme_a
through `padic_gamma.rhs_vanhamme`, which reaches it as
`gaussian_hg._two_squares`) builds it once.

The tests hold this against an independent route: Greene's character sum
unrolled twice at lambda = 1, summed over discrete logs in exact integers
(`tests/charsum_oracle.py`, which also holds its derivation).
"""

from __future__ import annotations

from .exactnum import check_modulus, prime_layer


def legendre(a: int, p: int) -> int:
    """Quadratic character of a mod p via Euler's criterion: one of -1, 0, 1."""
    check_modulus(p, 1)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def gaussian_3f2(p: int) -> int:
    """The exact integer p^2 * 3F2(1) of the all-quadratic series by Ono's
    closed form (module docstring).  A p that is not an odd prime at most
    `exactnum.MAX_PRIME` raises ValueError before either branch."""
    check_modulus(p, 1)
    if p % 4 == 3:
        return 0
    x, _ = _two_squares(p)
    return 4 * x * x - 2 * p


@prime_layer
def _two_squares(p: int) -> tuple:
    """(x, y) with x^2 + y^2 = p, x odd and y even, for a prime p = 1
    (mod 4), by Hermite-Serret (module docstring); a kept layer, so
    callers pass p through their gate first."""
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    a, b = p, pow(c, (p - 1) // 4, p)
    while b * b > p:
        a, b = b, a % b
    x, y = b, a % b
    return (x, y) if x % 2 else (y, x)
