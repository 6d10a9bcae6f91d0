"""Finite-field side: the quadratic character of F_p and the exact integer
p^2 * 3F2(1) of the all-quadratic-character Gaussian hypergeometric series.

Greene's recursion (J. Greene, "Hypergeometric functions over finite
fields", Trans. AMS 301, 1987, Thm 3.13) writes the all-phi series with
the Legendre symbol phi alone.  With w(y) = phi(y) phi(1-y) and
T_n(x) = p^n * (n+1)Fn(x),

    T_0(x) = phi(1 - x),
    T_n(x) = phi(-1) * sum over y in F_p of T_(n-1)(x*y) w(y).

Unrolled twice at x = 1, the two factors phi(-1) multiply to 1:

    p^2 * 3F2(1) = T_2(1) = sum over y, z in F_p of w(y) w(z) phi(1 - yz).

w vanishes at 0 and 1 and the summand is symmetric in y and z, so the sum
runs over 2 <= y <= z < p with each off-diagonal term counted twice: about
p^2/2 terms, every one an integer, with no character table, no floating
point and no rounding.  The sum is a kept layer (`exactnum.prime_layer`),
read by thm_os and cor5 at one prime, and `gaussian_3f2` refuses a p above
FINITE_FIELD_MAX_P before any work and before the store is touched.
"""

from __future__ import annotations

from .exactnum import check_modulus, check_prime, prime_layer

#: The largest p at which the O(p^2) double sum is done:
#: theorem_os_check(5101), whose cost is almost all this sum, took 1.8 s
#: (1.6-2.1 s) alone in a fresh process on a 2-vCPU host (Python 3.11;
#: median of five), inside the 5 s rule of the statement caps in
#: `supercongruence`.
FINITE_FIELD_MAX_P = 5101


def legendre(a: int, p: int) -> int:
    """Quadratic character of a mod p via Euler's criterion: one of -1, 0, 1."""
    check_modulus(p, 1)
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def _legendre_table(p: int) -> list:
    """phi(a) for a = 0 .. p-1, by squaring every unit once."""
    phi = [-1] * p
    phi[0] = 0
    for y in range(1, (p + 1) // 2):
        phi[y * y % p] = 1
    return phi


def gaussian_3f2(p: int) -> int:
    """The exact integer p^2 * 3F2(1) of the all-quadratic series.  A p that
    is not an odd prime at most FINITE_FIELD_MAX_P raises ValueError first."""
    check_prime(p, FINITE_FIELD_MAX_P, "finite-field")
    return _double_sum(p)


@prime_layer
def _double_sum(p: int) -> int:
    """The sum over 2 <= y <= z < p of w(y) w(z) phi(1 - yz), off-diagonal
    terms twice; w(y)^2 = 1 on the diagonal."""
    phi = _legendre_table(p)
    t0 = [phi[1 - x] for x in range(p)]  # phi(1 - x); phi[1 - x] wraps to phi(p + 1 - x)
    w = [phi[y] * t0[y] for y in range(p)]
    total = 0
    for y in range(2, p):
        off = sum(w[z] * t0[y * z % p] for z in range(y + 1, p))
        total += 2 * w[y] * off + t0[y * y % p]
    return total
