"""Finite-field side: the quadratic character of F_p and the exact integer
p^n * (n+1)Fn(lambda) of the all-quadratic-character Gaussian
hypergeometric series.

The series is computed by Greene's recursion (J. Greene, "Hypergeometric
functions over finite fields", Trans. AMS 301, 1987, Thm 3.13), which for
the all-phi series needs the Legendre symbol phi alone.  With
w(y) = phi(y) phi(1-y) and T_n(x) = p^n * (n+1)Fn(x),

    T_0(x) = phi(1 - x),
    T_n(x) = phi(-1) * sum over y in F_p of T_(n-1)(x*y) w(y),

so T_1(x) = p * 2F1(x) = phi(-1) sum_y phi(y) phi(1-y) phi(1-x*y).  Every
step is an integer sum: no character table, no floating point and no
rounding.  For x != 0 every level reflects over the inverse pair {x, 1/x}:

    T_k(1/x) = phi(-1)^(k+1) * phi(x) * T_k(x),

at k = 0 because phi(1 - 1/x) = phi(-1) phi(x) phi(1 - x), and at k > 0 by
y -> 1/y in the level sum, since phi(1/y) w(1/y) = phi(-1) w(y).  So the
tables T_1 .. T_(n-1) take one level sum per pair plus x = 0, about p^2/2
terms each, and the last level is evaluated at lambda alone in O(p).  The
series refuses, before any work, a (p, n) with (n-1) p^2 > FINITE_FIELD_MAX_P^2;
n = 1 costs O(p) and is never refused below the API-wide prime cap.

The series factor chi(lambda) counts 0 at lambda = 0 for every character,
the trivial one included, so the series vanishes at lambda = 0 (mod p); the
recursion by itself would give (-1)^n there, so that case is answered first.
"""

from __future__ import annotations

import math

from .exactnum import MAX_PRIME, check_modulus, check_prime

#: The largest p at which the O(p^2) work of n = 2, p^2 * 3F2(1), is done:
#: theorem_os_check(5101), whose cost is almost all this series, took 1.7 s
#: alone in a fresh process on a 2-vCPU host (Python 3.11; median of five),
#: inside the 5 s rule of the statement caps in `supercongruence`.
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


def gaussian_nFn_phi(p: int, n: int, lam: int) -> int:
    """The exact integer p^n * (n+1)Fn(lam) for the all-quadratic series."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # (n-1) p^2 > FINITE_FIELD_MAX_P^2 iff p exceeds this cap
    cap = MAX_PRIME if n == 1 else math.isqrt(FINITE_FIELD_MAX_P**2 // (n - 1))
    check_prime(p, cap, "finite-field")
    lam %= p
    if lam == 0:
        return 0
    phi = _legendre_table(p)
    sign = phi[p - 1]  # phi(-1)
    w = [phi[y] * phi[1 - y] for y in range(p)]  # phi[1 - y] wraps to phi(p + 1 - y)
    support = range(2, p)  # w vanishes at y = 0 and y = 1

    def level(prev: list, x: int) -> int:
        return sign * sum(prev[x * y % p] * w[y] for y in support)

    table = [phi[1 - x] for x in range(p)]  # T_0
    if n > 1:
        # one level sum per pair {x, 1/x}: T_k(1/x) = phi(-1)^(k+1) phi(x) T_k(x)
        inv = [0] + [pow(x, -1, p) for x in range(1, p)]
        pairs = [(x, inv[x], phi[x]) for x in range(1, p) if x <= inv[x]]
    for k in range(1, n):
        flip = sign if k % 2 == 0 else 1  # phi(-1)^(k+1)
        nxt = [level(table, 0)] * p  # every x != 0 is overwritten below
        for x, x_inv, phi_x in pairs:
            t = level(table, x)
            nxt[x_inv] = flip * phi_x * t
            nxt[x] = t  # last, so the sum itself stays at the self-inverse x = 1, -1
        table = nxt
    return level(table, lam)
