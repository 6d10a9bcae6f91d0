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

The sum runs over discrete logs.  With g the least primitive root
(`exactnum.primitive_root`), n = p - 1, y = g^i and z = g^j, yz is
g^((i + j) mod n), and w(0) = 0 drops y = 0 and z = 0.  Let
T[k] = T_0(g^k) = phi(1 - g^k) and W[k] = phi(g^k) T[k] = (-1)^k T[k]:
g is a non-square, so phi(g^k) = (-1)^k.  Then

    p^2 * 3F2(1) = sum over i < n of W[i] * sum over j < n of W[j] T[i + j],

T's index taken mod n.  With T doubled (T + T), the inner sum of row i
reads the contiguous slice T[i .. i + n - 1], Greene's level-1 value
T_1(g^i) up to the factor phi(-1).  The summand W[i] W[j] T[i + j] is
symmetric in i and j, so each unordered pair is summed once: the diagonal
term W[i]^2 T[2i] once and the terms j > i twice.  Row i then reads
W[i + 1 ..] against T[2i + 1 .. i + n - 1], one C-level correlation
`sum(map(mul, w[i + 1:], t2[2i + 1 : i + n]))`.  The cost is n(n + 1)/2
multiply-adds in C, one pair of slices per row and one O(p) walk over
g^i; rows with W[i] = 0 are skipped.  Every term is an integer: no
character table, no floating point and no rounding.  The walk
(`exactnum.powers`) raises ArithmeticError unless g has order exactly n,
so a g that is not a primitive root never yields a wrong integer.

The sum vanishes when p = 3 (mod 4).  The map (y, z) -> (1/y, 1/z)
permutes (F_p^*)^2, and it multiplies every summand by phi(-1):

    w(1/y) = phi(1/y) phi((y - 1)/y) = phi(-1) phi(y) w(y),
    phi(1 - 1/(yz)) = phi(-1) phi(yz) phi(1 - yz),

and phi(y)^2 phi(z)^2 = 1.  So the sum S equals phi(-1) S, and S = 0 when
phi(-1) = -1 (Ono's value there; K. Ono, Trans. AMS 350, 1998).
`gaussian_3f2` returns that 0 in O(1) and runs `_double_sum` for
p = 1 (mod 4) only; the tests hold `_double_sum` itself, on both classes,
as the oracle of that branch.

The sum is a kept layer (`exactnum.prime_layer`), read by thm_os and cor5
at one prime, and `gaussian_3f2` refuses a p above FINITE_FIELD_MAX_P
before any work and before the store is touched.
"""

from __future__ import annotations

from operator import mul

from .exactnum import check_modulus, check_prime, powers, prime_layer, primitive_root

#: The largest p at which the O(p^2) double sum is done:
#: theorem_os_check(5101), whose cost is almost all this sum, took 0.56 s
#: (0.50-0.72 s) alone in a fresh process on a 2-vCPU host (Python 3.11;
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
    is not an odd prime at most FINITE_FIELD_MAX_P raises ValueError first;
    at p = 3 (mod 4) the value is 0 (module docstring) and nothing is summed
    or filed."""
    check_prime(p, FINITE_FIELD_MAX_P, "finite-field")
    if p % 4 == 3:
        return 0
    return _double_sum(p)


@prime_layer
def _double_sum(p: int) -> int:
    """The sum over i < p - 1 of W[i] times row i, its diagonal term plus
    twice the correlation of W[i + 1:] with the doubled T from 2i + 1
    (module docstring)."""
    n = p - 1
    phi = _legendre_table(p)
    # T[k] = phi(1 - g^k); phi[1 - y] wraps to phi(p + 1 - y)
    t = [phi[1 - y] for y in powers(primitive_root(p), p)]
    w = [-v if k % 2 else v for k, v in enumerate(t)]  # phi(g^k) = (-1)^k
    t2 = t + t
    return sum(
        wi * (wi * t2[2 * i] + 2 * sum(map(mul, w[i + 1 :], t2[2 * i + 1 : i + n])))
        for i, wi in enumerate(w)
        if wi
    )
