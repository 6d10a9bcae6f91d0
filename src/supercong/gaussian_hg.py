"""The closed forms of p = x^2 + y^2: the quadratic character of F_p, the
exact integer p^2 * 3F2(1) of the all-quadratic-character Gaussian
hypergeometric series, and the Gamma sides of both Van Hamme congruences.

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
at one prime (thm_os and cor5 through `gaussian_3f2`, vanhamme_a and cor5
through `rhs_vanhamme`) builds it once.

Van Hamme's sides.  The Gross-Koblitz formula (B. H. Gross and N. Koblitz,
"Gauss sums and the p-adic Gamma-function", Ann. of Math. 109, 1979)
writes a Gauss sum as a power of Dwork's uniformizer times gamma_p at
j/(p-1); in a Jacobi sum, a quotient of Gauss sums, the powers cancel.
For the quartic Jacobi sum J_4 = x + y i, of norm p, with i the square
root of -1 in Z_p with y i = x (mod p), it gives gamma_p(1/4)^4 = -J_4^2
exactly in Z_p.  The reflection formula gamma_p(t) gamma_p(1-t) = +-1
then gives -p / gamma_p(3/4)^4 = p J_4^2 (`rhs_vanhamme`) and
-p / gamma_p(1/2)^2 = p (-1/p) (`rhs_vanhamme_b`).  Each side costs a few
modular powers per prime; the block route of `padic_gamma` is their
oracle in the tests.

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


def rhs_vanhamme(p: int, m: int = 3) -> int:
    """-p / gamma_p(3/4)^4 mod p^m when p = 1 mod 4, else 0 (the quintic).

    In closed form p J_4^2, J_4 = x + y i the quartic Jacobi sum, by
    Gross-Koblitz (module docstring): the leading p makes J_4 mod
    p^(m-1) enough, and i is the Teichmuller lift of x / y mod p.  The
    gate runs before either branch, and the 0 branch seeks no squares.
    """
    pm = check_modulus(p, m)
    if p % 4 == 3:
        return 0
    x, y = _two_squares(p)
    k = max(m - 1, 1)
    pk = p**k
    i = pow(x * pow(y, -1, pk), p ** (k - 1), pk)
    j = x + y * i
    return p * j * j % pm


def rhs_vanhamme_b(p: int, m: int = 4) -> int:
    """-p / gamma_p(1/2)^2 mod p^m (the mod-p^4 companion), in closed form.

    The reflection formula gamma_p(x) gamma_p(1-x) = (-1)^l(x), l(x) the
    least positive residue of x mod p, gives gamma_p(1/2)^2 = (-1)^((p+1)/2)
    exactly, so the side is p (-1/p): p when p = 1 mod 4, else p^m - p.
    The tests hold it against the block route.
    """
    pm = check_modulus(p, m)
    return (p if p % 4 == 1 else -p) % pm


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
