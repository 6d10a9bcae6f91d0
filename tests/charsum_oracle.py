"""The oracles of the Gaussian series p^n * (n+1)Fn(lambda), of which
`gaussian_hg.gaussian_3f2` computes p^2 * 3F2(1) alone by Ono's closed
form: the definitional character sum in complex doubles (small p),
Greene's recursion at any n and lambda with every level a full table in
exact integers (`greene_tables`), and that recursion unrolled twice at
lambda = 1 and summed over discrete logs (`_double_sum`), an exact
integer at every p.  The suite checks the oracles against each other and
the closed form against the character sum and the double sum.

Characters of F_p live on a discrete-log table over the least primitive
root.  Two zero conventions coexist deliberately:

* direct evaluation extends characters to all of F_p with chi(0) = 0 for
  nontrivial chi and epsilon(0) = 1;
* inside Jacobi sums every character (the trivial one included) counts 0
  at 0, so J(eps, eps) = p - 2.

`charsum_nFn_phi` sums Greene's definition over all p - 1 characters and
rounds; the pre-rounding residual is returned alongside the integer and
guarded by a bound.  The normalized binomials of one p are kept
(`_binoms`), so every n and lambda asked at p sums them once.

The double sum.  Greene's recursion (J. Greene, "Hypergeometric functions
over finite fields", Trans. AMS 301, 1987, Thm 3.13) writes the all-phi
series with the Legendre symbol phi alone.  With w(y) = phi(y) phi(1-y)
and T_n(x) = p^n * (n+1)Fn(x),

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
phi(-1) = -1, the first branch of Ono's value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from supercong.exactnum import is_odd_prime, powers, primitive_root


class RoundingResidualTooLarge(ArithmeticError):
    """Character sum too far from an integer; p is past the float budget."""


def _factorize(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _least_primitive_root(p: int) -> int:
    prime_divisors = _factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_divisors):
            return g
    raise ArithmeticError(f"no primitive root found mod {p}")  # unreachable


class CharacterTable:
    """Discrete-log table of F_p^* over its least primitive root."""

    def __init__(self, p: int):
        if not is_odd_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        self.p = p
        self.g = _least_primitive_root(p)
        log = [0] * p  # log[0] never read
        x = 1
        for k in range(p - 1):
            log[x] = k
            x = x * self.g % p
        self.log = log
        step = 2.0 * math.pi / (p - 1)
        self.roots = [
            complex(math.cos(step * k), math.sin(step * k)) for k in range(p - 1)
        ]

    def char(self, t: int) -> "MultChar":
        return MultChar(self, t % (self.p - 1))

    @property
    def epsilon(self) -> "MultChar":
        return self.char(0)

    @property
    def phi(self) -> "MultChar":
        return self.char((self.p - 1) // 2)


@dataclass(frozen=True, eq=False)
class MultChar:
    """Multiplicative character chi with chi(g) = exp(2*pi*i*t/(p-1))."""

    table: CharacterTable
    t: int

    @property
    def is_trivial(self) -> bool:
        return self.t == 0

    def __call__(self, a: int) -> complex:
        """chi(a) with the zero extension: chi(0) = 0 unless chi is trivial."""
        a %= self.table.p
        if a == 0:
            return complex(1.0) if self.is_trivial else complex(0.0)
        return self.table.roots[self.t * self.table.log[a] % (self.table.p - 1)]

    def conjugate(self) -> "MultChar":
        return MultChar(self.table, (-self.t) % (self.table.p - 1))

    def __mul__(self, other: "MultChar") -> "MultChar":
        if other.table is not self.table:
            raise ValueError("characters live on different tables")
        return MultChar(self.table, (self.t + other.t) % (self.table.p - 1))


def jacobi_sum(chi: MultChar, lam: MultChar) -> complex:
    """Sum of chi(a) lam(1-a) over a in F_p, every character 0 at 0."""
    tab = chi.table
    if lam.table is not tab:
        raise ValueError("characters live on different tables")
    p = tab.p
    log = tab.log
    roots = tab.roots
    order = p - 1
    total = complex(0.0)
    for a in range(2, p):
        total += roots[(chi.t * log[a] + lam.t * log[p + 1 - a]) % order]
    return total


def greene_binom(top: MultChar, bottom: MultChar) -> complex:
    """Normalized Jacobi sum bottom(-1)/p * J(top, conj(bottom))."""
    if bottom.table is not top.table:
        raise ValueError("characters live on different tables")
    return bottom(-1) / top.table.p * jacobi_sum(top, bottom.conjugate())


@lru_cache(maxsize=128)
def _binoms(p: int) -> tuple:
    """(table, [greene_binom(phi*chi_t, chi_t) for t = 0 .. p-2]): the
    factors of the series at p, shared by every n and lambda asked."""
    tab = CharacterTable(p)
    phi_t = (p - 1) // 2
    return tab, [greene_binom(tab.char(phi_t + t), tab.char(t)) for t in range(p - 1)]


def charsum_nFn_phi_with_residual(p: int, n: int, lam: int) -> tuple:
    """(nearest integer, residual) of p^n * (n+1)Fn(lam) by the definition.

    Evaluates p/(p-1) times the sum over all characters chi of
    greene_binom(phi*chi, chi)^(n+1) * chi(lam) and scales by p^n; the
    residual is the distance of that complex number from its rounding.
    At lam = 0 (mod p) every series factor chi(lam) counts 0, so the
    value is exactly 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tab, binoms = _binoms(p)
    if lam % p == 0:
        return 0, 0.0
    total = complex(0.0)
    for t, b in enumerate(binoms):
        total += b ** (n + 1) * tab.char(t)(lam)
    # fixed order: sum first, then the exact p^(n+1)/(p-1) scale
    scaled = total * p ** (n + 1) / (p - 1)
    nearest = round(scaled.real)
    residual = max(abs(scaled.real - nearest), abs(scaled.imag))
    return nearest, residual


def charsum_nFn_phi(p: int, n: int, lam: int, tol: float = 1e-3) -> int:
    """The rounded character sum; the residual must stay below tol."""
    nearest, residual = charsum_nFn_phi_with_residual(p, n, lam)
    if not residual < tol:  # a NaN residual or tol fails the guard too
        raise RoundingResidualTooLarge(
            f"residual {residual:.3e} >= {tol:.1e} at p={p}, n={n}"
        )
    return nearest


def greene_tables(p: int, n: int) -> list:
    """[T_0, ..., T_n], each a full table over x in F_p, by Greene's recursion.

    T_0(x) = phi(1 - x) and T_k(x) = phi(-1) * sum over y of
    T_(k-1)(x*y) phi(y) phi(1 - y), one level sum per x, O(p^2) per level;
    T_k(x) = p^k * (k+1)Fk(x) for x != 0.  At x = 0 the recursion gives
    (-1)^k, not the series' 0.
    """
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    phi = [0] + [1 if pow(a, (p - 1) // 2, p) == 1 else -1 for a in range(1, p)]
    sign = phi[p - 1]
    w = [phi[y] * phi[(1 - y) % p] for y in range(p)]
    tables = [[phi[(1 - x) % p] for x in range(p)]]
    for _ in range(n):
        prev = tables[-1]
        tables.append([sign * sum(prev[x * y % p] * w[y] for y in range(p)) for x in range(p)])
    return tables


def _legendre_table(p: int) -> list:
    """phi(a) for a = 0 .. p-1, by squaring every unit once."""
    phi = [-1] * p
    phi[0] = 0
    for y in range(1, (p + 1) // 2):
        phi[y * y % p] = 1
    return phi


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
