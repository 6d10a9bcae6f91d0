"""Exact rationals and residue arithmetic modulo odd prime powers.

`Rational` is the stdlib `fractions.Fraction`: always in lowest terms,
denominator positive, zero stored as 0/1.  `Residue` is a canonical element
of Z/p^m for an odd prime p.  Everything here is immutable and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

Rational = Fraction

#: p-adic order of zero.
INFINITE_VALUATION = math.inf

PValuation = Union[int, float]

#: API-boundary caps; p**m must stay a comfortable bignum.
MAX_PRIME = 10**6
MAX_EXPONENT = 8


class ModulusMismatch(ArithmeticError):
    """Arithmetic between residues with different (p, m)."""


class NotAUnit(ArithmeticError):
    """Tried to invert a residue divisible by p."""


class DenominatorDivisibleByP(ArithmeticError):
    """The rational has no image in Z/p^m: p divides its denominator."""


def is_odd_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set covers all n < 3_215_031_751."""
    if n < 3 or n % 2 == 0:
        return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        if a >= n:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def check_modulus(p: int, m: int) -> int:
    """Validate (p, m) once and return p**m."""
    if not isinstance(p, int) or not isinstance(m, int):
        raise TypeError("p and m must be integers")
    if not 1 <= m <= MAX_EXPONENT:
        raise ValueError(f"exponent m={m} outside 1..{MAX_EXPONENT}")
    if p > MAX_PRIME:
        raise ValueError(f"prime {p} exceeds the {MAX_PRIME} cap")
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    return p**m


@dataclass(frozen=True)
class Residue:
    """Canonical element of Z/p^m: 0 <= value < p**m, p an odd prime."""

    value: int
    p: int
    m: int

    def __post_init__(self) -> None:
        pm = check_modulus(self.p, self.m)
        object.__setattr__(self, "value", self.value % pm)

    @property
    def modulus(self) -> int:
        return self.p**self.m

    def _coerce(self, other: Union["Residue", int]) -> "Residue":
        if isinstance(other, int):
            return Residue(other, self.p, self.m)
        if not isinstance(other, Residue):
            raise TypeError(f"cannot combine Residue with {type(other).__name__}")
        if (other.p, other.m) != (self.p, self.m):
            raise ModulusMismatch(
                f"residues mod {self.p}^{self.m} and {other.p}^{other.m}"
            )
        return other

    def __add__(self, other: Union["Residue", int]) -> "Residue":
        other = self._coerce(other)
        return Residue(self.value + other.value, self.p, self.m)

    __radd__ = __add__

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.p, self.m)

    def __sub__(self, other: Union["Residue", int]) -> "Residue":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Union["Residue", int]) -> "Residue":
        return self._coerce(other) - self

    def __mul__(self, other: Union["Residue", int]) -> "Residue":
        other = self._coerce(other)
        return Residue(self.value * other.value, self.p, self.m)

    __rmul__ = __mul__

    def inverse(self) -> "Residue":
        if self.value % self.p == 0:
            raise NotAUnit(f"{self.value} is divisible by {self.p}")
        return Residue(pow(self.value, -1, self.modulus), self.p, self.m)

    def __pow__(self, k: int) -> "Residue":
        if k < 0:
            return self.inverse() ** (-k)
        return Residue(pow(self.value, k, self.modulus), self.p, self.m)

    def reduce(self, m: int) -> "Residue":
        """Drop precision to p**m (m <= self.m)."""
        if m > self.m:
            raise ValueError("cannot raise precision")
        return Residue(self.value, self.p, m)

    def __int__(self) -> int:
        return self.value


def residue_from_rational(q: Rational, p: int, m: int) -> Residue:
    """Image of a p-integral rational in Z/p^m."""
    q = Fraction(q)
    pm = check_modulus(p, m)
    if q.denominator % p == 0:
        raise DenominatorDivisibleByP(f"denominator of {q} is divisible by {p}")
    return Residue(q.numerator * pow(q.denominator, -1, pm), p, m)


def p_valuation(q: Rational, p: int) -> PValuation:
    """Order of p in q; +inf for q = 0."""
    if not is_odd_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    q = Fraction(q)
    if q == 0:
        return INFINITE_VALUATION
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v
