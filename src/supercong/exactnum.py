"""Arithmetic modulo odd prime powers and the checks at the API boundary.

A residue mod p^m is a plain int in [0, p^m): each quantity function
validates (p, m) once through `check_modulus` and reduces its value once
with `% p**m`.  Exact rationals are the stdlib `fractions.Fraction`; an
exact entry point takes only an int or a Fraction (`rational`), since a
float or a str carries no exact rational value of its own.

This is the one module that validates a prime.  `check_modulus` holds the
API-wide caps, and `check_prime` is the gate of a costly layer: the layer
names its own cap, defined beside the work it bounds, and the gate refuses
a larger p before any of that work starts.

It also holds the least primitive root of a prime (`primitive_root`) and
the walk over its powers (`powers`), the discrete-log points of
`polyengine`'s chirp-z transform, and the one store of per-prime layers
(`prime_layer`): the values several statements share at one prime, kept
for the last prime asked and dropped as soon as any layer is asked at
another.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, wraps

#: API-boundary caps; p**m must stay a comfortable bignum.
MAX_PRIME = 10**6
MAX_EXPONENT = 8


class NotPIntegral(ArithmeticError):
    """The rational has no image in Z/p^m: p divides its denominator."""


#: The bases (2, 3, 5, 7) decide primality for every n below this bound
#: (C. Pomerance, J. L. Selfridge and S. S. Wagstaff, "The pseudoprimes to
#: 25 * 10^9", Math. Comp. 35, 1980): 3215031751 = 151 * 751 * 28351 is the
#: least strong pseudoprime to all four.
MILLER_RABIN_BOUND = 3_215_031_751


def is_odd_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proved for n < MILLER_RABIN_BOUND; from
    that bound up it raises ValueError instead of answering."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"{_brief(n)} is beyond the proved Miller-Rabin range")
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


def _brief(n: int) -> str:
    """n in decimal while it is short: an error line never carries a huge integer."""
    return str(n) if abs(n) < 10**40 else f"<{n.bit_length()}-bit integer>"


# one prime touches at most six (p, m) pairs; typed, so that 7.0, equal
# to 7, never reads the pair kept for 7 and skips the checks
@lru_cache(maxsize=16, typed=True)
def check_modulus(p: int, m: int) -> int:
    """Validate (p, m) and return p**m; recent pairs come from the cache."""
    if not isinstance(p, int) or not isinstance(m, int):
        raise TypeError("p and m must be integers")
    if not 1 <= m <= MAX_EXPONENT:
        raise ValueError(f"exponent m={_brief(m)} outside 1..{MAX_EXPONENT}")
    if p > MAX_PRIME:
        raise ValueError(f"prime {_brief(p)} exceeds the {MAX_PRIME} cap")
    if not is_odd_prime(p):
        raise ValueError(f"{_brief(p)} is not an odd prime")
    return p**m


def primitive_root(p: int) -> int:
    """The least primitive root mod the odd prime p; any other p raises
    ValueError (`check_modulus`)."""
    check_modulus(p, 1)
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


def powers(g: int, p: int) -> list:
    """[g^i mod p for i < p - 1]: the walk of a discrete-log table.  A p
    that `check_modulus` refuses raises ValueError before the walk is
    allocated.  g is reduced mod p first, so each step multiplies residues
    below p whatever the size of g.  It raises ArithmeticError unless g has
    order p - 1: if g^i = 1 before i = p - 1, or if g^(p - 1) is not 1
    (g = 0 mod p), so a g that is not a primitive root never yields a table
    with values missing."""
    check_modulus(p, 1)
    step = g % p
    walk = [1] * (p - 1)
    for i in range(1, p - 1):
        walk[i] = walk[i - 1] * step % p
        if walk[i] == 1:
            break
    else:
        if walk[-1] * step % p == 1:
            return walk
    raise ArithmeticError(f"{_brief(g)} is not a primitive root mod {p}")


def check_prime(p: int, cap: int, layer: str) -> None:
    """Raise ValueError unless p is an odd prime at most `cap`, the cap of
    the named layer: the gate a costly entry point passes before any work."""
    check_modulus(p, 1)
    if p > cap:
        raise ValueError(f"prime {p} exceeds the {layer} cap {cap}")


#: {p: {(layer, args): value}}: the kept layers of the last prime asked.
_layers: dict = {}


def prime_layer(fn):
    """Keep fn(p, *args) in the one per-prime store.

    The store holds the layers of one prime only: asking any layer at
    another prime empties it first, so nothing is kept across a sweep.  A
    value is filed only if the store was not emptied while fn ran, so a
    nested call at another prime never files it under the wrong one.
    Callers pass p through their gate first.
    """

    @wraps(fn)
    def layer(p, *args):
        kept = _layers.get(p)
        if kept is None:
            _layers.clear()
            kept = _layers[p] = {}
        key = (fn, args)
        if key in kept:
            return kept[key]
        value = fn(p, *args)
        if _layers.get(p) is kept:
            kept[key] = value
        return value

    return layer


def rational(x: Fraction | int) -> Fraction:
    """x as a Fraction; a Fraction is immutable, so it is returned itself.
    A float or a str raises TypeError: Fraction(0.1) is the binary double
    nearest 1/10, not 1/10, and a str is not a number."""
    if type(x) is Fraction:
        return x
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")
    return Fraction(x)


def residue_from_rational(q: Fraction | int, p: int, m: int) -> int:
    """Image of a p-integral rational in Z/p^m, in [0, p^m): numerator /
    denominator mod p^m."""
    q = rational(q)
    pm = check_modulus(p, m)
    if q.denominator % p == 0:
        raise NotPIntegral(f"{q} is not p-integral at p={p}")
    return q.numerator * pow(q.denominator, -1, pm) % pm
