"""Classical hypergeometric side: Pochhammer symbols, exact terminating pFq
sums, the well-poised 6F5(-1) -> 3F2(1) transformation, and double-precision
partial sums of Ramanujan's two series, both summed by one float kernel over
the rows that `supercongruence._central_sum` reduces.

Every exact terminating sum, here and in `supercongruence`'s well-poised
instance, is one `_nested_sum` over integer step ratios.  The exact entry
points take int or Fraction parameters only (`exactnum.rational`)."""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import rational

#: Largest n_terms of the float partial sums (about 5 s of work).
MAX_SERIES_TERMS = 10**7

# The exact routes have one bound, on their size: the count times the bits
# of the parameters (`_size`), which bounds the bit length of the one
# unreduced fraction each exact route builds.  Each parameter adds at least
# bits(n) >= 1 per step, so the size bounds the count too.  The cost follows
# the size, not the count: pochhammer(1/10^100, 4000) took 11.3 s when each
# step reduced a Fraction.  The bound follows the rule of the statement caps
# in `supercongruence`, about 5 s alone in a fresh process on a 2-vCPU host
# (Python 3.11).  At sizes up to 10^6 the slowest shapes timed were
# hypergeom_terminating((-296, 1/10^1000), (1/3,), 1) at 3.9 s and
# pochhammer(1/10^1000, 300) at 3.0 s; at the largest counts the bound
# admits, none took 2 s (pochhammer(1/10^10, 20000) 1.6 s,
# hypergeom_terminating((-12500,), (1/10^6,), 1) 1.6 s,
# whipple_check(1, 1/2, 1/3, 1/4, 2898) 0.4 s).
#: Largest `_size` of an exact count, for `whipple_check` the sum over the
#: four counts it runs.
MAX_EXACT_SIZE = 1_000_000


class LowerParamPole(ArithmeticError):
    """A lower parameter hits 0 or a negative integer inside the sum range."""


class ParameterPole(ArithmeticError):
    """Excluded parameter configuration for the well-poised transformation."""


def _size(n: int, params) -> int:
    """n times the summed bits of the parameters shifted by up to n: a bound
    on the bit length of an exact route's unreduced fraction."""
    w = n.bit_length()
    return n * sum(x.numerator.bit_length() + x.denominator.bit_length() + w for x in params)


def _check_size(n: int, params, what: str) -> None:
    """Raise ValueError before any step when `_size` exceeds MAX_EXACT_SIZE."""
    size = _size(n, params)
    if size > MAX_EXACT_SIZE:
        raise ValueError(
            f"{what}: size {size} (term count times parameter bits) "
            f"exceeds the bound {MAX_EXACT_SIZE}"
        )


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1), with (a)_0 = 1: for a = u/v, the
    integer product of u + iv over v^n, reduced once."""
    if not isinstance(n, int):
        raise TypeError("n must be an integer")
    if n < 0:
        raise ValueError("n must be nonnegative")
    a = rational(a)
    _check_size(n, (a,), "pochhammer")
    u, v = a.numerator, a.denominator
    return Fraction(math.prod(range(u, u + n * v, v)), v**n)


def _poch_hits_zero(b: Fraction, n_terms: int) -> bool:
    # (b)_k = 0 for some k <= n_terms iff b in {0, -1, ..., -(n_terms-1)}
    return b.denominator == 1 and 0 >= b > -n_terms


def _nested_sum(coeffs, ratios) -> Fraction:
    """sum_k c_k prod_{i<=k} n_i / d_i over coeffs c_0..c_K and the integer
    ratios (n_i, d_i), i = 1..K, as c_0 + r_1 (c_1 + r_2 (c_2 + ...)): nested
    from the last term inward as one unreduced fraction, reduced once."""
    num, den = coeffs[-1], 1
    for c, (n, d) in zip(reversed(coeffs[:-1]), reversed(ratios)):
        num, den = c * d * den + n * num, d * den
    return Fraction(num, den)


def hypergeom_terminating(upper, lower, z: Fraction | int) -> Fraction:
    """Exact value of the terminating pFq with upper parameters `upper`,
    lower parameters `lower` and argument z, as a finite rational sum.

    Some upper parameter must be a nonpositive integer; the sum runs to the
    smallest such termination index n, and n times the parameters' bits
    stays within MAX_EXACT_SIZE.  With the term ratio
    r_k = prod(a+k) z / (prod(b+k) (k+1)) the sum is
    1 + r_0 (1 + r_1 (1 + ... r_(n-1))), one `_nested_sum` over integers:
    r_k = P_k / Q_k over the parameters' denominators.
    """
    upper = [rational(a) for a in upper]
    lower = [rational(b) for b in lower]
    z = rational(z)
    stops = [-int(a) for a in upper if a.denominator == 1 and a <= 0]
    if not stops:
        raise ValueError("no upper parameter terminates the series")
    n_stop = min(stops)
    _check_size(n_stop, (*upper, *lower, z), "hypergeom_terminating")
    for b in lower:
        if _poch_hits_zero(b, n_stop):
            raise LowerParamPole(f"lower parameter {b} is a pole within k<={n_stop}")
    p_const = z.numerator * math.prod(b.denominator for b in lower)
    q_const = z.denominator * math.prod(a.denominator for a in upper)
    ratios = [
        (
            p_const * math.prod(a.numerator + k * a.denominator for a in upper),
            q_const * (k + 1) * math.prod(b.numerator + k * b.denominator for b in lower),
        )
        for k in range(n_stop)
    ]
    return _nested_sum([1] * (n_stop + 1), ratios)


def whipple_check(a, c, d, e, m: int) -> bool:
    """Exact check of the terminating well-poised transformation with f = -m
    at rational (Fraction or int) parameters a, c, d, e.

    The 6F5 at -1 with parameter row (a, 1+a/2, c, d, e, -m) must equal
    (1+a)_m / (1+a-e)_m times the 3F2 at 1 with upper row (1+a-c-d, e, -m).
    The Gamma-factor prefactor has been rewritten as that Pochhammer ratio
    via Gamma(x+1) = x*Gamma(x), which is what keeps both sides rational.
    The four counts together stay within MAX_EXACT_SIZE.
    """
    if not isinstance(m, int):
        raise TypeError("m must be an integer")
    if m < 1:
        raise ValueError("m must be >= 1")
    a, c, d, e = map(rational, (a, c, d, e))
    f = Fraction(-m)
    lhs_upper = (a, 1 + a / 2, c, d, e, f)
    lhs_lower = (a / 2, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a - f)
    rhs_upper = (1 + a - c - d, e, f)
    rhs_lower = (1 + a - c, 1 + a - d)
    for b in lhs_lower + rhs_lower:
        if _poch_hits_zero(b, m):
            raise ParameterPole(f"lower parameter {b} is a pole within k<={m}")
    for g in (1 + a, 1 + a - e + m):
        if g.denominator == 1 and g <= 0:
            raise ParameterPole(f"{g} is a nonpositive integer")
    # its two rows (with their arguments) and its two Pochhammer symbols
    rows = (*lhs_upper, *lhs_lower, -1, *rhs_upper, *rhs_lower, 1, 1 + a, 1 + a - e)
    _check_size(m, rows, "whipple_check")
    lhs = hypergeom_terminating(lhs_upper, lhs_lower, -1)
    prefactor = pochhammer(1 + a, m) / pochhammer(1 + a - e, m)
    rhs = prefactor * hypergeom_terminating(rhs_upper, rhs_lower, 1)
    return lhs == rhs


def _check_n_terms(n_terms: int) -> None:
    if not 0 <= n_terms <= MAX_SERIES_TERMS:
        raise ValueError(f"n_terms must lie in 0..{MAX_SERIES_TERMS}, got {n_terms}")


def _central_series(n_terms: int, a: int, b: int, e: int, r: int) -> float:
    """Float partial sum of sum_k (ak+b) C(2k,k)^e / r^k through k = n_terms.

    The term ratio (2(2k-1)/k)^e / r is stepped as c = C(2k,k) / 4^k, times
    (2k-1)/(2k) and raised to e per term, and a scale (4^e/r)^k, which is
    exact for both rows (4^e/r is -1 and 1/4): only c carries rounding, and
    each sum equals the per-series loops of `tests/exact_oracle.py` bit for bit.
    """
    _check_n_terms(n_terms)
    s = 0.0
    c = scale = 1.0
    step = 4**e / r
    for k in range(n_terms + 1):
        if k:
            c *= (2 * k - 1) / (2 * k)
            scale *= step
        s += (a * k + b) * scale * c**e
    return s


def ramanujan_partial_sum(n_terms: int) -> float:
    """Partial sum of sum_k (4k+1) binom(-1/2,k)^5 through k = n_terms."""
    return _central_series(n_terms, 4, 1, 5, -1024)


def ramanujan_target() -> float:
    """2 / Gamma(3/4)^4, the limit of the series above."""
    return 2.0 / math.gamma(0.75) ** 4


def entry20_partial_sum(n_terms: int) -> float:
    """Partial sum of sum_k (-1)^k (6k+1) 4^-k binom(-1/2,k)^3."""
    return _central_series(n_terms, 6, 1, 3, 256)


def entry20_target() -> float:
    """4/pi, the limit of the alternating series above."""
    return 4.0 / math.pi
