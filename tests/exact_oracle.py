"""Exact-rational twins of the modular truncated sums of
`supercong.supercongruence`: the reduce-once oracle the suite holds the
production routes against; the exact walk of the Pochhammer-pair step
ratios, whose terms are the oracle of the well-poised instance's nested
sums and, reduced side by side, of the Pochhammer-pair congruences' residue
walk; and the instance's terms built from its four separate Pochhammer
products, the oracle of that walk.

Every sum here is accumulated in Fractions and reduced mod p^m once, at
the end; every denominator in range is a p-unit.  The central-binomial
sums are rows (a, b, e, r) of

    sum_{k <= (p-1)/2} (ak+b) C(2k,k)^e / r^k,

with C(2k,k) from `math.comb`, not from the term ratio the production
kernel steps by.  X and Y are the reduced binom(-1/2,j)^3 forms over
exact harmonic prefix sums.  The X/Y/Z pass mod p^3 has two modular
oracles for the primes where Fractions are too slow: the loop over full
harmonic prefix tables that the stepped production pass replaced, and a
loop over running sums of 1/j and 1/(2j-1) that do not depend on p.

The two float loops sum Ramanujan's two series each in its own variables;
the one float kernel of `supercong.classical_hg` must reproduce them bit
for bit.

The last section holds the classical facts that no production route
reads: binom(-1/2,k) as its own product, the central-binomial identity,
the limit K! K^(x-1) / (x)_K that defines Gamma(x), and the reflection
formula in floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from supercong.exactnum import residue_from_rational
from supercong.supercongruence import VerificationRecord, _pair_ratios

#: (4k+1) binom(-1/2,k)^5 = (4k+1) C(2k,k)^5 / (-1024)^k: vanhamme_a, prop3
QUINTIC = (4, 1, 5, -1024)
#: (-1)^k (6k+1) 4^-k binom(-1/2,k)^3 = (6k+1) C(2k,k)^3 / 256^k: vanhamme_b
COMPANION = (6, 1, 3, 256)
#: C(2j,j)^3 / 64^j = (-1)^j binom(-1/2,j)^3: Z
Z = (0, 1, 3, 64)
ROWS = (QUINTIC, COMPANION, Z)


def central_sum(p: int, a: int, b: int, e: int, r: int) -> Fraction:
    """The exact sum of (ak+b) C(2k,k)^e / r^k for k <= (p-1)/2."""
    return sum(
        (Fraction((a * k + b) * math.comb(2 * k, k) ** e, r**k) for k in range((p - 1) // 2 + 1)),
        Fraction(0),
    )


def central_residue(p: int, m: int, row: tuple) -> int:
    """One row's exact sum reduced mod p^m."""
    return residue_from_rational(central_sum(p, *row), p, m)


def harmonic_prefix(order: int, upto: int) -> list:
    """H_0 .. H_upto of the given order: H_n = sum_{i <= n} 1 / i^order."""
    values = [Fraction(0)]
    for n in range(1, upto + 1):
        values.append(values[-1] + Fraction(1, n**order))
    return values


def _weights(half: int):
    for j in range(half + 1):
        yield j, Fraction(math.comb(2 * j, j) ** 3, 64**j)


def x_sum(p: int) -> Fraction:
    """Exact rational value of the reduced X quantity."""
    m = (p - 1) // 2
    h1 = harmonic_prefix(1, p - 1)
    h2 = harmonic_prefix(2, p - 1)
    total = Fraction(0)
    for j, w in _weights(m):
        d1 = h1[m + j] - h1[j]
        d2 = h2[m + j] - h2[j]
        total += w * (3 * j * d1 + Fraction(9, 2) * j * j * d1 * d1 - Fraction(3, 2) * j * j * d2)
    return total


def y_sum(p: int) -> Fraction:
    """Exact rational value of the reduced Y quantity."""
    m = (p - 1) // 2
    h1 = harmonic_prefix(1, p - 1)
    total = Fraction(0)
    for j, w in _weights(m):
        d1 = h1[m + j] - h1[j]
        dmid = h1[m + j] - h1[m - j]
        total += w * (1 + 3 * j * d1 - Fraction(3, 2) * j * dmid)
    return total


def xyz_from_prefix_tables(p: int) -> tuple:
    """(X, Y, Z) mod p^3 read from full tables: the inverses of 1..p-1 by
    `pow`, and the prefix sums h1 of inv[n] and h2 of inv[n]^2, whose
    differences are the harmonic differences of `x_sum` and `y_sum`."""
    m, pm = (p - 1) // 2, p**3
    inv = [0] + [pow(i, -1, pm) for i in range(1, p)]
    h1 = list(accumulate(inv))
    h2 = list(accumulate([i * i % pm for i in inv]))
    w, x2, y2, z = 1, 0, 2, 1
    for j in range(1, m + 1):
        t = (2 * j - 1) * inv[2 * j] % pm
        w = w * t * t * t % pm
        z += w
        hm = h1[m + j]
        b = 3 * j * (hm - h1[j]) % pm
        x2 += w * (b * (b + 2) - 3 * j * j * (h2[m + j] - h2[j]))
        y2 += w * (2 + 2 * b - 3 * j * (hm - h1[m - j]))
    half = (pm + 1) // 2
    return x2 * half % pm, y2 * half % pm, z % pm


def xyz_from_odd_sums(p: int) -> tuple:
    """(X, Y, Z) mod p^3 from running sums that do not depend on p: H_j,
    H2_j and O_r(j) = sum_{i <= j} 1 / (2i-1)^r for r = 1..4, every inverse
    by `pow`.  With m = (p-1)/2, 1/(m+i) = 2 / ((2i-1) + p) and
    1/(m+1-i) = -2 / ((2i-1) - p) expand in p, so mod p^3

        A_j = H_m + 2 (O_1 - p O_2 + p^2 O_3) - H_j,
        B_j = H2_m + 4 (O_2 - 2p O_3 + 3p^2 O_4) - H2_j,
        C_j = -4p O_2,

    and X = sum w_j (3j A_j + 9/2 j^2 A_j^2 - 3/2 j^2 B_j),
    Y = sum w_j (1 + 3j A_j - 3/2 j C_j) and Z = sum w_j, as in `x_sum` and
    `y_sum`.  No table and no index of the form m + j."""
    m, pm = (p - 1) // 2, p**3
    half = pow(2, -1, pm)
    hm = sum(pow(i, -1, pm) for i in range(1, m + 1))
    h2m = sum(pow(i * i, -1, pm) for i in range(1, m + 1))
    h = h2 = o1 = o2 = o3 = o4 = x = 0
    w = y = z = 1
    for j in range(1, m + 1):
        ij = pow(j, -1, pm)
        t = (2 * j - 1) * ij * half % pm
        w = w * t**3 % pm
        h, h2 = h + ij, h2 + ij * ij
        q = pow(2 * j - 1, -1, pm)
        o1, o2, o3, o4 = o1 + q, o2 + q**2, o3 + q**3, o4 + q**4
        a = (hm + 2 * (o1 - p * o2 + p * p * o3) - h) % pm
        b = (h2m + 4 * (o2 - 2 * p * o3 + 3 * p * p * o4) - h2) % pm
        c = -4 * p * o2
        x += w * (3 * j * a + 9 * half * j * j * a * a - 3 * half * j * j * b)
        y += w * (1 + 3 * j * a - 3 * half * j * c)
        z += w
    return x % pm, y % pm, z % pm


def pochhammer_pairs(p: int):
    """Yield (k, binom(-1/2,k), Q_k, R_k) for 0 <= k <= (p-1)/2 as exact
    Fractions, each the running product of the step ratios of
    `supercongruence._pair_ratios` (Q_k and R_k as in
    `supercongruence._pochhammer_residues`)."""
    ratios = _pair_ratios(p)
    bk = qk = rk = Fraction(1)
    yield 0, bk, qk, rk
    for k, (b, q, r) in enumerate(ratios, 1):
        bk *= Fraction(*b)
        qk *= Fraction(*q)
        rk *= Fraction(*r)
        yield k, bk, qk, rk


def whipple_instance_terms(p: int):
    """Per-term values of both sides of the specialized transformation from
    the exact walk: (4k+1) binom(-1/2,k) Q_k on the 6F5 side and
    (1/2)_k / k! R_k on the 3F2 side."""
    lhs_terms = []
    rhs_terms = []
    for k, bk, qk, rk in pochhammer_pairs(p):
        lhs_terms.append((4 * k + 1) * bk * qk)
        rhs_terms.append((-bk if k % 2 else bk) * rk)
    return lhs_terms, rhs_terms


def four_product_terms(p: int):
    """Per-term values of both sides of the specialized well-poised
    transformation, each Pochhammer product kept on its own: (1/2)_k,
    (5/4)_k / (1/4)_k, the conjugate pairs (1/2 +- ip/2)_k over
    (1 -+ ip/2)_k, the mirror pairs (1/2 +- p/2)_k over (1 -+ p/2)_k, k!."""
    half = Fraction(1, 2)
    quarter_p2 = Fraction(p * p, 4)
    lhs_terms = []
    rhs_terms = []
    poch_half = ratio_54_14 = conj_cd = conj_cd_low = pair_ef = pair_ef_low = Fraction(1)
    fact = 1
    sign = 1
    for k in range((p - 1) // 2 + 1):
        if k:
            r = k - 1
            poch_half *= half + r
            ratio_54_14 *= (Fraction(5, 4) + r) / (Fraction(1, 4) + r)
            conj_cd *= (r + half) ** 2 + quarter_p2
            conj_cd_low *= (r + 1) ** 2 + quarter_p2
            pair_ef *= (r + half) ** 2 - quarter_p2
            pair_ef_low *= (r + 1) ** 2 - quarter_p2
            fact *= k
            sign = -sign
        lhs_terms.append(
            sign * poch_half * ratio_54_14 * conj_cd * pair_ef
            / (conj_cd_low * pair_ef_low * fact)
        )
        rhs_terms.append(poch_half * pair_ef / (conj_cd_low * fact))
    return lhs_terms, rhs_terms


def poch_congruence_records(p: int) -> list:
    """The Pochhammer-pair congruence records, each side an exact Fraction
    reduced on its own: three Fraction products and eight reductions per k."""
    m = (p - 1) // 2
    records = []
    for k, bk, qk, rk in pochhammer_pairs(p):
        signed = -bk if k % 2 else bk
        pairs = (
            ("poch_shift_square", 2, math.comb(m + k, k) * math.comb(m, k), signed * bk),
            ("poch_shift_linear", 1, signed, math.comb(m + k, m)),
            ("poch_conj_quartic", 4, qk, bk**4),
            ("poch_real_square", 2, rk, bk * bk),
        )
        for name, mm, lhs_q, rhs_q in pairs:
            lhs = residue_from_rational(lhs_q, p, mm)
            rhs = residue_from_rational(rhs_q, p, mm)
            records.append(VerificationRecord(name, p, lhs, rhs, p**mm, lhs == rhs))
    return records


def ramanujan_loop(n_terms: int) -> float:
    """Float partial sum of (4k+1) binom(-1/2,k)^5 through k = n_terms."""
    s = 0.0
    b = 1.0
    for k in range(n_terms + 1):
        if k:
            b *= -(2 * k - 1) / (2 * k)
        s += (4 * k + 1) * b**5
    return s


def entry20_loop(n_terms: int) -> float:
    """Float partial sum of (-1)^k (6k+1) 4^-k binom(-1/2,k)^3 through k = n_terms."""
    s = 0.0
    b = 1.0
    q = 1.0
    sign = 1
    for k in range(n_terms + 1):
        if k:
            b *= -(2 * k - 1) / (2 * k)
            q *= 0.25
            sign = -sign
        s += sign * (6 * k + 1) * q * b**3
    return s


# ---------------------------------------------------------------------------
# classical facts with no production counterpart


class PoleAtNonpositiveInteger(ArithmeticError):
    """Gamma limit requested at a nonpositive integer."""


def binom_half(k: int) -> Fraction:
    """Binomial coefficient with top -1/2: (-1)^k (1/2)_k / k!."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = Fraction(1)
    for j in range(1, k + 1):
        out *= Fraction(-(2 * j - 1), 2 * j)
    return out


def central_binom_identity_check(j: int) -> bool:
    """True iff C(2j, j) = 2^(2j) (-1)^j * binom(-1/2, j) exactly."""
    return math.comb(2 * j, j) == 2 ** (2 * j) * (-1) ** j * binom_half(j)


def gamma_limit_approx(x: Fraction | int, n_steps: int) -> float:
    """K-th term of the limit K! K^(x-1) / (x)_K defining Gamma(x)."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    x = Fraction(x)
    if x.denominator == 1 and x <= 0:
        raise PoleAtNonpositiveInteger(f"Gamma has a pole at {x}")
    xf = float(x)
    acc = float(n_steps) ** (xf - 1.0)
    for j in range(1, n_steps + 1):
        acc *= j / (xf + j - 1)
    return acc


def reflection_check(x: float, rel_tol: float = 1e-10) -> bool:
    """True iff Gamma(x)Gamma(1-x) matches pi/sin(pi*x) to rel_tol."""
    if float(x).is_integer():
        raise ValueError("x must not be an integer")
    lhs = math.gamma(x) * math.gamma(1.0 - x)
    rhs = math.pi / math.sin(math.pi * x)
    return abs(lhs - rhs) / abs(rhs) < rel_tol
