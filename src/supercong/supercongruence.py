"""Truncated Van Hamme sums, the harmonic-sum quantities X/Y/Z at
(lambda, n) = (1, 2), the specialized well-poised transformation with
conjugate-paired parameters, and the per-prime verification records.
Every closed-form side comes from `gaussian_hg`: the quintic's Gamma side
p J_4^2 by Gross-Koblitz and Ono's p^2 * 3F2(1), both from one pair of
squares p = x^2 + y^2, and the companion's p (-1/p) by reflection.

The truncated sums share one shape, the sum over k <= (p-1)/2 of
(ak+b) C(2k,k)^e / r^k, and one modular kernel, `_central_sum`, evaluates
it mod p^m (every denominator in range is a p-unit).  Production runs two
routes: the kernel, for the mod-p^4 companion only, and the exact
rational quintic sum of vanhamme_a and prop3, reduced once at the end.
X, Y and Z are per-term residue sums from one pass over j mod p^3 that
steps its harmonic differences over zipped slices of one table of
inverses, with one reduction per step, of the weight C(2j,j)^3 / 64^j that
Z sums: the harmonic differences (2A - C carried as one running value) are
never reduced, and X, Y and Z once, at the end.  Its only readers are the
four records that state facts about it, lemma1 (Y), lemma2 (X), prop3 (Z)
and thm_os (all three), each behind its one gate and reduced once by
`_record`; the kernel's Z row, the loop over full harmonic prefix tables
and the loop over running sums of 1/j and 1/(2j-1) that do not depend on p
are its oracles in the tests.  The paired Pochhammer ratios are one list
of integer ratios, `_pair_ratios`, read two ways.  The well-poised
instance, which decides by rational equality, sums each side as one
unreduced integer fraction nested from the last term inward and reduces it
once (`classical_hg._nested_sum`, the one kernel of every exact
terminating sum).  The Pochhammer-pair congruences, which need each value
only mod p^4 or p^2, walk the ratios as residues (`_pochhammer_residues`):
prefix quotients with one inverse per sequence.
A residue mod p^m is a plain int in [0, p^m): each quantity function
validates (p, m) once through `exactnum.check_modulus` and reduces once.
A record is a NamedTuple, the row (statement, p, lhs, rhs, modulus,
passed) that `verify` prints, with both integer sides reduced at the one
modulus its statement uses (`_record`).  `tests/exact_oracle.py` holds
what the suite checks production against: the exact twins of the
modular sums, the exact walk of the ratios in Fractions (the oracle of
both routes: its terms summed for the instance, its values reduced side by
side for the congruences), and the instance's four separate Pochhammer
products (the oracle of that walk).  Two layers here are shared by the
statements of one prime and kept in `exactnum`'s per-prime store
(`prime_layer`), so each is computed once per prime: the exact quintic
sum (vanhamme_a, prop3), reduced at each caller's modulus, and the pass
(X, Y, Z) mod p^3 (the lemmas, prop3, thm_os).  The p^2 * 3F2(1) that
thm_os and cor5 read is not kept: each computes Ono's closed form
(`gaussian_hg.gaussian_3f2`) in microseconds from the pair of squares,
which `gaussian_hg` keeps.  Every comparison is exact
integer equality, never approximate.  The exact quintic sum and the
Pochhammer-pair routes refuse a prime above their caps before any work
and before the store is touched, through `exactnum.check_prime`; the
statement registry reads those caps.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple, Optional

from .classical_hg import _nested_sum
from .exactnum import MAX_PRIME, check_modulus, check_prime, prime_layer, residue_from_rational
from .gaussian_hg import gaussian_3f2, legendre, rhs_vanhamme, rhs_vanhamme_b


class VerificationRecord(NamedTuple):
    """Outcome of one congruence check at one prime: the row `verify`
    prints, both sides reduced mod `modulus` (0 <= lhs, rhs < modulus)."""

    statement: str
    p: int
    lhs: int
    rhs: int
    modulus: int
    passed: bool


def _record(statement: str, p: int, lhs: int, rhs: int, pm: int) -> VerificationRecord:
    """The row of two integer sides, each reduced mod pm, the one modulus
    of its record function."""
    lhs, rhs = lhs % pm, rhs % pm
    return VerificationRecord(statement, p, lhs, rhs, pm, lhs == rhs)


def _inverses(n: int, pm: int) -> list:
    """Modular inverses of 1..n mod pm = p^m, for n < p, at index i: the
    one table of the X/Y/Z pass, at n = p - 1 and pm = p^3.

    pm = (pm // i) i + pm % i, and pm % i is a nonzero unit below i, so
    1/i = -(pm // i) / (pm % i): one multiplication per entry, no inversion.
    """
    inv = [0, 1] + [0] * (n - 1)
    for i in range(2, n + 1):
        inv[i] = -(pm // i) * inv[pm % i] % pm
    return inv


# ---------------------------------------------------------------------------
# truncated Van Hamme sums


def _central_sum(p: int, m: int, a: int, b: int, e: int, r: int) -> int:
    """Sum of (ak+b) C(2k,k)^e / r^k for k <= (p-1)/2, mod p^m.

    The term ratio C(2k,k) / C(2k-2,k-1) = 2(2k-1)/k is applied as a
    numerator and a denominator: `total / den` is the partial sum, with
    den = prod k^e r, a p-unit for k < p and p not dividing r, inverted
    once at the end.
    """
    pm = p**m
    num = den = 1
    total = b
    for k in range(1, (p - 1) // 2 + 1):
        num = num * (2 * (2 * k - 1)) ** e % pm
        step = k**e * r
        den = den * step % pm
        total = (total * step + (a * k + b) * num) % pm
    return total * pow(den, -1, pm) % pm


@prime_layer
def _quintic_sum(p: int) -> Fraction:
    """The exact sum of (4k+1) binom(-1/2,k)^5 for k <= (p-1)/2, a kept
    layer: vanhamme_a and prop3 read it at one prime, each at its own
    modulus."""
    total = Fraction(0)
    b = Fraction(1)
    for k in range((p - 1) // 2 + 1):
        if k:
            b *= Fraction(-(2 * k - 1), 2 * k)
        total += (4 * k + 1) * b**5
    return total


#: The exact quintic sum grows like p^3: timed alone in a fresh process on
#: a 2-vCPU host (Python 3.11) with the sum not yet kept,
#: vanhamme_verify(7703) took 4.3-5.1 s and prop3_check(7703) 4.2-4.8 s.
QUINTIC_SUM_MAX_P = 7703


def lhs_vanhamme(p: int, m: int = 3) -> int:
    """Sum of (4k+1) binom(-1/2,k)^5 for k <= (p-1)/2, reduced mod p^m.

    Every denominator is a power of 2, a p-unit for odd p.  A p above
    QUINTIC_SUM_MAX_P raises ValueError before the sum starts.
    """
    check_modulus(p, m)
    check_prime(p, QUINTIC_SUM_MAX_P, "quintic-sum")
    # the kernel row (4, 1, 5, -1024) is equal; moving to it waits on the
    # benchmark's peak-RSS metric (ROADMAP item 1)
    return residue_from_rational(_quintic_sum(p), p, m)


def lhs_vanhamme_b(p: int, m: int = 4) -> int:
    """Sum of (-1)^k (6k+1) 4^-k binom(-1/2,k)^3 for k <= (p-1)/2 mod p^m.

    The signs cancel: (-1)^k 4^-k binom(-1/2,k)^3 = C(2k,k)^3 / 256^k.
    """
    check_modulus(p, m)
    return _central_sum(p, m, 6, 1, 3, 256)


# ---------------------------------------------------------------------------
# the X / Y / Z quantities at (lambda, n) = (1, 2)


@prime_layer
def _xy_mod(p: int) -> tuple:
    """(X, Y, Z) mod p^3 from one pass over j, the kept X/Y/Z layer of p.
    The reduced binom(-1/2,j)^3 form determines X and Y at the precision
    they are read at: mod p in the lemmas and mod p^2 in the decomposition
    check, which reads all three; prop3 reads Z.  Whatever the statements
    and their order, a prime runs this pass once, over one inverse table.

    The weight w_j = C(2j,j)^3 / 64^j = binom(-1/2,j)^3 (-1)^j steps by
    t^3, t = 1 - 1/(2j), and Z is 1 + the sum of the w_j.  The differences
    A_j = H_{m+j} - H_j, B_j = H2_{m+j} - H2_j and C_j = H_{m+j} - H_{m-j}
    start at H_m, H2_m and 0 and step by 1/(m+j) - 1/j, 1/(m+j)^2 - 1/j^2
    and 1/(m+j) + 1/(m+1-j).  With v_j = j w_j the doubled sums X2 = 3 sum
    v_j (A_j (3j A_j + 2) - j B_j) and Y2 = 2Z + 3 sum v_j G_j, where
    G_j = 2A_j - C_j steps by s - 1/j - 1/(m+1-j) with s = 1/(m+j) - 1/j,
    are each halved once at the end.  Each step reads its four inverses
    from zipped slices of the table, 1/(2j), 1/(m+j), 1/j and 1/(m+1-j),
    and makes one reduction, of w: A_j, B_j and G_j move by table entries
    (B_j by products of two) and are never reduced, and X, Y and Z are
    reduced once, at the end.
    """
    m, pm = (p - 1) // 2, p**3
    inv = _inverses(p - 1, pm)
    lo = inv[1 : m + 1]
    a, b = sum(lo), sum(map(mul, lo, lo))
    w, z, g, x2, y2 = 1, 1, 2 * a, 0, 0
    for j, e, u, d, r in zip(range(1, m + 1), inv[2::2], inv[m + 1 :], lo, reversed(lo)):
        t = 1 - e
        w = w * t * t * t % pm
        z += w
        s = u - d
        a += s
        b += s * (u + d)
        g += s - d - r
        v = j * w
        x2 += v * (a * (3 * j * a + 2) - j * b)
        y2 += v * g
    z %= pm
    half = (pm + 1) // 2
    return 3 * x2 * half % pm, (2 * z + 3 * y2) * half % pm, z


# ---------------------------------------------------------------------------
# verification records


def vanhamme_verify(p: int, m: int = 3) -> VerificationRecord:
    """The mod-p^3 congruence between the truncated quintic sum and the
    p-adic Gamma value (zero in the 3 mod 4 branch)."""
    return _record("vanhamme_a", p, lhs_vanhamme(p, m), rhs_vanhamme(p, m), p**m)


def vanhamme_b_verify(p: int, m: int = 4) -> VerificationRecord:
    """The conjectural mod-p^4 companion congruence; failures are findings
    to report, never asserted impossible."""
    return _record("vanhamme_b", p, lhs_vanhamme_b(p, m), rhs_vanhamme_b(p, m), p**m)


def lemma1_check(p: int) -> VerificationRecord:
    """Y vanishes mod p."""
    check_modulus(p, 1)
    return _record("lemma1", p, _xy_mod(p)[1], 0, p)


def lemma2_check(p: int) -> VerificationRecord:
    """X vanishes mod p."""
    check_modulus(p, 1)
    return _record("lemma2", p, _xy_mod(p)[0], 0, p)


def prop3_check(p: int) -> VerificationRecord:
    """Truncated quintic sum vs phi(-1) * p * Z mod p^3, where Z is the sum
    of C(2j,j)^3 / 64^j = (-1)^j binom(-1/2,j)^3 for j <= (p-1)/2."""
    lhs = lhs_vanhamme(p, 3)  # the quintic-sum gate runs first
    return _record("prop3", p, lhs, legendre(-1, p) * p * _xy_mod(p)[2], p**3)


def theorem_os_check(p: int) -> VerificationRecord:
    """p^2 * 3F2(1) against phi(-1) [p^2 X + p Y + Z] mod p^3.

    The p-power prefactors set the precision each reduced quantity is
    needed at, X mod p, Y mod p^2 and Z mod p^3, and one pass mod p^3
    yields all three.
    """
    pm = check_modulus(p, 3)
    lhs = gaussian_3f2(p)
    x, y, z = _xy_mod(p)
    rhs = legendre(-1, p) * (p * p * x + p * y + z)
    return _record("thm_os", p, lhs, rhs, pm)


def cor5_check(p: int, m: int = 3) -> VerificationRecord:
    """p^3 * 3F2(1) = p * (p^2 * 3F2(1)) against the Gamma branch mod p^m.

    Both sides are `gaussian_hg` closed forms in the one kept pair of
    squares p = x^2 + y^2: Ono's p (4x^2 - 2p) and Gross-Koblitz's
    p J_4^2, J_4 = x + y i.  So at p = 1 (mod 4) the row checks
    J_4^2 = 4x^2 - 2p (mod p^2), an identity in x: J' = x - y i has
    J_4 + J' = 2x and J_4 J' = p with J_4 a unit, so
    J_4^2 = 4x^2 - 2p - J'^2 with v_p(J'^2) = 2.  The row holds mod p^3
    and fails mod p^4 at every such p.  The Gamma_p content of cor5 lives
    in the tests that hold `rhs_vanhamme` against the block route of
    gamma_p.
    """
    pm = check_modulus(p, m)
    return _record("cor5", p, p * gaussian_3f2(p), rhs_vanhamme(p, m), pm)


# ---------------------------------------------------------------------------
# Pochhammer pairs: the congruences and the well-poised instance
#
# The instance's parameters come in complex-conjugate pairs, 1/2 +- ip/2
# over their lower partners 1 -+ ip/2, and in real mirror pairs, 1/2 +- p/2
# over 1 -+ p/2.  Each pair multiplies to a rational, so every term is
# exact; the congruences and the instance step by the same integer ratios.
# The instance sums each side as one unreduced integer fraction, nested from
# the last term inward, and compares the two rationals exactly.  The
# congruences need each ratio only at a fixed precision, so they walk the
# ratios as residues: binom(-1/2,k) and Q_k mod p^4 and R_k mod p^2, each a
# prefix quotient with one inverse per sequence.

#: Set by the exact walk in Fractions, which the suite runs at this cap as
#: the oracle of both routes and whose cost grows like p^3: there it took
#: 4.7-5.1 s alone in a fresh process on a 2-vCPU host (Python 3.11).  On
#: that host whipple_instance_check(3989), the nested sums, took
#: 0.06-0.11 s, and 4099 (the cap lifted) 0.10 s; re-measuring the cap is
#: ROADMAP item 8.
WHIPPLE_INST_MAX_P = 3989


def _pair_ratios(p: int) -> list:
    """The integer ratios (numerator, denominator) that step binom(-1/2,k),
    Q_k and R_k from k-1 to k, for 1 <= k <= (p-1)/2.

    With r = k-1 the factors of Q_k and R_k (see `_pochhammer_residues`) scale
    by 4 to (2k-1)^2 +- p^2 over (2k)^2 +- p^2; (2k)^2 - p^2 never vanishes
    for odd p.  A p that is not an odd prime at most WHIPPLE_INST_MAX_P
    raises ValueError before the first step.
    """
    check_prime(p, WHIPPLE_INST_MAX_P, "Pochhammer-walker")
    p2 = p * p
    ratios = []
    for k in range(1, (p - 1) // 2 + 1):
        odd, even = (2 * k - 1) ** 2, (2 * k) ** 2
        ratios.append(
            ((1 - 2 * k, 2 * k), ((odd + p2) * (odd - p2), (even + p2) * (even - p2)), (odd - p2, even + p2))
        )
    return ratios


def _prefix_quotients(steps: list, modulus: int) -> list:
    """[prod_{i<=k} n_i / d_i mod modulus for 0 <= k <= len(steps)] for the
    integer steps (n_i, d_i), every d_i a unit mod modulus.

    The numerators and denominators are multiplied up as prefix products;
    the last denominator is inverted once, and the sweep back to k = 0
    multiplies it by d_k to invert each shorter prefix in turn.
    """
    nums = [1]
    dens = [1]
    for n, d in steps:
        nums.append(nums[-1] * n % modulus)
        dens.append(dens[-1] * d % modulus)
    inv = pow(dens[-1], -1, modulus)
    out = [1] * len(nums)
    for k in range(len(steps), 0, -1):
        out[k] = nums[k] * inv % modulus
        inv = inv * steps[k - 1][1] % modulus
    return out


def _pochhammer_residues(p: int) -> tuple:
    """The lists of binom(-1/2,k) mod p^4, Q_k mod p^4 and R_k mod p^2 for
    0 <= k <= (p-1)/2, where

        Q_k = prod_{r<k} ((r+1/2)^2 + p^2/4)((r+1/2)^2 - p^2/4)
                         / (((r+1)^2 + p^2/4)((r+1)^2 - p^2/4)),
        R_k = prod_{r<k} ((r+1/2)^2 - p^2/4) / ((r+1)^2 + p^2/4):

    the ratios of `_pair_ratios` as prefix quotients, one inverse per
    sequence."""
    ratios = _pair_ratios(p)
    p2, p4 = p * p, p**4
    return (
        _prefix_quotients([b for b, _, _ in ratios], p4),
        _prefix_quotients([q for _, q, _ in ratios], p4),
        _prefix_quotients([r for _, _, r in ratios], p2),
    )


def poch_congruence_checks(p: int) -> list:
    """All four Pochhammer-pair congruences for 0 <= k <= (p-1)/2.

    Returns one record per (identity, k); every ratio in sight is a p-unit,
    so the residues are well defined at the stated precisions.  The shifted
    sides are the binomials C(m+k,k) C(m,k) and C(m+k,m) = (k+1)_m / m!
    with m = (p-1)/2, the prefix quotients mod p^2 of (m+i)/i and
    (m+1-i)/i, one inverse each; the conjugate and real sides are Q_k and
    R_k.  The eight sides are integers from these residues and those of
    `_pochhammer_residues`.  Each row holds those integers reduced at its
    own modulus and their equality.
    """
    m = (p - 1) // 2
    bs, qs, rs = _pochhammer_residues(p)  # the prime gate runs first
    p2, p4 = p * p, p**4
    wide = _prefix_quotients([(m + i, i) for i in range(1, m + 1)], p2)  # C(m+k,k) = C(m+k,m)
    narrow = _prefix_quotients([(m + 1 - i, i) for i in range(1, m + 1)], p2)  # C(m,k)
    records = []
    for k, (b, qk, rk, cw, cn) in enumerate(zip(bs, qs, rs, wide, narrow)):
        signed = -b if k % 2 else b  # (-1)^k binom(-1/2,k) = (1/2)_k / k!
        sides = (
            ("poch_shift_square", p2, cw * cn, signed * b),
            ("poch_shift_linear", p, signed, cw),
            ("poch_conj_quartic", p4, qk, b**4),
            ("poch_real_square", p2, rk, b * b),
        )
        records.extend(_record(name, p, lhs, rhs, pm) for name, pm, lhs, rhs in sides)
    return records


def whipple_instance_sides(p: int) -> tuple:
    """The exact sides (LHS, phi(-1) * p * RHS) of the specialized
    transformation.  The 6F5 side sums (4k+1) binom(-1/2,k) Q_k, since
    (5/4)_k / (1/4)_k = 4k+1; the 3F2 side sums (1/2)_k / k! R_k =
    (-1)^k binom(-1/2,k) R_k.  Both terminate at k = (p-1)/2 because
    (1/2 - p/2)_k vanishes beyond that index, and each is one nested sum
    over the step ratios of `_pair_ratios`."""
    ratios = _pair_ratios(p)
    half = len(ratios)
    lhs = _nested_sum(range(1, 4 * half + 2, 4), [(b[0] * q[0], b[1] * q[1]) for b, q, _ in ratios])
    rhs = _nested_sum([1] * (half + 1), [(-b[0] * r[0], b[1] * r[1]) for b, _, r in ratios])
    return lhs, legendre(-1, p) * p * rhs


def whipple_instance_check(p: int) -> VerificationRecord:
    """Exact equality LHS = phi(-1) * p * RHS for the specialized instance.

    The pass flag is decided by exact rational equality, not a congruence;
    the record carries both sides reduced mod p^4 for reporting.
    """
    lhs, rhs = whipple_instance_sides(p)
    return VerificationRecord(
        "whipple_inst",
        p,
        residue_from_rational(lhs, p, 4),
        residue_from_rational(rhs, p, 4),
        p**4,
        lhs == rhs,
    )


# ---------------------------------------------------------------------------
# the statement registry of the sweep front end


class Statement(NamedTuple):
    """One sweep statement: its default modulus exponent (None where the
    modulus is fixed and a --mod-power override does not apply),
    `check(p, m)`, which returns the statement's record at p, and `max_p`,
    the largest prime a sweep may ask it for."""

    default_m: Optional[int]
    check: Callable[[int, Optional[int]], VerificationRecord]
    max_p: int = MAX_PRIME


# A statement's cap is the largest prime at which one check, alone in a
# fresh process, took about 5 s on a 2-vCPU host (Python 3.11).  Each cap
# is defined and enforced by the layer whose cost it bounds, so the API
# refuses what a sweep refuses: QUINTIC_SUM_MAX_P by lhs_vanhamme (the
# exact quintic sum) and WHIPPLE_INST_MAX_P by the Pochhammer-pair walker.
# The modular kernel of vanhamme_b, the X/Y/Z pass of the lemmas, prop3
# and thm_os, and Ono's closed form of the 3F2 need no cap below
# MAX_PRIME: vanhamme_b_verify(999983, 8) takes under 1 s, and
# lemma1,thm_os,lemma2,cor5 at 999961 1.2-1.3 s, nearly all of it the one
# X/Y/Z pass mod p^3 (one reduction per step) and its table of inverses.

# Each check resolves its record function through this module's globals at
# call time, so a wrapper installed on the module attribute sees every call.
STATEMENTS = {
    "vanhamme_a": Statement(3, lambda p, m: vanhamme_verify(p, m), QUINTIC_SUM_MAX_P),
    "vanhamme_b": Statement(4, lambda p, m: vanhamme_b_verify(p, m)),
    "lemma1": Statement(None, lambda p, m: lemma1_check(p)),
    "lemma2": Statement(None, lambda p, m: lemma2_check(p)),
    "prop3": Statement(None, lambda p, m: prop3_check(p), QUINTIC_SUM_MAX_P),
    "thm_os": Statement(None, lambda p, m: theorem_os_check(p)),
    "cor5": Statement(3, lambda p, m: cor5_check(p, m)),
    "whipple_inst": Statement(None, lambda p, m: whipple_instance_check(p), WHIPPLE_INST_MAX_P),
}

#: The statements a sweep checks when none are named.
DEFAULT_STATEMENTS = ("vanhamme_a", "lemma1", "lemma2", "prop3")
