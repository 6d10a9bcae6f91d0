"""Acceptance suite: every criterion at its stated range and tolerance,
one printed pass/fail line per criterion.  Congruence checks are exact
integer comparisons; float tolerances appear only for the display-level
constants and the rounding residual of the character-sum oracle that
criterion 5 holds the exact finite-field series against.

Run with `pytest -s tests/test_acceptance.py` to see the report lines.
"""

import random
import time
from fractions import Fraction

from charsum_oracle import charsum_nFn_phi_with_residual
from exact_oracle import COMPANION, QUINTIC, Z, central_residue, x_sum, y_sum
from supercong.classical_hg import (
    entry20_partial_sum,
    entry20_target,
    ramanujan_partial_sum,
    ramanujan_target,
    whipple_check,
)
from supercong.exactnum import residue_from_rational
from supercong.gaussian_hg import gaussian_3f2
from supercong.polyengine import (
    coefficient_facts_check,
    exp_sum_check,
    lemma_sum_checks,
    p_identity_check,
)
from supercong.supercongruence import (
    _central_sum,
    _xy_mod,
    cor5_check,
    lemma1_check,
    lemma2_check,
    lhs_vanhamme,
    lhs_vanhamme_b,
    poch_congruence_checks,
    theorem_os_check,
    vanhamme_b_verify,
    vanhamme_verify,
    whipple_instance_check,
)


def _primes_to(n):
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(n**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = b"\x00" * len(range(q * q, n + 1, q))
    return [p for p in range(3, n + 1) if sieve[p] and p % 2]


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_vanhamme_mod_p3():
    start = time.perf_counter()
    records = [vanhamme_verify(p) for p in _primes_to(499)]
    elapsed = time.perf_counter() - start
    failures = [rec.p for rec in records if not rec.passed]
    spot3 = next(rec for rec in records if rec.p == 3)
    spot5 = next(rec for rec in records if rec.p == 5)
    classes = {rec.p % 4 for rec in records}
    ok = (
        not failures
        and classes == {1, 3}
        and spot3.lhs == spot3.rhs == 0
        and spot3.modulus == 27
        and spot5.lhs == spot5.rhs == 95
        and spot5.modulus == 125
        and elapsed < 10.0
    )
    _report(
        1,
        "quintic congruence mod p^3 for all odd p <= 499",
        ok,
        f"{len(records)} primes in {elapsed:.2f}s, failures={failures}",
    )


def test_criterion_02_vanhamme_b_mod_p4():
    start = time.perf_counter()
    records = [vanhamme_b_verify(p) for p in _primes_to(499)]
    elapsed = time.perf_counter() - start
    failures = [rec for rec in records if not rec.passed]
    for rec in failures:
        gap_order = 3 if (rec.lhs - rec.rhs) % rec.p**3 == 0 else "<3"
        print(
            f"    finding: p={rec.p} fails mod p^4 "
            f"(lhs={rec.lhs}, rhs={rec.rhs} mod {rec.modulus}; "
            f"sides agree mod p^{gap_order})"
        )
    # the sweep is the criterion; failures are findings to report, and the
    # observed exceptional set is frozen so regressions surface loudly
    ok = [rec.p for rec in failures] == [3]
    _report(
        2,
        "mod-p^4 companion sweep over odd p <= 499 with findings reported",
        ok,
        f"{len(records)} primes in {elapsed:.1f}s, reported findings: p=3 only",
    )


def test_criterion_03_lemmas_mod_p():
    start = time.perf_counter()
    bad = [
        p
        for p in _primes_to(997)
        if lemma1_check(p).lhs != 0 or lemma2_check(p).lhs != 0
    ]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    _report(
        3,
        "X and Y vanish mod p for all odd p <= 997",
        ok,
        f"{elapsed:.2f}s, violations={bad}",
    )


def test_criterion_04_prop3_mod_p3():
    from supercong.supercongruence import prop3_check

    failures = [p for p in _primes_to(499) if not prop3_check(p).passed]
    _report(4, "quintic sum vs phi(-1) p Z mod p^3 for p <= 499", not failures,
            f"failures={failures}")


def test_criterion_05_theorem_os_instance():
    start = time.perf_counter()
    failures = []
    for p in _primes_to(199):
        nearest, residual = charsum_nFn_phi_with_residual(p, 2, 1)
        exact = residual < 1e-6 and nearest == gaussian_3f2(p)
        if not (exact and theorem_os_check(p).passed):
            failures.append(p)
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    _report(
        5,
        "p^2 3F2(1) decomposition mod p^3 for p <= 199 at residual < 1e-6",
        ok,
        f"{elapsed:.1f}s, failures={failures}",
    )


def test_criterion_06_corollary5_relation():
    failures = [p for p in _primes_to(199) if not cor5_check(p).passed]
    _report(6, "p^3 3F2(1) vs the Gamma branch mod p^3 for p <= 199", not failures,
            f"failures={failures}")


def _random_whipple_tuples(seed, count, max_abs=12, max_m=8):
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        a, c, d, e = (
            Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_abs))
            for _ in range(4)
        )
        m = rng.randint(1, max_m)
        pole = False
        for b in (a / 2, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a + m):
            if b.denominator == 1 and 0 >= b > -m:
                pole = True
        for g in (1 + a, 1 + a - e + m):
            if g.denominator == 1 and g <= 0:
                pole = True
        if not pole:
            found.append((a, c, d, e, m))
    return found


def test_criterion_07_whipple_transformation():
    tuples = _random_whipple_tuples(20250810, 200)
    failures = [t for t in tuples if not whipple_check(*t)]
    instance_failures = [
        p for p in _primes_to(97) if not whipple_instance_check(p).passed
    ]
    ok = not failures and not instance_failures
    _report(
        7,
        "terminating well-poised identity: 200 random tuples and all p <= 97",
        ok,
        f"tuple failures={len(failures)}, instance failures={instance_failures}",
    )


def test_criterion_08_lemma_machinery():
    start = time.perf_counter()
    failures = []
    for p in _primes_to(199):
        if not (p_identity_check(p) and coefficient_facts_check(p) and lemma_sum_checks(p)):
            failures.append(p)
    for p in _primes_to(97):
        if not all(exp_sum_check(p, k) for k in range(1, 3 * (p - 1) + 1)):
            failures.append(("exp", p))
    elapsed = time.perf_counter() - start
    _report(
        8,
        "P/Q identities, coefficient facts, sum facts (p <= 199) and "
        "exponential sums (p <= 97)",
        not failures,
        f"{elapsed:.1f}s, failures={failures}",
    )


def test_criterion_09_pochhammer_congruences():
    failures = []
    for p in _primes_to(199):
        for rec in poch_congruence_checks(p):
            if not rec.passed:
                failures.append((rec.statement, p))
    _report(
        9,
        "Pochhammer-pair congruences mod p^2/p/p^4/p^2 for p <= 199, all k",
        not failures,
        f"failures={failures[:5]}",
    )


#: 2/Gamma(3/4)^4 and 4/pi to 20 digits, computed at 40-digit precision
RAMANUJAN_LIMIT = 0.88694116857811540541
ENTRY20_LIMIT = 1.2732395447351626862


def test_criterion_10_display_constants():
    # the targets read math.gamma at 3/4 and math.pi: each is held to its
    # pinned value at 1e-12 relative error
    target_err = max(
        abs(ramanujan_target() - RAMANUJAN_LIMIT) / RAMANUJAN_LIMIT,
        abs(entry20_target() - ENTRY20_LIMIT) / ENTRY20_LIMIT,
    )
    gap_a = abs(ramanujan_partial_sum(10**5) - ramanujan_target())
    gap_b = abs(entry20_partial_sum(60) - entry20_target())
    ok = target_err < 1e-12 and gap_a < 1e-5 and gap_b < 1e-12
    _report(
        10,
        "display constants at their tolerances, each target within 1e-12 of its pinned value",
        ok,
        f"target rel err {target_err:.2e}, quintic gap {gap_a:.2e}, quartic gap {gap_b:.2e}",
    )


def test_criterion_11_oracle_equivalence():
    failures = []
    # each production route against the other one: the exact quintic sum
    # against the modular kernel, the modular sums against tests/exact_oracle
    for p in _primes_to(199):
        checks = (
            lhs_vanhamme(p, 3) == central_residue(p, 3, QUINTIC)
            and lhs_vanhamme(p, 3) == _central_sum(p, 3, *QUINTIC),
            lhs_vanhamme_b(p, 4) == central_residue(p, 4, COMPANION),
            lemma2_check(p).lhs == residue_from_rational(x_sum(p), p, 1),
            lemma1_check(p).lhs == residue_from_rational(y_sum(p), p, 1),
            _xy_mod(p)[2] == central_residue(p, 3, Z),
        )
        if not all(checks):
            failures.append(p)
    _report(
        11,
        "per-term residue accumulation equals exact-rational reduction, p <= 199",
        not failures,
        f"failures={failures}",
    )
