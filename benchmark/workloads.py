"""Workload plans and the reference-row gate.

A plan is the ordered list of per-prime requests of one workload pass.
Both the harness (to know what each pass must produce) and the worker (to
run it) build the plan from the same (workload, seed), so this module
imports nothing from supercong.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: sweep workloads: largest prime and the statement set sent with each prime
SWEEPS = {
    "default_sweep": (997, ("vanhamme_a", "lemma1", "lemma2", "prop3")),
    "companion_p4": (307, ("vanhamme_b",)),
    "finite_field": (499, ("thm_os", "cor5")),
}
MACHINERY_MAX_P = 199
EXP_SUM_MAX_P = 97
WHIPPLE_INST_MAX_P = 97
TUPLES_PER_PRIME = 4

WORKLOADS = (*SWEEPS, "machinery")

#: the documented mod-p^4 companion failure; the gate must keep it visible
FINDING = ("vanhamme_b", 3)


@dataclass(frozen=True)
class Request:
    """One prime's request: CLI statements, plus the machinery checks."""

    p: int
    statements: tuple
    machinery: bool = False
    tuples: tuple = ()

    @property
    def argv(self) -> list:
        return [
            "verify", "--primes", f"{self.p}..{self.p}",
            "--statements", ",".join(self.statements),
            "--workers", "1", "--format", "json-lines",
        ]

    @property
    def fact_count(self) -> int:
        """Boolean facts the machinery checks of this prime produce."""
        if not self.machinery:
            return 0
        p = self.p
        exp_sums = 3 * (p - 1) if p <= EXP_SUM_MAX_P else 0
        poch = 4 * ((p - 1) // 2 + 1)
        return 3 + exp_sums + poch + len(self.tuples)

    @property
    def checks(self) -> int:
        """Outcomes this request must produce: CLI rows plus facts."""
        return len(self.statements) + self.fact_count


def odd_primes(hi: int) -> list:
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for q in range(2, int(hi**0.5) + 1):
        if sieve[q]:
            sieve[q * q :: q] = b"\x00" * len(range(q * q, hi + 1, q))
    return [n for n in range(3, hi + 1) if sieve[n] and n % 2]


def _is_pole(b: Fraction, m: int) -> bool:
    return b.denominator == 1 and 0 >= b > -m


def whipple_tuples(rng: random.Random, count: int) -> list:
    """Random (a, c, d, e, m) avoiding every excluded pole of whipple_check."""
    found = []
    while len(found) < count:
        a, c, d, e = (
            Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(4)
        )
        m = rng.randint(1, 8)
        if any(_is_pole(b, m) for b in (a / 2, 1 + a - c, 1 + a - d, 1 + a - e, 1 + a + m)):
            continue
        if any(g.denominator == 1 and g <= 0 for g in (1 + a, 1 + a - e + m)):
            continue
        found.append((a, c, d, e, m))
    return found


def plan(workload: str, seed: int) -> list:
    """The requests of one pass, in sweep order.  Prime sets are fixed; the
    seed draws only the machinery's well-poised tuples."""
    if workload in SWEEPS:
        hi, statements = SWEEPS[workload]
        return [Request(p, statements) for p in odd_primes(hi)]
    if workload != "machinery":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    return [
        Request(
            p,
            ("whipple_inst",) if p <= WHIPPLE_INST_MAX_P else (),
            machinery=True,
            tuples=tuple(whipple_tuples(rng, TUPLES_PER_PRIME)),
        )
        for p in odd_primes(MACHINERY_MAX_P)
    ]


def pass_order(count: int, seed: int, pass_index: int) -> list:
    """The order one pass sends its requests in.  Each pass shuffles anew, so
    a prime's repeated samples, and primes of similar cost, are timed at
    different moments of the run rather than all at the same point of it."""
    order = list(range(count))
    random.Random(f"{seed}/{pass_index}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# reference rows (statement, p, lhs, rhs, modulus, pass)

ROW_FIELDS = ("statement", "p", "lhs", "rhs", "modulus", "pass")


def row_from_json(obj: dict) -> tuple:
    """The gated columns of one JSON-lines CLI row (`millis` is dropped)."""
    return tuple(obj[k] for k in ROW_FIELDS)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.csv"


def write_reference(path: Path, rows: list) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for s, p, lhs, rhs, mod, ok in rows:
            writer.writerow([s, p, lhs, rhs, mod, "true" if ok else "false"])


def load_reference(workload: str) -> dict:
    """(statement, p) -> reference row."""
    with reference_path(workload).open(newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader)) != ROW_FIELDS:
            raise ValueError(f"bad header in {reference_path(workload)}")
        rows = {}
        for s, p, lhs, rhs, mod, ok in reader:
            if ok not in ("true", "false"):
                raise ValueError(f"bad pass flag {ok!r}")
            rows[(s, int(p))] = (s, int(p), int(lhs), int(rhs), int(mod), ok == "true")
    return rows


def mismatched_keys(expected: list, got: list) -> list:
    """Keys (statement, p) whose rows differ: missing, extra, duplicated or
    changed in any gated column.  A pass flag flipping either way counts."""
    want = {row[:2]: row for row in expected}
    have = {}
    bad = set()
    for row in got:
        key = tuple(row[:2])
        if key in have:
            bad.add(key)
        have[key] = tuple(row)
    bad.update(k for k in want if have.get(k) != want[k])
    bad.update(k for k in have if k not in want)
    return sorted(bad)
