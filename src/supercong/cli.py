"""Command-line front end: sweep primes, run selected congruence checks,
and emit machine-readable reports.

A sweep tests each odd n of its range with `exactnum.is_odd_prime`, the
package's one primality test, and prints each record as a row: the record
zipped with the column names, plus the `millis` its check took.

Exit codes: 0 when every record passes, 1 when at least one fails,
2 on usage errors.

The argument parser is built once per process, on the first `main` call,
and reused by every later one.  An argv is read one of two ways.  A
plain `verify` call, `verify` followed only by `--name value` pairs of
its options with no value starting with "-", is read straight off the
`Action`s that declare those options: their `dest`, `type`, `choices`,
`default` and `required`, with no argparse parse.  Every other argv gets
one parse by the top-level parser, which hands a command's arguments to
that command's parser, so help, every argparse error line and the other
commands stay argparse's; `main` refuses the arguments that no parser
consumed, with the top-level parser's usage line.  The checks read the
statement registry, the caps and the `--mod-power` range at each call;
the help text lists the registry as it stood when the parser was built.
Every error line, argparse's own included, quotes at most `_QUOTE`
characters of a rejected argument.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import supercongruence as sc
from .classical_hg import (
    MAX_SERIES_TERMS,
    entry20_partial_sum,
    entry20_target,
    ramanujan_partial_sum,
    ramanujan_target,
)
from .exactnum import MAX_EXPONENT, MAX_PRIME, NotPIntegral, is_odd_prime
from .padic_gamma import gamma_p_rational


#: primes handed to a worker process at a time
_CHUNK = 4
#: characters of a rejected argument quoted in its error line
_QUOTE = 40
#: the columns of a row, one per field of its record
_COLUMNS = ("statement", "p", "lhs", "rhs", "modulus", "pass")


def _shown(text: str) -> str:
    """An argument as its error line quotes it: a prefix, never all of it."""
    return repr(text[:_QUOTE] + ("..." if len(text) > _QUOTE else ""))


def _integer(text: str) -> int:
    """The argparse type of every integer argument."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None


def _prime_task(args) -> list:
    p, statements, mod_power = args
    rows = []
    for statement in statements:
        entry = sc.STATEMENTS[statement]
        m = entry.default_m if mod_power is None or entry.default_m is None else mod_power
        start = time.perf_counter()
        rec = entry.check(p, m)
        millis = (time.perf_counter() - start) * 1000.0
        rows.append(dict(zip(_COLUMNS, rec), millis=round(millis, 3)))
    return rows


def _emit(rows: list, fmt: str, out) -> None:
    if fmt == "json-lines":
        for row in rows:
            out.write(json.dumps(row) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow([*_COLUMNS, "millis"])
        for row in rows:
            *head, passed, millis = row.values()
            writer.writerow([*head, "true" if passed else "false", f"{millis:.3f}"])
    else:
        failures = 0
        for row in rows:
            mark = "ok " if row["pass"] else "FAIL"
            failures += 0 if row["pass"] else 1
            out.write(
                f"{mark} {row['statement']:<13} p={row['p']:<6} "
                f"lhs={row['lhs']} rhs={row['rhs']} mod={row['modulus']} "
                f"({row['millis']:.1f} ms)\n"
            )
        out.write(
            f"{len(rows)} checks, {len(rows) - failures} passed, {failures} failed\n"
        )


def cmd_verify(
    lo: int, hi: int, statements: tuple, mod_power: Optional[int], workers: int, fmt: str, out
) -> int:
    # the odd n of [lo, hi], each through the one primality test
    odd = range(lo | 1, hi + 1, 2)
    tasks = [(p, statements, mod_power) for p in odd if is_odd_prime(p)]
    # the pool forks all its workers at the first submit: never more than
    # the cores, nor than the chunks there are to hand out; a serial run
    # asks for neither
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1, -(-len(tasks) // _CHUNK))
    if workers <= 1:
        chunks = map(_prime_task, tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_prime_task, tasks, chunksize=_CHUNK))
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda row: (row["statement"], row["p"]))
    _emit(rows, fmt, out)
    return 1 if any(not row["pass"] for row in rows) else 0


def cmd_gamma_p(x_literal: str, p: int, m: int, out) -> int:
    shown = _shown(x_literal)
    # Fraction() expands an exponent literal in full before any check can
    # bound it; the int digit limit already bounds the other literal forms
    if "e" in x_literal.lower():
        raise ValueError(f"exponent literals are not accepted, got {shown}")
    try:
        x = Fraction(x_literal)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"{shown} has a zero denominator") from None
    except ValueError:
        # past Python's int digit limit, say so instead of its advice to
        # raise the limit, which a command-line user cannot follow
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        longest = max(map(len, re.findall(r"\d+", x_literal)), default=0)
        if limit and longest > limit:
            message = f"{shown} has {longest} digits in a row; at most {limit} are read"
            raise ValueError(message) from None
        raise ValueError(f"{shown} is not an integer, a/b or decimal literal") from None
    try:
        value = gamma_p_rational(x, p, m)
    except NotPIntegral:
        raise NotPIntegral(f"{shown} is not p-integral at p={p}") from None
    out.write(f"{value}\n")
    return 0


def cmd_series(which: str, n_terms: int, out) -> int:
    if which == "ramanujan":
        value, target = ramanujan_partial_sum(n_terms), ramanujan_target()
    else:
        value, target = entry20_partial_sum(n_terms), entry20_target()
    out.write(f"{value!r} target={target!r} gap={abs(value - target):.6e}\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse, with its own error lines quoting a prefix of the rejected
    argument (`_shown`), and reading a "-" followed by a digit as a value
    (no option starts with a digit), so "-3/4" is a literal, not an
    option; the subcommand parsers are of this class too.  On the
    top-level parser, `plain` maps each option string of verify to the
    action that declares it, for `main` to read a plain verify argv with
    no parse (`_plain_args`)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            message = f"invalid choice: {_shown(value)} (choose from {choices})"
            raise argparse.ArgumentError(action, message)


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="supercong",
        description="Machine verification of truncated hypergeometric congruences "
        "over ranges of odd primes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="sweep primes and check statements")
    statements = verify.add_argument(
        "--statements",
        default=",".join(sc.DEFAULT_STATEMENTS),
        help=f"comma list from {{{','.join(sc.STATEMENTS)}}} "
        f"(default: {','.join(sc.DEFAULT_STATEMENTS)})",
    )
    primes = verify.add_argument("--primes", required=True, metavar="A..B", help="prime range")
    mod_power = verify.add_argument(
        "--mod-power",
        type=_integer,
        default=None,
        help="modulus exponent override for "
        + " / ".join(s for s, entry in sc.STATEMENTS.items() if entry.default_m is not None),
    )
    workers = verify.add_argument(
        "--workers",
        type=_integer,
        default=1,
        help="worker processes (default: 1), capped at the core count and at "
        "one per 4 primes",
    )
    fmt = verify.add_argument(
        "--format",
        choices=("json-lines", "csv", "human"),
        default="human",
        dest="fmt",
    )

    gamma = sub.add_parser("gamma-p", help="p-adic Gamma at a rational argument")
    gamma.add_argument("x", help="integer, a/b or decimal literal, e.g. 3/4")
    gamma.add_argument("p", type=_integer)
    gamma.add_argument("m", type=_integer)

    series = sub.add_parser("series", help="partial sums of the two classical series")
    series.add_argument("which", choices=("ramanujan", "entry20"))
    series.add_argument("n_terms", type=_integer, help=f"0..{MAX_SERIES_TERMS}")

    actions = (statements, primes, mod_power, workers, fmt)
    parser.plain = {action.option_strings[0]: action for action in actions}
    return parser


def _plain_args(argv: list, options: dict) -> Optional[argparse.Namespace]:
    """The namespace of argv, `verify` and then only `--name value` pairs
    of `options` (each option string to its store action), taken as
    argparse takes them: each value through its action's type and choices,
    the last of a repeated option kept, every option not given at its
    default.  None for any other command, when a token falls outside that
    form (help, `--opt=value`, an abbreviation, `--`, a stray positional, a
    value starting with "-"), when a value fails its type or choices, or
    when a required option is missing: argparse then parses argv and says
    what is wrong."""
    if argv[:1] != ["verify"] or len(argv) % 2 == 0:
        return None
    given = {}
    for name, value in zip(argv[1::2], argv[2::2]):
        action = options.get(name)
        if action is None or value.startswith("-"):
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    args = argparse.Namespace(command="verify")
    for action in options.values():
        if action.dest in given:
            setattr(args, action.dest, given[action.dest])
        elif action.required:
            return None
        else:
            setattr(args, action.dest, action.default)
    return args


def _usage_error(message: str) -> int:
    print(f"supercong: error: {message}", file=sys.stderr)
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    # a plain verify argv needs no parse (_plain_args); any other gets one
    if (args := _plain_args(argv, parser.plain)) is None:
        args, extras = parser.parse_known_args(argv)
        if extras:
            parser.error(f"unrecognized arguments: {_shown(' '.join(extras))}")
    out = sys.stdout

    if args.command == "verify":
        try:
            lo, hi = map(int, args.primes.split("..", 1))
        except ValueError:
            return _usage_error(f"--primes expects A..B, got {_shown(args.primes)}")
        if lo < 2 or lo > hi:
            return _usage_error(f"invalid prime range {_shown(args.primes)}")
        if hi > MAX_PRIME:
            return _usage_error(f"prime range {_shown(args.primes)} exceeds the {MAX_PRIME} cap")
        statements = tuple(dict.fromkeys(s for s in args.statements.split(",") if s))
        if not statements:
            return _usage_error("empty statement set")
        unknown = [s for s in statements if s not in sc.STATEMENTS]
        if unknown:
            return _usage_error(
                f"unknown statements {_shown(','.join(unknown))}; "
                f"choose from {','.join(sc.STATEMENTS)}"
            )
        capped = [s for s in statements if hi > sc.STATEMENTS[s].max_p]
        if capped:
            return _usage_error(
                f"prime range {_shown(args.primes)} exceeds the cap of "
                + ", ".join(f"{s} ({sc.STATEMENTS[s].max_p})" for s in capped)
            )
        if args.mod_power is not None and not 1 <= args.mod_power <= MAX_EXPONENT:
            return _usage_error(f"--mod-power must lie in 1..{MAX_EXPONENT}")
        if args.workers < 1:
            return _usage_error("--workers must be positive")
        return cmd_verify(lo, hi, statements, args.mod_power, args.workers, args.fmt, out)

    if args.command == "gamma-p":
        try:
            return cmd_gamma_p(args.x, args.p, args.m, out)
        except (NotPIntegral, ValueError, ZeroDivisionError) as exc:
            return _usage_error(str(exc))

    # series: argparse requires a command, and no other is declared
    try:
        return cmd_series(args.which, args.n_terms, out)
    except ValueError as exc:  # n_terms outside 0..MAX_SERIES_TERMS
        return _usage_error(str(exc))


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
