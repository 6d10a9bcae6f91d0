"""CLI behavior: exit codes, output formats, determinism across workers."""

import argparse
import csv
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from supercong import cli, gaussian_hg, padic_gamma, supercongruence
from supercong.classical_hg import MAX_SERIES_TERMS
from supercong.cli import main
from supercong.exactnum import MAX_EXPONENT, MAX_PRIME
from supercong.padic_gamma import gamma_p_rational
from test_acceptance import _primes_to


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_exit(capsys, *argv):
    """run_cli, with argparse's own exit taken as the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_without_millis(out):
    rows = [json.loads(line) for line in out.splitlines()]
    for row in rows:
        del row["millis"]
    return rows


def test_verify_vanhamme_sweep_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "vanhamme_a", "--primes", "3..100",
        "--format", "json-lines",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 24  # odd primes up to 100 (2 excluded)
    assert all(row["pass"] for row in rows)


def test_json_lines_schema_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "vanhamme_a,lemma1", "--primes", "3..40",
        "--format", "json-lines",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    for row in rows:
        assert set(row) == {"statement", "p", "lhs", "rhs", "modulus", "pass", "millis"}
        assert isinstance(row["statement"], str)
        assert isinstance(row["p"], int)
        assert isinstance(row["lhs"], int) and isinstance(row["rhs"], int)
        assert isinstance(row["modulus"], int)
        assert isinstance(row["pass"], bool)
        assert isinstance(row["millis"], float)
        assert 0 <= row["lhs"] < row["modulus"] and 0 <= row["rhs"] < row["modulus"]
    # sorted by (statement, p)
    keys = [(row["statement"], row["p"]) for row in rows]
    assert keys == sorted(keys)


def test_exit_code_one_on_failure(capsys):
    # the mod-p^4 companion congruence fails at p = 3 (a real finding)
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "vanhamme_b", "--primes", "3..30",
        "--format", "json-lines",
    )
    assert code == 1
    rows = [json.loads(line) for line in out.splitlines()]
    failing = [row["p"] for row in rows if not row["pass"]]
    assert failing == [3]


def test_exit_code_one_iff_any_failure(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "vanhamme_b", "--primes", "5..60",
        "--format", "json-lines",
    )
    assert code == 0


def test_invalid_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--primes", "5..3")
    assert code == 2 and "range" in err
    code, _, err = run_cli(capsys, "verify", "--primes", "abc")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--primes", "1..10")
    assert code == 2


def test_range_above_prime_cap_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "--primes", "1000003..1000003")
    assert code == 2 and out == ""
    assert err.startswith("supercong: error: ") and err.count("\n") == 1
    assert "1000000" in err


@pytest.mark.parametrize(
    "flag", (("--tolerance", "1e-6"), ("--tolerance=nan",)), ids=("1e-6", "nan")
)
def test_tolerance_option_is_gone(capsys, flag):
    # the finite-field series is an exact integer; argparse rejects the flag
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--statements", "thm_os", "--primes", "3..7", *flag])
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "statement, record_fn",
    (
        ("vanhamme_a", "vanhamme_verify"),
        ("prop3", "prop3_check"),
        ("whipple_inst", "whipple_instance_check"),
    ),
)
def test_range_above_a_statement_cap_exits_2(capsys, monkeypatch, statement, record_fn):
    # a check at 999983 would run for days: fail at once if one starts
    def never(*args):
        raise AssertionError(f"{record_fn} ran above the cap")

    monkeypatch.setattr(supercongruence, record_fn, never)
    cap = supercongruence.STATEMENTS[statement].max_p
    assert cap < 999983
    code, out, err = run_cli(
        capsys, "verify", "--statements", f"lemma1,{statement}", "--primes", "999983..999983"
    )
    assert code == 2 and out == ""
    assert err.startswith("supercong: error: ") and err.count("\n") == 1
    assert f"{statement} ({cap})" in err and "lemma1" not in err


def test_finite_field_statements_take_the_api_wide_cap(capsys):
    # Ono's closed form costs O(log^2 p), so thm_os and cor5 run to
    # MAX_PRIME; 5107 is 3 (mod 4) and 5101 is 1 (mod 4)
    assert supercongruence.STATEMENTS["thm_os"].max_p == supercongruence.STATEMENTS["cor5"].max_p == MAX_PRIME
    code, out, err = run_cli(
        capsys, "verify", "--statements", "thm_os,cor5", "--primes", "5101..5107", "--format", "json-lines"
    )
    assert (code, err) == (0, "")
    rows = rows_without_millis(out)
    assert sorted((row["statement"], row["p"]) for row in rows) == [
        ("cor5", 5101), ("cor5", 5107), ("thm_os", 5101), ("thm_os", 5107)
    ]
    assert all(row["pass"] for row in rows)


def _swept_primes(capsys, monkeypatch, lo, hi):
    """(exit code, the p column) of a lemma1 sweep over lo..hi whose check
    runs no kernel: its record is the same passing row at every p but for p."""
    row = supercongruence.VerificationRecord("lemma1", 0, 0, 0, 1, True)
    entry = supercongruence.Statement(None, lambda p, m: row._replace(p=p))
    monkeypatch.setitem(supercongruence.STATEMENTS, "lemma1", entry)
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "lemma1", "--primes", f"{lo}..{hi}", "--format", "json-lines"
    )
    return code, [json.loads(line)["p"] for line in out.splitlines()]


@pytest.mark.parametrize("lo, hi", ((3, 200000), (999000, 1000000)))
def test_verify_sweeps_exactly_the_odd_primes_of_its_range(capsys, monkeypatch, lo, hi):
    code, primes = _swept_primes(capsys, monkeypatch, lo, hi)
    assert code == 0
    assert primes == [p for p in _primes_to(hi) if p >= lo]


@pytest.mark.parametrize("p, rows", ((2, 0), (3, 1), (4, 0), (9, 0), (999983, 1)))
def test_a_one_number_range_gives_its_row_if_it_is_an_odd_prime(capsys, monkeypatch, p, rows):
    assert _swept_primes(capsys, monkeypatch, p, p) == (0, [p] * rows)


def test_statement_cap_boundary(capsys, monkeypatch):
    entry = supercongruence.STATEMENTS["thm_os"]
    monkeypatch.setitem(supercongruence.STATEMENTS, "thm_os", entry._replace(max_p=7))
    args = ("verify", "--statements", "thm_os", "--format", "json-lines", "--primes")
    code, out, _ = run_cli(capsys, *args, "3..7")
    assert code == 0
    assert [json.loads(line)["p"] for line in out.splitlines()] == [3, 5, 7]
    # the cap applies to the range's top, prime or not
    code, out, err = run_cli(capsys, *args, "3..8")
    assert code == 2 and out == ""
    assert err.startswith("supercong: error: ") and "thm_os (7)" in err


@pytest.mark.parametrize("power", (0, MAX_EXPONENT + 1))
def test_mod_power_outside_the_exponent_cap_exits_2(capsys, power):
    code, out, err = run_cli(
        capsys, "verify", "--statements", "cor5", "--primes", "3..7", "--mod-power", str(power)
    )
    assert code == 2 and out == ""
    assert err == f"supercong: error: --mod-power must lie in 1..{MAX_EXPONENT}\n"


def test_gamma_p_at_the_prime_cap(capsys):
    # Gamma_p(3/4) mod p^2 at the largest admitted prime is a product of
    # ~10^12 factors; the reflection formula Gamma_p(3/4) Gamma_p(1/4) =
    # (-1)^x0 predicts its value
    p = 999983
    code, out, _ = run_cli(capsys, "gamma-p", "3/4", str(p), "2")
    assert code == 0
    quarter = gamma_p_rational(Fraction(1, 4), p, 2)
    x0 = 3 * pow(4, -1, p) % p
    assert int(out) * quarter % p**2 == (-1) ** x0 % p**2


def test_companion_at_the_prime_cap_reports_its_row(capsys):
    # the modular kernel runs the companion to the global prime cap
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "vanhamme_b", "--primes", "999983..999983",
        "--format", "json-lines",
    )
    assert code == 0
    (row,) = rows_without_millis(out)
    assert (row["statement"], row["p"], row["modulus"]) == ("vanhamme_b", 999983, 999983**4)


def test_companion_at_mod_p6_reports_its_row(capsys):
    # the companion is false mod p^6 and that finding must stay reported;
    # 101 = 1 (mod 4), so the right-hand side p (-1/p) is p
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "vanhamme_b", "--mod-power", "6",
        "--primes", "101..101", "--format", "json-lines",
    )
    assert code == 1
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert row["modulus"] == 101**6 and row["rhs"] == 101
    assert row["pass"] is False


def test_companion_sweep_makes_no_gamma_p_call(capsys, monkeypatch):
    # the companion's Gamma side is the closed form p (-1/p): a sweep calls
    # neither gamma_p entry point
    calls = []
    for name in ("gamma_p_rational", "gamma_p_int"):

        def spy(*args, _name=name, _real=getattr(padic_gamma, name)):
            calls.append((_name, args))
            return _real(*args)

        monkeypatch.setattr(padic_gamma, name, spy)
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "vanhamme_b", "--primes", "3..97",
        "--format", "json-lines",
    )
    assert code == 1  # the p = 3 finding
    assert len(out.splitlines()) == 24
    assert calls == []


def test_unknown_statement_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--statements", "nonsense", "--primes", "3..10"
    )
    assert code == 2 and "nonsense" in err


def test_empty_statements_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--statements", "", "--primes", "3..10")
    assert code == 2


def test_a_repeated_statement_is_checked_once(capsys):
    _, once, _ = run_cli(
        capsys, "verify", "--statements", "lemma1,lemma2", "--primes", "3..5",
        "--format", "json-lines",
    )
    _, repeated, _ = run_cli(
        capsys, "verify", "--statements", "lemma1,lemma2,lemma1", "--primes", "3..5",
        "--format", "json-lines",
    )
    assert rows_without_millis(repeated) == rows_without_millis(once)
    assert len(once.splitlines()) == 4
    code, out, _ = run_cli(capsys, "verify", "--statements", "lemma1,lemma1", "--primes", "3..5")
    assert code == 0
    assert out.splitlines()[-1] == "2 checks, 2 passed, 0 failed"


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "prop3", "--primes", "3..20",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["statement", "p", "lhs", "rhs", "modulus", "pass", "millis"]
    assert all(len(row) == 7 for row in rows[1:])
    assert [row[1] for row in rows[1:]] == ["3", "5", "7", "11", "13", "17", "19"]
    assert all(row[5] == "true" for row in rows[1:])


def test_human_format_summary(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "lemma1,lemma2", "--primes", "3..30"
    )
    assert code == 0
    assert "passed" in out.splitlines()[-1]


def test_human_format_marks_failures(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "vanhamme_b", "--primes", "3..10"
    )
    assert code == 1
    assert any(line.startswith("FAIL") and "p=3" in line for line in out.splitlines())
    assert "1 failed" in out.splitlines()[-1]


def test_parallel_matches_serial(capsys):
    args = (
        "verify", "--statements", "vanhamme_a,prop3", "--primes", "3..60",
        "--format", "json-lines",
    )
    code1, out1, _ = run_cli(capsys, *args, "--workers", "1")
    code2, out2, _ = run_cli(capsys, *args, "--workers", "3")
    assert code1 == code2 == 0
    assert rows_without_millis(out1) == rows_without_millis(out2)


@pytest.mark.parametrize(
    "primes, cores, size",
    (("3..5", 64, None), ("3..97", 64, 6), ("3..97", 2, 2), ("3..97", None, None)),
)
def test_workers_bounded_by_cores_and_chunks(capsys, monkeypatch, primes, cores, size):
    # 3..5 is one 4-prime chunk and 3..97 six; no pool runs for one worker
    sizes = []

    class InProcessPool:
        """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
    args = ("verify", "--statements", "lemma1", "--primes", primes, "--format", "json-lines")
    code, out, _ = run_cli(capsys, *args, "--workers", "100000")
    assert code == 0
    assert sizes == ([] if size is None else [size])
    _, serial, _ = run_cli(capsys, *args, "--workers", "1")
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(r["p"], r["lhs"]) for r in rows] == [
        (r["p"], r["lhs"]) for r in map(json.loads, serial.splitlines())
    ]


def test_serial_run_reads_no_core_count(capsys, monkeypatch):
    # the core count only clamps a pool; one worker never starts one
    def never():
        raise AssertionError("os.cpu_count read by a serial run")

    monkeypatch.setattr(cli.os, "cpu_count", never)
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "lemma1", "--primes", "3..97",
        "--workers", "1", "--format", "json-lines",
    )
    assert code == 0 and len(out.splitlines()) == 24


def test_mod_power_override(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "vanhamme_a", "--primes", "3..20",
        "--mod-power", "1", "--format", "json-lines",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(row["modulus"] == row["p"] for row in rows)


def test_mod_power_applies_to_exactly_the_entries_with_a_default_exponent(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statements", ",".join(supercongruence.STATEMENTS),
        "--primes", "3..13", "--mod-power", "2", "--format", "json-lines",
    )
    assert code == 0
    exponents = {}
    for row in map(json.loads, out.splitlines()):
        k = {row["p"] ** k: k for k in range(1, 9)}[row["modulus"]]
        exponents.setdefault(row["statement"], set()).add(k)
    assert exponents == {
        "vanhamme_a": {2},
        "vanhamme_b": {2},
        "cor5": {2},
        "lemma1": {1},
        "lemma2": {1},
        "prop3": {3},
        "thm_os": {3},
        "whipple_inst": {4},
    }
    overridden = {s for s, entry in supercongruence.STATEMENTS.items() if entry.default_m}
    assert overridden == {"vanhamme_a", "vanhamme_b", "cor5"}


@pytest.mark.parametrize("statement", tuple(supercongruence.STATEMENTS))
def test_every_registry_id_reports_rows_under_its_own_name(capsys, statement):
    code, out, _ = run_cli(
        capsys, "verify", "--statements", statement, "--primes", "3..5",
        "--format", "json-lines",
    )
    rows = [json.loads(line) for line in out.splitlines()]
    assert [(row["statement"], row["p"]) for row in rows] == [(statement, 3), (statement, 5)]
    assert code == (0 if all(row["pass"] for row in rows) else 1)


@pytest.mark.parametrize("mod_power", (None, 5), ids=("default-m", "mod-power-5"))
@pytest.mark.parametrize("statement", tuple(supercongruence.STATEMENTS))
def test_a_json_row_is_its_record(capsys, statement, mod_power):
    # the row verify prints is the record's fields in order, with passed
    # shown as pass and millis added; both sides lie in 0..modulus-1
    extra = () if mod_power is None else ("--mod-power", str(mod_power))
    entry = supercongruence.STATEMENTS[statement]
    m = entry.default_m if mod_power is None or entry.default_m is None else mod_power
    for p in (3, 5, 13, 97):
        _, out, _ = run_cli(
            capsys, "verify", "--statements", statement, "--primes", f"{p}..{p}",
            "--format", "json-lines", *extra,
        )
        [row] = rows_without_millis(out)
        record = tuple(entry.check(p, m))
        assert list(row.items()) == list(zip(("statement", "p", "lhs", "rhs", "modulus", "pass"), record))
        assert 0 <= row["lhs"] < row["modulus"] and 0 <= row["rhs"] < row["modulus"]


def test_verify_reaches_record_functions_through_the_module_global(capsys, monkeypatch):
    calls = []
    real = supercongruence.cor5_check

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(supercongruence, "cor5_check", spy)
    code, _, _ = run_cli(
        capsys, "verify", "--statements", "cor5", "--primes", "3..7", "--mod-power", "2",
    )
    assert code == 0
    assert [args[:2] for args in calls] == [(3, 2), (5, 2), (7, 2)]


@pytest.mark.parametrize(
    "statements, extra",
    (
        ("vanhamme_a,lemma1,lemma2,prop3", ()),
        ("prop3,vanhamme_a", ()),
        ("vanhamme_a,lemma1,lemma2,prop3", ("--mod-power", "5")),
        ("thm_os,cor5", ()),
        ("vanhamme_b,cor5", ()),
    ),
    ids=("default", "prop3-first", "mod-power-5", "finite-field", "neither-layer"),
)
def test_shared_layers_run_once_per_prime(capsys, spy, statements, extra):
    # vanhamme_a and prop3 read one exact quintic sum, each at its own
    # modulus; the lemmas, prop3 and thm_os read one X/Y/Z pass mod p^3;
    # at p = 1 (mod 4) thm_os, cor5 and vanhamme_a read one pair of
    # Hermite-Serret squares
    quintic = spy(supercongruence, "_quintic_sum")
    tables = spy(supercongruence, "_inverses")
    squares = spy(gaussian_hg, "_two_squares")
    argv = ("verify", "--primes", "3..97", "--workers", "1", "--format", "json-lines", *extra)
    code, out, _ = run_cli(capsys, *argv, "--statements", statements)
    rows = rows_without_millis(out)
    assert code == (0 if all(row["pass"] for row in rows) else 1)
    primes = sorted({row["p"] for row in rows})
    assert len(primes) == 24

    reads_quintic = {"vanhamme_a", "prop3"} & set(statements.split(","))
    assert quintic == ([(p,) for p in primes] if reads_quintic else [])
    reads_pass = {"lemma1", "lemma2", "prop3", "thm_os"} & set(statements.split(","))
    assert tables == ([(p - 1, p**3) for p in primes] if reads_pass else [])
    reads_squares = {"vanhamme_a", "thm_os", "cor5"} & set(statements.split(","))
    assert squares == ([(p,) for p in primes if p % 4 == 1] if reads_squares else [])

    alone = []
    for statement in sorted(statements.split(",")):
        _, out, _ = run_cli(capsys, *argv, "--statements", statement)
        alone += rows_without_millis(out)
    assert rows == alone


def test_gamma_p_reads_a_negative_fraction(capsys):
    # "-3/4" is a literal, not an option, as it is after "--"
    code, out, err = run_cli(capsys, "gamma-p", "-3/4", "7", "3")
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, "gamma-p", "--", "-3/4", "7", "3")[1] == "174\n"
    # a negative prime range is read as a value and refused as one
    code, _, err = run_cli_exit(capsys, "verify", "--primes", "-3..5")
    assert code == 2 and "invalid prime range" in err


def test_gaussian_statements_opt_in(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--statements", "thm_os,cor5,whipple_inst",
        "--primes", "3..20", "--format", "json-lines",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert {row["statement"] for row in rows} == {"thm_os", "cor5", "whipple_inst"}
    assert all(row["pass"] for row in rows)


def test_gamma_p_command(capsys):
    code, out, _ = run_cli(capsys, "gamma-p", "3/4", "5", "2")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run_cli(capsys, "gamma-p", "0/1", "7", "3")
    assert code == 0 and out.strip() == "1"
    code, _, err = run_cli(capsys, "gamma-p", "1/3", "3", "2")
    assert code == 2
    code, out, _ = run_cli(capsys, "gamma-p", "0.75", "5", "2")
    assert code == 0 and out.strip() == "6"
    # Fraction() would expand these exponents for seconds to hours
    # a non-p-integral decimal with 4200 zeros and a 4400-digit numerator:
    # the error line quotes a prefix, not the literal or Python's advice
    long_literals = ("0." + "0" * 4200 + "1", "7" * 4400 + "/3")
    for literal in ("1e10000000", "1e30000000", "1e1000000000", *long_literals):
        code, out, err = run_cli(capsys, "gamma-p", literal, "5", "2")
        assert code == 2 and out == ""
        assert err.startswith("supercong: error: ") and err.count("\n") == 1
        assert len(err) < 200 and "set_int_max_str_digits" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--primes", "3.." + "9" * 4400),
        ("verify", "--primes", "3..5", "--statements", "x" * 4400),
        ("gamma-p", "3/4", "7" * 4000, "2"),  # parsed, then above the prime cap
        ("gamma-p", "3/4", "7" * 4400, "2"),  # past the int digit limit
        ("verify", "--primes", "3..5", "--workers", "9" * 4400),
        # argparse's own error lines
        ("x" * 300,),  # an unknown subcommand
        ("series", "x" * 300, "5"),
        ("verify", "--primes", "3..5", "--format", "x" * 300),
        ("verify", "--primes", "3..5", "--" + "x" * 300),  # an unknown option
    ],
)
def test_error_lines_quote_a_prefix_of_long_input(capsys, argv):
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == 2 and out == ""
    last = err.splitlines()[-1]
    assert last.startswith("supercong") and ": error: " in last
    assert all(len(line) < 200 for line in err.splitlines())


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli._build_parser.cache_clear()
    run_cli(capsys, "gamma-p", "3/4", "5", "2")
    assert built[0] == "supercong"
    first = list(built)
    run_cli(capsys, "verify", "--statements", "lemma1", "--primes", "3..7")
    run_cli_exit(capsys, "series", "euler", "5")
    run_cli(capsys, "series", "entry20", "3")
    assert built == first


def test_a_call_runs_one_parse(capsys, monkeypatch):
    # a plain verify argv is read off its options' declarations with no
    # parse; any other argv gets the top-level parse, inside which argparse
    # hands the command's arguments to that command's parser
    parsed = []
    real = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        parsed.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    for argv, parses in (
        (("verify", "--statements", "lemma1", "--primes", "3..7"), []),
        (("verify", "--statements", "lemma1", "--primes=3..7"), ["supercong", "supercong verify"]),
        (("verify", "--statements", "lemma1", "--pri", "3..7"), ["supercong", "supercong verify"]),
        (("gamma-p", "3/4", "5", "2"), ["supercong", "supercong gamma-p"]),
        (("series", "entry20", "3"), ["supercong", "supercong series"]),
    ):
        parsed.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert parsed == parses, argv


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["supercong", "verify", "--primes", "3..5", "--bogus"])
    with pytest.raises(SystemExit) as excinfo:
        main()
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "supercong: error: unrecognized arguments: '--bogus'"
    monkeypatch.setattr(sys, "argv", ["supercong", "gamma-p", "3/4", "5", "2"])
    assert main() == 0 and capsys.readouterr().out == "6\n"


@pytest.mark.parametrize(
    "argv, code",
    (
        (["verify", "--primes", "5..13", "--statements", "vanhamme_b"], 0),
        (["verify", "--statements", "vanhamme_b", "--primes", "3..3"], 1),  # the p = 3 finding
        (["verify", "--primes", "3..5", "--bogus"], 2),
    ),
)
def test_console_script_exits_with_mains_code(capsys, monkeypatch, argv, code):
    # run(), the installed entry point, reads sys.argv through main
    assert run_cli_exit(capsys, *argv)[0] == code
    monkeypatch.setattr(sys, "argv", ["supercong", *argv])
    with pytest.raises(SystemExit) as excinfo:
        cli.run()
    assert excinfo.value.code == code


def test_a_reused_parser_keeps_no_state(capsys):
    args = (
        "verify", "--statements", "vanhamme_a,cor5", "--primes", "3..31", "--format", "json-lines",
    )
    cli._build_parser.cache_clear()
    _, out, _ = run_cli(capsys, *args)
    alone = rows_without_millis(out)
    _, out, _ = run_cli(capsys, *args, "--mod-power", "5")
    assert all(row["modulus"] == row["p"] ** 5 for row in rows_without_millis(out))
    assert all(row["modulus"] != row["p"] ** 5 for row in alone)
    _, out, _ = run_cli(capsys, *args)
    assert rows_without_millis(out) == alone

    code, out, _ = run_cli_exit(capsys, *args, "--format", "xml")
    assert code == 2 and out == ""
    _, out, _ = run_cli(capsys, *args)
    assert rows_without_millis(out) == alone

    first = run_cli_exit(capsys, "verify", "--help")
    assert first[0] == 0 and first[1].startswith("usage: supercong verify")
    assert run_cli_exit(capsys, "verify", "--help") == first


def test_series_command(capsys):
    code, out, _ = run_cli(capsys, "series", "ramanujan", "1")
    assert code == 0 and out.startswith("0.84375 ")
    code, out, _ = run_cli(capsys, "series", "entry20", "0")
    assert code == 0 and out.startswith("1.0 ")
    code, out, _ = run_cli(capsys, "series", "entry20", "60")
    gap = float(out.split("gap=")[1])
    assert gap < 1e-12


@pytest.mark.parametrize("n_terms", (-1, MAX_SERIES_TERMS + 1))
def test_series_outside_the_term_cap_exits_2(capsys, n_terms):
    for which in ("ramanujan", "entry20"):
        code, out, err = run_cli(capsys, "series", which, str(n_terms))
        assert code == 2 and out == ""
        assert err.startswith("supercong: error: ") and err.count("\n") == 1
        assert "n_terms" in err


def test_usage_error_from_argparse():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify"])  # --primes is required
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# the exit-code contract under generated argv

# derandomized, so every run checks the same cases; the monkeypatched pool
# stub is meant to hold across all examples of a test
_FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _given(flag, values):
    """`flag value`, now and then the one argument `flag=value`; nothing
    for a value of None."""
    return st.tuples(values, st.sampled_from((False, False, False, True))).map(
        lambda t: [] if t[0] is None else [f"{flag}={t[0]}"] if t[1] else [flag, str(t[0])]
    )


def _optional(flag, values):
    return _given(flag, st.one_of(st.none(), values))


# a list that starts with "-x" is a value starting with "-"
_STATEMENT_LISTS = st.lists(
    st.sampled_from((*supercongruence.STATEMENTS, "nonsense", "", "-x")), min_size=1, max_size=3
).map(",".join)
# one past a statement cap is even for every cap below MAX_PRIME, so those
# ranges hold no prime and exit at once whether or not the cap applies
_PRIME_RANGES = st.one_of(
    st.tuples(st.integers(2, 60), st.integers(0, 60)).map(lambda t: f"{t[0]}..{t[0] + t[1]}"),
    st.tuples(st.integers(-2, 60), st.integers(-2, 60)).map(lambda t: f"{t[0]}..{t[1]}"),
    st.sampled_from(
        sorted({f"{entry.max_p + 1}..{entry.max_p + 1}" for entry in supercongruence.STATEMENTS.values()})
    ),
    st.sampled_from(("", "abc", "3..", "..5", "3...5", "3..5..7", "3-5", "3.0..5", "0x3..5", "-3..7")),
    st.none(),  # --primes left out, which argparse requires
)
_VERIFY_OPTIONS = {
    "--statements": _STATEMENT_LISTS,
    "--primes": _PRIME_RANGES,
    "--mod-power": st.integers(-1, 10),
    "--workers": st.sampled_from((0, 1, 1)),
    "--format": st.sampled_from(("json-lines", "csv", "human", "xml")),
}
# each option at most once, in any order, plus one given again, of which
# argparse keeps the last: the plain route's boundary (main) on both sides
_VERIFY_ARGV = (
    st.tuples(
        *(
            _given(flag, values) if flag == "--primes" else _optional(flag, values)
            for flag, values in _VERIFY_OPTIONS.items()
        ),
        st.one_of(st.just([]), *(_given(flag, values) for flag, values in _VERIFY_OPTIONS.items())),
    )
    .flatmap(st.permutations)
    .map(lambda parts: ["verify"] + [arg for part in parts for arg in part])
)

_GAMMA_ARGV = st.tuples(
    st.one_of(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)).map(lambda t: f"{t[0]}/{t[1]}"),
        st.tuples(st.integers(-50, 50), st.integers(0, 999)).map(lambda t: f"{t[0]}.{t[1]}"),
        st.tuples(
            st.integers(1, 9), st.sampled_from("eE"), st.integers(-(10**9), 10**9)
        ).map(lambda t: f"{t[0]}{t[1]}{t[2]}"),
    ),
    st.one_of(
        st.sampled_from((3, 5, 7, 11, 13, 97)),
        st.sampled_from((1, 2, 4, 9, 15, 91)),
        st.integers(-100, 0),
        st.integers(MAX_PRIME + 1, 10**12),
    ),
    st.integers(-1, 10),
).map(lambda t: ["gamma-p", *map(str, t)])

_SERIES_ARGV = st.tuples(
    st.sampled_from(("ramanujan", "entry20", "euler")),
    st.one_of(
        st.integers(-5, 200),
        st.integers(MAX_SERIES_TERMS + 1, 10**12),
        st.just("abc"),
    ),
).map(lambda t: ["series", *map(str, t)])


def _outcome(argv):
    """(how main ended, its code, stdout, stderr) of one call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            ended = ("return", main(argv))
        except SystemExit as exc:  # argparse's own exits: usage errors and help
            ended = ("exit", exc.code)
    return (*ended, out.getvalue(), err.getvalue())


def _assert_exit_contract(argv):
    with pytest.MonkeyPatch.context() as mp:
        # a frozen clock makes every millis 0.0, so both routes' rows
        # compare byte for byte
        mp.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: 0.0))
        outcome = _outcome(argv)
        # the oracle: with the plain reader off, main hands every argv to
        # the one argparse parse, its route for every argv but a plain verify
        mp.setattr(cli, "_plain_args", lambda argv, options: None)
        assert _outcome(argv) == outcome, argv
    ended, code, out, err = outcome
    if ended == "exit" and code == 0:  # help
        assert out.startswith("usage: supercong") and err == "", argv
    elif ended == "exit":
        assert code == 2, argv
        assert err.startswith("usage: supercong"), (argv, err)
    elif code == 2:
        assert out == "", argv
        assert err.startswith("supercong: error: "), (argv, err)
        assert err.count("\n") == 1, (argv, err)
    else:
        assert code in (0, 1) and err == "", argv


@pytest.fixture
def no_pool(monkeypatch):
    def pool(*args, **kwargs):
        raise AssertionError("a generated case started a process pool")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)


@_FUZZ
@given(argv=_VERIFY_ARGV)
def test_verify_exit_contract(no_pool, argv):
    _assert_exit_contract(argv)


@_FUZZ
@given(argv=_VERIFY_ARGV)
def test_the_plain_route_reads_what_argparse_reads(argv):
    # whatever argv the plain route takes, the top-level parser takes
    # whole, to an equal namespace
    parser = cli._build_parser()
    args = cli._plain_args(argv, parser.plain)
    if args is not None:
        assert parser.parse_known_args(argv) == (args, []), argv


@_FUZZ
@given(argv=st.one_of(_GAMMA_ARGV, _SERIES_ARGV))
@example(argv=[])
@example(argv=["-h"])
@example(argv=["verif", "--primes", "3..7"])
@example(argv=["--primes=3..7"])
@example(argv=["--", "verify", "--primes", "3..7"])
@example(argv=["series", "--primes", "3..7"])
def test_the_plain_route_reads_only_verify(argv):
    # the plain route declines every argv that does not start with verify,
    # even one made of verify's own option pairs
    assert cli._plain_args(argv, cli._build_parser().plain) is None, argv


@_FUZZ
@given(argv=_GAMMA_ARGV)
def test_gamma_p_exit_contract(no_pool, argv):
    _assert_exit_contract(argv)


@_FUZZ
@given(argv=_SERIES_ARGV)
def test_series_exit_contract(no_pool, argv):
    _assert_exit_contract(argv)


@pytest.mark.parametrize(
    "argv",
    (
        [],
        ["-h"],
        ["--he"],
        ["-x", "verify", "--primes", "3..7"],
        ["--primes=3..7"],
        ["--", "verify", "--primes", "3..7"],
        ["verif", "--primes", "3..7"],  # no command is abbreviated
        ["x" * 300],
        ["verify", "--he"],
        ["verify", "--primes=3..7", "--format", "json-lines"],
        ["verify", "--pri", "3..7", "--stat", "lemma1,cor5", "--format", "json-lines"],
        ["verify", "--primes", "3..7", "stray", "--bogus"],
        ["verify", "--primes", "3..7", "--", "--format", "csv"],
        ["verify", "--", "--primes", "3..7"],
        ["verify", "--primes", "3..7", "--statements", "vanhamme_b", "--format", "csv"],
        ["verify", "--format", "csv", "--primes", "3..7", "--format", "json-lines"],
        ["gamma-p", "--", "-3/4", "7", "3"],
        ["gamma-p", "3/4", "5", "2", "9"],
        ["gamma-p", "-h"],
        ["series", "entry20", "3", "--x"],
        ["series", "--help"],
    ),
)
def test_exit_contract_on_fixed_argv(no_pool, argv):
    _assert_exit_contract(argv)
