"""The benchmark's own helpers: tail-percentile rule, span self time,
speed correction and the reference-row gate.  Run with `python3 -m pytest benchmark/tests`."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import BOOKKEEPING, layer_totals, self_times  # noqa: E402


def _beyond(n, q):
    return n - -(-q * n // 100)


def test_tail_percentile_keeps_ten_samples_beyond():
    for n, q in ((20, 50), (45, 77), (62, 83), (94, 89), (167, 94), (1000, 99)):
        got_q, value = run.tail_percentile(list(range(n)))
        assert got_q == q
        assert _beyond(n, q) >= 10 and (q == 99 or _beyond(n, q + 1) < 10)
        assert value == -(-q * n // 100) - 1  # nearest rank of 0..n-1
    assert run.tail_percentile(list(range(19))) is None


def test_tail_percentile_ignores_sample_order():
    samples = [5.0, 1.0, 9.0, 3.0] * 10
    assert run.tail_percentile(samples) == run.tail_percentile(sorted(samples))


def _span(name, start, end, parent, layer="l"):
    return (name, layer, start, end, parent, None)


def test_self_time_on_nested_span_tree():
    # root [0, 10] holds a [1, 4] and b [3, 6] (overlapping) and c [8, 9];
    # a holds a1 [2, 3]; b holds b1 [5, 7], which pokes past its parent
    spans = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("a1", 2.0, 3.0, 1),
        _span("b", 3.0, 6.0, 0),
        _span("b1", 5.0, 7.0, 3),
        _span("c", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == [10 - 6, 3 - 1, 1, 3 - 1, 2, 1]


def test_layer_totals_sum_self_time_per_layer():
    spans = [
        ("main", "cli", 0.0, 10.0, None, 3),
        ("lhs_vanhamme", "supercongruence.truncated_sum", 1.0, 7.0, 0, 3),
        ("check_modulus", "exactnum", 2.0, 3.0, 1, 3),
        ("check_modulus", "exactnum", 7.5, 8.0, 0, 3),
        ("check_modulus", BOOKKEEPING, 8.0, 9.0, 0, 3),
    ]
    totals = layer_totals(spans)
    assert totals["cli.self_s"] == 10 - 6 - 0.5 - 1
    assert totals["cli.calls"] == 1
    assert totals["supercongruence.truncated_sum.self_s"] == 5
    assert totals["exactnum.self_s"] == 1.5
    assert totals["exactnum.calls"] == 2
    assert totals["padic_gamma.calls"] == 0


def _passes(speeds, cost):
    """Three primes per pass; the host speed factor is constant in a pass."""
    return [
        {i: {"ms": cost(base, speed), "cal_ms": speed} for i, base in enumerate((1.0, 10.0, 100.0))}
        for speed in speeds
    ]


def test_speed_correction_recovers_sensitivity_and_base_cost():
    passes = _passes((0.8, 1.0, 1.3, 1.6), lambda base, speed: base * speed**0.5)
    beta, corrected = run.speed_correction(passes)
    assert abs(beta - 0.5) < 1e-9
    for pass_ms in corrected:
        assert pass_ms == pytest.approx({0: 1.0, 1: 10.0, 2: 100.0})


def test_speed_correction_clips_and_needs_two_passes():
    beta, _ = run.speed_correction(_passes((0.8, 1.3, 1.6), lambda base, speed: base))
    assert beta == 0.0
    beta, _ = run.speed_correction(_passes((0.8, 1.3, 1.6), lambda base, speed: base * speed**2))
    assert beta == 1.0
    one = _passes((1.3,), lambda base, speed: base * speed)
    beta, corrected = run.speed_correction(one)
    assert beta == 0.0
    assert corrected[0] == pytest.approx({i: one[0][i]["ms"] for i in range(3)})


def test_reference_diff_catches_one_flipped_lhs():
    reference = workloads.load_reference("default_sweep")
    rows = [row for key, row in reference.items() if key[1] == 101]
    assert len(rows) == 4
    assert workloads.mismatched_keys(rows, rows) == []
    s, p, lhs, rhs, mod, ok = rows[0]
    flipped = [(s, p, (lhs + 1) % mod, rhs, mod, ok)] + rows[1:]
    assert workloads.mismatched_keys(rows, flipped) == [(s, p)]


def test_reference_diff_catches_missing_extra_and_duplicate_rows():
    rows = [("lemma1", 5, 0, 0, 5, True), ("lemma2", 5, 0, 0, 5, True)]
    assert workloads.mismatched_keys(rows, rows[:1]) == [("lemma2", 5)]
    assert workloads.mismatched_keys(rows, rows + [("prop3", 5, 0, 0, 125, True)]) == [
        ("prop3", 5)
    ]
    assert workloads.mismatched_keys(rows, rows + rows[:1]) == [("lemma1", 5)]


def test_reference_keeps_the_p3_finding():
    row = workloads.load_reference("companion_p4")[workloads.FINDING]
    assert row == ("vanhamme_b", 3, 24, 78, 81, False)
    masked = [row[:-1] + (True,)]
    assert workloads.mismatched_keys([row], masked) == [workloads.FINDING]


def test_gate_counts_unfinished_raised_and_false_checks():
    requests = workloads.plan("machinery", seed=7)[:3]
    reference = workloads.load_reference("machinery")
    good = {
        "rows": [list(reference[("whipple_inst", requests[0].p)])],
        "facts": [True] * requests[0].fact_count,
        "rc": 0,
        "error": None,
    }
    one_false = dict(good, rows=[list(reference[("whipple_inst", requests[1].p)])],
                     facts=[True] * (requests[1].fact_count - 1) + [False])
    result = {"results": {0: good, 1: one_false}}
    failed, notes = run.gate(requests, reference, result)
    assert failed == 1 + requests[2].checks
    raised = {"results": {0: dict(good, error="Traceback\nValueError: boom")}}
    failed, notes = run.gate(requests[:1], reference, raised)
    assert failed == requests[0].checks and "boom" in notes[0]


def test_plans_are_fixed_sweeps_and_seeded_tuples():
    assert len(workloads.plan("default_sweep", 1)) == 167
    assert sum(r.checks for r in workloads.plan("default_sweep", 1)) == 668
    assert sum(r.checks for r in workloads.plan("companion_p4", 1)) == 62
    assert sum(r.checks for r in workloads.plan("finite_field", 1)) == 188
    assert workloads.plan("machinery", 3) == workloads.plan("machinery", 3)
    assert workloads.plan("machinery", 3) != workloads.plan("machinery", 4)
    assert sorted(workloads.pass_order(50, 1, 2)) == list(range(50))
