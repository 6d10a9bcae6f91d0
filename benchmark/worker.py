"""One pass of one workload, in a fresh interpreter.

Usage: python3 worker.py --src SRC --workload W --seed N [--pass-index K]
                         [--spans-out PATH]

Imports supercong from SRC, runs the workload's requests in the pass's
shuffled order and
prints one JSON line per request as soon as it finishes:
    {"i": index, "ms": latency, "rows": [...], "facts": [...], "rc": code,
     "error": text, "cal_ms": calibration kernel time}
then one closing line {"done": true, "wall_s": ..., "maxrss_kb": ..., "layers": ...}.
With --spans-out the pass is traced and the spans are written there.
A request that raises is reported in its own line; the pass goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def import_supercong(src: str):
    """Import supercong from `src` and nowhere else."""
    sys.path.insert(0, src)
    import supercong
    from supercong import classical_hg, cli, polyengine, supercongruence  # noqa: F401

    origin = Path(supercong.__file__).resolve()
    if Path(src).resolve() not in origin.parents:
        raise ImportError(f"supercong was imported from {origin}, not from {src}")


def run_cli(argv: list) -> tuple:
    """(exit code, gated rows) of one `supercong.cli.main` call."""
    from supercong import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    rows = [workloads.row_from_json(json.loads(line)) for line in buf.getvalue().splitlines()]
    return rc, rows


def run_machinery(req: workloads.Request) -> list:
    """The boolean facts of one prime, through the public check functions."""
    from supercong import classical_hg, polyengine, supercongruence

    p = req.p
    facts = [
        polyengine.p_identity_check(p),
        polyengine.coefficient_facts_check(p),
        polyengine.lemma_sum_checks(p),
    ]
    if p <= workloads.EXP_SUM_MAX_P:
        facts += [polyengine.exp_sum_check(p, k) for k in range(1, 3 * (p - 1) + 1)]
    facts += [rec.passed for rec in supercongruence.poch_congruence_checks(p)]
    facts += [classical_hg.whipple_check(*t) for t in req.tuples]
    return facts


def calibration_ms() -> float:
    """Time of a fixed kernel of exact-fraction and bignum arithmetic, taken
    after each request; the harness corrects latencies for the host's speed
    drift with it (run.speed_correction)."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 120):
        total += Fraction(1, k * k)
    x = 1
    for k in range(1, 2000):
        x = x * (k | 1) % 1000000000000000000000000000057
    return (perf_counter() - start) * 1000.0


def run_request(req: workloads.Request) -> dict:
    """Run one request; the latency covers the program's calls only."""
    rc, rows, facts, error = None, [], [], None
    start = perf_counter()
    try:
        if req.machinery:
            facts = run_machinery(req)
        if req.statements:
            rc, rows = run_cli(req.argv)
    except (Exception, SystemExit):
        error = traceback.format_exc(limit=-3)
    ms = (perf_counter() - start) * 1000.0
    return {"ms": ms, "rows": rows, "facts": [bool(f) for f in facts], "rc": rc, "error": error}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    import_supercong(args.src)
    tracer = None
    if args.spans_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    out = sys.stdout
    requests = workloads.plan(args.workload, args.seed)
    start = perf_counter()
    for i in workloads.pass_order(len(requests), args.seed, args.pass_index):
        req = requests[i]
        if tracer is not None:
            tracer.request = req.p
        result = run_request(req)
        result["i"] = i
        result["cal_ms"] = calibration_ms()
        out.write(json.dumps(result) + "\n")
        out.flush()
    wall = perf_counter() - start
    done = {
        "done": True,
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        done["layers"] = tracer.summary()
        tracer.dump(args.spans_out)
    out.write(json.dumps(done) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
