"""supercong benchmark: fixed prime sweeps timed per prime, from outside.

Usage (from the root of a checkout):
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all          # every workload, one after another

Each pass of a workload runs in a fresh interpreter (benchmark/worker.py)
that calls the public entry points once per prime, closed loop, one
client, no pool.  Passes repeat until --seconds is used up.  Latencies are
corrected for the host's speed drift (speed_correction).  Every row is
compared with the reference rows recorded from the seed commit; a run with
a mismatch, a raised check, a crash or a timeout prints `"correct": false`
and exits 1.  The last stdout line is the JSON result; the line before it
describes the run (commit, Python, nproc, seed, sample counts, units).
Exit 2: the sources under src/ cannot be imported (no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".benchmark_out"

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import LAYERS  # noqa: E402

#: every child of one run must have ended this long after the run started
HARD_LIMIT_S = 150.0
#: latencies are scaled to the host speed at which the calibration kernel
#: takes this long (see speed_correction)
CAL_REF_MS = 1.0
CAL_WINDOW = 4
#: set-up is sampled at least this many times per plain run
SETUP_SAMPLES = 7
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import supercong; "
    "sys.exit(3) if not supercong.__file__.startswith(sys.argv[1]) else print(time.time())"
)

END_TO_END_UNITS = {
    "checks_per_s": "1/s",
    "prime_ms_p50": "ms",
    "prime_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    "padic_gamma.product_len": "factors",
    "polyengine.max_coeff_bits": "bits",
    "gaussian_hg.table.builds": "count",
    "trace_overhead_ratio": "ratio",
}


class SetupFailed(RuntimeError):
    """The sources under test cannot be imported."""


def nearest_rank(sorted_values: list, q: int) -> float:
    """The q-th percentile by nearest rank: the ceil(q*n/100)-th smallest."""
    k = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[k - 1]


def tail_percentile(samples: list):
    """(q, value) for the highest integer percentile q <= 99 with at least
    ten samples above its nearest rank, or None below 20 samples."""
    n = len(samples)
    ordered = sorted(samples)
    for q in range(99, 49, -1):
        if n - -(-q * n // 100) >= 10:
            return q, nearest_rank(ordered, q)
    return None


def speed_correction(passes: list) -> tuple:
    """(beta, corrected latencies) of the plain passes, each a dict
    request index -> worker result in the order the requests ran.

    The host's speed drifts by tens of percent within a run.  The worker
    times a fixed calibration kernel after every request; the kernel time
    around a request is the median over the CAL_WINDOW requests on each
    side.  beta is the least-squares slope of log latency on log kernel time
    within each prime, pooled over primes and clipped to [0, 1]: how strongly
    this workload's latency follows the kernel (numpy products follow it
    less than interpreted code).  Each latency is scaled by
    (CAL_REF_MS / kernel time) ** beta, to the speed at which the kernel
    takes CAL_REF_MS."""
    logs = []  # per pass: {i: (log ms, log local kernel ms)}
    for results in passes:
        order = list(results)
        cal = [results[i]["cal_ms"] for i in order]
        logs.append({
            i: (
                math.log(results[i]["ms"]),
                math.log(statistics.median(cal[max(0, pos - CAL_WINDOW) : pos + CAL_WINDOW + 1])),
            )
            for pos, i in enumerate(order)
        })
    num = den = 0.0
    for i in set().union(*logs):
        pairs = [pass_logs[i] for pass_logs in logs if i in pass_logs]
        mean_y = statistics.fmean(y for y, _ in pairs)
        mean_x = statistics.fmean(x for _, x in pairs)
        num += sum((x - mean_x) * (y - mean_y) for y, x in pairs)
        den += sum((x - mean_x) ** 2 for _, x in pairs)
    beta = min(1.0, max(0.0, num / den)) if den > 0 else 0.0
    ref = math.log(CAL_REF_MS)
    corrected = [
        {i: math.exp(y + beta * (ref - x)) for i, (y, x) in pass_logs.items()}
        for pass_logs in logs
    ]
    return beta, corrected


def measure_setup(deadline: float, count: int) -> list:
    """`count` samples of the seconds from spawning a fresh interpreter to
    `import supercong` done."""
    samples = []
    for _ in range(count):
        t0 = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, str(SRC)],
                capture_output=True, text=True, cwd=ROOT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            raise SetupFailed("import supercong did not finish") from None
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines() or [f"exit {proc.returncode}"]
            raise SetupFailed(f"cannot import supercong from {SRC}: {lines[-1]}")
        samples.append(float(proc.stdout) - t0)
    return samples


def run_pass(workload: str, seed: int, index: int, timeout: float, spans_out=None) -> dict:
    """One worker pass: its per-request results, closing line and crash cause."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--src", str(SRC),
        "--workload", workload, "--seed", str(seed), "--pass-index", str(index),
    ]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    crash = None
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=timeout, cwd=ROOT)
        out, err = proc.stdout, proc.stderr
        if proc.returncode not in (0, 1):
            crash = f"worker exit code {proc.returncode}"
    except subprocess.TimeoutExpired as exc:
        out, err = exc.stdout or b"", exc.stderr or b""
        crash = f"timed out after {timeout:.0f} s"
    out, err = out.decode(errors="replace"), err.decode(errors="replace")
    if crash is None and "Traceback" in err:
        crash = "traceback: " + err.strip().splitlines()[-1]
    results, done = {}, None
    for line in out.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue  # a line cut short by a kill
        if obj.get("done"):
            done = obj
        else:
            results[obj["i"]] = obj
    if crash is None and done is None:
        crash = "worker ended without its closing line"
    return {"results": results, "done": done, "crash": crash, "traced": spans_out is not None}


def gate(requests: list, reference: dict, result: dict) -> tuple:
    """(failed checks, notes) of one pass.  Unfinished and raised requests
    fail every check they owe; rows must equal the reference exactly, the
    CLI exit code must agree with them, and every fact must be True."""
    failed, notes = 0, []
    for i, req in enumerate(requests):
        got = result["results"].get(i)
        if got is None:
            failed += req.checks
            continue
        if got["error"]:
            failed += req.checks
            notes.append(f"p={req.p} raised: {got['error'].strip().splitlines()[-1]}")
            continue
        if req.statements:
            expected = [reference[(s, req.p)] for s in req.statements]
            bad = workloads.mismatched_keys(expected, got["rows"])
            want_rc = 0 if all(row[-1] for row in expected) else 1
            if got["rc"] != want_rc:
                bad = [(s, req.p) for s in req.statements]
                notes.append(f"p={req.p} exit code {got['rc']}, expected {want_rc}")
            failed += min(len(bad), len(req.statements))
            notes += [
                f"row mismatch {s} p={p}; rerun: supercong verify --statements {s} "
                f"--primes {p}..{p} --format json-lines"
                for s, p in bad
            ]
        facts = got["facts"][: req.fact_count]
        false_facts = req.fact_count - sum(facts)
        if false_facts:
            failed += false_facts
            notes.append(f"p={req.p}: {false_facts} machinery facts not True")
    return failed, notes


def source_identity() -> dict:
    """The commit when the checkout is a git work tree, and a digest of the
    sources either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "supercong").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = proc.stdout.strip() or None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def run_passes(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> tuple:
    """(passes, set-up samples).  A round is one plain pass, or a plain and a
    traced pass; whole rounds repeat while the next one is expected to end
    within `seconds`.  On a shared 2-vCPU host set-up time was seen to swing
    by half within seconds, so its samples are spread over the run: three
    before the passes, one after each, at least SETUP_SAMPLES in all; the
    first spawn, untimed, fills the bytecode cache."""
    setup = []
    if not trace:
        measure_setup(deadline, 1)
        setup += measure_setup(deadline, 3)
    rounds = (False, True) if trace else (False,)
    passes = []
    measure_start = time.monotonic()
    stop, done_rounds = False, 0
    while not stop:
        for traced in rounds:
            remaining = deadline - time.monotonic()
            if remaining <= 1:
                stop = True
                break
            spans_out = OUT_DIR / f"spans-{workload}-{len(passes)}.jsonl" if traced else None
            passes.append(run_pass(workload, seed, len(passes), remaining, spans_out))
            if not trace and deadline - time.monotonic() > 5:
                setup += measure_setup(deadline, 1)
            if passes[-1]["crash"]:
                stop = True
                break
        done_rounds += 1
        elapsed = time.monotonic() - measure_start
        stop = stop or elapsed * (done_rounds + 1) / done_rounds > seconds
    if not trace and deadline - time.monotonic() > 5:
        setup += measure_setup(deadline, max(0, SETUP_SAMPLES - len(setup)))
    return passes, setup


def per_layer_metrics(passes: list) -> tuple:
    """(metrics, share of the summed layer self time per layer): medians
    over the traced passes."""
    traced = [r["done"] for r in passes if r["traced"] and r["done"]]
    walls = [r["done"]["wall_s"] for r in passes if not r["traced"] and r["done"]]
    metrics = {
        name: statistics.median(d["layers"][name] for d in traced) if traced else 0.0
        for name in PER_LAYER_UNITS
        if name != "trace_overhead_ratio"
    }
    metrics["trace_overhead_ratio"] = (
        statistics.median(d["wall_s"] for d in traced) / statistics.median(walls)
        if traced and walls else 0.0
    )
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    share = {layer: metrics[f"{layer}.self_s"] / total if total else 0.0 for layer in LAYERS}
    return metrics, share


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """(result, description) of one run; raises SetupFailed."""
    started = time.monotonic()
    requests = workloads.plan(workload, seed)
    reference = workloads.load_reference(workload)
    if workload == "companion_p4" and reference.get(workloads.FINDING, (True,))[-1]:
        raise SetupFailed("reference rows no longer hold the p=3 mod-p^4 finding")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
    passes, setup = run_passes(workload, seed, seconds, trace, started + HARD_LIMIT_S)

    checks_per_pass = sum(req.checks for req in requests)
    attempted = len(passes) * checks_per_pass
    failed, notes = 0, []
    for result in passes:
        pass_failed, pass_notes = gate(requests, reference, result)
        failed += pass_failed
        notes += pass_notes + ([result["crash"]] if result["crash"] else [])
    correct = failed == 0 and not any(r["crash"] for r in passes)

    # a prime's latency is its median over the plain passes; the sweep's
    # throughput is the checks of the primes over the sum of those medians
    plain = [r for r in passes if not r["traced"]]
    beta, corrected = speed_correction([r["results"] for r in plain])
    per_prime, raw_per_prime, timed_checks = [], [], 0
    for i, req in enumerate(requests):
        times = [c[i] for c in corrected if i in c]
        if times:
            per_prime.append(statistics.median(times))
            raw_per_prime.append(statistics.median(r["results"][i]["ms"] for r in plain if i in r["results"]))
            timed_checks += req.checks
    tail = tail_percentile(per_prime) or (50, statistics.median(per_prime or [0.0]))
    raw_tail = tail_percentile(raw_per_prime) or (50, statistics.median(raw_per_prime or [0.0]))
    description = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        **source_identity(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(plain),
        "traced_passes": len(passes) - len(plain),
        "pass_wall_s": [r["done"]["wall_s"] if r["done"] else None for r in passes],
        "requests_per_pass": len(requests),
        "checks_per_pass": checks_per_pass,
        "percentiles": {
            "prime_ms_p50": {"q": 50, "samples": len(per_prime)},
            "prime_ms_tail": {"q": tail[0], "samples": len(per_prime)},
            "setup_s": {"q": 50, "samples": len(setup)},
        },
        "speed_beta": beta,
        "calibration_ms": statistics.median(
            x["cal_ms"] for r in plain for x in r["results"].values()
        ) if per_prime else None,
        "uncorrected": {
            "checks_per_s": timed_checks * 1000.0 / sum(raw_per_prime) if raw_per_prime else 0.0,
            "prime_ms_p50": statistics.median(raw_per_prime) if raw_per_prime else 0.0,
            "prime_ms_tail": raw_tail[1],
        },
        "failed_ratio": failed / attempted if attempted else 1.0,
        "notes": notes[:10],
    }

    if trace:
        metrics, description["layer_share"] = per_layer_metrics(passes)
        units = PER_LAYER_UNITS
    else:
        rss_kb = max((r["done"]["maxrss_kb"] for r in plain if r["done"]), default=0)
        metrics = {
            "checks_per_s": timed_checks * 1000.0 / sum(per_prime) if per_prime else 0.0,
            "prime_ms_p50": statistics.median(per_prime) if per_prime else 0.0,
            "prime_ms_tail": tail[1],
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": (rss_kb or resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
            "ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
        }
        units = END_TO_END_UNITS
    description["units"] = units
    description["run_s"] = time.monotonic() - started
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, description


def print_report(result: dict, description: dict) -> None:
    workload = description["workload"]
    tail_q = description["percentiles"]["prime_ms_tail"]["q"]
    for name, metric in result["metrics"].items():
        label = f"{name} (p{tail_q})" if name == "prime_ms_tail" else name
        print(f"{workload:<14} {label:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(description))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="supercong benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "supercong" / "__init__.py").is_file():
        print(f"benchmark: no supercong sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, description = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print_report(result, description)
            results[name] = result
    except SetupFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
