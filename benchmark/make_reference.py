"""Record the reference rows (statement, p, lhs, rhs, modulus, pass) that
every benchmark run is compared with.

Usage (from the root of a checkout): python3 benchmark/make_reference.py

The committed files were recorded from the sources of the commit that
introduced the benchmark.  Re-record them only when a change is meant to
alter the rows, and say so in its change log: the gate exists to catch
every other change, the reported p=3 mod-p^4 finding included.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
import worker  # noqa: E402


def main() -> int:
    worker.import_supercong(str(BENCH.parent / "src"))
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        rows = []
        for req in workloads.plan(name, seed=0):
            if req.statements:
                rows += worker.run_cli(req.argv)[1]
        workloads.write_reference(workloads.reference_path(name), rows)
        print(f"{name}: {len(rows)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
