"""Seeded benchmark of the qmpc compiler.

Run from the repository root:

    python3 bench/run.py --workload route --seed 1 --seconds 32 --trace 0

One operation is one batch: parse each circuit's OpenQASM text with
``parse_qasm``, compile the batch with ``compile_workloads``, then check the
outputs (``checks.check_batch``) and time ``check_equivalence`` on them.  A
run does whole rounds over the seeded pool of batches, and starts another
only if it fits in ``--seconds``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it carries information that is not a metric
(reference-loop time, unscaled timings, the digest of the emitted programs).
See README.md for the workloads, the metrics and the checks.

Times are CPU seconds of this single-threaded process, scaled to the
reference machine by ``harness.REF_NOMINAL_S`` over the run's median time of
a fixed reference loop (``harness.reference_loop``), timed before every
operation.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread: numerical libraries would otherwise add CPU time from helper threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 3

_SETUP_PROBE = """
import sys
import time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import harness
harness.prepare(sys.argv[3], int(sys.argv[4]))
print(time.process_time(), flush=True)
"""


def measure_setup(workload: str, seed: int) -> list[float]:
    """CPU seconds from process start to a prepared device, each in a fresh
    process: interpreter start, importing qmpc, building the device model
    and, where the workload has one, the crosstalk table."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=120, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qmpc" / "__init__.py").is_file():
        print(f"bench: no compiler sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import harness

    if args.workload not in harness.SPECS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(harness.SPECS)}", file=sys.stderr)
        return 2
    setups = measure_setup(args.workload, args.seed)
    env = harness.prepare(args.workload, args.seed)
    run = harness.Run(env, traced=bool(args.trace))
    run.until(time.perf_counter() + args.seconds)

    info = run.info()
    info["setup_probes_s"] = setups
    if args.trace:
        metrics = run.layer_metrics()
    else:
        metrics = run.end_to_end_metrics()
        metrics["setup_s"] = {"value": run.speed() * statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result, "samples": run.samples()}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
