"""blscales benchmark: one seeded workload, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones below; with --trace 1 they are the per-layer ones of bench/tracer.py,
from spans wrapped around the library's public functions, plus the tracing
overhead (traced minus untraced time of the same op).  The line before it
holds the run's details: op count, tail percentile, environment.

End-to-end metrics (untraced):
  setup_s       median of three set-ups: interpreter start, `import blscales`,
                seeded inputs and a warm-up op, to the first timed op
  op_s.p50      median wall time of one op
  op_s.tail     the highest order statistic with 10 ops beyond it, or a
                quarter of the ops when fewer than 44 fit (cli-cold: 4 of
                16); percentile and count beyond it on the info line
  ops_per_s     correct ops per second of the timed phase
  var_s         median over ops of stderr^2 x op seconds (precision per
                second); for cli-cold over the monte-carlo `functional` and
                `young-lie` calls (a young-lie table's row variances add),
                for solve-certify, which samples nothing, tol^2 x seconds
  peak_rss_mb   peak resident memory of the workload process (cli-cold: the
                largest CLI child)
  success_rate  1 - error_rate: share of the checks that passed; every op
                (raised, timed out, exited non-zero, wrong output), the replay
                and, on heis-induction, the run-level estimate check

Every process runs alone with one thread: BLAS/OpenMP pools and
BL_SCALES_THREADS are pinned to 1.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUPS = 3  # set-ups per run, the timed worker's included
DEADLINE = 170.0  # seconds for the whole run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BL_SCALES_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def worker(args, extra: list, timeout: float) -> dict:
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(time.monotonic()),
        *extra,
    ]
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT
    )
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "blscales" / "__init__.py").is_file():
        print(f"no blscales sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            left = DEADLINE - (time.monotonic() - start)
            setups.append(worker(args, ["--setup-only"], left)["setup_s"])
    result = worker(args, [], DEADLINE - (time.monotonic() - start))
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        result["info"]["setup_s_samples"] = setups
    print(json.dumps({"info": result["info"]}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": dict(sorted(metrics.items())),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
