"""One workload process: set-up, a timed closed loop, correctness gates.

Started by run.py, which passes --t0, its time.monotonic() just before the
start, so that set-up time includes interpreter start.  Prints one JSON line.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 --t0 T [--setup-only]
"""
import time

T_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from run import THREAD_VARS  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def timed(call, limit: float):
    """(result, seconds) of call(); OpTimeout when it runs past `limit`."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        out = call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
    seconds = time.perf_counter() - start
    if seconds > limit:
        raise OpTimeout()
    return out, seconds


def run_op(wl, i: int, tracer=None):
    """Run op i; return ({seconds, error, stderr}, output or None)."""
    op_args = wl.prepare(i)
    if tracer is None:
        call = lambda: wl.run(op_args)  # noqa: E731
    else:
        call = lambda: wl.run_traced(op_args, tracer, i)  # noqa: E731
    try:
        out, seconds = timed(call, wl.op_limit)
    except OpTimeout:
        return {"seconds": None, "error": f"timed out after {wl.op_limit} s"}, None
    except Exception as exc:  # an op that raises is a failed op; keep measuring
        traceback.print_exc(file=sys.stderr)
        return {"seconds": None, "error": f"{type(exc).__name__}: {exc}"}, None
    rec = {"seconds": seconds, "error": wl.check(out), "stderr": wl.stderr(out)}
    return rec, out


def tail(times: list) -> tuple:
    """(value, percentile, samples beyond): the highest order statistic with
    TAIL_BEYOND samples above it, or a quarter of the samples when the run is
    too short for that to lie above the third quartile."""
    s = sorted(times)
    n = len(s)
    beyond = min(TAIL_BEYOND, n // 4)
    k = n - 1 - beyond
    return s[k], 100.0 * (k + 1) / n, beyond


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, default=T_START)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import blscales

    if Path(blscales.__file__).resolve().parent != (SRC / "blscales").resolve():
        print(f"blscales imported from {blscales.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload_cls, workdir: Path) -> int:
    wl = workload_cls(args.seed, workdir)
    setup_errors = wl.setup_errors()
    wl.warmup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if args.trace else None
    records = []  # timed ops, untraced
    outs = []  # outputs of the timed ops that passed their checks
    traced = []  # traced twins of the timed ops (trace mode)
    first = None
    start = time.perf_counter()
    deadline = start + args.seconds
    i = 0
    # whole rounds of the op mix, so that every run times the same mix
    while time.perf_counter() < deadline or i % wl.cycle:
        rec, out = run_op(wl, i)
        records.append(rec)
        if rec["error"] is None:
            outs.append(out)
        if i == 0:
            first = out
        if tracer is not None:
            traced.append(run_op(wl, i, tracer)[0])
        i += 1
    elapsed = time.perf_counter() - start

    # one byte-identical replay per run: op 0 again, same seed, same artifact
    replay, again = run_op(wl, 0)
    if replay["error"] is None and (first is None or wl.canonical(again) != wl.canonical(first)):
        replay["error"] = "replay of op 0 is not byte-identical"

    # checks over the whole run, each counted like one more op
    run_errors, run_details = wl.review(outs)
    every = records + traced + [replay]
    errors = [r["error"] for r in every if r["error"] is not None]
    errors += [err for err in run_errors if err is not None]
    for err in setup_errors + errors:
        print(f"{args.workload}: {err}", file=sys.stderr)
    attempted = len(every) + len(run_errors)
    failed = len(errors)

    good = [r for r in records if r["error"] is None]
    times = [r["seconds"] for r in good] or [0.0]
    tail_s, tail_pct, beyond = tail(times)
    var = [r["stderr"] ** 2 * r["seconds"] for r in good if r["stderr"] is not None]
    usage = resource.RUSAGE_CHILDREN if wl.rss_of_children else resource.RUSAGE_SELF
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops_timed": len(records),
        "op_s.tail_percentile": tail_pct,
        "op_s.tail_samples_beyond": beyond,
        "var_s_ops": len(var),
        "setup_errors": setup_errors,
        **run_details,
        "environment": environment(),
    }
    metrics = {
        "op_s.p50": {"value": statistics.median(times), "unit": "s"},
        "op_s.tail": {"value": tail_s, "unit": "s"},
        "ops_per_s": {"value": len(good) / elapsed, "unit": "1/s"},
        "var_s": {"value": statistics.median(var) if var else 0.0, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(usage).ru_maxrss / 1024.0, "unit": "MB"},
        "success_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
    }
    if tracer is not None:
        pairs = [
            (u["seconds"], t["seconds"])
            for u, t in zip(records, traced)
            if u["error"] is None and t["error"] is None
        ]
        metrics = tracer.summary(
            len(traced), [t - u for u, t in pairs], [u for u, _ in pairs]
        )
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "correct": failed == 0 and not setup_errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
                "info": info,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
