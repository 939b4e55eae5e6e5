"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py [--write FILE]

For every workload of BENCHMARK.json it runs seeds 1 to 10, then seed 1 four
more times, then one traced run of seed 1.  For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the spread,
(Q3 - Q1) / median, over the ten seeds next to the metric's bound, and the
spread over the five runs of seed 1, which holds the inputs fixed and so
shows the host's share of the noise.  With --write it stores everything, with
each run's environment, as JSON.  Runs are sequential.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = list(range(1, 11))
REPEATS = 5  # runs of SEEDS[0], its run among the ten included
TRACED_SEED = SEEDS[0]


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [
        sys.executable, str(BENCH / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--write", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"run_seconds": spec["run_seconds"], "seeds": SEEDS, "repeats": REPEATS,
              "workloads": {}}
    worst = 0.0
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS + [SEEDS[0]] * (REPEATS - 1):
            info, result = run(name, seed, spec["run_seconds"], 0)
            runs.append({"info": info, "result": result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        seeded, repeated = runs[: len(SEEDS)], runs[:1] + runs[len(SEEDS):]
        summary = {}
        for metric, bound in bounds.items():
            entry = spread([r["result"]["metrics"][metric]["value"] for r in seeded])
            entry["bound"] = bound
            entry["repeat"] = spread([r["result"]["metrics"][metric]["value"] for r in repeated])
            summary[metric] = entry
            if metric != "setup_s":
                worst = max(worst, entry["spread"] / bound)
            flag = "" if entry["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"  {metric:14s} median {entry['median']:.6g}  q1 {entry['q1']:.6g}  "
                  f"q3 {entry['q3']:.6g}  spread {entry['spread']:.4f}  "
                  f"seed-{SEEDS[0]} spread {entry['repeat']['spread']:.4f}  bound {bound}{flag}",
                  flush=True)
        info, result = run(name, TRACED_SEED, spec["run_seconds"], 1)
        report["workloads"][name] = {
            "end_to_end": summary,
            "runs": runs,
            "traced": {"seed": TRACED_SEED, "info": info, "result": result},
        }
    print(f"largest spread / bound, setup_s excluded: {worst:.3f}")
    if args.write:
        Path(args.write).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
