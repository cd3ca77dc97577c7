"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/prove.py --workloads sup-survey eval-grid --seeds 10
    python3 perfbench/prove.py --compare perfbench/out/prove-A.json perfbench/out/prove-B.json

Run from the repository root.  For every workload and end-to-end metric it
prints the median, the quartiles and the spread (third minus first quartile,
over the median, as ``statistics.quantiles(values, n=4)`` gives them) next to
the metric's bound in BENCHMARK.json, and the ops failed and attempted.  Raw
results go to perfbench/out/prove-<time>.json.  ``--compare`` reads two such
files and sets each metric's two medians side by side, with the second's
shift towards worse as a share of the first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def summary(runs, name):
    values = [r["metrics"][name]["value"] for r in runs]
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def counts(runs):
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def compare(spec, first, second):
    worst = 0.0
    for workload in first:
        for m in spec["end_to_end"]:
            a, b = summary(first[workload], m["name"])[0], summary(second[workload], m["name"])[0]
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            worst = max(worst, worse / m["bound"])
            print(f"{workload:10s} {m['name']:18s} {a:.6g} -> {b:.6g} {m['unit']}"
                  f"  worse by {worse:+.4f}  bound {m['bound']}")
        print(f"{workload:10s} failed/attempted {counts(first[workload])} -> {counts(second[workload])}")
    print(f"largest shift towards worse / bound: {worst:.3f}")


def main(argv=None):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="PROVE_JSON")
    args = parser.parse_args(argv)

    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as fh:
                sets.append(json.load(fh))
        compare(spec, *sets)
        return 0

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    runs, worst = {}, 0.0
    for workload in args.workloads:
        runs[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["report"] = json.loads(lines[-2][len("report "):])
            result["seed"], result["elapsed_s"] = seed, time.monotonic() - started
            runs[workload].append(result)
            print(workload, seed, f"{result['elapsed_s']:.1f}s", "correct" if result["correct"] else "INCORRECT",
                  {k: round(v["value"], 6) for k, v in result["metrics"].items() if k in {m["name"] for m in metrics[:6]}},
                  flush=True)
        for m in metrics:
            median, q1, q3, spread = summary(runs[workload], m["name"])
            if "bound" in m:
                worst = max(worst, spread / m["bound"])
            print(f"  {workload:10s} {m['name']:28s} median {median:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {spread:.4f}" + (f"  bound {m['bound']}" if "bound" in m else ""))
        print(f"  {workload:10s} failed/attempted {counts(runs[workload])}")
    stamp = time.strftime("%Y%m%d-%H%M%S")
    with open(os.path.join(HERE, "out", f"prove-{stamp}.json"), "w") as fh:
        json.dump(runs, fh, indent=1)
    if not args.trace:
        print(f"largest spread / bound: {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
