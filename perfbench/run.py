"""ghzmeter benchmark: run one workload in fresh child interpreters, print its metrics.

    python3 perfbench/run.py --workload sup-survey --seed 1 --seconds 40 --trace 0

Run from the repository root; the library is imported from ./src.  With
``--trace 0`` the last line of stdout carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run, set against
an untraced run in this same invocation.  A line starting with ``report``
before it carries what the final line leaves out: the op tail latency with
its percentile, fail_ratio, rounds and op counts.  Metric names and units
come from BENCHMARK.json.  Workloads are described in perfbench/workloads.py
and perfbench/NOTES.md.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SETUP_SAMPLES = 5  # children per untraced run whose set-up is timed; the median is reported
IMPORT_SAMPLES = 3
DEADLINE_S = 170
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    for var in THREAD_VARIABLES:
        env[var] = "1"  # one BLAS thread per run
    return env


def run_child(mode, args, env, deadline):
    cmd = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        *("--mode", mode, "--workload", args.workload),
        *("--seed", str(args.seed), "--seconds", str(args.seconds)),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - spawned)
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child ran past the deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if "first_op" in result:
        result["setup_s"] = result["first_op"] - spawned
    return result


def import_times(env, deadline):
    """(ghzmeter + cli import seconds, scipy.optimize import seconds) from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import ghzmeter, ghzmeter.cli"],
        env=env,
        stderr=subprocess.PIPE,
        stdout=subprocess.DEVNULL,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise BenchError("importing ghzmeter failed")
    package = scipy = 0.0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cumulative_s, depth, name = int(m.group(1)) * 1e-6, len(m.group(2)), m.group(3)
        if depth == 1 and name.split(".")[0] == "ghzmeter":
            package += cumulative_s
        if name == "scipy.optimize":
            scipy = max(scipy, cumulative_s)
    return package, scipy


def untraced(args, env, deadline):
    setups = [run_child("setup", args, env, deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = run_child("measure", args, env, deadline)
    setups.append(run["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": run["throughput_ops_s"],
        "op_p50_ms": run["op_p50_ms"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return metrics, run["attempted"], run["failed"], run


def traced(args, env, deadline):
    plain = run_child("measure", args, env, deadline)
    run = run_child("trace", args, env, deadline)
    imports = [import_times(env, deadline) for _ in range(IMPORT_SAMPLES)]
    attempted = plain["attempted"] + run["attempted"]
    failed = plain["failed"] + run["failed"]
    metrics = dict(run["layers"])
    metrics.update(
        {
            "states.load.bytes": run["load_bytes_per_op"],
            "optimize.iterations_per_op": run["iterations_per_op"],
            "optimize.converged_ratio": run["converged_ratio"],
            "cli.import_s": statistics.median(i[0] for i in imports),
            "cli.import_scipy_s": statistics.median(i[1] for i in imports),
            "trace.overhead_ratio": run["throughput_ops_s"] / plain["throughput_ops_s"],
            "fail_ratio": failed / attempted,
        }
    )
    return metrics, attempted, failed, {"untraced": plain, "traced": run}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "ghzmeter", "__init__.py")):
        print(f"error: no ghzmeter sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    env = child_env(src)
    deadline = time.monotonic() + DEADLINE_S
    try:
        measure = traced if args.trace else untraced
        metrics, attempted, failed, detail = measure(args, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(SPEC) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print("report " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
