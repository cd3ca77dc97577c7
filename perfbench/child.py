"""One benchmark child interpreter: set up a workload, run its timed phase, report.

    python3 perfbench/child.py --mode measure --workload eval-grid --seed 1 --seconds 10

Modes: ``setup`` stops where the first timed op would start; ``measure``
runs the timed phase untraced; ``trace`` runs it with spans around the
layers and writes the spans to perfbench/out.  The last line of stdout is
one JSON object.  Run from the repository root, with src on PYTHONPATH.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from array import array

import numpy as np

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "reference")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
MAX_REPORTED_ERRORS = 5


def run_phase(rounds, seconds, tracer=None):
    """Run whole rounds of ops until `seconds` of timed time have passed.

    Each op is timed alone; its check runs right after it and its time is
    left out of the phase's wall time.  An op that raises is a failed op.
    """
    latency_ms, ok = array("d"), array("b")
    searches = {"iterations": 0, "converged": 0, "restarts": 0}
    load_bytes, check_s, errors, r = 0, 0.0, 0, 0
    first_op = time.monotonic()
    start = time.perf_counter()
    while True:
        for op in rounds[r % len(rounds)]:
            t0 = time.perf_counter()
            try:
                out = op.run() if tracer is None else tracer.run_op(len(ok), op.run)
                raised = False
            except Exception:
                out, raised = None, True
                if errors < MAX_REPORTED_ERRORS:
                    traceback.print_exc()
                errors += 1
            t1 = time.perf_counter()
            try:
                good = not raised and bool(op.check(out))
            except Exception:
                good = False
                traceback.print_exc()
            if not good and not raised:
                print(f"check failed: {op.kind} op of round {r}", file=sys.stderr)
            check_s += time.perf_counter() - t1
            latency_ms.append((t1 - t0) * 1e3)
            ok.append(good)
            load_bytes += op.load_bytes
            for key, attr in (("iterations", "iterations_total"), ("converged", "converged_restarts"), ("restarts", "restarts")):
                searches[key] += int(getattr(out, attr, 0) or 0)
        r += 1
        if time.perf_counter() - start - check_s >= seconds:
            break
    return {
        "first_op": first_op,
        "wall_s": time.perf_counter() - start - check_s,
        "rounds": r,
        "latency_ms": np.frombuffer(latency_ms),
        "ok": np.frombuffer(ok, dtype=np.int8).astype(bool),
        "load_bytes": load_bytes,
        **searches,
    }


def summarize(phase):
    """End-to-end numbers of one phase; a failed op counts as missing every latency."""
    lat = np.where(phase["ok"], phase["latency_ms"], np.inf)
    n, passed, wall = len(lat), int(np.sum(phase["ok"])), phase["wall_s"]

    def at(p):
        with np.errstate(invalid="ignore"):  # inf - inf between two failed ops
            value = float(np.percentile(lat, p))
        return value if np.isfinite(value) else 1e3 * wall

    out = {
        "attempted": n,
        "failed": n - passed,
        "fail_ratio": (n - passed) / n,
        "rounds": phase["rounds"],
        "wall_s": wall,
        "throughput_ops_s": passed / wall,
        "op_p50_ms": at(50.0),
    }
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= TAIL_BEYOND:
            out.update(op_tail_ms=at(p), op_tail_percentile=p, op_tail_beyond=int(n * (1 - p / 100)))
            break
    return out


def _load_references(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _save_references(path, references):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(references, fh, indent=0, sort_keys=True)
    os.replace(tmp, path)


def reference_path(workload, seed):
    """Where a workload's reference values are cached; only sup-survey stores any."""
    return os.path.join(REFERENCES, f"{workload}-{seed}.json")


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    import ghzmeter
    import ghzmeter.cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(ghzmeter.__file__).startswith(src + os.sep):
        raise SystemExit(f"ghzmeter was imported from {ghzmeter.__file__}, not from {src}")

    inputs = workloads.make_inputs(args.workload, args.seed)
    references = _load_references(reference_path(args.workload, args.seed))
    known = len(references)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        ops = workloads.build_ops(args.workload, inputs, ghzmeter, ghzmeter.cli, workdir, references)
        workloads.warm_up(args.workload, ops, ghzmeter, inputs)
        tracer = None
        if args.mode == "trace":
            tracer = spans.Tracer()
            tracer.install()
        if args.mode == "setup":
            print(json.dumps({"first_op": time.monotonic()}))
            return 0
        phase = run_phase(ops, args.seconds, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if len(references) > known:
        _save_references(reference_path(args.workload, args.seed), references)

    result = {"first_op": phase["first_op"], "peak_rss_mb": rss_mb, **summarize(phase)}
    ops_run = result["attempted"]
    result["load_bytes_per_op"] = phase["load_bytes"] / ops_run
    result["iterations_per_op"] = phase["iterations"] / ops_run
    result["converged_ratio"] = phase["converged"] / phase["restarts"] if phase["restarts"] else 0.0
    if tracer is not None:
        arrays = tracer.arrays()
        result["layers"] = spans.layer_summary(
            tracer.names, arrays["layer"], arrays["parent"], arrays["start"], arrays["end"], ops_run
        )
        result["spans"] = len(arrays["layer"])
        tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
