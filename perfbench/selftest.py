"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Run from the repository root.  The file name keeps these tests out of the
library's own test run.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import child  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_tiny_run_prints_every_metric_with_its_unit(trace, kind):
    proc = _bench("--workload", "eval-grid", "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared(kind)
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "reference"))
    proc = _bench("--workload", "eval-grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _ghz_op(best_value=None, error=None):
    """A sup-survey op on GHZ, sup|I| = 2 at the frame (x, y), whose search is faked."""
    import ghzmeter as gz

    item = {"kind": "haar", "vector": workloads.NAMED["ghz"], "opt_seed": 0}
    op = workloads._survey_op(gz, item, {workloads.reference_key(item): 2.0})
    frame = gz.OrthoFrame([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])

    def run():
        if error is not None:
            raise error
        return SimpleNamespace(best_value=best_value, best_frame=frame)

    op.run = run
    return op


def test_perturbed_answer_and_exception_count_as_failed():
    rounds = [[_ghz_op(2.0), _ghz_op(2.0 - 1e-5), _ghz_op(error=RuntimeError("boom"))]]
    result = child.summarize(child.run_phase(rounds, seconds=0))
    assert result["rounds"] == 1
    assert result["attempted"] == 3
    assert result["failed"] == 2
    assert result["fail_ratio"] == pytest.approx(2 / 3)


def test_survey_shortfall_counts_as_failed():
    import ghzmeter as gz

    item = workloads.make_round("sup-survey", 5, 0)[0]
    result = gz.maximize_I(workloads._state(gz, item), restarts=30, seed=item["opt_seed"])
    key = workloads.reference_key(item)
    good = workloads._survey_op(gz, item, {key: result.best_value})
    short = workloads._survey_op(gz, item, {key: result.best_value + 1e-5})
    assert good.check(result)
    assert not short.check(result)


def test_reference_cached_for_other_inputs_is_not_used(monkeypatch):
    import ghzmeter as gz

    ghz = {"kind": "haar", "vector": workloads.NAMED["ghz"], "opt_seed": 0}
    w = dict(ghz, vector=workloads.NAMED["w"])
    key = workloads.reference_key(ghz)
    assert workloads.reference_key(dict(ghz, vector=1j * ghz["vector"])) == key  # same tensor
    assert workloads.reference_key(dict(ghz, opt_seed=1)) != key
    monkeypatch.setattr(workloads, "ORACLE_DIGEST", "another oracle")
    assert workloads.reference_key(ghz) != key
    monkeypatch.undo()

    # a table whose entry was stored for GHZ, as if the inputs had changed under it
    references = {key: 2.0}
    result = gz.maximize_I(workloads._state(gz, w), restarts=30, seed=0)
    assert workloads._survey_op(gz, w, references).check(result)
    assert references[workloads.reference_key(w)] == pytest.approx(35 / 27, abs=1e-6)
    assert references[key] == 2.0


def test_self_time_on_a_synthetic_span_tree():
    #  0 [0, 10]
    #  +- 1 [1, 4]   +- 3 [2, 3]
    #  +- 2 [5, 9]   +- 4 [6, 8]
    parent = np.array([-1, 0, 0, 1, 2])
    start = np.array([0.0, 1.0, 5.0, 2.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 3.0, 8.0])
    assert spans.self_times(parent, start, end).tolist() == [3.0, 2.0, 2.0, 1.0, 2.0]


def test_tracer_records_nested_spans_only_inside_ops():
    tracer = spans.Tracer()
    inner = tracer.wrap("correlators.contract", lambda: None)
    outer = tracer.wrap("optimize.local", lambda: [inner(), inner()])
    outer()  # outside an op: not recorded
    tracer.run_op(0, outer)
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["layer"]]
    assert names == ["bench", "optimize.local", "correlators.contract", "correlators.contract"]
    assert a["parent"].tolist() == [-1, 0, 1, 1]
    summary = spans.layer_summary(tracer.names, a["layer"], a["parent"], a["start"], a["end"], ops=1)
    assert summary["optimize.objective_per_op"] == 2
    total_self = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(summary["trace.op_mean_ms"] / 1e3)


def _digest(inputs):
    """sha256 over every array and number of the inputs, for reproducibility checks."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, dict):
            for key in sorted(x):
                h.update(key.encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            for y in x:
                feed(y)
        elif isinstance(x, np.ndarray):
            h.update(str(x.dtype).encode() + np.ascontiguousarray(x).tobytes())
        else:
            h.update(repr(x).encode())

    feed(inputs)
    return h.hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_bit_identical_inputs(workload):
    first = _digest(workloads.make_inputs(workload, 11))
    assert first == _digest(workloads.make_inputs(workload, 11))
    assert first != _digest(workloads.make_inputs(workload, 12))
