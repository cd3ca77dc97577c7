"""The two workloads: inputs from the seed, the ops that use them, and their checks.

Inputs are made here with plain numpy, never with ghzmeter's own samplers,
so a change to ``haar_random_pure`` or ``apply_local_unitaries`` cannot
change a workload; ghzmeter receives raw arrays, tuples and JSON files.

- sup-survey: one ``maximize_I(state, restarts=30, seed=k)`` per op over
  Haar, product, A|BC biseparable and full-rank mixed states: many short
  searches, each paying per-state costs (validation, ``pauli_tensor``), so
  ``optimize`` does most of the work.
- eval-grid: single evaluation queries; the optimiser does no work, so
  ``states``, ``linalg``, ``correlators``, ``functional`` and ``cli`` do.

A round is a fixed, seeded batch of ops; a run repeats whole rounds, so the
mix of op kinds is the same however many rounds a run completes.
"""

import functools
import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

WORKLOADS = ("sup-survey", "eval-grid")
# distinct rounds made per run; a run that needs more cycles through them
POOL_ROUNDS = {"sup-survey": 24, "eval-grid": 20}

SURVEY_RESTARTS = 30
SURVEY_KINDS = ("haar", "product", "bisep", "mixed")
# eval-grid round: (kind, count); 100 queries
GRID_MIX = (
    ("eval", 30),
    ("mermin", 10),
    ("acin", 15),
    ("load", 10),
    ("sweep", 15),
    ("qudit", 15),
    ("cli", 5),
)
GRID_FILES = 16
FILES_STREAM = 2**31 - 1  # rng stream of the state files, apart from every round
SWEEP_FRAMES = 8

ACCURACY = 1e-6  # required accuracy of sup|I|
WITNESS_ATOL = 1e-9  # |I| at the returned frame against the returned value
PATH_ATOL = 1e-12  # two exact evaluations of the same quantity
ALGEBRAIC_BOUND = 2.0 + 1e-9
SEPARABLE_BOUND = 1.0 + 1e-6

X_HAT = np.array([1.0, 0.0, 0.0])
Y_HAT = np.array([0.0, 1.0, 0.0])


def _basis_vector(indices):
    v = np.zeros(8, dtype=complex)
    v[indices] = 1.0 / np.sqrt(len(indices))
    return v


# the CLI's named pure states; bisep is |0> x Phi+ (cut A|BC)
NAMED = {
    "ghz": _basis_vector([0, 7]),
    "w": _basis_vector([1, 2, 4]),
    "bisep": _basis_vector([0, 3]),
    "product": _basis_vector([0]),
}


# ---------------------------------------------------------------- inputs


def _rng(workload, seed, round_index):
    return np.random.default_rng([seed, WORKLOADS.index(workload), round_index])


def _complex_unit(rng, n):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def _direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _frame(rng, orthonormal):
    n1, v = _direction(rng), rng.standard_normal(3)
    if not orthonormal:
        return n1, v / np.linalg.norm(v)
    v -= np.dot(v, n1) * n1
    return n1, v / np.linalg.norm(v)


def _full_rank_density(rng):
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


def _survey_state(rng, kind):
    if kind == "haar":
        return {"vector": _complex_unit(rng, 8)}
    if kind == "product":
        a, b, c = (_complex_unit(rng, 2) for _ in range(3))
        return {"vector": np.einsum("a,b,c->abc", a, b, c).reshape(8)}
    if kind == "bisep":
        a, bc = _complex_unit(rng, 2), _complex_unit(rng, 4)
        return {"vector": np.einsum("a,bc->abc", a, bc.reshape(2, 2)).reshape(8)}
    return {"density": _full_rank_density(rng)}


def _qubit_state(rng):
    return {"vector": _complex_unit(rng, 8)} if rng.random() < 0.6 else {"density": _full_rank_density(rng)}


def _grid_item(rng, kind):
    if kind in ("eval", "mermin", "load"):
        n1, n2 = _frame(rng, orthonormal=kind != "eval" or rng.random() < 0.5)
        item = {"n1": n1, "n2": n2}
        if kind == "load":
            item["file"] = int(rng.integers(GRID_FILES))
        else:
            item.update(_qubit_state(rng))
        return item
    if kind == "acin":
        lambdas = np.abs(rng.standard_normal(5))
        return {"lambdas": lambdas / np.linalg.norm(lambdas), "phi": float(rng.uniform(0, np.pi))}
    if kind == "sweep":
        frames = np.array([_frame(rng, orthonormal=i % 2 == 0) for i in range(SWEEP_FRAMES)])
        return {"frames": frames, **_qubit_state(rng)}
    if kind == "qudit":
        while True:
            g1, g2 = rng.integers(3, size=2), rng.integers(3, size=2)
            if (g1[0] * g2[1] - g1[1] * g2[0]) % 3:
                break
        return {"vector": _complex_unit(rng, 27), "g1": tuple(map(int, g1)), "g2": tuple(map(int, g2))}
    # cli: a state file, canonical parameters or a named state; raw directions
    source = ("file", "acin", "named")[int(rng.integers(3))]
    item = {"source": source, "n1": rng.standard_normal(3), "n2": rng.standard_normal(3)}
    if source == "file":
        item["file"] = int(rng.integers(GRID_FILES))
    elif source == "acin":
        item.update(_grid_item(rng, "acin"))
    else:
        item["name"] = str(rng.choice(list(NAMED)))
    return item


def make_round(workload, seed, round_index):
    """The items of one round: plain dicts of numpy arrays and numbers."""
    rng = _rng(workload, seed, round_index)
    if workload == "sup-survey":
        return [
            {"kind": kind, "opt_seed": int(rng.integers(2**31)), **_survey_state(rng, kind)}
            for kind in rng.permutation(SURVEY_KINDS)
        ]
    kinds = [kind for kind, count in GRID_MIX for _ in range(count)]
    return [{"kind": kind, **_grid_item(rng, kind)} for kind in rng.permutation(kinds)]


def make_files(seed):
    """eval-grid's state files: half pure, half full-rank mixed, as JSON documents."""
    rng = _rng("eval-grid", seed, FILES_STREAM)
    docs = []
    for i in range(GRID_FILES):
        if i % 2 == 0:
            v = _complex_unit(rng, 8)
            docs.append({"local_dim": 2, "kind": "pure", "amplitudes": [[z.real, z.imag] for z in v]})
        else:
            rho = _full_rank_density(rng)
            rows = [[[z.real, z.imag] for z in row] for row in rho]
            docs.append({"local_dim": 2, "kind": "mixed", "density": rows})
    return docs


def make_inputs(workload, seed):
    files = make_files(seed) if workload == "eval-grid" else []
    return [make_round(workload, seed, r) for r in range(POOL_ROUNDS[workload])], files


def _doc_state(doc):
    if doc["kind"] == "pure":
        return {"vector": np.array([complex(re, im) for re, im in doc["amplitudes"]])}
    return {"density": np.array([[complex(re, im) for re, im in row] for row in doc["density"]])}


# ---------------------------------------------------------------- ops


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    load_bytes: int = 0


def _tensor(item):
    return oracle.pauli_tensor(item.get("vector"), item.get("density"))


def _state(gz, item):
    if "vector" in item:
        return gz.QuantumState(2, vector=item["vector"])
    return gz.QuantumState(2, density=item["density"])


def _search_ok(gz, item, result, reference, bound):
    """Witness, frame, bound and accuracy checks of one OptimizationResult."""
    best = result.best_value
    n1, n2 = result.best_frame.n1, result.best_frame.n2
    orthonormal = max(abs(n1 @ n2), abs(n1 @ n1 - 1), abs(n2 @ n2 - 1)) <= WITNESS_ATOL
    witness = abs(gz.eval_I(_state(gz, item), result.best_frame))
    return (
        orthonormal
        and abs(witness - best) <= WITNESS_ATOL
        and best <= bound
        and reference() - best <= ACCURACY
    )


with open(oracle.__file__, "rb") as _fh:
    ORACLE_DIGEST = hashlib.sha256(_fh.read()).hexdigest()


def reference_key(item):
    """Cache key of a sup-survey reference: a digest of everything strong_sup reads.

    That is the oracle's source, with its search settings, the state's Pauli
    tensor and the search seed; a value stored for other inputs never matches.
    """
    h = hashlib.sha256(ORACLE_DIGEST.encode())
    h.update(np.ascontiguousarray(_tensor(item)).tobytes())
    h.update(str(item["opt_seed"]).encode())
    return h.hexdigest()


def _survey_op(gz, item, references):
    def reference():
        key = reference_key(item)
        if key not in references:
            references[key] = oracle.strong_sup(_tensor(item), seed=item["opt_seed"])
        return references[key]

    bound = SEPARABLE_BOUND if item["kind"] in ("product", "bisep") else ALGEBRAIC_BOUND

    def run():
        return gz.maximize_I(_state(gz, item), restarts=SURVEY_RESTARTS, seed=item["opt_seed"])

    return Op(item["kind"], run, lambda result: _search_ok(gz, item, result, reference, bound))


def _close(a, b):
    return np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))) <= PATH_ATOL


def _grid_op(gz, cli, item, key, files, workdir):
    kind = item["kind"]
    if kind in ("eval", "mermin", "load"):
        n1, n2 = item["n1"], item["n2"]
        if kind == "load":
            path, state = files[item["file"]]
            expect = functools.cache(lambda: oracle.functional_I(_tensor(state), n1, n2))
            run = lambda: gz.eval_I(gz.load_state(path), gz.OrthoFrame(n1, n2))
            return Op(kind, run, lambda out: _close(out, expect()), os.path.getsize(path))
        if kind == "mermin":
            expect = functools.cache(lambda: oracle.mermin(_tensor(item), n1, n2))
            run = lambda: gz.mermin_M3(_state(gz, item), gz.OrthoFrame(n1, n2))
        else:
            expect = functools.cache(lambda: oracle.functional_I(_tensor(item), n1, n2))
            run = lambda: gz.eval_I(_state(gz, item), gz.OrthoFrame(n1, n2))
        return Op(kind, run, lambda out: _close(out, expect()))
    if kind == "acin":
        lambdas, phi = item["lambdas"], item["phi"]

        def run():
            params = gz.AcinParams(*lambdas, phi=phi)
            return gz.eval_I(gz.make_acin(params), gz.OrthoFrame(X_HAT, Y_HAT)), gz.acin_closed_form(params)

        closed = oracle.acin_closed_form(lambdas)
        return Op(kind, run, lambda out: _close(out[0], out[1]) and _close(out[1], closed))
    if kind == "sweep":
        frames = item["frames"]

        def run():
            t = gz.pauli_tensor(_state(gz, item))
            return t, [gz.correlators_from_tensor(t, n1, n2) for n1, n2 in frames]

        expect = functools.cache(lambda: (_tensor(item), oracle.correlators(_tensor(item), frames[:, 0], frames[:, 1])))

        def check(out):
            tensor, quads = expect()
            return _close(out[0], tensor) and _close(np.array(out[1]), np.array(quads).T)

        return Op(kind, run, check)
    if kind == "qudit":
        v, g1, g2 = item["vector"], item["g1"], item["g2"]
        run = lambda: gz.eval_Id(gz.QuantumState(3, vector=v), gz.QuditGenPair(3, g1, g2))
        return Op(kind, run, lambda out: bool(np.isfinite(out)) and abs(out) <= ALGEBRAIC_BOUND)
    return _cli_op(cli, item, key, files, workdir)


def _cli_op(cli, item, key, files, workdir):
    load_bytes = 0
    if item["source"] == "file":
        path, state = files[item["file"]]
        load_bytes = os.path.getsize(path)
        state_args = ["--state-file", path]
    elif item["source"] == "acin":
        state = {"vector": oracle.acin_vector(item["lambdas"], item["phi"])}
        values = [*item["lambdas"], item["phi"]]
        state_args = ["--acin=" + ",".join(repr(float(x)) for x in values)]
    else:
        state = {"vector": NAMED[item["name"]]}
        state_args = ["--state", item["name"]]
    output = os.path.join(workdir, f"cli-{key}.json")
    argv = [
        "eval",
        *state_args,
        # "--n1=-0.3,..." form: argparse would read a leading minus as an option
        "--n1=" + ",".join(repr(float(x)) for x in item["n1"]),
        "--n2=" + ",".join(repr(float(x)) for x in item["n2"]),
        *("--format", "json", "--output", output),
    ]
    n1, n2 = (item[k] / np.linalg.norm(item[k]) for k in ("n1", "n2"))
    expect = functools.cache(lambda: oracle.functional_I(_tensor(state), n1, n2))

    def check(code):
        with open(output) as fh:
            rows = json.load(fh)
        return code == 0 and _close(rows[0]["I"], expect())

    return Op("cli", lambda: cli.main(argv), check, load_bytes)


def build_ops(workload, inputs, gz, cli, workdir, references):
    """Ops for every round of the inputs; state files are written to workdir."""
    rounds, docs = inputs
    files = []
    for i, doc in enumerate(docs):
        path = os.path.join(workdir, f"state-{i}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        files.append((path, _doc_state(doc)))
    if workload == "sup-survey":
        return [[_survey_op(gz, item, references) for item in items] for items in rounds]
    return [
        [_grid_op(gz, cli, item, f"{r}.{i}", files, workdir) for i, item in enumerate(items)]
        for r, items in enumerate(rounds)
    ]


def warm_up(workload, ops, gz, inputs):
    """Run each code path once before timing: a one-restart search per state of round 0, or round 0 of the grid."""
    if workload == "eval-grid":
        for op in ops[0]:
            op.run()
        return
    for item in inputs[0][0]:
        gz.maximize_I(_state(gz, item), restarts=1)
