import csv
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import ghzmeter
from ghzmeter import cli
from ghzmeter.cli import main

from conftest import (
    MALFORMED_STATE_FILES,
    operator_quad,
    random_direction,
    random_mixed_state,
    real_expectation,
    run_python,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_ghz(capsys):
    code, out, _ = run(capsys, ["eval", "--state", "ghz", "--n1", "1,0,0", "--n2", "0,1,0"])
    assert code == 0
    assert "I  = 2" in out


def test_eval_w_zx(capsys):
    code, out, _ = run(capsys, ["eval", "--state", "w", "--n1", "0,0,1", "--n2", "1,0,0"])
    assert code == 0
    assert "-1.2962963" in out


def test_eval_degenerate_frame_accepted(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "--state", "ghz", "--n1", "1,0,0", "--n2", "1,0,0", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc[0]["I"]) < 1e-12  # n1 = n2 makes all four operators equal


def test_eval_json_format(capsys):
    code, out, _ = run(
        capsys,
        ["eval", "--state", "w", "--n1", "0,0,1", "--n2", "1,0,0", "--format", "json"],
    )
    doc = json.loads(out)
    assert abs(doc[0]["I"] + 35 / 27) < 1e-12


def test_eval_unknown_state(capsys):
    code, _, err = run(capsys, ["eval", "--state-file", "/nope", "--n1", "1,0,0", "--n2", "0,1,0"])
    assert code == 2
    assert "state-file" in err


def test_eval_bad_direction(capsys):
    code, _, err = run(capsys, ["eval", "--state", "ghz", "--n1", "a,b,c", "--n2", "0,1,0"])
    assert code == 2
    assert "--n1" in err


def test_eval_requires_one_state_option(capsys):
    code, _, err = run(capsys, ["eval", "--n1", "1,0,0", "--n2", "0,1,0"])
    assert code == 2
    assert "one of the arguments --state --acin --state-file is required" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--state", "w", "--restarts", "abc"],
        ["eval", "--state", "nope", "--n1", "1,0,0", "--n2", "0,1,0"],
        ["eval", "--state", "ghz", "--n1", "1,0,0"],
        ["eval", "--state", "ghz", "--acin", "1,0,0,0,0", "--n1", "1,0,0", "--n2", "0,1,0"],
        ["eval", "--state", "ghz", "--n1", "1,0,0", "--n2", "0,1,0", "extra"],
        ["eval", "--state", "ghz", "--n1", "1,0,0", "--n2", "0,1,0", "a\nb"],
        ["nope"],
        [],
    ],
)
def test_usage_errors_write_one_error_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ghzmeter eval")


def test_eval_acin_params(capsys):
    lam = 1 / np.sqrt(2)
    code, out, _ = run(
        capsys,
        ["eval", "--acin", f"{lam},0,0,0,{lam}", "--n1", "1,0,0", "--n2", "0,1,0"],
    )
    assert code == 0
    assert "I  = 2" in out


def test_eval_acin_nan_rejected(capsys):
    code, out, err = run(
        capsys, ["eval", "--acin", "nan,0,0,0,0", "--n1", "1,0,0", "--n2", "0,1,0"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: --acin")


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["eval", "--acin", "1,0,0,0", "--n1", "1,0,0", "--n2", "0,1,0"],
            "--acin expects 5 or 6 numbers, got 4",
        ),
        (["eval", "--state", "ghz", "--n1", "1,0", "--n2", "0,1,0"], "--n1 expects 3 numbers, got 2"),
    ],
)
def test_wrong_number_count_names_the_counts(capsys, argv, line):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {line}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--state", "w", "--restarts", "0", "--seed", "0"],
        ["qudit", "--d", "1"],
        ["optimize", "--state", "w", "--restarts", "5000", "--seed", "0"],
    ],
)
def test_value_errors_exit_2(capsys, argv):
    code, _, err = run(capsys, argv)
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--state", "ghz", "--n1", "0,0,0", "--n2", "0,1,0"],
        ["eval", "--state", "ghz", "--n1", "1e309,0,0", "--n2", "0,1,0"],
        ["eval", "--acin", "1e300,0,0,0,0", "--n1", "1,0,0", "--n2", "0,1,0"],
        ["eval", "--state", "ghz", "--n1", "inf,0,0", "--n2", "0,1,0"],
        ["eval", "--state", "ghz", "--n1", "nan,0,0", "--n2", "0,1,0"],
    ],
)
def test_rejected_number_writes_one_error_line(argv):
    # a subprocess, so numpy's once-per-location warnings reach stderr
    done = run_python("-m", "ghzmeter.cli", *argv)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_huge_amplitude_writes_one_error_line(tmp_path):
    # |psi|^2 overflows; a subprocess, so numpy's once-per-location warnings reach stderr
    path = tmp_path / "huge.json"
    amplitudes = [[1e200, 0]] + [[0, 0]] * 7
    path.write_text(json.dumps({"local_dim": 2, "kind": "pure", "amplitudes": amplitudes}))
    for argv in (
        ["eval", "--state-file", str(path), "--n1", "1,0,0", "--n2", "0,1,0"],
        ["qudit", "--d", "2", "--state", str(path)],
    ):
        done = run_python("-m", "ghzmeter.cli", *argv)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: --state") and done.stderr.count("\n") == 1


def test_tiny_direction_is_normalised(capsys):
    # the squares of 1e-160 are subnormal; the direction is still x
    values = []
    for n1 in ("1e-160,0,0", "1,0,0"):
        argv = ["eval", "--state", "ghz", "--n1", n1, "--n2", "0,1,0", "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        values.append(json.loads(out)[0]["I"])
    assert values[0] == values[1]


@pytest.mark.parametrize(
    "scaled, unit, tol",
    [
        ("1e200,0,0", "1,0,0", 0.0),
        ("1e308,1e308,0", "1,1,0", 1e-15),
        ("1e-320,1e-320,0", "1,1,0", 1e-15),
    ],
    ids=["1e200", "1e308-pair", "subnormal-pair"],
)
def test_direction_of_any_finite_length_is_normalised(capsys, scaled, unit, tol):
    # |n|^2 overflows or underflows; math.hypot scales, so the length is nonzero and finite,
    # and a subnormal length, rounded to a few bits, still gives a unit direction
    rows = []
    for n1 in (scaled, unit):
        argv = ["eval", "--acin", "0.5,0.5,0.5,0.5,0,1", f"--n1={n1}", "--n2=0.3,0.4,1",
                "--format", "json"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        rows.append(json.loads(out)[0])
    assert list(rows[0]) == list(rows[1])
    assert max(abs(rows[0][key] - rows[1][key]) for key in rows[0]) <= tol
    assert rows[1]["abs_I"] > 1e-3  # a frame whose correlators do not all vanish


def test_unwritable_output_exits_2(capsys, tmp_path):
    argv = ["eval", "--state", "ghz", "--n1", "1,0,0", "--n2", "0,1,0"]
    code, out, err = run(capsys, argv + ["--output", str(tmp_path / "missing" / "out.txt")])
    assert code == 2 and out == ""
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("payload", MALFORMED_STATE_FILES.values(), ids=MALFORMED_STATE_FILES)
def test_malformed_state_file_exits_2(capsys, tmp_path, payload):
    # a line break in the name, which some errors echo
    path = tmp_path / "bad\n.json"
    path.write_bytes(payload)
    for argv in (
        ["eval", "--state-file", str(path), "--n1", "1,0,0", "--n2", "0,1,0"],
        ["qudit", "--d", "2", "--state", str(path)],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert "Traceback" not in err
        assert err.startswith("error: --state") and err.count("\n") == 1


def test_optimize_w(capsys):
    code, out, _ = run(
        capsys,
        ["optimize", "--state", "w", "--restarts", "60", "--seed", "42", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc[0]["e_ghz"] - 35 / 54) < 1e-6


def test_optimize_product(capsys):
    code, out, _ = run(
        capsys, ["optimize", "--state", "product", "--restarts", "30", "--seed", "1"]
    )
    assert code == 0
    assert "E_GHZ   = 0.5" in out


def test_scan_mu_csv(capsys):
    code, out, _ = run(capsys, ["scan-mu", "--steps", "5", "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 5
    for row in rows:
        assert abs(float(row["closed_form"]) - float(row["direct"])) < 1e-12
    assert abs(float(rows[-1]["closed_form"]) - 2.0) < 1e-12
    assert abs(float(rows[2]["closed_form"]) - 0.625) < 1e-12


def test_scan_mu_states_are_exact(capsys, monkeypatch):
    # every state is cos(b)|000> + sin(b)|111>: no weight left over lands on |100>
    built, make_acin = [], ghzmeter.states.make_acin

    def spy(params):
        built.append(params)
        return make_acin(params)

    monkeypatch.setattr(ghzmeter.states, "make_acin", spy)
    code, out, _ = run(capsys, ["scan-mu", "--steps", "51", "--format", "json"])
    assert code == 0 and len(built) == len(json.loads(out)) == 51
    for params in built:
        assert (params.lambda1, params.lambda2, params.lambda3, params.phi) == (0.0, 0.0, 0.0, 0.0)


def test_scan_mu_one_step_exits_2(capsys):
    assert run(capsys, ["scan-mu", "--steps", "1"]) == (2, "", "error: --steps must be at least 2\n")


def test_bench_states(capsys, tmp_path):
    out_path = tmp_path / "bench.csv"
    code = main(
        ["bench", "--restarts", "40", "--seed", "0", "--format", "csv", "--output", str(out_path)]
    )
    assert code == 0
    with out_path.open() as fh:
        rows = {r["state"]: float(r["sup_abs_I"]) for r in csv.DictReader(fh)}
    assert abs(rows["ghz"] - 2.0) < 1e-6
    assert abs(rows["w"] - 35 / 27) < 1e-6
    assert abs(rows["bisep"] - 1.0) < 1e-6
    assert abs(rows["product"] - 1.0) < 1e-6


def test_random_samples(capsys):
    code, out, _ = run(
        capsys, ["random", "--samples", "10", "--restarts", "10", "--seed", "3", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)[0]
    assert doc["max"] < 2.0
    assert doc["samples"] == 10


def test_random_near_the_bound_warns_and_exits_1(capsys, monkeypatch):
    # no affordable search comes within 1e-3 of 2 on a Haar sample, so a stub stands in
    def near_bound(state, restarts, seed):
        return SimpleNamespace(best_value=1.9995)

    monkeypatch.setattr(ghzmeter.optimize, "maximize_I", near_bound)
    code, out, err = run(
        capsys, ["random", "--samples", "2", "--restarts", "1", "--seed", "0", "--format", "json"]
    )
    assert code == 1
    assert json.loads(out)[0]["max"] == 1.9995
    assert err.startswith("warning: ") and err.count("\n") == 1


def test_random_determinism(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        assert (
            main(
                ["random", "--samples", "5", "--restarts", "8", "--seed", "11",
                 "--format", "json", "--output", str(p)]
            )
            == 0
        )
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_qudit_d2_reduction(capsys):
    code, out, _ = run(
        capsys,
        ["qudit", "--d", "2", "--g1", "1,0", "--g2", "0,1", "--state", "ghz", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)[0]
    assert abs(doc["abs_Id"] - 1.0) < 1e-12
    assert doc["symplectic"] == 1


def test_qudit_scan(capsys):
    code, out, _ = run(capsys, ["qudit", "--d", "3", "--state", "ghz", "--scan", "--format", "json"])
    assert code == 0
    doc = json.loads(out)[0]
    assert abs(doc["max_abs_Id"] - 1.0) < 1e-9


def test_qudit_mixed_state_gives_zero(capsys):
    code, out, _ = run(capsys, ["qudit", "--d", "3", "--state", "mixed", "--format", "json"])
    assert code == 0
    assert json.loads(out)[0]["abs_Id"] == 0.0


def test_qudit_dimension_must_match_the_state_file(capsys, tmp_path):
    from ghzmeter import make_w, save_state

    path = tmp_path / "w.json"
    save_state(make_w(), path)
    line = "error: state has local_dim 2, expected 3\n"
    assert run(capsys, ["qudit", "--d", "3", "--state", str(path)]) == (2, "", line)


def test_qudit_invalid_generators(capsys):
    code, _, err = run(capsys, ["qudit", "--d", "3", "--g1", "9,0", "--g2", "0,1"])
    assert code == 2
    assert "generator" in err


# CSV header and JSON keys of every command, in order, and the lines of its table:
# the head's, then the row template's for each row
COLUMNS = {
    "eval": (
        ["eval", "--state", "w", "--n1", "0,0,1", "--n2", "1,0,0"],
        ["e1", "e2", "e3", "e4", "I", "abs_I"],
        (1, 2),
    ),
    "optimize": (
        ["optimize", "--state", "w", "--restarts", "2", "--seed", "0"],
        ["best_value", "e_ghz", "n1x", "n1y", "n1z", "n2x", "n2y", "n2z",
         "restarts", "converged_restarts", "iterations_total", "seed"],
        (0, 5),
    ),
    "scan-mu": (["scan-mu", "--steps", "3"], ["mu", "closed_form", "direct"], (1, 1)),
    "bench": (
        ["bench", "--restarts", "2", "--seed", "0"],
        ["state", "sup_abs_I", "e_ghz", "restarts", "seed"],
        (1, 1),
    ),
    "random": (
        ["random", "--samples", "2", "--restarts", "2", "--seed", "0"],
        ["samples", "restarts", "seed", "min", "q1", "median", "q3", "max"],
        (0, 2),
    ),
    "qudit": (
        ["qudit"],
        ["d", "g1p", "g1q", "g2p", "g2q", "symplectic", "Id_re", "Id_im", "abs_Id", "residual"],
        (0, 3),
    ),
    "qudit-scan": (
        ["qudit", "--scan"],
        ["d", "g1p", "g1q", "g2p", "g2q", "symplectic", "max_abs_Id"],
        (0, 2),
    ),
}


@pytest.mark.parametrize("argv, header, table", COLUMNS.values(), ids=COLUMNS)
def test_output_columns(capsys, argv, header, table):
    code, out, _ = run(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert next(csv.reader(out.splitlines())) == header
    code, out, _ = run(capsys, argv + ["--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows and all(list(row) == header for row in rows)
    code, out, _ = run(capsys, argv + ["--format", "table"])
    head_lines, row_lines = table
    assert code == 0 and out.endswith("\n")
    assert out.count("\n") == head_lines + row_lines * len(rows)


# tables whose printed digits are exact on any platform, byte for byte
TABLES = {
    "eval": (
        ["eval", "--state", "ghz", "--n1", "1,0,0", "--n2", "0,1,0"],
        "n1 = [1. 0. 0.]  n2 = [0. 1. 0.]  (n1.n2 = 0)\n"
        "e1 = -1  e2 = -1  e3 = -1  e4 = 1\n"
        "I  = 2   |I| = 2\n",
    ),
    "scan-mu": (
        ["scan-mu", "--steps", "3"],
        "        mu    closed_form         direct\n"
        "  0.000000    0.000000000    0.000000000\n"
        "  0.250000    0.625000000    0.625000000\n"
        "  0.500000    2.000000000    2.000000000\n",
    ),
    "bench": (
        ["bench", "--restarts", "30", "--seed", "0"],
        "   state    sup_abs_I      e_ghz\n"
        "     ghz     2.000000   1.000000\n"
        "       w     1.296296   0.648148\n"
        "   bisep     1.000000   0.500000\n"
        " product     1.000000   0.500000\n",
    ),
    "qudit-scan": (
        ["qudit", "--d", "3", "--state", "ghz", "--scan"],
        "d = 3: exhaustive scan over non-commuting generator pairs\n"
        "max |I_d| = 1 at g1 = (1, 1), g2 = (0, 1) (symplectic 1)\n",
    ),
}


@pytest.mark.parametrize("argv, table", TABLES.values(), ids=TABLES)
def test_table_layout(capsys, argv, table):
    assert run(capsys, argv) == (0, table, "")


def test_state_file_round_trip(capsys, tmp_path):
    from ghzmeter import make_w, save_state

    path = tmp_path / "w.json"
    save_state(make_w(), path)
    code, out, _ = run(
        capsys,
        ["eval", "--state-file", str(path), "--n1", "0,0,1", "--n2", "1,0,0"],
    )
    assert code == 0
    assert "-1.2962963" in out


def test_eval_matches_operator_oracle(capsys, tmp_path):
    from ghzmeter import OrthoFrame, haar_random_pure, load_state, save_state

    rng = np.random.default_rng(7)
    for st in (haar_random_pure(2, rng), random_mixed_state(rng)):
        path = tmp_path / f"{st.kind}.json"
        save_state(st, path)
        st = load_state(path)
        frame = OrthoFrame(random_direction(rng), random_direction(rng))
        n1, n2 = (",".join(repr(float(x)) for x in n) for n in (frame.n1, frame.n2))
        code, out, _ = run(
            capsys,
            ["eval", "--state-file", str(path), f"--n1={n1}", f"--n2={n2}",
             "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)[0]
        expected = [real_expectation(st, o) for o in operator_quad(frame)]
        got = [doc[key] for key in ("e1", "e2", "e3", "e4")]
        assert np.max(np.abs(np.subtract(got, expected))) < 1e-12
        e1, e2, e3, e4 = expected
        assert abs(doc["I"] - (e4 - e1 * e2 * e3)) < 1e-12


def test_seed_env_fallback(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("GHZMETER_SEED", "17")
    p1, p2 = tmp_path / "env.json", tmp_path / "flag.json"
    assert main(["random", "--samples", "3", "--restarts", "5", "--format", "json",
                 "--output", str(p1)]) == 0
    assert main(["random", "--samples", "3", "--restarts", "5", "--seed", "17",
                 "--format", "json", "--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("GHZMETER_SEED", "abc")
    code, _, err = run(capsys, ["optimize", "--state", "ghz", "--restarts", "1"])
    assert code == 2
    assert "GHZMETER_SEED" in err


@pytest.mark.parametrize(
    "argv, env",
    [
        (["optimize", "--state", "w", "--restarts", "1", "--seed", "-1"], None),
        (["bench", "--restarts", "1", "--seed", "-1"], None),
        (["random", "--samples", "1", "--restarts", "1", "--seed", "-1"], None),
        (["optimize", "--state", "w", "--restarts", "1"], "-3"),
        (["random", "--samples", "1", "--restarts", "1"], "-3"),
    ],
)
def test_negative_seed_exits_2_naming_seed(capsys, monkeypatch, argv, env):
    if env is None:
        monkeypatch.delenv("GHZMETER_SEED", raising=False)
    else:
        monkeypatch.setenv("GHZMETER_SEED", env)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error: seed ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 10.9 GiB"), "error: Unable to allocate 10.9 GiB\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
)
def test_memory_error_exits_2_with_one_line(capsys, monkeypatch, error, line):
    # no qudit input a test can afford runs out of memory, so a stub raises in its place
    def too_large(pair):
        raise error

    monkeypatch.setattr(ghzmeter.functional, "qudit_product_residual", too_large)
    assert run(capsys, ["qudit", "--d", "3"]) == (2, "", line)


def test_qudit_negative_d_exits_2_naming_local_dimension(capsys):
    line = "error: local dimension must be an integer in [2, 2097151]\n"
    assert run(capsys, ["qudit", "--d", "-3"]) == (2, "", line)


def test_qudit_d12_forms_no_d3_by_d3_array(capsys):
    # one 1728 x 1728 complex operator is 48 MB; the whole command stays under 1 MiB
    tracemalloc.start()
    try:
        code = main(["qudit", "--d", "12", "--format", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 2**20
    (doc,) = json.loads(capsys.readouterr().out)
    assert np.isfinite(doc["residual"]) and doc["abs_Id"] <= 2 + 1e-9


def test_parser_carries_nothing_between_calls(capsys, monkeypatch):
    monkeypatch.delenv("GHZMETER_SEED", raising=False)
    monkeypatch.setattr(cli, "build_parser", None)  # main parses with the parser built at import
    argv = ["optimize", "--state", "ghz", "--restarts", "1", "--format", "json"]
    _, out, _ = run(capsys, argv + ["--seed", "17"])
    assert json.loads(out)[0]["seed"] == 17
    _, out, _ = run(capsys, argv)
    assert json.loads(out)[0]["seed"] == 0


def test_import_leaves_scipy_out():
    code = "import sys, ghzmeter, ghzmeter.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    done = run_python("-c", code, check=True)
    assert done.stdout == "[]\n"
