"""End-to-end acceptance checks, one test per criterion, each timed and
reported with a PASS/FAIL line (run with -s to see them live)."""

import itertools
import time

import numpy as np
import pytest

from ghzmeter import (
    AcinParams,
    OrthoFrame,
    QuditGenPair,
    acin_closed_form,
    e_ghz,
    eval_I,
    eval_Id,
    ghz_basis,
    lhv_oracle,
    lu_invariance_check,
    make_acin,
    make_biseparable,
    make_ghz,
    make_product,
    make_w,
    maximize_I,
    mermin_M3,
    scan_qudit_pairs,
    verify_identities,
    w_analytic_max,
)
from ghzmeter.cli import main as cli_main
from ghzmeter.correlators import correlators_from_tensor, pauli_tensor
from ghzmeter.optimize import maximize_mermin
from ghzmeter.states import haar_random_pure

from conftest import random_direction, random_mixed_state, random_orthogonal_frame

FRAME_XY = OrthoFrame([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
FRAME_ZX = OrthoFrame([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def report(num, label, elapsed, budget):
    print(f"PASS  criterion {num:2d}: {label}  ({elapsed:.3f}s, budget {budget:g}s)")
    assert elapsed < budget, f"criterion {num} exceeded runtime budget"


def test_criterion_01_ghz_paradox_value():
    eval_I(make_ghz(2), FRAME_XY)  # warm up
    start = time.perf_counter()
    value = eval_I(make_ghz(2), FRAME_XY)
    elapsed = time.perf_counter() - start
    assert abs(value - 2.0) < 1e-12
    report(1, "I(GHZ, (x,y)) = 2", elapsed, 1e-3)


def test_criterion_02_lhv_oracle():
    lhv_oracle()  # warm up
    start = time.perf_counter()
    attained = lhv_oracle()
    elapsed = time.perf_counter() - start
    assert attained == {0}
    report(2, "deterministic LHV models force I = 0", elapsed, 1e-3)


def test_criterion_03_operator_identities():
    rng = np.random.default_rng(100)
    frames = [
        OrthoFrame(random_direction(rng), random_direction(rng)) for _ in range(1000)
    ]
    ortho_frames = [random_orthogonal_frame(rng) for _ in range(1000)]
    verify_identities(frames[0])  # warm up
    start = time.perf_counter()
    for frame in frames:
        rep = verify_identities(frame)
        assert rep.commutator_residual < 1e-12
        assert rep.triple_product_residual < 1e-12
        assert rep.sandwich_residual < 1e-12
    for frame in ortho_frames:
        rep = verify_identities(frame)
        assert rep.stabiliser_residual < 1e-12
    elapsed = time.perf_counter() - start
    report(3, "operator identities on 1000 + 1000 random frames", elapsed, 1.0)


def test_criterion_04_acin_closed_form():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        lam = np.abs(rng.standard_normal(5))
        lam /= np.linalg.norm(lam)
        params = AcinParams(*lam, phi=rng.uniform(0, np.pi))
        direct = eval_I(make_acin(params), FRAME_XY)
        assert abs(acin_closed_form(params) - direct) < 1e-12
    # independence from lambda1..lambda3, phi at fixed mu
    mu = 0.17
    reference = None
    for _ in range(50):
        lam0 = rng.uniform(np.sqrt(mu), 0.9)
        lam4 = mu / lam0
        rest = np.abs(rng.standard_normal(3))
        rest *= np.sqrt(max(0.0, 1 - lam0**2 - lam4**2)) / np.linalg.norm(rest)
        params = AcinParams(lam0, *rest, lam4, phi=rng.uniform(0, np.pi))
        value = eval_I(make_acin(params), FRAME_XY)
        reference = value if reference is None else reference
        assert abs(value - reference) < 1e-12
    elapsed = time.perf_counter() - start
    report(4, "closed form matches direct evaluation on 1000 draws", elapsed, 1.0)


def test_criterion_05_w_state_values():
    start = time.perf_counter()
    w = make_w()
    assert abs(eval_I(w, FRAME_XY)) < 1e-12
    assert abs(eval_I(w, FRAME_ZX) + 35 / 27) < 1e-12
    result = maximize_I(w, restarts=300, seed=0)
    assert abs(result.best_value - 35 / 27) < 1e-6
    assert abs(result.e_ghz - 35 / 54) < 1e-6
    analytic, _, _ = w_analytic_max()
    assert abs(analytic - 35 / 27) < 1e-9
    elapsed = time.perf_counter() - start
    report(5, "W-state values incl. 300-restart optimum 35/27", elapsed, 30.0)


def test_criterion_06_ghz_orbit_saturation():
    start = time.perf_counter()
    for key, state in ghz_basis():
        assert abs(abs(eval_I(state, FRAME_XY)) - 2.0) < 1e-12, key
        assert abs(e_ghz(state, restarts=40, seed=1) - 1.0) < 1e-6, key
    elapsed = time.perf_counter() - start
    report(6, "all 8 GHZ-basis states saturate |I| = 2, E = 1", elapsed, 120.0)


def test_criterion_07_biseparable_product_bounds():
    start = time.perf_counter()
    bisep = make_biseparable("A|BC", [1.0, 0.0], PHI_PLUS)
    assert abs(maximize_I(bisep, restarts=60, seed=0).best_value - 1.0) < 1e-6
    product = make_product([1, 0], [1, 0], [1, 0])
    assert abs(maximize_I(product, restarts=60, seed=0).best_value - 1.0) < 1e-6

    rng = np.random.default_rng(102)

    def random_qubit():
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        return v / np.linalg.norm(v)

    for _ in range(50):
        st = make_product(random_qubit(), random_qubit(), random_qubit())
        assert e_ghz(st, restarts=20, seed=7) <= 0.5 + 1e-6
    for _ in range(50):
        pair = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        st = make_biseparable("A|BC", random_qubit(), pair / np.linalg.norm(pair))
        assert e_ghz(st, restarts=20, seed=7) <= 0.5 + 1e-6
    elapsed = time.perf_counter() - start
    report(7, "biseparable/product states stay at E <= 1/2", elapsed, 600.0)


def test_criterion_08_universal_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(10_000):
        st = haar_random_pure(2, rng)
        tensor = pauli_tensor(st)
        e = correlators_from_tensor(tensor, random_direction(rng), random_direction(rng))
        assert abs(e.e4 - e.e1 * e.e2 * e.e3) <= 2 + 1e-9
    for seed in range(100):
        st = haar_random_pure(2, seed + 10_000)
        assert maximize_I(st, restarts=30, seed=seed).best_value < 2 - 1e-3
    elapsed = time.perf_counter() - start
    report(8, "|I| <= 2 universally; Haar states stay below saturation", elapsed, 900.0)


def test_criterion_09_lu_invariance():
    start = time.perf_counter()
    for name, state in (
        ("ghz", make_ghz(2)),
        ("w", make_w()),
        ("product", make_product([1, 0], [1, 0], [1, 0])),
        ("mixed", random_mixed_state(np.random.default_rng(0))),
    ):
        _, _, deviation = lu_invariance_check(state, seed=5, trials=20, restarts=60)
        assert deviation < 1e-4, name
    elapsed = time.perf_counter() - start
    report(9, "E invariant across 20 local-unitary orbits each", elapsed, 600.0)


def test_criterion_10_mermin_comparison():
    start = time.perf_counter()
    assert abs(mermin_M3(make_ghz(2), FRAME_XY) - 4.0) < 1e-12
    best = maximize_mermin(make_w(), restarts=60, seed=0)
    assert abs(best - 3.046) < 1e-2
    elapsed = time.perf_counter() - start
    report(10, "optimized M3 on W reaches ~3.046; GHZ gives 4", elapsed, 30.0)


def test_criterion_11_qudit_reduction():
    start = time.perf_counter()
    frame_xz = OrthoFrame([1, 0, 0], [0, 0, 1])
    pair = QuditGenPair(2, (1, 0), (0, 1))
    for seed in [0, 1, 2]:
        st = haar_random_pure(2, seed)
        assert abs(eval_Id(st, pair) - eval_I(st, frame_xz)) < 1e-12
    assert abs(abs(eval_Id(make_ghz(2), pair)) - abs(eval_I(make_ghz(2), frame_xz))) < 1e-12

    for seed in range(10):
        st = haar_random_pure(3, seed)
        for g1 in itertools.product(range(3), repeat=2):
            for g2 in itertools.product(range(3), repeat=2):
                assert abs(eval_Id(st, QuditGenPair(3, g1, g2))) <= 2 + 1e-9

    best, best_pair, _ = scan_qudit_pairs(make_ghz(3))
    assert best <= 2 + 1e-9  # saturation at d = 3 is an open question; recorded only
    elapsed = time.perf_counter() - start
    report(
        11,
        f"qudit functional reduces at d=2; d=3 GHZ scan max |I_3| = {best:.6f}",
        elapsed,
        60.0,
    )


def test_criterion_12_cli_determinism(tmp_path):
    start = time.perf_counter()
    for cmd, name in (
        (["optimize", "--state", "w", "--restarts", "25", "--seed", "42",
          "--format", "json"], "opt"),
        (["random", "--samples", "10", "--restarts", "10", "--seed", "42",
          "--format", "csv"], "rand"),
    ):
        outputs = []
        for run in range(2):
            path = tmp_path / f"{name}{run}.out"
            assert cli_main(cmd + ["--output", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
    elapsed = time.perf_counter() - start
    report(12, "cmd_optimize / cmd_random are bit-reproducible", elapsed, 120.0)
