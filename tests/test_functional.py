import itertools
import tracemalloc

import numpy as np
import pytest

from ghzmeter import (
    AcinParams,
    OrthoFrame,
    QuditGenPair,
    acin_closed_form,
    acin_correlators,
    closed_form_from_mu,
    eval_I,
    eval_Id,
    lhv_oracle,
    make_acin,
    make_ghz,
    make_w,
    maximally_mixed,
    mermin_M3,
    scan_qudit_pairs,
    schmidt_subfamily_I,
    symplectic_form,
    tau3_relation,
    w_reduced_I,
)
from ghzmeter.functional import qudit_product_residual
from ghzmeter.states import StateError, haar_random_pure

from conftest import (
    operator_Id,
    operator_residual,
    random_direction,
    random_mixed_state,
    random_orthogonal_frame,
    real_expectation,
    triple_observable,
)


def random_acin(rng):
    lam = np.abs(rng.standard_normal(5))
    lam /= np.linalg.norm(lam)
    return AcinParams(*lam, phi=rng.uniform(0, np.pi))


def test_eval_I_ghz(frame_xy):
    assert abs(eval_I(make_ghz(2), frame_xy) - 2.0) < 1e-12


def test_eval_I_w(frame_xy, frame_zx):
    assert abs(eval_I(make_w(), frame_xy)) < 1e-12
    assert abs(eval_I(make_w(), frame_zx) + 35 / 27) < 1e-12


def test_eval_I_rejects_qutrits(frame_xy):
    with pytest.raises(StateError):
        eval_I(make_ghz(3), frame_xy)


def test_lhv_oracle_attains_only_zero():
    assert lhv_oracle() == {0}
    # the product of the three mixed terms equals A1*B1*C1 for all 64 assignments
    for a1, a2, b1, b2, c1, c2 in itertools.product((-1, 1), repeat=6):
        assert (a1 * b2 * c2) * (a2 * b1 * c2) * (a2 * b2 * c1) == a1 * b1 * c1


def test_lhv_all_plus_assignment():
    # A = B = C = +1 at both settings: I = 1 - 1 = 0
    assert 1 * 1 * 1 - (1 * 1 * 1) ** 3 == 0


def test_acin_closed_form_values():
    ghz_params = AcinParams(1 / np.sqrt(2), 0, 0, 0, 1 / np.sqrt(2))
    assert abs(acin_closed_form(ghz_params) - 2.0) < 1e-12
    assert closed_form_from_mu(0.0) == 0.0
    assert abs(closed_form_from_mu(0.3) - 0.816) < 1e-12


def test_acin_closed_form_matches_direct(rng, frame_xy):
    for _ in range(200):
        p = random_acin(rng)
        direct = eval_I(make_acin(p), frame_xy)
        assert abs(acin_closed_form(p) - direct) < 1e-12


def test_acin_correlators_values_and_independence(rng):
    ghz_params = AcinParams(1 / np.sqrt(2), 0, 0, 0, 1 / np.sqrt(2))
    assert np.allclose(acin_correlators(ghz_params), (1, -1, -1, -1), atol=1e-12)

    x, y = [1, 0, 0], [0, 1, 0]
    obs = [
        triple_observable(x, x, x),
        triple_observable(x, y, y),
        triple_observable(y, x, y),
        triple_observable(y, y, x),
    ]
    mu = 0.21
    reference = None
    for _ in range(20):
        # vary lambda1..lambda3 and phi at fixed mu = lambda0*lambda4
        lam0 = rng.uniform(np.sqrt(mu), 0.9)
        lam4 = mu / lam0
        rest = np.abs(rng.standard_normal(3))
        rest *= np.sqrt(max(0.0, 1 - lam0**2 - lam4**2)) / np.linalg.norm(rest)
        p = AcinParams(lam0, *rest, lam4, phi=rng.uniform(0, np.pi))
        pred = acin_correlators(p)
        if reference is None:
            reference = pred
        assert np.allclose(pred, reference, atol=1e-12)
        st = make_acin(p)
        measured = [real_expectation(st, o) for o in obs]
        assert np.allclose(measured, pred, atol=1e-12)


def test_schmidt_subfamily(frame_xy):
    assert abs(schmidt_subfamily_I(np.pi / 4) - 2.0) < 1e-12
    assert schmidt_subfamily_I(0.0) == 0.0
    s = np.sqrt(2) / 2
    assert abs(schmidt_subfamily_I(np.pi / 8) - (s**3 + s)) < 1e-12
    for beta in np.linspace(0, np.pi / 2, 13):
        st = make_acin(AcinParams(np.cos(beta), 0, 0, 0, np.sin(beta)))
        assert abs(schmidt_subfamily_I(beta) - eval_I(st, frame_xy)) < 1e-12


def test_tau3_relation():
    assert abs(tau3_relation(1.0) - 2.0) < 1e-12
    assert tau3_relation(0.0) == 0.0
    for mu in np.linspace(0, 0.5, 101):
        assert abs(tau3_relation(4 * mu**2) - closed_form_from_mu(mu)) < 1e-12
    with pytest.raises(ValueError):
        tau3_relation(1.5)


def test_w_reduced_endpoints():
    assert abs(w_reduced_I(1.0, 0.0) + 35 / 27) < 1e-12
    assert w_reduced_I(0.0, 0.7) == 0.0
    with pytest.raises(ValueError):
        w_reduced_I(0.9, 0.9)
    with pytest.raises(ValueError):
        w_reduced_I(np.nan, 0.0)


def test_w_reduced_secondary_branch():
    # at b3^2 = 2/9 the extremal |I| over feasible a3 is 4*sqrt(2)/9
    b3 = np.sqrt(2 / 9)
    grid = np.linspace(-np.sqrt(7 / 9), np.sqrt(7 / 9), 20001)
    best = np.max(np.abs([w_reduced_I(a3, b3) for a3 in grid]))
    assert abs(best - 4 * np.sqrt(2) / 9) < 1e-6


def test_w_reduced_matches_direct(rng):
    w = make_w()
    for _ in range(200):
        frame = random_orthogonal_frame(rng)
        a3, b3 = frame.n1[2], frame.n2[2]
        assert abs(w_reduced_I(a3, b3) - eval_I(w, frame)) < 1e-12


def test_mermin_values(frame_xy):
    assert abs(mermin_M3(make_ghz(2), frame_xy) - 4.0) < 1e-12
    assert abs(mermin_M3(maximally_mixed(2), frame_xy)) < 1e-12


def test_universal_bound_sampled(rng):
    for _ in range(500):
        st = haar_random_pure(2, rng)
        frame = OrthoFrame(random_direction(rng), random_direction(rng))
        assert abs(eval_I(st, frame)) <= 2 + 1e-9


def test_gen_pair_validation():
    pair = QuditGenPair(3, (1, 0), (0, 1))
    assert pair.symplectic == 1
    with pytest.raises(ValueError):
        QuditGenPair(3, (3, 0), (0, 1))
    with pytest.raises(ValueError):
        QuditGenPair(1, (0, 0), (0, 0))


@pytest.mark.parametrize(
    "d, g1, g2",
    [(2.5, (1, 0), (0, 1)), (3.0, (1, 0), (0, 1)), (3, (1, 0), (0, 1.5)), (3, (1.0, 0), (0, 1))],
)
def test_gen_pair_rejects_non_integers(d, g1, g2):
    with pytest.raises(ValueError):
        QuditGenPair(d, g1, g2)


def test_eval_Id_reduces_to_qubit_functional():
    # d=2 with g1=(1,0), g2=(0,1) is the qubit functional at the (x, z) frame
    frame_xz = OrthoFrame([1, 0, 0], [0, 0, 1])
    pair = QuditGenPair(2, (1, 0), (0, 1))
    for seed in range(5):
        st = haar_random_pure(2, seed)
        value = eval_Id(st, pair)
        assert abs(value.imag) < 1e-12
        assert abs(value.real - eval_I(st, frame_xz)) < 1e-12


def test_eval_Id_maximally_mixed():
    pair = QuditGenPair(3, (1, 0), (0, 1))
    assert abs(eval_Id(maximally_mixed(3), pair)) < 1e-12


def test_eval_Id_dimension_mismatch():
    with pytest.raises(StateError):
        eval_Id(make_ghz(2), QuditGenPair(3, (1, 0), (0, 1)))


def test_eval_Id_bounded_random_qutrit_states():
    for seed in range(10):
        st = haar_random_pure(3, seed)
        for g1 in itertools.product(range(3), repeat=2):
            for g2 in itertools.product(range(3), repeat=2):
                pair = QuditGenPair(3, g1, g2)
                assert abs(eval_Id(st, pair)) <= 2 + 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_eval_Id_matches_operator_oracle(rng, d, kind):
    state = haar_random_pure(d, rng) if kind == "pure" else random_mixed_state(rng, d)
    labels = list(itertools.product(range(d), repeat=2))
    for g1, g2 in itertools.product(labels, repeat=2):
        if symplectic_form(d, g1, g2) == 0:
            continue
        pair = QuditGenPair(d, g1, g2)
        assert abs(eval_Id(state, pair) - operator_Id(state, pair)) < 1e-12


def test_eval_Id_forms_no_d3_by_d3_array():
    # one 1728 x 1728 complex operator is 48 MB at d = 12; eval_Id's largest
    # arrays hold (2d)**3 = 13824 entries (221 KB), so its peak stays under 1 MB
    state, pair = make_ghz(12), QuditGenPair(12, (1, 0), (0, 1))
    tracemalloc.start()
    try:
        value = eval_Id(state, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.isfinite(value) and abs(value) <= 2 + 1e-9


def test_qudit_product_residual_forms_no_d3_by_d3_array():
    # 2*g2 != 0 mod 12, so each site keeps 2d = 24 entries: the largest arrays
    # hold (2d)**3 = 13824 entries (221 KB), against 48 MB per 1728 x 1728 operator
    pair = QuditGenPair(12, (1, 0), (1, 1))
    tracemalloc.start()
    try:
        residual = qudit_product_residual(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.isfinite(residual) and residual <= 2 + 1e-9


def test_qutrit_ghz_scan_records_maximum():
    best, pair, results = scan_qudit_pairs(make_ghz(3))
    # 8 nonzero g1 choices, each with 9 - 3 = 6 non-commuting partners
    assert len(results) == 48
    assert best <= 2 + 1e-9
    # frozen from this exhaustive enumeration: the scan tops out at 1
    assert abs(best - 1.0) < 1e-12
    assert pair.symplectic != 0


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize(
    "make_state", [make_ghz, lambda d: haar_random_pure(d, 7)], ids=["ghz", "haar"]
)
def test_scan_equals_eval_Id_on_every_pair(d, make_state):
    state = make_state(d)
    best, best_pair, results = scan_qudit_pairs(state)
    labels = list(itertools.product(range(d), repeat=2))
    pairs = [QuditGenPair(d, g1, g2) for g1 in labels for g2 in labels]
    assert list(results) == [pair for pair in pairs if pair.symplectic]
    assert all(results[pair] == eval_Id(state, pair) for pair in results)
    assert best == abs(results[best_pair]) == max(abs(v) for v in results.values())


def test_qudit_product_residual_d2():
    # for d = 2 the actual triple-product phase is omega^{-s}, not omega^{2s};
    # the residual quantifies the stated identity rather than assuming it
    pair = QuditGenPair(2, (1, 0), (0, 1))
    assert abs(qudit_product_residual(pair) - 2.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_qudit_product_residual_matches_operator_oracle(d):
    # every label pair, commuting ones and zero labels included
    labels = list(itertools.product(range(d), repeat=2))
    for g1, g2 in itertools.product(labels, repeat=2):
        pair = QuditGenPair(d, g1, g2)
        assert abs(qudit_product_residual(pair) - operator_residual(pair)) < 1e-12
