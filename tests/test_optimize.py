import json
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

import ghzmeter
from ghzmeter import (
    OrthoFrame,
    QuantumState,
    convexity_probe,
    e_ghz,
    eval_I,
    lu_invariance_check,
    make_ghz,
    make_ghz_basis_element,
    make_product,
    make_w,
    maximally_mixed,
    maximize_I,
    w_analytic_max,
)
from ghzmeter.correlators import (
    MONOMIALS,
    SCORE_TABLE,
    SLOTS,
    CorrelatorQuad,
    correlators_from_monomials,
    correlators_from_tensor,
    pauli_tensor,
    tensor_at_columns,
)
from ghzmeter.functional import I_of, M3_of
from ghzmeter.optimize import (
    CONVERGENCE_ATOL,
    FRAME_COLUMNS,
    GRID_CELLS,
    LADDER,
    MERMIN_COLUMNS,
    SAMPLES,
    TWIN_RADIUS,
    _best_rows,
    _derivatives,
    _directions,
    _ladder_steps,
    _retire_twins,
    _search,
    _starts,
    haar_rotations,
    maximize_mermin,
    rotation_from_vector,
)
from ghzmeter.states import apply_local_unitaries, haar_random_pure, haar_random_unitary

from conftest import random_mixed_state, random_orthogonal_frame, run_python


def test_rotation_from_vector_is_rotation(rng):
    # the polish tries steps of up to 3e4 rad: 7% of its trial steps on the
    # sup-survey states of seeds 1-3 exceed 1 rad and 4% exceed pi.  Each
    # entry of R - I is a sum of up to four products of unit-quaternion
    # components, each a few eps off, so at long angles RR^T - I, det R - 1
    # and R a - a stay within 16 eps
    eps = np.finfo(float).eps
    for largest, atol in ((1.0, 1e-15), (1e5, 16 * eps)):
        axes = rng.standard_normal((200, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        r = rotation_from_vector(rng.uniform(-largest, largest, (200, 1)) * axes)
        assert np.max(np.abs(r @ r.swapaxes(1, 2) - np.eye(3))) < atol
        assert np.max(np.abs(np.linalg.det(r) - 1)) < atol
        assert np.max(np.abs(np.einsum("nij,nj->ni", r, axes) - axes)) < atol
    assert np.array_equal(rotation_from_vector(np.zeros(3)), np.eye(3))


def assert_rotations(r, atol):
    assert np.max(np.abs(r @ r.swapaxes(-1, -2) - np.eye(3))) < atol
    assert np.max(np.abs(np.linalg.det(r) - 1)) < atol


@pytest.mark.parametrize("shape", [(), (50, 2)])
def test_haar_rotations_are_rotations(rng, shape):
    r = haar_rotations(rng, shape)
    assert r.shape == shape + (3, 3)
    # a normalised quaternion's |q| is a few eps off 1, and R R^T = |q|^4 I
    assert_rotations(r, 16 * np.finfo(float).eps)


# the rotations R diag(+-1, +-1, +-1) with det +1 that leave |I| unchanged
D2 = Rotation.from_matrix(
    [np.eye(3), np.diag([1.0, -1, -1]), np.diag([-1.0, 1, -1]), np.diag([-1.0, -1, 1])]
)


def rodrigues(rotations):
    """Rodrigues vectors r = v / w of rotations' quaternions (w, v)."""
    q = rotations.as_quat()  # scalar last
    return q[..., :3] / q[..., 3:]


def test_start_grid_holds_the_rodrigues_cube_cells():
    grid = _starts(FRAME_COLUMNS)[0][:, 0]
    assert grid.shape == (SAMPLES, 3, 3)
    assert_rotations(grid, 1e-15)
    # each rotation's Rodrigues vector is a distinct cell centre of the cube [-1, 1]^3
    cells = (rodrigues(Rotation.from_matrix(grid)) + 1) * GRID_CELLS / 2 - 0.5
    assert np.max(np.abs(cells - np.round(cells))) < 1e-12
    assert len(np.unique(np.round(cells), axis=0)) == SAMPLES
    assert cells.min() > -0.5 and cells.max() < GRID_CELLS - 0.5


def test_rodrigues_cube_covers_rotations_up_to_d2(rng):
    rotations = Rotation.random(20000, rng=rng)
    nearest = np.min([np.max(np.abs(rodrigues(rotations * d)), axis=1) for d in D2], axis=0)
    assert np.max(nearest) <= 1.0


def test_abs_I_is_invariant_under_d2(rng):
    tensor = pauli_tensor(random_mixed_state(rng))
    r = haar_rotations(rng, (100,))
    frames = [np.moveaxis((r @ d.as_matrix())[..., :2], -1, 0) for d in D2]
    values = [np.abs(I_of(correlators_from_tensor(tensor, *frame))) for frame in frames]
    assert np.max(np.abs(np.diff(values, axis=0))) < 1e-15


@pytest.mark.parametrize("make_state", [lambda rng: haar_random_pure(2, rng), random_mixed_state])
def test_abs_I_and_M3_are_unchanged_by_either_sign_flip_alone(rng, make_state):
    # each e_i holds n1 an odd and n2 an even number of times, so the polish's twin rule
    # may match directions up to the sign of each one
    tensor = pauli_tensor(make_state(rng))
    n1, n2 = np.moveaxis(haar_rotations(rng, (100,))[..., :2], -1, 0)
    for functional in (I_of, M3_of):
        value = np.abs(functional(correlators_from_tensor(tensor, n1, n2)))
        for a, b in ((-n1, n2), (n1, -n2)):
            flipped = np.abs(functional(correlators_from_tensor(tensor, a, b)))
            assert np.max(np.abs(flipped - value)) <= 1e-15


def test_rotated_tensor_moves_the_frame(rng):
    # I at (n1, n2) of T(R0., R0., R0.) is I at (R0 n1, R0 n2) of T
    tensor = pauli_tensor(random_mixed_state(rng))
    rotation = haar_rotations(rng)
    n1, n2 = np.moveaxis(haar_rotations(rng, (100,))[..., :2], -1, 0)
    moved = I_of(correlators_from_tensor(tensor_at_columns(tensor, rotation), n1, n2))
    direct = I_of(correlators_from_tensor(tensor, n1 @ rotation.T, n2 @ rotation.T))
    assert np.max(np.abs(moved - direct)) < 1e-15


@pytest.mark.parametrize("p", [1, 2])
def test_ladder_steps_solve_the_damped_systems(rng, p):
    m, k = 3 * p, 60
    a = rng.standard_normal((k, m, m))
    # indefinite, negative definite (a maximum) and positive definite Hessians
    hess = np.concatenate([a[:20] + a[:20].swapaxes(1, 2), -a[20:40] @ a[20:40].swapaxes(1, 2),
                           a[40:] @ a[40:].swapaxes(1, 2)])
    grad = rng.standard_normal((k, m))
    # solve's own rounding grows with the condition number of shift I - H, a few hundred here
    ladder = 10.0 ** rng.uniform(-0.5, 1.0, (k, 1)) * LADDER
    lam, vec = np.linalg.eigh(hess)
    steps, model = _ladder_steps((grad[:, None] @ vec)[:, 0], lam, ladder)
    for level in range(len(LADDER)):
        shift = np.maximum(lam[:, -1], 0.0) + ladder[:, level]
        want = np.linalg.solve(shift[:, None, None] * np.eye(m) - hess, grad[..., None])[..., 0]
        step = (vec @ steps[:, level, :, None])[..., 0]
        assert np.all(np.linalg.norm(step - want, axis=1) < 1e-12 * np.linalg.norm(want, axis=1))
        gain = np.sum(grad * step, axis=1) + 0.5 * np.einsum("ki,kij,kj->k", step, hess, step)
        assert np.all(np.abs(model[:, level] - gain) < 1e-12 * np.abs(gain))
    # the polish retires a row by the gain of its least damped step, the largest
    assert np.all(np.diff(model, axis=1) < 0)


@pytest.mark.parametrize(
    "functional, columns", [(I_of, FRAME_COLUMNS), (M3_of, MERMIN_COLUMNS)], ids=["I", "M3"]
)
@pytest.mark.parametrize(
    "make_state", [lambda rng: haar_random_pure(2, rng), random_mixed_state], ids=["haar", "mixed"]
)
def test_chart_derivatives_match_central_differences(rng, functional, columns, make_state):
    tensor = pauli_tensor(make_state(rng))
    p = 1 + max(r for r, _ in columns)
    rows, m, h = 16, 3 * p, 1e-4
    rotations = haar_rotations(rng, (rows, p))

    def f(offset):
        # the functional at R_r exp([offset_r]_x) of every row, the body chart
        moved = rotations @ rotation_from_vector(offset.reshape(p, 3))
        return functional(correlators_from_tensor(tensor, *(moved[:, r, :, c] for r, c in columns)))

    centre = f(np.zeros(m))
    # both signs, so the derivatives of |functional| flip with the value's sign
    assert (centre < 0).any() and (centre > 0).any()
    sign = np.sign(centre)
    moves = h * np.eye(m)
    grad = np.stack([f(a) - f(-a) for a in moves], axis=-1) / (2 * h)
    hess = np.array([[f(a + b) - f(a - b) - f(b - a) + f(-a - b) for b in moves] for a in moves])
    hess = np.moveaxis(hess, -1, 0) / (4 * h * h)
    value, g, H = _derivatives(tensor, functional, columns, rotations)
    assert np.max(np.abs(value - np.abs(centre))) < 1e-12
    assert np.max(np.abs(g - sign[:, None] * grad)) < 1e-6
    assert np.max(np.abs(H - sign[:, None, None] * hess)) < 1e-6


def monomials_of(n1, n2):
    """MONOMIALS of directions n1, n2 of shape (k, 3), one row per monomial, by their factors."""
    n = (n1, n2)
    return np.array([np.prod([n[d][:, c] for d, c in factors], axis=0) for factors in MONOMIALS])


def test_score_table_gives_the_cubic_contractions(rng):
    tensor = pauli_tensor(random_mixed_state(rng))
    n1, n2 = np.moveaxis(haar_rotations(rng, (200,))[..., :2], -1, 0)
    quad = (SCORE_TABLE @ tensor.reshape(27)).reshape(4, -1) @ monomials_of(n1, n2)
    contract = "abc,ka,kb,kc->k"
    want = [
        np.einsum(contract, tensor, n1, n2, n2),
        np.einsum(contract, tensor, n2, n1, n2),
        np.einsum(contract, tensor, n2, n2, n1),
        np.einsum(contract, tensor, n1, n1, n1),
    ]
    assert len(MONOMIALS) == 28
    assert np.max(np.abs(quad - want)) < 1e-15


def test_import_builds_no_start_table():
    # the starts, their shuffle and the chart tables are built on the first search,
    # so a process that never searches pays nothing, not even the import of numpy.random
    probe = (
        "import sys, ghzmeter, ghzmeter.cli; from ghzmeter import optimize as o; "
        "ghzmeter.eval_I(ghzmeter.make_w(), ghzmeter.OrthoFrame([1, 0, 0], [0, 1, 0])); "
        "sizes = lambda: [f.cache_info().currsize for f in (o._starts, o._chart_table)]; "
        "print(*sizes(), 'numpy.random' in sys.modules); "
        "ghzmeter.maximize_I(ghzmeter.make_w(), 1); "
        "print(*sizes())"
    )
    done = run_python("-c", probe, check=True)
    assert done.stdout.split() == ["0", "0", "False", "1", "1"]


@pytest.mark.parametrize(
    "functional, columns", [(I_of, FRAME_COLUMNS), (M3_of, MERMIN_COLUMNS)], ids=["I", "M3"]
)
def test_table_scores_match_contracted_scores(rng, functional, columns):
    starts, monomials = _starts(columns)
    n = _directions(starts, columns)
    assert np.array_equal(monomials, monomials_of(*n))
    states = [make_ghz(2), make_w()] + [haar_random_pure(2, rng) for _ in range(20)]
    for state in states + [random_mixed_state(rng) for _ in range(20)]:
        rotated = tensor_at_columns(pauli_tensor(state), haar_rotations(rng))
        quad = np.array(correlators_from_monomials(rotated, monomials))
        # an independent contraction: one einsum per correlator, its slots filled as SLOTS
        # says, in extended precision and then rounded, so that its own rounding stays small
        wide = [x.astype(np.longdouble) for x in (rotated, *n)]
        contracted = [
            np.einsum("abc,ka,kb,kc->k", wide[0], *(wide[1 + d] for d in slots)).astype(float)
            for slots in SLOTS
        ]
        assert np.max(np.abs(quad - np.array(contracted))) < 1e-15
        table, contracted = (np.abs(functional(CorrelatorQuad(*e))) for e in (quad, contracted))
        # M3 sums the four correlators, so its rounding adds up theirs
        assert np.max(np.abs(table - contracted)) < 2e-15
        for count in (30, 300):
            assert np.array_equal(_best_rows(table, count), _best_rows(contracted, count))


@pytest.mark.parametrize("count", [1, 30, SAMPLES])
@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: rng.random(SAMPLES),
        lambda rng: rng.integers(0, 5, SAMPLES).astype(float),
        # the maximally mixed state has T = 0: every start scores 0
        lambda rng: np.zeros(SAMPLES),
    ],
    ids=["random", "few-values", "all-tied"],
)
def test_best_rows_is_stable_argsort_prefix(rng, count, draw):
    scores = draw(rng)
    assert np.array_equal(_best_rows(scores, count), np.argsort(-scores, kind="stable")[:count])
    if not scores.any():
        assert np.array_equal(_best_rows(scores, count), np.arange(count))


def test_maximize_ghz():
    result = maximize_I(make_ghz(2), restarts=40, seed=0)
    assert abs(result.e_ghz - 1.0) < 1e-6
    assert result.e_ghz == result.best_value / 2


def test_maximize_rejects_no_restarts():
    with pytest.raises(ValueError, match="restarts"):
        maximize_I(make_w(), restarts=0)


@pytest.mark.parametrize("restarts", [0, SAMPLES + 1])
def test_restarts_outside_samples_rejected(restarts):
    with pytest.raises(ValueError, match="restarts"):
        maximize_I(make_w(), restarts=restarts)
    with pytest.raises(ValueError, match="restarts"):
        maximize_mermin(make_w(), restarts=restarts)


@pytest.mark.parametrize("restarts", [2.5, "3", None, True])
def test_non_integer_restarts_rejected(restarts):
    with pytest.raises(ValueError, match="restarts"):
        maximize_I(make_w(), restarts=restarts)
    with pytest.raises(ValueError, match="restarts"):
        maximize_mermin(make_w(), restarts=restarts)


@pytest.mark.parametrize(
    "seed",
    [None, -1, 1.5, "7", np.random.default_rng(0), True, False],
    ids=["None", "negative", "float", "string", "generator", "True", "False"],
)
def test_seed_outside_non_negative_integers_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        maximize_I(make_w(), restarts=1, seed=seed)
    with pytest.raises(ValueError, match="seed"):
        maximize_mermin(make_w(), restarts=1, seed=seed)


def test_numpy_integer_seed_is_the_int_seed():
    a, b = maximize_I(make_w(), 5, np.int64(3)), maximize_I(make_w(), 5, 3)
    assert a.best_value == b.best_value and a.iterations_total == b.iterations_total
    # the result holds Python ints, which json writes
    c = maximize_I(make_w(), np.int64(5), np.uint8(3))
    assert type(c.restarts) is int and type(c.seed) is int
    assert json.dumps([c.restarts, c.seed]) == "[5, 3]"
    assert maximize_mermin(make_w(), 5, np.uint8(3)) == maximize_mermin(make_w(), 5, 3)


@pytest.mark.parametrize(
    "probe, match",
    [
        (lambda: lu_invariance_check(make_ghz(2), trials=0, restarts=1), "trials"),
        (lambda: lu_invariance_check(make_ghz(2), trials=1.5, restarts=1), "trials"),
        (lambda: lu_invariance_check(make_ghz(2), trials=True, restarts=1), "trials"),
        (lambda: convexity_probe(make_ghz(2), make_w(), p_grid=[], restarts=1), "p_grid"),
        (lambda: convexity_probe(make_ghz(2), make_w(), p_grid=[-0.01], restarts=1), "p_grid"),
        (lambda: convexity_probe(make_ghz(2), make_w(), p_grid=[1.5], restarts=1), "p_grid"),
        (lambda: convexity_probe(make_ghz(2), make_w(), p_grid=[np.nan], restarts=1), "p_grid"),
        (lambda: convexity_probe(make_ghz(2), make_w(), p_grid=[10**400], restarts=1), "p_grid"),
        (lambda: convexity_probe(make_ghz(2), make_w(), p_grid=[0.5j], restarts=1), "p_grid"),
        (lambda: convexity_probe(make_ghz(2), make_w(), p_grid=0.5, restarts=1), "p_grid"),
    ],
    ids=[
        "trials-0",
        "trials-1.5",
        "trials-True",
        "p_grid-empty",
        "p_grid--0.01",
        "p_grid-1.5",
        "p_grid-nan",
        "p_grid-huge-int",
        "p_grid-complex",
        "p_grid-scalar",
    ],
)
def test_probe_size_rejected(probe, match):
    with pytest.raises(ValueError, match=match):
        probe()


# A|BC biseparable state whose global basin 30 unscored Haar-random starts miss
BASIN_MISS_AMPLITUDES = [
    complex(0.12474681190397283, 0.314338386433787),
    complex(-0.09711920104466251, -0.07406480778975968),
    complex(0.254928948192099, -0.35743135636461104),
    complex(-0.1313636262669437, -0.017332013527229087),
    complex(0.1343833820976007, -0.4520613693959763),
    complex(0.042556277482103375, 0.16492355791169155),
    complex(-0.5876270071996399, 0.17184696736095106),
    complex(0.1290114719845732, 0.13228416819445316),
]
# reached by maximize_I at 300 restarts and by an independent rotation search
BASIN_MISS_SUP = 0.3660333406050326


def test_thirty_restarts_reach_known_supremum():
    state = QuantumState(2, vector=np.array(BASIN_MISS_AMPLITUDES))
    result = maximize_I(state, restarts=30, seed=1562509265)
    assert abs(result.best_value - BASIN_MISS_SUP) < 1e-6


def test_maximize_w():
    result = maximize_I(make_w(), restarts=60, seed=0)
    assert abs(result.best_value - 35 / 27) < 1e-6
    assert abs(result.e_ghz - 35 / 54) < 1e-6


@pytest.mark.parametrize("restarts", [300, SAMPLES])
def test_w_supremum_to_rounding(restarts):
    assert abs(maximize_I(make_w(), restarts, 0).best_value - 35 / 27) < 1e-12


def test_mermin_w_maximum():
    assert abs(maximize_mermin(make_w(), 60, 0) - 3.0459560059918087) < 1e-9


@pytest.mark.parametrize("seed", [0, 1])
def test_mermin_value_is_abs_M3_at_its_directions(rng, seed):
    state = random_mixed_state(rng)
    tensor = pauli_tensor(state)
    result = _search(tensor, M3_of, MERMIN_COLUMNS, 30, seed)
    frame = result.best_frame
    assert result.best_value == abs(M3_of(correlators_from_tensor(tensor, frame.n1, frame.n2)))
    assert result.best_value == maximize_mermin(state, 30, seed)


def test_maximize_biseparable_and_product():
    from ghzmeter import make_biseparable

    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    bisep = make_biseparable("A|BC", [1, 0], phi_plus)
    assert abs(maximize_I(bisep, restarts=40, seed=0).best_value - 1.0) < 1e-6
    product = make_product([1, 0], [1, 0], [1, 0])
    assert abs(e_ghz(product, restarts=40, seed=0) - 0.5) < 1e-6


def test_maximize_ghz_basis_element():
    result = maximize_I(make_ghz_basis_element(1, 0, 1, -1), restarts=40, seed=3)
    assert abs(result.e_ghz - 1.0) < 1e-6


def test_determinism():
    r1 = maximize_I(make_w(), restarts=20, seed=9)
    r2 = maximize_I(make_w(), restarts=20, seed=9)
    assert r1.best_value == r2.best_value
    assert np.array_equal(r1.best_frame.n1, r2.best_frame.n1)
    assert r1.iterations_total == r2.iterations_total


def test_monotone_in_restarts():
    values = [
        maximize_I(make_w(), restarts=n, seed=5).best_value for n in (1, 5, 10, 20)
    ]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def _retire_twins_row_by_row(twin_of, active, n1, n2):
    """The twin rule one row at a time: in index order, an active row is retired for the
    first earlier kept row within TWIN_RADIUS in n1 and in n2, each up to sign."""
    cos = np.cos(TWIN_RADIUS)
    for j in active:
        kept = np.flatnonzero(twin_of[:j] == np.arange(j))
        near = (np.abs(n1[kept] @ n1[j]) >= cos) & (np.abs(n2[kept] @ n2[j]) >= cos)
        if near.any():
            twin_of[twin_of == j] = kept[np.argmax(near)]
    return active[twin_of[active] == active]


def test_blocked_twin_retirement_is_the_row_by_row_rule(rng):
    # 700 rows make three blocks; rows near 8 centres, with random signs, have twins
    # within and across blocks, and the inactive rows stay kept but retire others
    k = 700
    centres = haar_rotations(rng, (8,))[rng.integers(8, size=k)]
    blocked, row_by_row = np.arange(k), np.arange(k)
    active = np.sort(rng.choice(k, 600, replace=False))
    for _ in range(2):
        rotations = centres @ rotation_from_vector(0.15 * rng.standard_normal((k, 3)))
        n1, n2 = rotations[..., 0] * rng.choice([-1, 1], (k, 1)), rotations[..., 1]
        left = _retire_twins(blocked, active, n1, n2)
        assert np.array_equal(left, _retire_twins_row_by_row(row_by_row, active, n1, n2))
        assert np.array_equal(blocked, row_by_row)
        assert 0 < len(left) < len(active)
        active = left[rng.random(len(left)) < 0.9]
    # chains of n1 about z with n2 = z: the last row's first twin, row 1, has retired, so it
    # retires for row 2 in the first; in the second, row 1 was the last row's only twin
    for angles, expected in [((0.0, 0.19, 0.5, 0.36), [0, 0, 2, 2]), ((0.0, 0.19, 0.37), [0, 0, 2])]:
        a = np.array(angles)
        n1 = np.stack([np.cos(a), np.sin(a), np.zeros_like(a)], axis=1)
        n2 = np.tile([0.0, 0.0, 1.0], (len(a), 1))
        blocked, row_by_row, active = np.arange(len(a)), np.arange(len(a)), np.arange(len(a))
        left = _retire_twins(blocked, active, n1, n2)
        assert np.array_equal(left, _retire_twins_row_by_row(row_by_row, active, n1, n2))
        assert blocked.tolist() == row_by_row.tolist() == expected


def _record_polish(monkeypatch):
    """Make every _polish call of the test append its result to the list returned."""
    polish, polished = ghzmeter.optimize._polish, []

    def recorded_polish(*args):
        polished.append(polish(*args))
        return polished[-1]

    monkeypatch.setattr(ghzmeter.optimize, "_polish", recorded_polish)
    return polished


@pytest.mark.parametrize("make_state, restarts", [(lambda: make_ghz(2), 60), (make_w, 300)])
def test_converged_restarts_count_twins_with_the_row_they_retired_for(monkeypatch, make_state, restarts):
    # W at 300 restarts compares two blocks of rows
    blocked = maximize_I(make_state(), restarts, 0)
    monkeypatch.setattr(ghzmeter.optimize, "_retire_twins", _retire_twins_row_by_row)
    polished = _record_polish(monkeypatch)
    row_by_row = maximize_I(make_state(), restarts, 0)
    _, values, twin_of, _ = polished[0]
    assert np.any(twin_of != np.arange(restarts))
    expected = np.sum(values.max() - values[twin_of] < CONVERGENCE_ATOL)
    assert blocked.converged_restarts == row_by_row.converged_restarts == expected
    assert blocked.best_value == row_by_row.best_value
    assert blocked.iterations_total == row_by_row.iterations_total


def test_mermin_search_retires_the_twins_of_the_row_by_row_rule(monkeypatch):
    # the p = 2 stacks of maximize_mermin under both rules
    polished = _record_polish(monkeypatch)
    blocked = maximize_mermin(make_w(), 60, 0)
    monkeypatch.setattr(ghzmeter.optimize, "_retire_twins", _retire_twins_row_by_row)
    assert maximize_mermin(make_w(), 60, 0) == blocked
    (_, values, twin_of, passes), (_, rbr_values, rbr_twin_of, rbr_passes) = polished
    assert np.array_equal(twin_of, rbr_twin_of)
    assert np.sum(twin_of != np.arange(60)) == 41
    assert np.array_equal(values, rbr_values) and passes == rbr_passes


def test_search_memory_stays_bounded_at_every_start():
    # twin rows are compared in blocks: an all-pairs comparison of the 4096 rows peaked near 0.5 GB;
    # of the states tried, the white-noise GHZ state kept the most rows, 1358 against a block of 256
    noisy_ghz = QuantumState(2, density=1e-6 * make_ghz(2).density_matrix() + (1 - 1e-6) * np.eye(8) / 8)
    maximize_I(make_w(), SAMPLES, 0)
    for state in (make_w(), noisy_ghz):
        tracemalloc.start()
        try:
            maximize_I(state, SAMPLES, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6


def test_argmax_consistency():
    result = maximize_I(make_w(), restarts=30, seed=2)
    assert abs(abs(eval_I(make_w(), result.best_frame)) - result.best_value) < 1e-9


def test_best_value_is_abs_I_at_best_frame():
    # the polish's own value of its best row can round a few ulp above |I| at that frame
    for seed in range(50):
        state = haar_random_pure(2, np.random.default_rng(seed))
        result = maximize_I(state, restarts=30, seed=seed)
        assert result.best_value == abs(eval_I(state, result.best_frame))


def test_lower_bound_certificates(rng):
    result = maximize_I(make_w(), restarts=60, seed=1)
    for _ in range(50):
        frame = random_orthogonal_frame(rng)
        assert result.best_value >= abs(eval_I(make_w(), frame)) - 1e-9


def test_w_analytic_max():
    value, argmax, branches = w_analytic_max()
    assert abs(value - 35 / 27) < 1e-12
    assert (1.0, 0.0) in argmax and (-1.0, 0.0) in argmax
    assert abs(branches["v^2=2/9"] - 4 * np.sqrt(2) / 9) < 1e-6
    numeric = maximize_I(make_w(), restarts=60, seed=0).best_value
    assert abs(value - numeric) < 1e-6


def test_convexity_probe_equal_states():
    ghz = make_ghz(2)
    report = convexity_probe(
        ghz, ghz, p_grid=np.linspace(0, 1, 5), restarts=25, seed=0
    )
    assert report.max_violation <= 1e-4


def test_convexity_probe_ghz_vs_mixed():
    report = convexity_probe(
        make_ghz(2),
        maximally_mixed(2),
        p_grid=np.linspace(0, 1, 6),
        restarts=25,
        seed=1,
    )
    # convexity bound with optimizer slack; recorded, not asserted as strict
    assert report.max_violation <= 1e-4


def test_convexity_probe_reads_the_validated_weights():
    # a float32 grid would otherwise make the chord values float32
    reports = [
        convexity_probe(make_ghz(2), make_w(), p_grid=grid, restarts=1, seed=0)
        for grid in ([0.5], np.array([0.5]), np.float32([0.5]))
    ]
    assert reports[0] == reports[1] == reports[2]
    assert all(type(p) is float for p in reports[2].p_grid)


def test_convexity_probe_default_grid_has_eleven_weights():
    report = convexity_probe(make_ghz(2), maximally_mixed(2), restarts=1, seed=0)
    assert report.p_grid == tuple(np.linspace(0.0, 1.0, 11).tolist())
    assert report.p_grid[0] == 0.0 and report.p_grid[-1] == 1.0
    assert len(report.mixture_values) == len(report.chord_values) == 11


def test_lu_invariance_quick():
    reference, values, deviation = lu_invariance_check(
        make_ghz(2), seed=4, trials=5, restarts=40
    )
    assert abs(reference - 1.0) < 1e-5
    assert deviation < 1e-4


def test_per_party_unitaries_on_ghz_give_these_search_values():
    # GHZ under three independent Haar unitaries per state: the shared-frame
    # search drops from 2, to 0.754 on the third state, below |000>'s 1
    rng = np.random.default_rng(5)
    expected = (1.332593083671799, 1.4146788166378603, 0.7535370151553951)
    for value in expected:
        state = apply_local_unitaries(make_ghz(2), *(haar_random_unitary(2, rng) for _ in range(3)))
        assert abs(maximize_I(state, restarts=300, seed=0).best_value - value) < 1e-9
