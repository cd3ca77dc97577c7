import numpy as np
import pytest

from ghzmeter import (
    OrthoFrame,
    correlators_from_tensor,
    eval_I,
    kron,
    make_ghz,
    make_w,
    maximally_mixed,
    mermin_M3,
    pauli_tensor,
    verify_identities,
)
from ghzmeter.correlators import MAX_COMPONENT, tensor_at_columns
from ghzmeter.linalg import SIGMA_X, max_norm
from ghzmeter.optimize import FRAME_COLUMNS, _starts, haar_rotations, rotation_from_vector
from ghzmeter.states import StateError, haar_random_pure

from conftest import (
    X_HAT,
    Y_HAT,
    Z_HAT,
    is_hermitian,
    operator_quad,
    random_direction,
    random_mixed_state,
    random_orthogonal_frame,
    real_expectation,
    triple_observable,
)


def tensor_correlators(state, frame):
    return correlators_from_tensor(pauli_tensor(state), frame.n1, frame.n2)


def test_quad_xy_o4_is_xxx(frame_xy):
    o4 = operator_quad(frame_xy)[3]
    assert np.allclose(o4, kron(SIGMA_X, SIGMA_X, SIGMA_X))


def test_quad_xy_stabiliser_relation(frame_xy):
    o1, o2, o3, o4 = operator_quad(frame_xy)
    assert max_norm(o1 @ o2 @ o3 @ o4 + np.eye(8)) < 1e-12


def test_quad_degenerate_frame():
    quad = operator_quad(OrthoFrame([1, 0, 0], [1, 0, 0]))
    for o in quad[1:]:
        assert max_norm(o - quad[0]) < 1e-12


def test_quad_operators_hermitian_unitary(rng):
    for o in operator_quad(OrthoFrame(random_direction(rng), random_direction(rng))):
        assert is_hermitian(o)
        assert max_norm(o @ o - np.eye(8)) < 1e-12


def test_expectations_ghz(frame_xy):
    e = tensor_correlators(make_ghz(2), frame_xy)
    assert np.allclose(e, (-1, -1, -1, 1), atol=1e-12)


def test_expectations_w_vanish(frame_xy):
    assert np.allclose(tensor_correlators(make_w(), frame_xy), 0, atol=1e-12)


def test_expectations_maximally_mixed(rng):
    e = tensor_correlators(maximally_mixed(2), random_orthogonal_frame(rng))
    assert np.allclose(e, 0, atol=1e-12)


def test_expectations_rejects_qutrits(frame_xy):
    with pytest.raises(StateError):
        pauli_tensor(make_ghz(3))
    with pytest.raises(StateError):
        eval_I(make_ghz(3), frame_xy)


def test_expectations_bounded(rng):
    for i in range(200):
        frame = OrthoFrame(random_direction(rng), random_direction(rng))
        st = haar_random_pure(2, rng)
        for e in tensor_correlators(st, frame):
            assert abs(e) <= 1 + 1e-12


def test_pauli_tensor_matches_expectations(rng):
    axes = (X_HAT, Y_HAT, Z_HAT)
    for st in (haar_random_pure(2, rng), random_mixed_state(rng)):
        tensor = pauli_tensor(st)
        for i, j, k in np.ndindex(3, 3, 3):
            slow = real_expectation(st, triple_observable(axes[i], axes[j], axes[k]))
            assert abs(tensor[i, j, k] - slow) < 1e-12
        for _ in range(20):
            frame = OrthoFrame(random_direction(rng), random_direction(rng))
            slow = [real_expectation(st, o) for o in operator_quad(frame)]
            fast = tensor_correlators(st, frame)
            assert np.max(np.abs(np.subtract(fast, slow))) < 1e-12
            e1, e2, e3, e4 = slow
            assert abs(eval_I(st, frame) - (e4 - e1 * e2 * e3)) < 1e-12
            assert abs(mermin_M3(st, frame) - (e4 - e1 - e2 - e3)) < 1e-12


def test_correlators_batch_matches_rows(rng):
    tensor = pauli_tensor(random_mixed_state(rng))
    n1 = np.array([random_direction(rng) for _ in range(50)])
    n2 = np.array([random_direction(rng) for _ in range(50)])
    batch = correlators_from_tensor(tensor, n1, n2)
    assert all(e.shape == (50,) for e in batch)
    for row in range(50):
        single = correlators_from_tensor(tensor, n1[row], n2[row])
        assert np.max(np.abs(np.array(batch)[:, row] - np.array(single))) < 1e-15


def operator_correlators(state, n1, n2):
    """e1..e4 of every row pair from the 8x8 operators, shaped like the leading axes."""
    rows = [
        [real_expectation(state, o) for o in operator_quad(OrthoFrame(a, b))]
        for a, b in zip(n1.reshape(-1, 3), n2.reshape(-1, 3))
    ]
    return np.moveaxis(np.array(rows), -1, 0).reshape((4,) + n1.shape[:-1])


def assert_matches_operators(state, n1, n2):
    batch = correlators_from_tensor(pauli_tensor(state), n1, n2)
    n1, n2 = np.broadcast_arrays(n1, n2)
    assert all(e.shape == n1.shape[:-1] for e in batch)
    assert np.max(np.abs(np.array(batch) - operator_correlators(state, n1, n2))) < 1e-12


def random_directions(rng, shape):
    v = rng.standard_normal(shape + (3,))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_correlators_broadcast_directions(rng):
    state = random_mixed_state(rng)
    one, rows = random_directions(rng, ()), random_directions(rng, (6,))
    assert_matches_operators(state, one, rows)
    assert_matches_operators(state, rows, one)
    assert_matches_operators(state, random_directions(rng, (2, 5)), random_directions(rng, (2, 5)))
    assert_matches_operators(state, one, random_directions(rng, (2, 5)))


@pytest.mark.parametrize("shape", [(2,), (4,), (5, 4)])
def test_correlators_reject_directions_without_three_components(rng, shape):
    tensor = pauli_tensor(random_mixed_state(rng))
    bad, good = np.ones(shape), random_directions(rng, shape[:-1])
    for n1, n2 in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="last axis of length 3"):
            correlators_from_tensor(tensor, n1, n2)


@pytest.mark.parametrize("lead", [(), (4,)])
@pytest.mark.parametrize(
    "entry",
    [1j, np.nan, np.inf, -np.inf, 10**400, 1e200, 1e103, np.nextafter(MAX_COMPONENT, np.inf)],
    ids=["complex", "nan", "inf", "-inf", "huge", "1e200", "1e103", "past-bound"],
)
def test_correlators_reject_directions_that_are_not_finite_reals(rng, lead, entry):
    # a complex (k, 3) array would lose its imaginary part, and 10**400 overflow a float;
    # 1e103 in n1 overflows e4, and in n2 alone it is past MAX_COMPONENT all the same
    tensor = pauli_tensor(random_mixed_state(rng))
    good = random_directions(rng, lead)
    bad = good.tolist()
    (bad[0] if lead else bad)[0] = entry
    for n1, n2 in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="directions must hold finite real numbers"):
            correlators_from_tensor(tensor, n1, n2)


@pytest.mark.parametrize("lead", [(), (4,)])
def test_correlators_take_integer_directions_as_floats(lead):
    # an int64 cube would wrap: 3e6**3 = 2.7e19 passes 2**63
    tensor = pauli_tensor(make_ghz(2))
    n1, n2 = np.broadcast_to([3_000_000, 0, 0], lead + (3,)), np.broadcast_to([0, 1, 0], lead + (3,))
    as_ints = correlators_from_tensor(tensor, n1, n2)
    as_floats = correlators_from_tensor(tensor, n1.astype(float), n2.astype(float))
    assert np.asarray(as_ints).tobytes() == np.asarray(as_floats).tobytes()


def test_correlators_score_batch_matches_operators(rng):
    # the starts of maximize_I
    grid = _starts(FRAME_COLUMNS)[0][:, 0]
    assert_matches_operators(random_mixed_state(rng), grid[..., 0], grid[..., 1])


def test_correlators_stencil_batches_match_operators(rng):
    # strided (k, m) direction views: m small moves of k stacks of p rotations,
    # n1 and n2 the first two columns of one rotation or the third of each of two
    state = random_mixed_state(rng)
    for p, m, columns in ((1, 19, ((0, 0), (0, 1))), (2, 73, ((0, 2), (1, 2)))):
        moves = rotation_from_vector(1e-4 * rng.standard_normal((m, p, 3)))
        r = moves @ haar_rotations(rng, (8, p))[:, None]
        assert r.shape == (8, m, p, 3, 3)
        assert_matches_operators(state, *(r[..., i, :, c] for i, c in columns))


@pytest.mark.parametrize("m", [2, 3, 6])
@pytest.mark.parametrize("lead", [(), (7,)])
def test_tensor_at_columns_matches_einsum(rng, lead, m):
    tensor = pauli_tensor(random_mixed_state(rng))
    c = rng.standard_normal(lead + (3, m))
    c /= np.linalg.norm(c, axis=-2, keepdims=True)
    want = np.einsum("ijk,...iu,...jv,...kw->...uvw", tensor, c, c, c)
    assert np.max(np.abs(tensor_at_columns(tensor, c) - want)) < 1e-15


def test_correlators_of_two_vectors_are_float_scalars(rng):
    tensor = pauli_tensor(random_mixed_state(rng))
    quad = correlators_from_tensor(tensor, random_direction(rng), random_direction(rng))
    assert all(type(e) is np.float64 for e in quad)


def test_identities_random_frames(rng):
    for _ in range(100):
        report = verify_identities(
            OrthoFrame(random_direction(rng), random_direction(rng))
        )
        assert report.commutator_residual < 1e-12
        assert report.triple_product_residual < 1e-12
        assert report.sandwich_residual < 1e-12


def test_identities_orthogonal_frame(rng):
    # with c = 0 the triple product collapses to O1 O2 O3 = -O4
    for _ in range(20):
        report = verify_identities(random_orthogonal_frame(rng))
        assert report.triple_product_residual < 1e-12
        assert report.stabiliser_residual < 1e-12


def test_identities_parallel_frame():
    report = verify_identities(OrthoFrame([0, 1, 0], [0, 1, 0]))
    assert report.commutator_residual == 0.0


def test_orthogonal_frames_jointly_diagonalizable(rng):
    quad = operator_quad(random_orthogonal_frame(rng))
    for a in quad:
        for b in quad:
            assert max_norm(a @ b - b @ a) < 1e-12
    # a generic combination of the commuting operators lifts the +/-1
    # degeneracies; its eigenbasis must diagonalize all four at once
    generic = quad[0] + np.sqrt(2) * quad[1] + np.sqrt(3) * quad[2]
    _, vecs = np.linalg.eigh(generic)
    for o in quad:
        transformed = vecs.conj().T @ o @ vecs
        off_diag = transformed - np.diag(np.diag(transformed))
        assert max_norm(off_diag) < 1e-10


def test_nonorthogonal_frames_cannot_saturate(rng):
    # scan the 8 GHZ-basis states at tilted frames: |I| stays below 2
    from ghzmeter import ghz_basis

    for _ in range(10):
        n1 = random_direction(rng)
        v = rng.standard_normal(3)
        v -= np.dot(v, n1) * n1
        v /= np.linalg.norm(v)
        c = rng.uniform(0.15, 0.8) * rng.choice([-1, 1])
        n2 = c * n1 + np.sqrt(1 - c**2) * v
        frame = OrthoFrame(n1, n2)
        assert abs(frame.c) > 0.1
        worst = max(abs(eval_I(st, frame)) for _, st in ghz_basis())
        assert worst < 2.0 - 1e-3
