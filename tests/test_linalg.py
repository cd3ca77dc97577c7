import itertools
import warnings

import numpy as np
import pytest

from ghzmeter import OrthoFrame, kron, spin_observable, weyl_operator
from ghzmeter.linalg import (
    IDENTITY_2,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_complex,
    as_real,
    max_norm,
    symplectic_form,
    unit_vector,
)

from conftest import NOT_NUMBERS, is_hermitian, is_unitary, random_direction, triple_observable


def test_kron_identity():
    assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))


def test_kron_bit_flip_action():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(kron(SIGMA_X, SIGMA_X) @ ket00, [0, 0, 0, 1])


def test_kron_zz_diagonal():
    # direct 4x4 expansion by hand
    assert np.allclose(np.diag(kron(SIGMA_Z, SIGMA_Z)), [1, -1, -1, 1])


@pytest.mark.parametrize(
    "matrices", [(), ([1, 0], [0, 1]), (IDENTITY_2, [1, 0]), (np.zeros((2, 2, 2)),)]
)
def test_kron_rejects_what_is_not_matrices(matrices):
    with pytest.raises(ValueError, match="2-D array"):
        kron(*matrices)


@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_kron_names_the_matrix_that_holds_no_numbers(bad):
    with pytest.raises(ValueError, match="kron's matrix 2 must hold complex numbers in the float range"):
        kron(IDENTITY_2, [[1, bad], [0, 1]])


@pytest.mark.parametrize(
    "matrices",
    [([[np.nan, 0], [0, 1]], np.eye(2)), ([[np.inf]], [[0]])],
    ids=["nan", "inf-times-zero"],
)
def test_kron_rejects_non_finite_entries(matrices):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # inf * 0 would warn before giving nan
        with pytest.raises(ValueError, match="^kron takes one or more matrices, each a 2-D array"):
            kron(*matrices)


def test_spin_observable_axes():
    assert np.allclose(spin_observable([1, 0, 0]), SIGMA_X)
    assert np.allclose(spin_observable([0, 0, 1]), SIGMA_Z)


def test_spin_observable_diagonal_direction():
    s = spin_observable([1 / np.sqrt(2), 0, 1 / np.sqrt(2)])
    assert np.allclose(s, (SIGMA_X + SIGMA_Z) / np.sqrt(2))
    assert np.allclose(np.linalg.eigvalsh(s), [-1.0, 1.0])


def test_spin_observable_rejects_non_unit():
    with pytest.raises(ValueError):
        spin_observable([1.0, 1.0, 0.0])


def test_spin_observable_properties(rng):
    for _ in range(50):
        s = spin_observable(random_direction(rng))
        assert is_hermitian(s)
        assert max_norm(s @ s - IDENTITY_2) < 1e-12
        assert abs(np.trace(s)) < 1e-12


def test_pauli_product_rule(rng):
    # sigma_n1 sigma_n2 = c 1 + i m.sigma
    for _ in range(50):
        n1, n2 = random_direction(rng), random_direction(rng)
        c = np.dot(n1, n2)
        m = np.cross(n1, n2)
        lhs = spin_observable(n1) @ spin_observable(n2)
        rhs = c * IDENTITY_2 + 1j * sum(m[i] * PAULIS[i] for i in range(3))
        assert max_norm(lhs - rhs) < 1e-12
        anti = lhs + spin_observable(n2) @ spin_observable(n1)
        assert max_norm(anti - 2 * c * IDENTITY_2) < 1e-12


def test_triple_observable_axis_case():
    xxx = triple_observable([1, 0, 0], [1, 0, 0], [1, 0, 0])
    assert np.allclose(xxx, kron(SIGMA_X, SIGMA_X, SIGMA_X))


def test_triple_observable_spectrum(rng):
    t = triple_observable(*(random_direction(rng) for _ in range(3)))
    assert is_hermitian(t)
    assert max_norm(t @ t - np.eye(8)) < 1e-12
    eigs = np.sort(np.linalg.eigvalsh(t))
    assert np.allclose(eigs, [-1] * 4 + [1] * 4)


def test_xyy_on_000():
    ket000 = np.zeros(8, complex)
    ket000[0] = 1.0
    out = triple_observable([1, 0, 0], [0, 1, 0], [0, 1, 0]) @ ket000
    expected = np.zeros(8, complex)
    expected[7] = -1.0
    assert np.allclose(out, expected)


def test_ortho_frame_scalars(rng):
    n1, n2 = random_direction(rng), random_direction(rng)
    f = OrthoFrame(n1, n2)
    assert abs(f.c - np.dot(n1, n2)) < 1e-12


def test_ortho_frame_orthogonality_flag():
    assert OrthoFrame([1, 0, 0], [0, 1, 0]).c == 0.0
    assert OrthoFrame([1, 0, 0], [1, 0, 0]).c == 1.0


def test_ortho_frame_stores_read_only_copies():
    a = np.array([1.0, 0.0, 0.0])
    frame = OrthoFrame(a, [0, 1, 0])
    a[:] = [0.0, 1.0, 0.0]
    assert frame.n1 is not a and np.array_equal(frame.n1, [1.0, 0.0, 0.0])
    assert not frame.n1.flags.writeable and not frame.n2.flags.writeable
    with pytest.raises(ValueError):
        frame.n2[0] = 1.0


@pytest.mark.parametrize(
    "x, shape, expected",
    [
        ([0.3], (), "a real number"),
        (0.3, (3,), "a real 3-vector"),
        ([[1], [0, 1]], None, "a real number, or an array of them"),
    ],
)
def test_as_real_names_the_argument_and_the_shape(x, shape, expected):
    with pytest.raises(ValueError, match=f"x must be {expected}"):
        as_real(x, "x", shape)


def test_as_real_returns_floats_and_copies():
    assert type(as_real(np.int64(3), "x", ())) is float and type(as_real(3, "x")) is float
    a = np.array([1, 2, 3])
    fixed, free = as_real(a, "x", (3,)), as_real(a, "x")
    assert fixed.dtype == free.dtype == float and not fixed.flags.writeable
    free[0] = 0.0  # a copy with shape=None too, so the caller's array is untouched
    assert a[0] == 1 and fixed[0] == 1.0


def test_as_complex_returns_complex_copies():
    z = np.zeros(2, dtype=complex)
    fixed, free = as_complex(z, "z", (2,)), as_complex(z, "z")
    assert not (np.shares_memory(fixed, z) or np.shares_memory(free, z))
    assert z.flags.writeable and free.flags.writeable and not fixed.flags.writeable
    kron(z.reshape(1, 2))[0, 0] = 5.0  # so the product of one matrix is a copy too
    assert z[0] == 0.0
    message = r"^z must hold complex numbers in the float range, 2 of them in shape \(2,\), got shape"
    with pytest.raises(ValueError, match=message + r" \(2, 1\)$"):
        as_complex(z.reshape(2, 1), "z", (2,))


def test_unit_vector_validation():
    with pytest.raises(ValueError):
        unit_vector([1, 0])
    with pytest.raises(ValueError):
        unit_vector([0.9, 0, 0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unit_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        unit_vector([bad, 0, 0])
    with pytest.raises(ValueError):
        OrthoFrame([bad, 0, 0], [0, 1, 0])
    with pytest.raises(ValueError):
        OrthoFrame([1, 0, 0], [0, bad, 1])


def test_huge_direction_raises_without_warning():
    # the norm overflows to inf; that is a length error, not a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="unit length"):
            OrthoFrame([1e200, 0, 0], [0, 1, 0])


def test_weyl_recovers_paulis():
    assert np.allclose(weyl_operator(2, 1, 0), SIGMA_X)
    assert np.allclose(weyl_operator(2, 0, 1), SIGMA_Z)
    assert np.allclose(weyl_operator(2, 1, 1), -SIGMA_Y)


@pytest.mark.parametrize(
    "args, name",
    [
        ((2.0, 1, 0), "d"),
        ((1, 0, 0), "d"),
        (("3", 0, 0), "d"),
        ((3, 1.5, 0), "p"),
        ((3, np.nan, 0), "p"),
        ((3, 0, 2.0), "q"),
    ],
)
def test_weyl_operator_rejects_non_integer_input(args, name):
    with pytest.raises(ValueError, match=f"(dimension|label) {name} must be an integer"):
        weyl_operator(*args)


def test_weyl_operator_reduces_any_integer_label():
    assert np.array_equal(weyl_operator(3, -1, 2**70 + 1), weyl_operator(3, 2, (2**70 + 1) % 3))
    assert np.array_equal(weyl_operator(np.int64(3), np.int64(4), 0), weyl_operator(3, 1, 0))


def test_weyl_cube_is_identity_d3():
    w = weyl_operator(3, 1, 0)
    assert max_norm(w @ w @ w - np.eye(3)) < 1e-12


def test_weyl_unitary():
    for d in (2, 3, 4, 5):
        for p, q in itertools.product(range(d), repeat=2):
            assert is_unitary(weyl_operator(d, p, q))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_weyl_symplectic_commutation(d):
    # W(a) W(b) = omega^s W(b) W(a); the phase convention here puts
    # s = -(a1 b2 - a2 b1) mod d for the standard shift/clock pair.
    omega = np.exp(2j * np.pi / d)
    labels = list(itertools.product(range(d), repeat=2))
    for a in labels:
        wa = weyl_operator(d, *a)
        for b in labels:
            wb = weyl_operator(d, *b)
            s = -symplectic_form(d, a, b) % d
            assert max_norm(wa @ wb - omega**s * wb @ wa) < 1e-12


def test_shift_clock_action():
    d = 4
    x, z = weyl_operator(d, 1, 0), weyl_operator(d, 0, 1)
    e0 = np.zeros(d)
    e0[0] = 1.0
    assert np.allclose(x @ e0, np.eye(d)[:, 1])
    assert np.allclose(np.diag(z), np.exp(2j * np.pi * np.arange(d) / d))
