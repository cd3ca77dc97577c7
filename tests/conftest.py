import numpy as np
import pytest

from ghzmeter import OrthoFrame, QuantumState, triple_observable


def random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_orthogonal_frame(rng):
    n1 = random_direction(rng)
    v = rng.standard_normal(3)
    v -= np.dot(v, n1) * n1
    return OrthoFrame(n1, v / np.linalg.norm(v))


def random_mixed_state(rng):
    """Full-rank three-qubit density matrix A A^H / Tr(A A^H) with Gaussian A."""
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2
    return QuantumState(2, density=rho / np.trace(rho).real)


def operator_quad(frame):
    """O1..O4 of a frame as 8x8 operators, the oracle the tensor path is checked on."""
    n1, n2 = frame.n1, frame.n2
    return (
        triple_observable(n1, n2, n2),
        triple_observable(n2, n1, n2),
        triple_observable(n2, n2, n1),
        triple_observable(n1, n1, n1),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def frame_xy():
    return OrthoFrame([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


@pytest.fixture
def frame_zx():
    return OrthoFrame([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
