import cmath

import numpy as np
import pytest

from ghzmeter import OrthoFrame, QuantumState, kron, spin_observable, weyl_operator
from ghzmeter.linalg import max_norm


# Malformed state files as raw bytes; load_state must reject each with StateError
_UNIT_PURE = b'"kind": "pure", "amplitudes": [[1, 0]' + b", [0, 0]" * 7 + b"]"
MALFORMED_STATE_FILES = {
    "amplitudes-number": b'{"local_dim": 2, "kind": "pure", "amplitudes": 5}',
    "amplitudes-string-pair": b'{"local_dim": 2, "kind": "pure", "amplitudes": [["a", 0]]}',
    "amplitudes-triple": b'{"local_dim": 2, "kind": "pure", "amplitudes": [[1, 0, 0]]}',
    "amplitudes-huge-int": b'{"local_dim": 2, "kind": "pure", "amplitudes": [[1' + b"0" * 400 + b", 0]]}",
    "density-flat": b'{"local_dim": 2, "kind": "mixed", "density": [1, 2]}',
    "density-ragged": b'{"local_dim": 2, "kind": "mixed", "density": [[[1, 0]], [[1, 0], [0, 0]]]}',
    "local-dim-fraction": b'{"local_dim": 2.7, ' + _UNIT_PURE + b"}",
    "local-dim-string": b'{"local_dim": "2", ' + _UNIT_PURE + b"}",
    "local-dim-huge": b'{"local_dim": 1' + b"0" * 2000 + b", " + _UNIT_PURE + b"}",
    "kind-list": b'{"local_dim": 2, "kind": ["pure"]}',
    "top-level-list": b"[2, 3]",
    "not-utf8": b'{"local_dim": 2, "kind": "\xff"}',
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


def random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def random_orthogonal_frame(rng):
    n1 = random_direction(rng)
    v = rng.standard_normal(3)
    v -= np.dot(v, n1) * n1
    return OrthoFrame(n1, v / np.linalg.norm(v))


def random_mixed_state(rng, d=2):
    """Full-rank three-qudit density matrix A A^H / Tr(A A^H) with Gaussian A."""
    dim = d**3
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / 2
    return QuantumState(d, density=rho / np.trace(rho).real)


# The 8x8 operator form of the correlators, the oracle the tensor path is checked on
X_HAT, Y_HAT, Z_HAT = np.eye(3)


def is_hermitian(m, atol=1e-12):
    return max_norm(m - m.conj().T) < atol


def is_unitary(m, atol=1e-12):
    return max_norm(m.conj().T @ m - np.eye(m.shape[0])) < atol


def triple_observable(na, nb, nc):
    """Tensor product of single-qubit spin observables on the three parties."""
    return kron(spin_observable(na), spin_observable(nb), spin_observable(nc))


def real_expectation(state, operator, imag_atol=1e-10):
    """Expectation of a Hermitian operator; fails on an imaginary residue."""
    value = state.expectation(operator)
    assert abs(value.imag) < imag_atol, f"expectation has imaginary residue {value.imag!r}"
    return value.real


def operator_quad(frame):
    """O1..O4 of a frame as 8x8 operators."""
    n1, n2 = frame.n1, frame.n2
    return (
        triple_observable(n1, n2, n2),
        triple_observable(n2, n1, n2),
        triple_observable(n2, n2, n1),
        triple_observable(n1, n1, n1),
    )


# The d^3 x d^3 operator forms of the qudit functional and of the product
# residual, the oracles eval_Id and qudit_product_residual are checked on
def operator_weyl_quad(pair):
    """G1..G4 of a generator pair as d^3 x d^3 operators."""
    w1 = weyl_operator(pair.d, *pair.g1)
    w2 = weyl_operator(pair.d, *pair.g2)
    return (kron(w1, w2, w2), kron(w2, w1, w2), kron(w2, w2, w1), kron(w1, w1, w1))


def operator_phase(pair):
    """omega^(2<g1,g2>) = exp(2 pi i (2s mod d) / d), taken apart from the library's rule."""
    d = pair.d
    return cmath.exp(2j * cmath.pi * (2 * pair.symplectic % d) / d)


def operator_Id(state, pair):
    """I_d = <G4> - omega^(2<g1,g2>) <G1><G2><G3> from the four kron-built operators."""
    g1, g2, g3, g4 = (state.expectation(g) for g in operator_weyl_quad(pair))
    return g4 - operator_phase(pair) * (g1 * g2 * g3)


def operator_residual(pair):
    """Max-norm of G1 G2 G3 - omega^(2<g1,g2>) G4 from the four kron-built operators."""
    g1, g2, g3, g4 = operator_weyl_quad(pair)
    return max_norm(g1 @ g2 @ g3 - operator_phase(pair) * g4)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def frame_xy():
    return OrthoFrame([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])


@pytest.fixture
def frame_zx():
    return OrthoFrame([0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
