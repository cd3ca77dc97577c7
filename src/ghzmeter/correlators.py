"""Three-body Pauli correlations of a qubit state, their contraction to e1..e4,
and the operator identities of a frame."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import IDENTITY_2, PAULIS, kron, max_norm, spin_observable
from .states import StateError

IMAG_ATOL = 1e-10

# Row 9i + 3j + k is (s_i x s_j x s_k)^T flattened, so one product with a
# flattened density matrix gives all 27 traces Tr((s_i x s_j x s_k) rho).
PAULI_STRINGS = np.einsum(
    "iad,jbe,kcf->ijkdefabc", *[np.stack(PAULIS)] * 3
).reshape(27, 64)


# t_ijk a_i b_j c_k over any leading axes of the three directions
CONTRACT = "ijk,...i,...j,...k->..."


class CorrelatorQuad(NamedTuple):
    """e1..e4 = <O1>..<O4>: numpy scalars for two 3-vectors, (...) arrays for (..., 3) axes."""

    e1: float | np.ndarray
    e2: float | np.ndarray
    e3: float | np.ndarray
    e4: float | np.ndarray


def pauli_tensor(state):
    """Full 3x3x3 tensor of three-body Pauli correlations <s_i x s_j x s_k>.

    Evaluating correlators for many frames against a fixed state then
    reduces to cubic contractions of this tensor.
    """
    if state.local_dim != 2:
        raise StateError(f"expected a three-qubit state, got local_dim {state.local_dim}")
    t = PAULI_STRINGS @ state.density_matrix().reshape(64)
    residue = np.max(np.abs(t.imag))
    if not residue < IMAG_ATOL:
        raise StateError(f"Pauli correlations have imaginary residue {residue!r}")
    return t.real.reshape(3, 3, 3)


def correlators_from_tensor(tensor, n1, n2):
    """(e1..e4) by contracting the Pauli tensor with the two directions.

    Directions of shape (..., 3) give e1..e4 of shape (...), one entry per
    pair of rows; two 3-vectors give numpy float scalars.
    """
    e1 = np.einsum(CONTRACT, tensor, n1, n2, n2)
    e2 = np.einsum(CONTRACT, tensor, n2, n1, n2)
    e3 = np.einsum(CONTRACT, tensor, n2, n2, n1)
    e4 = np.einsum(CONTRACT, tensor, n1, n1, n1)
    return CorrelatorQuad(e1, e2, e3, e4)


@dataclass(frozen=True)
class IdentityReport:
    """Max-norm residuals of the frame's operator identities (report, no assert)."""

    commutator_residual: float
    triple_product_residual: float
    sandwich_residual: float
    stabiliser_residual: float


def verify_identities(frame):
    """Residuals of the commutator, triple-product and sandwich identities.

    ``stabiliser_residual`` is ||O1 O2 O3 O4 + 1||_max, which vanishes only
    for orthogonal frames; it is reported unconditionally so callers can
    probe degenerate frames too.
    """
    c, m = frame.c, frame.m
    s1 = spin_observable(frame.n1)
    s2 = spin_observable(frame.n2)
    o1 = kron(s1, s2, s2)
    o2 = kron(s2, s1, s2)
    o3 = kron(s2, s2, s1)
    o4 = kron(s1, s1, s1)
    m_sigma = m[0] * PAULIS[0] + m[1] * PAULIS[1] + m[2] * PAULIS[2]

    o1o2 = o1 @ o2
    o1o2o3 = o1o2 @ o3
    comm = o1o2 - o2 @ o1
    comm_expected = 2j * c * kron(
        kron(m_sigma, IDENTITY_2) - kron(IDENTITY_2, m_sigma), IDENTITY_2
    )
    triple = o1o2o3 + o4 - 2.0 * c * kron(s1, s2, s1)
    sandwich = s2 @ s1 @ s2 - (2.0 * c * s2 - s1)
    stab = o1o2o3 @ o4 + np.eye(8)

    return IdentityReport(
        commutator_residual=max_norm(comm - comm_expected),
        triple_product_residual=max_norm(triple),
        sandwich_residual=max_norm(sandwich),
        stabiliser_residual=max_norm(stab),
    )
