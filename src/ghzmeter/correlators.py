"""Three-body Pauli correlations of a qubit state, their contraction to e1..e4,
and the operator identities of a frame."""

import math
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


# which of (n1, n2) fills each slot of T: e1 = T(n1, n2, n2), e2 = T(n2, n1, n2),
# e3 = T(n2, n2, n1) and e4 = T(n1, n1, n1)
SLOTS = ((0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0))


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


def _dot3(x, y):
    """Sum over the leading axis of length 3, elementwise in the rest."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def tensor_at_columns(tensor, c):
    """T(C_u, C_v, C_w) for the m columns C of `c` (..., n, m), shape (..., m, m, m).

    T is an n x n x n tensor: the 3x3x3 Pauli tensor, or a qudit state's
    amplitude or density tensor in :func:`ghzmeter.functional.eval_Id`.
    """
    lead, n, m = c.shape[:-2], c.shape[-2], c.shape[-1]
    ct = np.swapaxes(c, -1, -2)
    t = tensor.reshape(n * n, n) @ c  # T(e_i, e_j, C_w)
    t = ct[..., None, :, :] @ t.reshape(lead + (n, n, m))  # T(e_i, C_v, C_w)
    t = ct @ t.reshape(lead + (n, m * m))  # T(C_u, C_v, C_w)
    return t.reshape(lead + (m, m, m))


def correlators_from_tensor(tensor, n1, n2):
    """(e1..e4) by contracting the Pauli tensor with the two directions.

    Two 3-vectors give numpy float scalars, read off at SLOTS from
    :func:`tensor_at_columns` of C = [n1 | n2].  Directions of shape (..., 3)
    give e1..e4 of shape (...), one entry per pair of rows, by one BLAS
    product T(., ., d) for every column d of D = [n1 | n2] and multiply-adds
    along the rows that contract the middle slot and the first; temporaries
    stay linear in the number of rows.
    """
    if np.ndim(n1) == np.ndim(n2) == 1:
        t = tensor_at_columns(tensor, np.array((n1, n2)).T)
        return CorrelatorQuad(*(t[slots] for slots in SLOTS))
    n1, n2 = np.broadcast_arrays(n1, n2)
    shape = n1.shape[:-1]
    rows = math.prod(shape)
    # D = [n1 | n2], contiguous along the rows that the multiply-adds run over
    d = np.empty((3, 2 * rows))
    d[:, :rows] = n1.reshape(rows, 3).T
    d[:, rows:] = n2.reshape(rows, 3).T
    u, v = d[:, :rows], d[:, rows:]
    # t[j, i, c] = T(e_i, e_j, d_c): middle slot leading, so _dot3 contracts it
    t = (tensor.reshape(9, 3) @ d).reshape(3, 3, -1).swapaxes(0, 1)
    t1, t2 = t[..., :rows], t[..., rows:]
    quad = (
        _dot3(u, _dot3(t2, v)),
        _dot3(v, _dot3(t2, u)),
        _dot3(v, _dot3(t1, v)),
        _dot3(u, _dot3(t1, u)),
    )
    return CorrelatorQuad(*(e.reshape(shape) for e in quad))


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
    c, m = frame.c, np.cross(frame.n1, frame.n2)
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
