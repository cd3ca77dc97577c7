"""Three-body Pauli correlations of a qubit state, their contraction to e1..e4,
and the operator identities of a frame."""

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import IDENTITY_2, PAULIS, kron, max_norm, spin_observable
from .states import StateError

IMAG_ATOL = 1e-10
# with every |component| <= MAX_COMPONENT a monomial is at most 1e300, and each e_i of a Pauli
# tensor (|T| <= 1), 28 monomials with coefficients of at most 6, at most 1.7e302: no overflow
MAX_COMPONENT = 1e100

# Row 9i + 3j + k is (s_i x s_j x s_k)^T flattened, so one product with a
# flattened density matrix gives all 27 traces Tr((s_i x s_j x s_k) rho).
PAULI_STRINGS = np.einsum(
    "iad,jbe,kcf->ijkdefabc", *[np.stack(PAULIS)] * 3
).reshape(27, 64)


# which of (n1, n2) fills each slot of T: e1 = T(n1, n2, n2), e2 = T(n2, n1, n2),
# e3 = T(n2, n2, n1) and e4 = T(n1, n1, n1)
SLOTS = ((0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0))
# the indices (u, v, w) of the 27 entries of a 3 x 3 x 3 tensor, in flattened order
AXES = tuple(itertools.product(range(3), repeat=3))
# the 28 monomials of (n1, n2) that e1..e4 are linear in, n1_a n2_b n2_c with b <= c and
# n1_a n1_b n1_c with a <= b <= c, each as its sorted (direction, component) factors
MONOMIALS = sorted({tuple(sorted(zip(slots, axes))) for slots in SLOTS for axes in AXES})
# factor f of monomial j is row FACTORS[f, j] = 3 * direction + component of the stacked (n1, n2)
FACTORS = np.array([[3 * d + c for d, c in factors] for factors in MONOMIALS]).T.copy()


def _score_table():
    """The fixed linear map from T (27,) to the coefficients of e1..e4 on MONOMIALS, (4 * 28, 27).

    e_i = T(x, y, z) with (x, y, z) the directions at SLOTS[i], so the entry
    T[u, v, w] adds to the coefficient of e_i on the monomial x_u y_v z_w.
    """
    index = {factors: j for j, factors in enumerate(MONOMIALS)}
    table = np.zeros((len(SLOTS), len(MONOMIALS), 27))
    for i, slots in enumerate(SLOTS):
        for entry, axes in enumerate(AXES):
            table[i, index[tuple(sorted(zip(slots, axes)))], entry] += 1.0
    return table.reshape(-1, 27)


SCORE_TABLE = _score_table()


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


def _finite_real(components):
    """The stacked components as floats; a ValueError unless all are reals within MAX_COMPONENT."""
    if components.dtype.kind in "biuf":
        components = components.astype(float, copy=False)
        # a NaN makes the max NaN, which fails the bound; an empty stack passes
        if np.abs(components).max(initial=0.0) <= MAX_COMPONENT:
            return components
    raise ValueError(f"directions must hold finite real numbers, |components| <= {MAX_COMPONENT:g}")


def monomials(n1, n2):
    """MONOMIALS of the directions (n1, n2): (28,) for two 3-vectors, (28, ...) for (..., 3) arrays.

    Two 3-vectors take one gather of their stacked components.  Arrays are
    broadcast and stacked as the contiguous rows of a (6, N) array, and the
    monomials are filled row by row, so that no temporary exceeds a row.
    Both take float components: a stack with an entry that is not a real of size at most
    MAX_COMPONENT raises (:func:`_finite_real`), so no monomial passes 1e300.
    """
    shapes = np.shape(n1), np.shape(n2)
    if shapes[0][-1:] != (3,) or shapes[1][-1:] != (3,):
        raise ValueError(f"directions need a last axis of length 3, got {shapes[0]}, {shapes[1]}")
    if len(shapes[0]) == len(shapes[1]) == 1:
        return np.multiply.reduce(_finite_real(np.concatenate((n1, n2)))[FACTORS])
    n1, n2 = np.broadcast_arrays(n1, n2)
    # float, unless a complex or object entry must reach the check uncast
    v = np.empty((6, n1[..., 0].size), np.result_type(n1, n2, float))
    v[:3], v[3:] = n1.reshape(-1, 3).T, n2.reshape(-1, 3).T
    v = _finite_real(v)
    table = np.empty((len(MONOMIALS), v.shape[1]))
    for row, a, b, c in zip(table, *FACTORS):
        np.multiply(v[a], v[b], out=row)
        row *= v[c]
    return table.reshape((len(MONOMIALS),) + n1.shape[:-1])


def correlators_from_monomials(tensor, table):
    """(e1..e4) of the Pauli tensor at the direction pairs whose MONOMIALS are `table`, (28, ...).

    e1..e4 are linear in the monomials, with coefficients SCORE_TABLE @ T, so
    one product gives them, each of the shape of `table`'s trailing axes.
    """
    quad = SCORE_TABLE.dot(tensor.reshape(27)).reshape(len(SLOTS), len(MONOMIALS))
    quad = quad.dot(table.reshape(len(MONOMIALS), -1))
    return CorrelatorQuad(*quad.reshape((len(SLOTS),) + table.shape[1:]))


def correlators_from_tensor(tensor, n1, n2):
    """(e1..e4) of the Pauli tensor at two directions, by :func:`monomials`.

    Two 3-vectors give numpy float scalars.  Directions of shape (..., 3)
    broadcast and give e1..e4 of their leading shape, one per pair of rows.
    A component that is not a real of size at most MAX_COMPONENT raises
    ValueError; below that bound e1..e4 are always finite.
    """
    return correlators_from_monomials(tensor, monomials(n1, n2))


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
    s = (spin_observable(frame.n1), spin_observable(frame.n2))
    s1, s2 = s
    # O1 = s1 x s2 x s2, O2 = s2 x s1 x s2, O3 = s2 x s2 x s1 and O4 = s1 x s1 x s1
    o1, o2, o3, o4 = (kron(*(s[k] for k in slots)) for slots in SLOTS)
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
