"""Small dense complex linear algebra: Pauli and Heisenberg-Weyl operators, frames.

Every matrix is a plain dense complex numpy array and every function is pure.
"""

import cmath
import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

ATOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def kron(*matrices):
    """Kronecker product of any number of matrices, left to right."""
    out = np.asarray(matrices[0], dtype=complex)
    for m in matrices[1:]:
        m = np.asarray(m, dtype=complex)
        # broadcasting beats np.kron by a wide margin on these tiny matrices
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(
            out.shape[0] * m.shape[0], out.shape[1] * m.shape[1]
        )
    return out


def max_norm(m):
    """Entrywise max-abs norm, the equality norm used throughout."""
    return float(np.max(np.abs(m))) if np.size(m) else 0.0


def unit_vector(n):
    """Validate and return a real unit 3-vector as a float array."""
    n = np.asarray(n, dtype=float)
    if n.shape != (3,):
        raise ValueError(f"direction must be a real 3-vector, got shape {n.shape}")
    # hypot scales its arguments, so a huge entry gives its length, not an overflow warning
    norm = math.hypot(*n)
    if not abs(norm - 1.0) < ATOL:
        raise ValueError(f"direction must be unit length, got |n| = {norm!r}")
    return n


def spin_observable(n):
    """Spin observable along a unit direction: n . (sigma_x, sigma_y, sigma_z)."""
    n = unit_vector(n)
    return n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z


@dataclass(frozen=True)
class OrthoFrame:
    """Ordered pair of unit measurement directions and their inner product.

    ``c`` is the inner product n1.n2.  Orthogonality is *not* required: the
    functional is defined on any pair, and ``c`` says how far a frame is from
    orthogonal.
    """

    n1: np.ndarray
    n2: np.ndarray
    c: float = field(init=False)

    def __post_init__(self):
        n1 = unit_vector(self.n1)
        n2 = unit_vector(self.n2)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)
        object.__setattr__(self, "c", float(np.dot(n1, n2)))


def weyl_operator(d, p, q):
    """Heisenberg-Weyl unitary tau**(-p*q) X**p Z**q on C^d with label (p, q).

    X|j> = |j+1 mod d> is the shift, Z|j> = omega**j |j> the clock, with
    omega = tau**2 and tau = exp(i*pi/d), a primitive 2d-th root of unity;
    tau**(-p*q) agrees with the half-integer power of omega for odd d and
    stays well defined for even d.  The operator is monomial: column j holds
    tau**(2*q*j - p*q), by :func:`weyl_root`, in row (j + p) mod d.  Recovers
    sigma_x, sigma_z (and -sigma_y at (1,1)) when d = 2.  Integer labels are
    reduced mod d.
    """
    if not (isinstance(d, Integral) and d >= 2):
        raise ValueError(f"qudit dimension d must be an integer >= 2, got {d!r}")
    for name, label in (("p", p), ("q", q)):
        if not isinstance(label, Integral):
            raise ValueError(f"Weyl label {name} must be an integer, got {label!r}")
    p, q = p % d, q % d
    w = np.zeros((d, d), dtype=complex)
    # d scalar exponentials beat numpy's per-call cost at the small d this serves
    for j in range(d):
        w[(j + p) % d, j] = weyl_root(d, 2 * q * j - p * q)
    return w


def weyl_root(d, k):
    """tau**k with tau = exp(i*pi/d), k reduced mod 2d, as one exponential.

    Every Weyl operator entry and the qudit phase omega**(2s) = tau**(4s) are
    this one rounded root of unity, which is exactly 1 whenever k = 0 mod 2d.
    """
    return cmath.exp(1j * math.pi / d * (k % (2 * d)))


def symplectic_form(d, g1, g2):
    """Symplectic pairing (p1*q2 - p2*q1) mod d of two Weyl labels."""
    return (g1[0] * g2[1] - g1[1] * g2[0]) % d
