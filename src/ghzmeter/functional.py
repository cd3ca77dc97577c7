"""The multiplicative GHZ functional, its closed forms, and the qudit version."""

import itertools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .correlators import SLOTS, CorrelatorQuad, correlators_from_tensor, pauli_tensor
from .correlators import tensor_at_columns
from .linalg import ATOL, as_real, max_norm, symplectic_form, weyl_operator, weyl_root
from .states import StateError, check_local_dim


def I_of(e):
    """I = e4 - e1*e2*e3 of a :class:`CorrelatorQuad`, elementwise over its arrays."""
    return e.e4 - e.e1 * e.e2 * e.e3


def M3_of(e):
    """Mermin's M3 = e4 - e1 - e2 - e3 of a :class:`CorrelatorQuad`, elementwise."""
    return e.e4 - e.e1 - e.e2 - e.e3


def eval_I(state, frame):
    """I(n1, n2) on a three-qubit state.

    The frame need not be orthogonal; orthogonality is a constraint of the
    entanglement indicator's supremum, not of the functional itself.
    """
    return I_of(correlators_from_tensor(pauli_tensor(state), frame.n1, frame.n2))


def mermin_M3(state, frame):
    """Linear Mermin combination M3 at the frame's axes."""
    return M3_of(correlators_from_tensor(pauli_tensor(state), frame.n1, frame.n2))


def lhv_oracle():
    """Values of I attainable by deterministic local hidden-variable models.

    Enumerates all 64 assignments A = (A(n1), A(n2)), B and C likewise, in
    {-1, +1}, where e_i = A[i] * B[j] * C[k] for (i, j, k) in SLOTS, and
    returns the set of values of I they attain.
    """
    signs = list(itertools.product((-1, 1), repeat=2))
    return {
        I_of(CorrelatorQuad(*(a[i] * b[j] * c[k] for i, j, k in SLOTS)))
        for a, b, c in itertools.product(signs, repeat=3)
    }


def closed_form_from_mu(mu):
    """I_of at the canonical correlators e1 = e2 = e3 = -2mu, e4 = 2mu: 8*mu^3 + 2*mu."""
    mu = as_real(mu, "mu", ())
    if not abs(mu) <= 0.5 + ATOL:
        raise ValueError(f"mu = lambda0*lambda4 must be finite with |mu| <= 1/2, got {mu!r}")
    return I_of(CorrelatorQuad(-2.0 * mu, -2.0 * mu, -2.0 * mu, 2.0 * mu))


def acin_closed_form(params):
    """Closed-form I(x, y) on the canonical family; depends only on lambda0*lambda4."""
    return closed_form_from_mu(params.mu)


def schmidt_subfamily_I(beta):
    """I at the canonical frame on cos(b)|000> + sin(b)|111>, of mu = sin(2b)/2."""
    angle = 2.0 * as_real(beta, "beta", ())
    if not math.isfinite(angle):
        raise ValueError(f"beta must be a finite angle, got {beta!r}")
    return closed_form_from_mu(np.sin(angle) / 2.0)


def tau3_relation(tau3):
    """I at the canonical frame of the three-tangle t3 = 4*mu^2: sqrt(t3)*(t3 + 1)."""
    tau3 = as_real(tau3, "tau3", ())
    if not 0.0 <= tau3 <= 1.0:
        raise ValueError(f"three-tangle must lie in [0, 1], got {tau3!r}")
    return closed_form_from_mu(np.sqrt(tau3) / 2.0)


def w_reduced_I(a3, b3):
    """I on the W state for an orthogonal frame with z-projections (a3, b3).

    Feasibility requires a3^2 + b3^2 <= 1 (the two orthonormal directions
    cannot both hug the z axis), of every element when a3, b3 are arrays.
    Products, not powers, round alike on arrays and scalars.
    """
    a3, b3 = as_real(a3, "a3"), as_real(b3, "b3")
    with np.errstate(over="ignore"):  # an overflowing square is infeasible
        feasible = np.all(np.square(a3) + np.square(b3) <= 1.0 + ATOL)
    if not feasible:
        raise ValueError(
            f"no orthogonal frame has z-projections ({a3!r}, {b3!r}): a3^2 + b3^2 must be <= 1"
        )
    a3_squared, t = a3 * a3, 2.0 / 3.0 - 3.0 * (b3 * b3)
    return a3 * (2.0 - 3.0 * a3_squared) - (a3_squared * a3) * (t * t * t)


@dataclass(frozen=True)
class QuditGenPair:
    """Two Weyl labels g1, g2 in Z_d^2, d a state's local dimension, and their pairing."""

    d: int
    g1: tuple
    g2: tuple

    def __post_init__(self):
        check_local_dim(self.d)
        for name, g in (("g1", self.g1), ("g2", self.g2)):
            # a tuple, list or 1-D array, stored as a tuple of ints so that equal pairs hash alike
            sized = isinstance(g, (tuple, list)) or isinstance(g, np.ndarray) and g.ndim == 1
            labels = tuple(g) if sized and len(g) == 2 else ()
            if not (labels and all(isinstance(x, Integral) and 0 <= x < self.d for x in labels)):
                raise ValueError(f"generator {name} must be a pair of integers in [0, {self.d})")
            object.__setattr__(self, name, tuple(int(x) for x in labels))

    @property
    def symplectic(self):
        return symplectic_form(self.d, self.g1, self.g2)

    @property
    def phase(self):
        """exp(4*pi*i*s/d) = tau**(4s) for s = <g1, g2>, rounded as a Weyl operator entry."""
        return weyl_root(self.d, 4 * self.symplectic)


def qudit_product_residual(pair):
    """Max-norm residual of G1 G2 G3 - pair.phase * G4, formed site by site.

    G1 G2 G3 = (W1 W2 W2) x (W2 W1 W2) x (W2 W2 W1) and G4 = W1 x W1 x W1.
    Both sides vanish outside S_1 x S_2 x S_3, S_s the union of the supports
    of site s's two factors, so the max-norm over it is the full d**3 x d**3
    one; Weyl products are monomial, so |S_s| <= 2d.  The identity is only
    claimed when 2*g2 = 0 mod d, so the residual is reported, not asserted.
    """
    w = [weyl_operator(pair.d, *g) for g in (pair.g1, pair.g2)]
    lhs = [w[i] @ w[j] @ w[k] for i, j, k in zip(*SLOTS[:3])]
    rhs = [w[i] for i in SLOTS[3]]
    support = [(a != 0) | (b != 0) for a, b in zip(lhs, rhs)]
    residual = np.einsum("i,j,k->ijk", *(a[s] for a, s in zip(lhs, support)))
    residual -= pair.phase * np.einsum("i,j,k->ijk", *(b[s] for b, s in zip(rhs, support)))
    return max_norm(residual)


def weyl_correlators(state, w):
    """E[a, b, c] = <W_a x W_b x W_c> for the single-qudit operators w (2, d, d).

    Three single-party contractions by :func:`tensor_at_columns`, so no
    d**3 x d**3 operator is formed.  A pure state's amplitudes psi[i, j, k]
    meet the 2d columns (a, i) holding row i of W_a, which gives
    (W_a x W_b x W_c) psi for all eight (a, b, c) in one (2d)**3 tensor, read
    against conj(psi).  A density matrix becomes a (d**2)**3 tensor over the
    (row, column) index pairs of each party and meets the two columns
    vec(W_a^T), so E[a, b, c] = Tr((W_a x W_b x W_c) rho) directly.
    """
    d = w.shape[-1]
    if state.vector is not None:
        psi = state.vector.reshape(d, d, d)
        t = tensor_at_columns(psi, w.transpose(2, 0, 1).reshape(d, 2 * d))
        return np.einsum("aibjck,ijk->abc", t.reshape((2, d) * 3), psi.conj())
    rho = state.density.reshape((d,) * 6).transpose(0, 3, 1, 4, 2, 5)
    return tensor_at_columns(rho.reshape((d * d,) * 3), w.transpose(0, 2, 1).reshape(2, d * d).T)


def eval_Id(state, pair):
    """Qudit functional <G4> - pair.phase * <G1><G2><G3>; complex, |I_d| <= 2.

    G1..G4 are read at SLOTS from the correlators of W(g1), W(g2), as
    :func:`eval_I` reads e1..e4 from the Pauli tensor.
    """
    if state.local_dim != pair.d:
        raise StateError(
            f"state has local_dim {state.local_dim} but generators live in Z_{pair.d}"
        )
    w = np.array((weyl_operator(pair.d, *pair.g1), weyl_operator(pair.d, *pair.g2)))
    return _Id_of(state, pair, w)


def _Id_of(state, pair, w):
    """I_d of `pair` from its single-site operators w = (W(g1), W(g2)), shape (2, d, d)."""
    e = weyl_correlators(state, w)
    g1, g2, g3, g4 = (complex(e[slots]) for slots in SLOTS)
    return I_of(CorrelatorQuad(pair.phase * g1, g2, g3, g4))


def scan_qudit_pairs(state):
    """Exhaustive scan of |I_d| over all non-commuting generator pairs, d = state.local_dim.

    The d**2 single-site Weyl operators are built once, and a pair is only
    made for labels that do not commute.  Returns
    (best_modulus, best_pair, results) where results maps each
    :class:`QuditGenPair` with nonzero symplectic pairing to its I_d value.
    """
    d = state.local_dim
    labels = list(itertools.product(range(d), repeat=2))
    weyl = np.array([weyl_operator(d, *g) for g in labels])
    results = {}
    for (i1, g1), (i2, g2) in itertools.product(enumerate(labels), repeat=2):
        if symplectic_form(d, g1, g2):
            pair = QuditGenPair(d, g1, g2)
            results[pair] = _Id_of(state, pair, weyl[[i1, i2]])
    best_pair = max(results, key=lambda pair: abs(results[pair]))
    return abs(results[best_pair]), best_pair, results
