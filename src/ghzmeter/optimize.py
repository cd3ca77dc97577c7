"""Maximization of |I| over orthonormal frames and related numerical probes."""

from dataclasses import dataclass
from functools import cache
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .correlators import SLOTS, CorrelatorQuad, correlators_from_monomials
from .correlators import correlators_from_tensor, monomials, pauli_tensor, tensor_at_columns
from .functional import I_of, M3_of, w_reduced_I
from .linalg import OrthoFrame
from .states import QuantumState, apply_local_unitaries, check_seed, haar_random_unitary

DEFAULT_RESTARTS = 300
# cells per axis of the Rodrigues cube whose centres are maximize_I's fixed starts
GRID_CELLS = 16
SAMPLES = GRID_CELLS**3
MAX_ITER = 200
INITIAL_DAMPING = 1e-3
GAIN_ATOL = 1e-15
CONVERGENCE_ATOL = 1e-8
# dampings that every polish pass tries at once, ascending, as multiples of a row's damping
LADDER = np.array([1.0 / 3.0, 2.0, 12.0])

# (rotation, column) of n1 and of n2 in a stack of rotations: maximize_I takes
# the first two columns of one rotation, maximize_mermin the third column of each of two
FRAME_COLUMNS = ((0, 0), (0, 1))
MERMIN_COLUMNS = ((0, 2), (1, 2))

# (w x e_c)_j = LEVI_CIVITA[j, l, c] w_l
LEVI_CIVITA = np.fromfunction(lambda i, j, k: (i - j) * (j - k) * (k - i) / 2, (3, 3, 3))


def _quaternion_table():
    """The fixed map from the products q_a q_b of a unit quaternion q = (w, v) to R - I, (16, 9).

    R = I + 2 w [v]_x + 2 [v]_x^2 is the rotation of q.
    """
    eye = np.eye(3)
    table = np.zeros((4, 4, 3, 3))
    table[0, 1:] = 2.0 * LEVI_CIVITA.transpose(1, 0, 2)
    # [v]_x^2 = v v^T - (v.v) I
    table[1:, 1:] = 2.0 * (np.einsum("ai,bj->abij", eye, eye) - np.einsum("ab,ij->abij", eye, eye))
    return table.reshape(16, 9)


QUATERNION_TABLE = _quaternion_table()
IDENTITY = np.eye(3).reshape(9)


def rotation_from_quaternion(q):
    """Rotations R = I + 2 w [v]_x + 2 [v]_x^2 of unit quaternions q = (w, v), shape (..., 4)."""
    products = (q[..., :, None] * q[..., None, :]).reshape(-1, 16)
    # in place: the start grid's temporaries would set a search's peak memory
    rotations = products @ QUATERNION_TABLE
    rotations += IDENTITY
    return rotations.reshape(q.shape[:-1] + (3, 3))


def rotation_from_vector(omega):
    """exp([omega]_x), the rotation by |omega| about omega.

    omega of shape (..., 3) gives rotations of shape (..., 3, 3); omega = 0
    gives the identity exactly.  It is the rotation of the unit quaternion
    (cos(t/2), sin(t/2) omega / t) at t = |omega|.  Its cosine and sine are
    of one rounded half-angle, so it stays orthonormal to rounding at any t,
    and R - I is a sum of products that vanish with omega, so a short step
    rounds no worse than I does.
    """
    omega = np.asarray(omega, dtype=float)
    theta = np.sqrt((omega * omega).sum(axis=-1, keepdims=True))
    half = 0.5 * theta
    axis = omega / np.where(theta > 0.0, theta, 1.0)
    return rotation_from_quaternion(np.concatenate([np.cos(half), np.sin(half) * axis], axis=-1))


def haar_rotations(rng, shape=()):
    """Rotations drawn uniformly from SO(3), of shape `shape` + (3, 3).

    A normalised Gaussian quaternion is uniform on S^3, the double cover of
    SO(3), so its rotation is Haar-distributed.
    """
    q = rng.standard_normal(tuple(shape) + (4,))
    return rotation_from_quaternion(q / np.linalg.norm(q, axis=-1, keepdims=True))


def _start_grid(cells):
    """Rotations of the cells**3 cell centres r of the Rodrigues cube [-1, 1]^3, (cells**3, 3, 3).

    |I| is unchanged by R -> R diag(+-1, +-1, +-1) with det +1, so frames
    need only be searched on SO(3)/D2.  In Rodrigues vectors r = v / w of
    the quaternion q = (w, v), its fundamental zone is this cube (Frank
    1988, "Orientation mapping", Metall. Trans. A 19); r is the rotation of
    q = (1, r) / |(1, r)|.
    """
    centres = (np.arange(cells) + 0.5) * (2.0 / cells) - 1.0
    r = np.stack(np.meshgrid(centres, centres, centres, indexing="ij"), axis=-1).reshape(-1, 3)
    q = np.concatenate([np.ones((len(r), 1)), r], axis=1)
    return rotation_from_quaternion(q / np.linalg.norm(q, axis=1, keepdims=True))


@dataclass(frozen=True)
class OptimizationResult:
    best_value: float
    best_frame: OrthoFrame
    restarts: int
    seed: int
    iterations_total: int
    converged_restarts: int

    @property
    def e_ghz(self):
        return self.best_value / 2.0


class Jet(NamedTuple):
    """Value (...), gradient (m, ...) and Hessian (m, m, ...) of functions at a point.

    The derivative axes lead, so a value broadcasts against them.
    Differences and products follow the rules of differentiation, so
    `I_of` and `M3_of` on a :class:`CorrelatorQuad` of jets give the jet of
    I or M3.
    """

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    def __sub__(self, other):
        return Jet(self.value - other.value, self.grad - other.grad, self.hess - other.hess)

    def __mul__(self, other):
        a, b = self.value, other.value
        cross = self.grad[:, None] * other.grad[None]
        return Jet(
            a * b,
            a * other.grad + b * self.grad,
            a * other.hess + b * self.hess + cross + cross.swapaxes(0, 1),
        )


def _column_jet(p, rotation, column):
    """Jet at w = 0 of R_r exp([w_r]_x) e_c in the 3p columns of a stack of p rotations.

    The chart coordinates w are the p body rotation vectors, and the
    direction moves as R_r (e_c + w_r x e_c + w_r x (w_r x e_c) / 2 + ...),
    so its coordinate 3r + j in the columns R_r e_j has the value, gradient
    and Hessian below, with shapes (3p,), (3p, 3p) and (3p, 3p, 3p).
    """
    m, block = 3 * p, slice(3 * rotation, 3 * rotation + 3)
    value, grad, hess = np.zeros(m), np.zeros((m, m)), np.zeros((m, m, m))
    value[3 * rotation + column] = 1.0
    grad[block, block] = LEVI_CIVITA[:, :, column].T
    twice = np.einsum("jas,sb->abj", LEVI_CIVITA, LEVI_CIVITA[:, :, column])
    hess[block, block, block] = 0.5 * (twice + twice.swapaxes(0, 1))
    return Jet(value, grad, hess)


@cache
def _chart_table(columns):
    """The fixed linear map from T' to the jets of e1..e4 in the body chart.

    T'[u, v, w] = T(C_u, C_v, C_w), where C holds the m = 3p columns of a
    stack of p rotations.  Each direction is a jet of coordinates in C
    (:func:`_column_jet`), so each e_i = T(x, y, z) has the jet
    sum over (u, v, w) of T'[u, v, w] x_u y_v z_w.  Returns shape
    (4, 1 + m + m*m, m**3): per correlator, the value, the gradient and the
    flattened Hessian as rows over the T' entries, built on the first search.
    """
    p = 1 + max(r for r, _ in columns)
    m = 3 * p
    jets = [_column_jet(p, r, c) for r, c in columns]

    def along(jet, axis):
        shape = [1, 1, 1]
        shape[axis] = m
        return Jet(*(x.reshape(x.shape[:-1] + tuple(shape)) for x in jet))

    table = []
    for slots in SLOTS:
        e = along(jets[slots[0]], 0) * along(jets[slots[1]], 1) * along(jets[slots[2]], 2)
        table.append(np.concatenate([x.reshape(-1, m**3) for x in e]))
    return np.stack(table)


@cache
def _starts(columns):
    """The fixed starts of a search over `columns`, built on the first search that needs them.

    Start i is the stack of rotations grid[order[i]] over the p row orders:
    the identity and, for a second rotation, a fixed shuffle.  Returns the
    grid of :func:`_start_grid`, the orders and the :func:`monomials` of the
    starts' directions (28, SAMPLES), from which
    :func:`correlators_from_monomials` gives their e1..e4 on any tensor.
    """
    grid = _start_grid(GRID_CELLS)
    # pairing each cell r with -r left M3 0.13 short at 60 restarts on some states
    pairing = np.random.default_rng(0).permutation(SAMPLES)
    orders = (np.arange(SAMPLES), pairing)[: 1 + max(r for r, _ in columns)]
    table = monomials(*(grid[orders[r], :, c] for r, c in columns))
    # every search of the process shares them
    grid.flags.writeable = table.flags.writeable = False
    return grid, orders, table


def _directions(rotations, columns):
    """(n1, n2) of rotation stacks (..., p, 3, 3): column c of rotation r for each (r, c)."""
    return tuple(rotations[..., r, :, c] for r, c in columns)


def _derivatives(tensor, functional, columns, rotations):
    """Value, gradient and Hessian of |functional| at every row of `rotations`, shape (k, p, 3, 3).

    Derivatives are taken in the 3p coordinates of the body chart
    R_r exp([w_r]_x).  :func:`tensor_at_columns` gives T' of every row, and one
    product with the chart table gives the jets of e1..e4, which the
    functional combines.  The value's sign makes them those of |functional|.
    """
    k, p = rotations.shape[:2]
    m = 3 * p
    t = tensor_at_columns(tensor, rotations.transpose(0, 2, 1, 3).reshape(k, 3, m))
    table = _chart_table(columns)
    jets = (table.reshape(-1, m**3) @ t.reshape(k, m**3).T).reshape(4, -1, k)
    quad = (Jet(j[0], j[1 : m + 1], j[m + 1 :].reshape(m, m, k)) for j in jets)
    f = functional(CorrelatorQuad(*quad))
    sign = np.sign(f.value)
    return sign * f.value, (sign * f.grad).T, (sign * f.hess).transpose(2, 0, 1)


def _polish(tensor, functional, columns, rotations):
    """Levenberg-Marquardt ascent of |functional| from every row of `rotations` at once.

    Each row is a stack of p rotations, shape (p, 3, 3), moved in the body
    chart R exp([w]_x) around itself, re-centred after every accepted step.
    The gradient g and Hessian H in the 3p chart coordinates are exact, from
    :func:`_derivatives`.  A pass takes one eigendecomposition of every
    active row's H, and from it the steps (shift I - H) s = g at each damping
    of the row's ladder damp * LADDER, with shift = max(0, lambda_max(H)) +
    damping (:func:`_ladder_steps`).  The trials of all rows are evaluated
    together.  A row moves to its best trial if that gains, and damp becomes
    a third of that trial's damping; if no trial gains, damp becomes four
    times the largest.  A row retires once the largest gain its quadratic
    model predicts is at most GAIN_ATOL.  Returns the final rotations, their
    values and the row-passes, the number of passes summed over the rows.
    """
    rotations = rotations.copy()
    k, p = rotations.shape[:2]
    values, grad, hess = _derivatives(tensor, functional, columns, rotations)
    damp = np.full(k, INITIAL_DAMPING)
    active, iterations = np.arange(k), 0
    for _ in range(MAX_ITER):
        lam, vec = np.linalg.eigh(hess[active])
        ladder = damp[active, None] * LADDER
        eigen_steps, model = _ladder_steps((grad[active, None] @ vec)[:, 0], lam, ladder)
        # the least damped step has the largest model gain
        keep = model[:, 0] > GAIN_ATOL
        active, ladder = active[keep], ladder[keep]
        if not active.size:
            break
        steps = eigen_steps[keep] @ vec[keep].swapaxes(1, 2)
        moves = rotation_from_vector(steps.reshape(ladder.shape + (p, 3)))
        trials = (rotations[active, None] @ moves).reshape(-1, p, 3, 3)
        t_values, t_grad, t_hess = _derivatives(tensor, functional, columns, trials)
        # each row's best trial, as an index into the (row, level) trials
        best = np.argmax(t_values.reshape(ladder.shape), axis=1)
        best += np.arange(0, len(trials), len(LADDER))
        gain = t_values[best] > values[active]
        damp[active] = np.where(gain, ladder.reshape(-1)[best] / 3.0, ladder[:, -1] * 4.0)
        moved, best = active[gain], best[gain]
        rotations[moved], values[moved] = trials[best], t_values[best]
        grad[moved], hess[moved] = t_grad[best], t_hess[best]
        iterations += active.size
    return rotations, values, iterations


def _ladder_steps(g, lam, ladder):
    """Damped steps and their model gains at every damping of a ladder, in the Hessian's eigenbasis.

    lam (k, m) holds the ascending eigenvalues of the Hessians H, g (k, m)
    the gradients in their eigenbases and ladder (k, L) the dampings.  With
    shift = max(0, lam_max) + damping, shift I - H is positive definite, and
    the step s = (shift I - H)^-1 g has coordinates g / (shift - lam).  Its
    model gain g.s + s.H.s / 2 is a sum over the eigenbasis, and it falls as
    the damping grows.  Returns the steps (k, L, m) and model gains (k, L).
    """
    shift = np.maximum(lam[:, -1:], 0.0) + ladder
    steps = g[:, None] / (shift[..., None] - lam[:, None])
    model = (steps * (g[:, None] + 0.5 * lam[:, None] * steps)).sum(axis=-1)
    return steps, model


def _best_rows(scores, count):
    """np.argsort(-scores, kind="stable")[:count] by a partial selection.

    Every row that scores at least the count-th best is kept, and only those
    are sorted, so tied scores stay in index order.
    """
    lower = -scores
    kth = np.partition(lower, count - 1)[count - 1]
    rows = np.flatnonzero(lower <= kth)
    return rows[np.argsort(lower[rows], kind="stable")][:count]


def _search(tensor, functional, columns, restarts, seed):
    """Seeded maximization of |functional(e1..e4)| over stacks of rotations (p, 3, 3).

    `columns` names the (rotation, column) of n1 and of n2 in a stack.  The
    seed draws one Haar rotation R0; the SAMPLES fixed starts of
    :func:`_starts` are scored at once on T(R0., R0., R0.), whose e1..e4 at
    (n1, n2) are T's at (R0 n1, R0 n2), by :func:`correlators_from_monomials`
    of their monomial table, and the best `restarts` are polished together
    by :func:`_polish`.  Ties keep index order, so more restarts only add
    rows.  Returns |functional| at the best directions turned back by R0,
    those directions (n1, n2), the summed polish iterations and the rows
    that ended within CONVERGENCE_ATOL of it.
    """
    check_seed(seed)
    if not (isinstance(restarts, Integral) and 1 <= restarts <= SAMPLES):
        raise ValueError(f"restarts must be an integer in [1, {SAMPLES}], got {restarts!r}")
    grid, orders, table = _starts(columns)
    r0 = haar_rotations(np.random.default_rng(seed))
    rotated = tensor_at_columns(tensor, r0)
    rows = _best_rows(np.abs(functional(correlators_from_monomials(rotated, table))), restarts)
    starts = np.stack([grid[order[rows]] for order in orders], axis=1)
    rotations, values, iterations = _polish(rotated, functional, columns, starts)
    best = int(np.argmax(values))
    converged = int(np.sum(values[best] - values < CONVERGENCE_ATOL))
    directions = tuple(r0 @ d for d in _directions(rotations[best], columns))
    value = float(abs(functional(correlators_from_tensor(tensor, *directions))))
    return value, directions, iterations, converged


def maximize_I(state, restarts=DEFAULT_RESTARTS, seed=0):
    """Multistart maximization of |I| over orthonormal frames, by :func:`_search`.

    The starts are the cells of :func:`_start_grid`, which cover SO(3)/D2,
    with (n1, n2) the first two columns of their rotations; the polish stays
    on SO(3).
    `best_value` equals abs(eval_I(state, best_frame)).  Deterministic for a
    fixed (state, restarts, seed).
    """
    value, directions, iterations, converged = _search(
        pauli_tensor(state), I_of, FRAME_COLUMNS, restarts, seed
    )
    return OptimizationResult(
        best_value=value,
        best_frame=OrthoFrame(*directions),
        restarts=restarts,
        seed=seed,
        iterations_total=iterations,
        converged_restarts=converged,
    )


def e_ghz(state, restarts=DEFAULT_RESTARTS, seed=0):
    """Half the maximized |I| over orthonormal frames."""
    return maximize_I(state, restarts=restarts, seed=seed).e_ghz


def maximize_mermin(state, restarts=100, seed=0):
    """Maximum of the linear Mermin combination over two unit directions, by :func:`_search`.

    The directions are independent, not orthogonal: each is the third column
    of its own rotation, from the SAMPLES start pairs (grid[i], grid[pairing[i]])
    of :func:`_starts`.  M3 is odd under (n1, n2) -> (-n1, -n2), so its
    maximum is max |M3|.
    """
    return _search(pauli_tensor(state), M3_of, MERMIN_COLUMNS, restarts, seed)[0]


def w_analytic_max():
    """Branch analysis of the W-state objective f(u, v) on u^2 + v^2 <= 1.

    The stationarity condition in v singles out the branches v = 0 and
    v^2 = 2/9, plus the disc boundary; each branch is scanned on a fine
    grid, as one array, together with its analytic critical points.  Returns
    (max |f|, argmax list, per-branch maxima).
    """
    branch_maxima = {}

    # Branch v = 0: f = (89/27) u^3 - 2u on u in [-1, 1].
    us = np.concatenate([np.linspace(-1.0, 1.0, 2001), [-1.0, 1.0]])
    branch_maxima["v=0"] = float(np.max(np.abs(w_reduced_I(us, 0.0))))

    # Branch v^2 = 2/9: f = -u (2 - 3u^2) on u^2 <= 7/9, extremal at u^2 = 2/9.
    v, umax = np.sqrt(2.0 / 9.0), np.sqrt(7.0 / 9.0)
    us = np.concatenate([np.linspace(-umax, umax, 2001), [-v, v]])
    branch_maxima["v^2=2/9"] = float(np.max(np.abs(w_reduced_I(us, v))))

    # Disc boundary u^2 + v^2 = 1.
    us = np.linspace(-1.0, 1.0, 2001)
    vs = np.sqrt(np.maximum(0.0, 1.0 - us * us))
    branch_maxima["boundary"] = float(np.max(np.abs(w_reduced_I(us, vs))))

    best = max(branch_maxima.values())
    argmax = [(u, 0.0) for u in (1.0, -1.0) if abs(abs(w_reduced_I(u, 0.0)) - best) < 1e-12]
    return best, argmax, branch_maxima


@dataclass(frozen=True)
class ConvexityReport:
    p_grid: tuple
    mixture_values: tuple
    chord_values: tuple
    max_violation: float


def convexity_probe(rho1, rho2, p_grid=None, restarts=60, seed=0):
    """Compare the indicator on mixtures against the convex chord.

    Positive ``max_violation`` beyond the searches' slack would be a
    convexity breach (reported as a finding, never raised).  Every mixing
    weight in ``p_grid`` must lie in [0, 1].
    """
    if p_grid is None:
        p_grid = np.linspace(0.0, 1.0, 11)
    weights = np.asarray(p_grid, dtype=float)
    if not (weights.size and np.all((0.0 <= weights) & (weights <= 1.0))):
        raise ValueError(f"p_grid must hold mixing weights in [0, 1], got {weights.tolist()!r}")
    d1, d2 = rho1.density_matrix(), rho2.density_matrix()
    end1 = e_ghz(rho1, restarts=restarts, seed=seed)
    end2 = e_ghz(rho2, restarts=restarts, seed=seed + 1)
    mixture_values, chord_values = [], []
    for idx, p in enumerate(p_grid):
        mixed = QuantumState(rho1.local_dim, density=p * d1 + (1.0 - p) * d2)
        mixture_values.append(e_ghz(mixed, restarts=restarts, seed=seed + 2 + idx))
        chord_values.append(p * end1 + (1.0 - p) * end2)
    violation = max(m - c for m, c in zip(mixture_values, chord_values))
    return ConvexityReport(
        p_grid=tuple(float(p) for p in p_grid),
        mixture_values=tuple(mixture_values),
        chord_values=tuple(chord_values),
        max_violation=float(violation),
    )


def lu_invariance_check(state, seed=0, trials=20, restarts=60, per_party=False):
    """Recompute the indicator along random local-unitary orbits of a state.

    Each trial applies a Haar-random single-qubit unitary collectively
    (U, U, U); such a rotation only re-labels the direction frame, so the
    supremum is exactly invariant.  With ``per_party=True`` three
    independent unitaries are drawn instead; because the frame pair is
    shared across parties, the supremum is generally *not* preserved in
    that case, and the returned deviation records how far it moves.

    Returns (reference, values, max_deviation).
    """
    if not (isinstance(trials, Integral) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    reference = e_ghz(state, restarts=restarts, seed=seed)
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(trials):
        if per_party:
            ua, ub, uc = (haar_random_unitary(2, rng) for _ in range(3))
        else:
            ua = ub = uc = haar_random_unitary(2, rng)
        rotated = apply_local_unitaries(state, ua, ub, uc)
        values.append(e_ghz(rotated, restarts=restarts, seed=seed))
    deviation = max(abs(v - reference) for v in values)
    return reference, values, float(deviation)
