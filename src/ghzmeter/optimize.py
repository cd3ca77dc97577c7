"""Maximization of |I| over orthonormal frames and related numerical probes."""

from dataclasses import dataclass
from functools import cache
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .correlators import SLOTS, CorrelatorQuad, correlators_from_monomials
from .correlators import correlators_from_tensor, monomials, pauli_tensor, tensor_at_columns
from .functional import I_of, M3_of, w_reduced_I
from .linalg import OrthoFrame, as_real
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
# angle (rad) within which two polish rows' n1 and n2, each up to sign, make them twins
TWIN_RADIUS = 0.2
# active rows that _retire_twins compares at once with the kept rows, which bounds its arrays
TWIN_BLOCK = 256

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
    """The outcome of one seeded search by :func:`_search`.

    `best_value` is |functional| evaluated once at (best_frame.n1,
    best_frame.n2), so it equals that evaluation bit for bit.  `restarts`
    and `seed` are the given integers as Python ints.  After each pass, the
    polish retires a row for the first earlier kept row that lies within
    TWIN_RADIUS of it in n1 and in n2, each up to sign, since |I| and |M3|
    are unchanged by n1 -> -n1 and by n2 -> -n2 alone.  `iterations_total`
    counts the row-passes the polish ran, which such twins cut short.
    `converged_restarts` counts the rows that ended within CONVERGENCE_ATOL
    of the best, a twin by the final value of the row it was retired for.
    `e_ghz` is meaningful for |I| only.
    """

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

    Start i is the stack of p rotations of the grid of :func:`_start_grid`:
    grid[i] and, for a second rotation, grid[pairing[i]] under a fixed
    shuffle.  Returns the starts (SAMPLES, p, 3, 3) and the :func:`monomials`
    of their directions (28, SAMPLES), from which
    :func:`correlators_from_monomials` gives their e1..e4 on any tensor.
    """
    grid = _start_grid(GRID_CELLS)
    # pairing each cell r with -r left M3 0.13 short at 60 restarts on some states
    pairing = np.random.default_rng(0).permutation(SAMPLES)
    p = 1 + max(r for r, _ in columns)
    starts = grid[np.stack((np.arange(SAMPLES), pairing)[:p], axis=1)]
    table = monomials(*_directions(starts, columns))
    # every search of the process shares them
    starts.flags.writeable = table.flags.writeable = False
    return starts, table


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
    model predicts is at most GAIN_ATOL, or once, after a pass, one sweep
    in index order finds it a twin of an earlier kept row
    (:func:`_retire_twins`); a retired row keeps its rotation and value.  A
    row's retirement depends only on earlier rows, so every kept row takes
    the same path, up to rounding, at any row count.
    Returns `rotations`, moved in place, their values, `twin_of`, the row
    each row was retired as a twin of (itself if kept), and the row-passes,
    the number of passes summed over the rows.
    """
    k, p = rotations.shape[:2]
    values, grad, hess = _derivatives(tensor, functional, columns, rotations)
    damp = np.full(k, INITIAL_DAMPING)
    active, twin_of, iterations = np.arange(k), np.arange(k), 0
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
        active = _retire_twins(twin_of, active, *_directions(rotations, columns))
    return rotations, values, twin_of, iterations


def _retire_twins(twin_of, active, n1, n2):
    """Retire every active row that is a twin of an earlier kept row; returns the active rows left.

    Rows i < j are twins when |n1_i . n1_j| and |n2_i . n2_j| are both at
    least cos TWIN_RADIUS.  Every e_i holds n1 an odd and n2 an even number
    of times (SLOTS), so |I| and |M3| are unchanged by n1 -> -n1 and by
    n2 -> -n2 alone, and twins climb to one value.  The kept rows are those
    with twin_of[i] == i, whether still active or not.  One sweep in index
    order retires an active row for its first earlier twin still kept:
    twin_of[j] becomes that row, and so does twin_of of the rows retired for
    j before.  The active rows are taken in blocks of TWIN_BLOCK, each
    compared with the rows still kept up to its end, so no array exceeds
    TWIN_BLOCK times the kept rows.
    """
    cos = np.cos(TWIN_RADIUS)
    for start in range(0, len(active), TWIN_BLOCK):
        rows = active[start : start + TWIN_BLOCK]
        ref = np.flatnonzero(twin_of[: rows[-1] + 1] == np.arange(rows[-1] + 1))
        # hit[j, i]: ref[i] is a twin of rows[j]; a unit row is its own twin, so the
        # first twin of a row is never after it
        hit = np.ones((len(rows), len(ref)), bool)
        for n in (n1, n2):
            dots = n[rows] @ n[ref].T
            hit &= np.abs(dots, out=dots) >= cos
        first = ref[hit.argmax(axis=1)]
        contested = np.flatnonzero(first < rows)
        for j, twin, row in zip(contested.tolist(), first[contested].tolist(), rows[contested].tolist()):
            if twin_of[twin] != twin:
                # that twin retired earlier in this block: the first twin still kept, at worst itself
                twins = ref[hit[j]]
                twin = twins[twin_of[twins] == twins][0]
            twin_of[row] = twin
    twin_of[:] = twin_of[twin_of]
    return active[twin_of[active] == active]


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
    rows.  Returns the :class:`OptimizationResult` at the best directions
    turned back by R0.
    """
    check_seed(seed)
    if isinstance(restarts, bool) or not (isinstance(restarts, Integral) and 1 <= restarts <= SAMPLES):
        raise ValueError(f"restarts must be an integer in [1, {SAMPLES}]")
    starts, table = _starts(columns)
    r0 = haar_rotations(np.random.default_rng(seed))
    rotated = tensor_at_columns(tensor, r0)
    rows = _best_rows(np.abs(functional(correlators_from_monomials(rotated, table))), restarts)
    rotations, values, twin_of, iterations = _polish(rotated, functional, columns, starts[rows])
    best = int(np.argmax(values))
    frame = OrthoFrame(*(r0 @ d for d in _directions(rotations[best], columns)))
    value = float(abs(functional(correlators_from_tensor(tensor, frame.n1, frame.n2))))
    converged = int(np.sum(values[best] - values[twin_of] < CONVERGENCE_ATOL))
    return OptimizationResult(value, frame, int(restarts), int(seed), iterations, converged)


def maximize_I(state, restarts=DEFAULT_RESTARTS, seed=0):
    """Multistart maximization of |I| over orthonormal frames, by :func:`_search`.

    The starts are the cells of :func:`_start_grid`, which cover SO(3)/D2,
    with (n1, n2) the first two columns of their rotations; the polish stays
    on SO(3).
    `best_value` equals abs(eval_I(state, best_frame)).  Deterministic for a
    fixed (state, restarts, seed).
    """
    return _search(pauli_tensor(state), I_of, FRAME_COLUMNS, restarts, seed)


def e_ghz(state, restarts=DEFAULT_RESTARTS, seed=0):
    """Half the maximized |I| over orthonormal frames."""
    return maximize_I(state, restarts=restarts, seed=seed).e_ghz


def maximize_mermin(state, restarts=100, seed=0):
    """Maximum of the linear Mermin combination over two unit directions, by :func:`_search`.

    The directions are independent, not orthogonal: each is the third column
    of its own rotation, from the SAMPLES start pairs (grid[i], grid[pairing[i]])
    of :func:`_starts`.  M3 is odd under n1 -> -n1, so its maximum is
    max |M3|.
    """
    return _search(pauli_tensor(state), M3_of, MERMIN_COLUMNS, restarts, seed).best_value


def w_analytic_max():
    """Branch analysis of the W-state objective f(u, v) on u^2 + v^2 <= 1.

    The stationarity condition in v singles out the branches v = 0 and
    v^2 = 2/9, plus the disc boundary u^2 + v^2 = 1; each branch is scanned
    on a fine grid, as one array, together with its analytic critical
    points.  Returns (max |f|, argmax list, per-branch maxima).
    """
    v, umax = np.sqrt(2.0 / 9.0), np.sqrt(7.0 / 9.0)
    us = np.linspace(-1.0, 1.0, 2001)
    branches = {
        # f = (89/27) u^3 - 2u on u in [-1, 1]
        "v=0": (np.concatenate([us, [-1.0, 1.0]]), 0.0),
        # f = -u (2 - 3u^2) on u^2 <= 7/9, extremal at u^2 = 2/9
        "v^2=2/9": (np.concatenate([np.linspace(-umax, umax, 2001), [-v, v]]), v),
        "boundary": (us, np.sqrt(np.maximum(0.0, 1.0 - us * us))),
    }
    branch_maxima = {
        name: float(np.max(np.abs(w_reduced_I(a3, b3)))) for name, (a3, b3) in branches.items()
    }
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
    weights = as_real(p_grid, "p_grid")
    if not (np.ndim(weights) == 1 and weights.size and np.all((0.0 <= weights) & (weights <= 1.0))):
        raise ValueError(f"p_grid must be a list of mixing weights in [0, 1], got {p_grid!r}")
    d1, d2 = rho1.density_matrix(), rho2.density_matrix()
    end1 = e_ghz(rho1, restarts=restarts, seed=seed)
    end2 = e_ghz(rho2, restarts=restarts, seed=seed + 1)
    mixture_values, chord_values = [], []
    for idx, p in enumerate(weights.tolist()):
        mixed = QuantumState(rho1.local_dim, density=p * d1 + (1.0 - p) * d2)
        mixture_values.append(e_ghz(mixed, restarts=restarts, seed=seed + 2 + idx))
        chord_values.append(p * end1 + (1.0 - p) * end2)
    violation = max(m - c for m, c in zip(mixture_values, chord_values))
    return ConvexityReport(
        p_grid=tuple(weights.tolist()),
        mixture_values=tuple(mixture_values),
        chord_values=tuple(chord_values),
        max_violation=float(violation),
    )


def lu_invariance_check(state, seed=0, trials=20, restarts=60):
    """Recompute the indicator along random local-unitary orbits of a state.

    Each trial applies a Haar-random single-qubit unitary collectively
    (U, U, U); such a rotation only re-labels the direction frame, so the
    supremum is exactly invariant.

    Returns (reference, values, max_deviation).
    """
    if isinstance(trials, bool) or not (isinstance(trials, Integral) and trials >= 1):
        raise ValueError("trials must be an integer >= 1")
    reference = e_ghz(state, restarts=restarts, seed=seed)
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(trials):
        u = haar_random_unitary(2, rng)
        values.append(e_ghz(apply_local_unitaries(state, u, u, u), restarts=restarts, seed=seed))
    deviation = max(abs(v - reference) for v in values)
    return reference, values, float(deviation)
