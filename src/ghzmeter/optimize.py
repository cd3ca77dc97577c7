"""Maximization of |I| over orthonormal frames and related numerical probes."""

from dataclasses import dataclass
from itertools import combinations, product
from numbers import Integral

import numpy as np

from .correlators import correlators_from_tensor, pauli_tensor
from .functional import I_of, M3_of, w_reduced_I
from .linalg import OrthoFrame
from .states import QuantumState, apply_local_unitaries, haar_random_unitary

DEFAULT_RESTARTS = 300
SAMPLES = 4096
MAX_ITER = 200
STENCIL_STEP = 1e-4
INITIAL_DAMPING = 1e-3
GAIN_ATOL = 1e-15
CONVERGENCE_ATOL = 1e-8


def euler_rotations(angles):
    """Rotations Rz(alpha) @ Ry(beta) @ Rz(gamma) of angle rows (..., 3), as (..., 3, 3).

    Closed form, elementwise in the angles.  The third column is the
    direction at polar angle beta and azimuth alpha.
    """
    alpha, beta, gamma = np.moveaxis(angles, -1, 0)
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    rows = [
        [ca * cb * cg - sa * sg, -ca * cb * sg - sa * cg, ca * sb],
        [sa * cb * cg + ca * sg, ca * cg - sa * cb * sg, sa * sb],
        [-sb * cg, sb * sg, cb],
    ]
    return np.stack([x for row in rows for x in row], axis=-1).reshape(np.shape(alpha) + (3, 3))


def rotation_from_vector(omega):
    """exp([omega]_x), the rotation by |omega| about omega, by Rodrigues' formula.

    omega of shape (..., 3) gives rotations of shape (..., 3, 3); omega = 0
    gives the identity exactly.
    """
    omega = np.asarray(omega, dtype=float)
    x, y, z = np.moveaxis(omega, -1, 0)
    zero = np.zeros_like(x)
    k = np.stack([zero, -z, y, z, zero, -x, -y, x, zero], axis=-1).reshape(omega.shape + (3,))
    theta = np.linalg.norm(omega, axis=-1)[..., None, None]
    # sin(t) / t and (1 - cos t) / t**2 = (sin(t/2) / t)**2 / 2, both finite at t = 0
    a, b = np.sinc(theta / np.pi), 0.5 * np.sinc(theta / (2 * np.pi)) ** 2
    return np.eye(3) + a * k + b * (k @ k)


def random_euler_angles(rng, n=None):
    """ZYZ angles of rotations drawn uniformly from SO(3): shape (3,), or (n, 3)."""
    alpha = rng.uniform(0.0, 2.0 * np.pi, n)
    beta = np.arccos(rng.uniform(-1.0, 1.0, n))
    gamma = rng.uniform(0.0, 2.0 * np.pi, n)
    return np.stack([alpha, beta, gamma], axis=-1)


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


def _stencil(p):
    """Central-difference stencil in the 3p chart coordinates of p rotations, STENCIL_STEP apart.

    Returns the m moves exp([offset]_x) as (m, p, 3, 3) rotations, and the
    weights (m, 3p) and (m, 3p, 3p) that turn the m values at those moves
    into gradient and Hessian.
    """
    dim = 3 * p
    eye = np.eye(dim)
    rows = [(np.zeros(dim), np.zeros(dim), -2.0 * eye)]
    for i, s in product(range(dim), (1.0, -1.0)):
        rows.append((s * eye[i], 0.5 * s * eye[i], np.outer(eye[i], eye[i])))
    for (i, j), (a, b) in product(combinations(range(dim), 2), product((1.0, -1.0), repeat=2)):
        pair = np.outer(eye[i], eye[j])
        rows.append((a * eye[i] + b * eye[j], np.zeros(dim), 0.25 * a * b * (pair + pair.T)))
    offsets, grad, hess = map(np.array, zip(*rows))
    moves = rotation_from_vector((STENCIL_STEP * offsets).reshape(-1, p, 3))
    return moves, grad / STENCIL_STEP, hess / STENCIL_STEP**2


# one stencil per stack size: p = 1 for maximize_I, p = 2 for maximize_mermin
STENCILS = {p: _stencil(p) for p in (1, 2)}


def _polish(tensor, functional, directions, rotations):
    """Levenberg-Marquardt ascent of |functional| from every row of `rotations` at once.

    Each row is a stack of p rotations, shape (p, 3, 3), moved in the
    rotation-vector chart exp([w]_x) @ R around itself, re-centred after
    every accepted step.  The gradient and Hessian in the 3p chart
    coordinates come from one batched central-difference stencil.  A step
    solves (-H + (max(0, -lambda_min(-H)) + damp) I) s = g; damp shrinks by
    3 after a gain and grows by 4 after a loss, and a row retires once the
    gain its quadratic model predicts is below GAIN_ATOL.  Returns the final
    rotations, their values and the summed iterations of all rows.
    """
    rotations = rotations.copy()
    k, p = rotations.shape[:2]
    moves, grad_weights, hess_weights = STENCILS[p]

    def derivatives(r):
        e = functional(correlators_from_tensor(tensor, *directions(moves @ r[:, None])))
        # the centre's sign keeps the stencil off the kink of |.| at 0
        v = np.sign(e[:, :1]) * e
        return v[:, 0], v @ grad_weights, np.tensordot(v, hess_weights, 1)

    values, grad, hess = derivatives(rotations)
    damp = np.full(k, INITIAL_DAMPING)
    active, iterations = np.arange(k), 0
    for _ in range(MAX_ITER):
        g, h = grad[active], hess[active]
        shift = np.maximum(np.linalg.eigvalsh(h)[:, -1], 0.0) + damp[active]
        step = np.linalg.solve(shift[:, None, None] * np.eye(3 * p) - h, g[..., None])[..., 0]
        model = np.einsum("ki,ki->k", g, step) + 0.5 * np.einsum("ki,kij,kj->k", step, h, step)
        keep = model > GAIN_ATOL
        active, step = active[keep], step[keep]
        if not active.size:
            break
        trial = rotation_from_vector(step.reshape(-1, p, 3)) @ rotations[active]
        t_values, t_grad, t_hess = derivatives(trial)
        gain = t_values > values[active]
        moved = active[gain]
        rotations[moved], values[moved] = trial[gain], t_values[gain]
        grad[moved], hess[moved] = t_grad[gain], t_hess[gain]
        damp[active] *= np.where(gain, 1.0 / 3.0, 4.0)
        iterations += active.size
    return rotations, values, iterations


def _search(tensor, functional, directions, starts, restarts):
    """Maximize |functional(e1..e4)| over stacks of rotations.

    `starts` has shape (n, p, 3, 3) and `directions` maps rotation stacks
    (..., p, 3, 3) to the two direction arrays (..., 3).  All starts are
    scored in one batched contraction, then the best `restarts` of them are
    polished together by :func:`_polish`.  The order is a stable sort, so
    more restarts only add rows.  Returns the best value, its rotation
    stack, the summed polish iterations and the number of rows that ended
    within CONVERGENCE_ATOL of the best.
    """
    if not (isinstance(restarts, Integral) and 1 <= restarts <= len(starts)):
        raise ValueError(f"restarts must be an integer in [1, {len(starts)}], got {restarts!r}")
    scores = np.abs(functional(correlators_from_tensor(tensor, *directions(starts))))
    order = np.argsort(-scores, kind="stable")[:restarts]
    rotations, values, iterations = _polish(tensor, functional, directions, starts[order])
    best = int(np.argmax(values))
    converged = int(np.sum(values[best] - values < CONVERGENCE_ATOL))
    return float(values[best]), rotations[best], iterations, converged


def maximize_I(state, restarts=DEFAULT_RESTARTS, seed=0):
    """Multistart maximization of |I| over orthonormal frames.

    SAMPLES Haar-random rotations R are scored at once, with (n1, n2) the
    first two columns of R, and the best `restarts` of them (1 <= restarts
    <= SAMPLES) are polished together on SO(3), so every visited frame is
    orthonormal.  Deterministic for a fixed (state, restarts, seed).
    """
    tensor = pauli_tensor(state)
    starts = euler_rotations(random_euler_angles(np.random.default_rng(seed), SAMPLES))
    value, rotation, iterations, converged = _search(
        tensor,
        I_of,
        lambda r: (r[..., 0, :, 0], r[..., 0, :, 1]),
        starts[:, None],
        restarts,
    )
    return OptimizationResult(
        best_value=value,
        best_frame=OrthoFrame(rotation[0, :, 0], rotation[0, :, 1]),
        restarts=restarts,
        seed=seed,
        iterations_total=iterations,
        converged_restarts=converged,
    )


def e_ghz(state, restarts=DEFAULT_RESTARTS, seed=0):
    """Half the maximized |I| over orthonormal frames."""
    return maximize_I(state, restarts=restarts, seed=seed).e_ghz


def maximize_mermin(state, restarts=100, seed=0):
    """Maximum of the linear Mermin combination over two shared unit directions.

    Unlike :func:`maximize_I` the two directions are independent (not
    constrained to be orthogonal): each is the third column of its own
    rotation, drawn uniformly on the sphere.  M3 is odd under
    (n1, n2) -> (-n1, -n2), so its maximum is max |M3|.
    """
    rng = np.random.default_rng(seed)
    theta = np.arccos(rng.uniform(-1.0, 1.0, (2, SAMPLES)))
    phi = rng.uniform(0.0, 2.0 * np.pi, (2, SAMPLES))
    starts = euler_rotations(np.stack([phi, theta, np.zeros_like(phi)], axis=-1))
    return _search(
        pauli_tensor(state),
        M3_of,
        lambda r: (r[..., 0, :, 2], r[..., 1, :, 2]),
        starts.swapaxes(0, 1),
        restarts,
    )[0]


def w_analytic_max():
    """Branch analysis of the W-state objective f(u, v) on u^2 + v^2 <= 1.

    The stationarity condition in v singles out the branches v = 0 and
    v^2 = 2/9, plus the disc boundary; each branch is scanned on a fine
    grid together with its analytic critical points.  Returns
    (max |f|, argmax list, per-branch maxima).
    """

    def f(u, v):
        return -w_reduced_I(u, v)

    branch_maxima = {}

    # Branch v = 0: f = (89/27) u^3 - 2u on u in [-1, 1].
    us = np.concatenate([np.linspace(-1.0, 1.0, 2001), [-1.0, 1.0]])
    vals = np.abs([f(u, 0.0) for u in us])
    branch_maxima["v=0"] = float(np.max(vals))

    # Branch v^2 = 2/9: f = -u (2 - 3u^2) on u^2 <= 7/9, extremal at u^2 = 2/9.
    v = np.sqrt(2.0 / 9.0)
    umax = np.sqrt(7.0 / 9.0)
    us = np.concatenate(
        [np.linspace(-umax, umax, 2001), [-np.sqrt(2.0 / 9.0), np.sqrt(2.0 / 9.0)]]
    )
    branch_maxima["v^2=2/9"] = float(np.max(np.abs([f(u, v) for u in us])))

    # Disc boundary u^2 + v^2 = 1.
    us = np.linspace(-1.0, 1.0, 2001)
    branch_maxima["boundary"] = float(
        np.max(np.abs([f(u, np.sqrt(max(0.0, 1.0 - u * u))) for u in us]))
    )

    best = max(branch_maxima.values())
    argmax = [(u, 0.0) for u in (1.0, -1.0) if abs(abs(f(u, 0.0)) - best) < 1e-12]
    return best, argmax, branch_maxima


@dataclass(frozen=True)
class ConvexityReport:
    p_grid: tuple
    mixture_values: tuple
    chord_values: tuple
    max_violation: float
    tolerance: float


def convexity_probe(rho1, rho2, p_grid=None, restarts=60, seed=0, tolerance=1e-4):
    """Compare the indicator on mixtures against the convex chord.

    Positive ``max_violation`` beyond the tolerance would be a convexity
    breach (reported as a finding, never raised).
    """
    if p_grid is None:
        p_grid = np.linspace(0.0, 1.0, 11)
    if not len(p_grid):
        raise ValueError("p_grid must hold at least one mixing weight")
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
        tolerance=tolerance,
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
    rng = np.random.default_rng(seed)
    reference = e_ghz(state, restarts=restarts, seed=seed)
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
