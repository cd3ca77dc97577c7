"""Maximization of |I| over orthonormal frames and related numerical probes."""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .correlators import correlators_from_tensor, pauli_tensor
from .functional import w_reduced_I
from .linalg import OrthoFrame
from .states import QuantumState, apply_local_unitaries, haar_random_unitary

DEFAULT_RESTARTS = 300
SAMPLES = 4096
SIMPLEX_EDGE = 0.25
MAX_ITER = 2000
XATOL = 1e-10
FATOL = 1e-13
CONVERGENCE_ATOL = 1e-8


def euler_frame(alpha, beta, gamma):
    """(R x_hat, R y_hat) for R = Rz(alpha) @ Ry(beta) @ Rz(gamma), in closed form.

    Elementwise in the angles: scalars give two 3-vectors, angle vectors of
    length N give two (N, 3) direction arrays.
    """
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    cg, sg = np.cos(gamma), np.sin(gamma)
    n1 = np.array([ca * cb * cg - sa * sg, sa * cb * cg + ca * sg, -sb * cg])
    n2 = np.array([-ca * cb * sg - sa * cg, ca * cg - sa * cb * sg, sb * sg])
    return n1.T, n2.T


def sphere_pair(theta1, phi1, theta2, phi2):
    """Unit directions at spherical angles (theta1, phi1) and (theta2, phi2).

    Elementwise like :func:`euler_frame`.
    """
    theta, phi = np.array([theta1, theta2]), np.array([phi1, phi2])
    st = np.sin(theta)
    n = np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)])
    return n[:, 0].T, n[:, 1].T


def frame_from_angles(alpha, beta, gamma):
    """Orthonormal frame (R x_hat, R y_hat) from ZYZ Euler angles; exact by construction."""
    return OrthoFrame(*euler_frame(alpha, beta, gamma))


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


def _search(tensor, functional, directions, starts, restarts):
    """Maximize |functional(e1..e4)| over the angle space that `directions` maps.

    All `starts` (one row of angles each) are scored in one batched
    contraction, then Nelder-Mead runs from the best `restarts` of them.  The
    order is a stable sort, so more restarts only add searches.  Returns the
    best value, its angles, the total Nelder-Mead iterations and the number
    of searches that ended within CONVERGENCE_ATOL of the best.
    """
    if not 1 <= restarts <= len(starts):
        raise ValueError(f"restarts must be in [1, {len(starts)}], got {restarts!r}")

    def value(x):
        return np.abs(functional(correlators_from_tensor(tensor, *directions(*x.T))))

    order = np.argsort(-value(starts), kind="stable")[:restarts]
    simplex = SIMPLEX_EDGE * np.vstack([np.zeros(starts.shape[1]), np.eye(starts.shape[1])])
    options = {"maxiter": MAX_ITER, "xatol": XATOL, "fatol": FATOL}
    runs = [
        minimize(
            lambda x: -value(x),
            x0,
            method="Nelder-Mead",
            options={"initial_simplex": x0 + simplex, **options},
        )
        for x0 in starts[order]
    ]
    values = np.array([-run.fun for run in runs])
    best = int(np.argmax(values))
    converged = int(np.sum(values[best] - values < CONVERGENCE_ATOL))
    return float(values[best]), runs[best].x, sum(run.nit for run in runs), converged


def maximize_I(state, restarts=DEFAULT_RESTARTS, seed=0):
    """Multistart Nelder-Mead maximization of |I| over orthonormal frames.

    SAMPLES Haar-random rotations are scored at once and the search runs
    from the best `restarts` of them (1 <= restarts <= SAMPLES), over the
    three unconstrained Euler angles, so every visited frame is exactly
    orthonormal.  Deterministic for a fixed (state, restarts, seed).
    """
    tensor = pauli_tensor(state)
    starts = random_euler_angles(np.random.default_rng(seed), SAMPLES)
    value, angles, iterations, converged = _search(
        tensor, lambda e: e.e4 - e.e1 * e.e2 * e.e3, euler_frame, starts, restarts
    )
    return OptimizationResult(
        best_value=value,
        best_frame=frame_from_angles(*angles),
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
    constrained to be orthogonal); each is parametrized by spherical angles.
    M3 is odd under (n1, n2) -> (-n1, -n2), so its maximum is max |M3|.
    """
    rng = np.random.default_rng(seed)
    theta1, theta2 = np.arccos(rng.uniform(-1.0, 1.0, (2, SAMPLES)))
    phi1, phi2 = rng.uniform(0.0, 2.0 * np.pi, (2, SAMPLES))
    starts = np.stack([theta1, phi1, theta2, phi2], axis=-1)
    return _search(
        pauli_tensor(state), lambda e: e.e4 - e.e1 - e.e2 - e.e3, sphere_pair, starts, restarts
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

    @property
    def convex_within_tolerance(self):
        return self.max_violation <= self.tolerance


def convexity_probe(rho1, rho2, p_grid=None, restarts=60, seed=0, tolerance=1e-4):
    """Compare the indicator on mixtures against the convex chord.

    Positive ``max_violation`` beyond the tolerance would be a convexity
    breach (reported as a finding, never raised).
    """
    if p_grid is None:
        p_grid = np.linspace(0.0, 1.0, 11)
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
