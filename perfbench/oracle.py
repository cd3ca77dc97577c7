"""Independent numpy oracle for the benchmark's correctness checks.

Nothing here imports ghzmeter or scipy: the checks share no code with the
program they check, and the oracle adds no import that the program might
one day drop.
"""

import numpy as np

PAULIS = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)

SEARCH_SAMPLES = 20000
SEARCH_CHUNK = 2000
SEARCH_POLISH = 32
POLISH_STEP = 0.05
# near a smooth maximum the value error is O(step^2), far below the checks' 1e-6
POLISH_MIN_STEP = 1e-8
POLISH_GAIN = 1e-14  # smaller gains are rounding noise
# on a ridge of maxima (product states) axis moves crawl by tiny real gains
POLISH_ITERATIONS = 500
DISTINCT_ANGLE = 0.2


def pauli_tensor(vector=None, density=None):
    """T_ijk = <s_i x s_j x s_k> of a three-qubit state, by one contraction."""
    if vector is not None:
        p = np.asarray(vector, dtype=complex).reshape(2, 2, 2)
        t = np.einsum("abc,iad,jbe,kcf,def->ijk", p.conj(), PAULIS, PAULIS, PAULIS, p)
    else:
        r = np.asarray(density, dtype=complex).reshape((2,) * 6)
        t = np.einsum("iad,jbe,kcf,defabc->ijk", PAULIS, PAULIS, PAULIS, r)
    return t.real


def correlators(tensor, n1, n2):
    """(e1, e2, e3, e4) for direction arrays of shape (..., 3)."""

    def contract(a, b, c):
        return np.einsum("ijk,...i,...j,...k->...", tensor, a, b, c)

    return contract(n1, n2, n2), contract(n2, n1, n2), contract(n2, n2, n1), contract(n1, n1, n1)


def functional_I(tensor, n1, n2):
    e1, e2, e3, e4 = correlators(tensor, n1, n2)
    return e4 - e1 * e2 * e3


def mermin(tensor, n1, n2):
    e1, e2, e3, e4 = correlators(tensor, n1, n2)
    return e4 - e1 - e2 - e3


def acin_vector(lambdas, phi):
    """Canonical three-qubit state l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>."""
    v = np.zeros(8, dtype=complex)
    v[[0, 4, 5, 6, 7]] = lambdas
    v[4] *= np.exp(1j * phi)
    return v


def acin_closed_form(lambdas):
    """I at the frame (x, y) on the canonical family: 2 mu (4 mu^2 + 1), mu = l0 l4."""
    mu = lambdas[0] * lambdas[4]
    return 2.0 * mu * (4.0 * mu**2 + 1.0)


def haar_rotations(rng, n):
    """n Haar-random rotation matrices from uniform unit quaternions (Shoemake)."""
    q = rng.standard_normal((n, 4))
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        -2,
    )


def rotations_from_vectors(v):
    """exp of the skew matrix of each row of v (Rodrigues); shape (m, 3) -> (m, 3, 3)."""
    k = np.zeros((len(v), 3, 3))
    k[:, 0, 1], k[:, 0, 2], k[:, 1, 2] = -v[:, 2], v[:, 1], -v[:, 0]
    k = k - k.transpose(0, 2, 1)
    theta = np.linalg.norm(v, axis=1)[:, None, None]
    safe = np.where(theta > 0, theta, 1.0)
    a = np.where(theta > 0, np.sin(safe) / safe, 1.0)
    b = np.where(theta > 0, (1 - np.cos(safe)) / safe**2, 0.5)
    return np.eye(3) + a * k + b * (k @ k)


def _abs_I(tensor, rotations):
    return np.abs(functional_I(tensor, rotations[..., 0], rotations[..., 1]))


def _polish(tensor, bases):
    """Compass search for a local maximum of |I| around each base rotation, all at once.

    Each start moves in a rotation-vector chart around its base; its step
    doubles after a gain and halves when none of the six axis moves gains.
    Returns the best value reached.
    """
    m = len(bases)
    x, best = np.zeros((m, 3)), _abs_I(tensor, bases)
    step = np.full(m, POLISH_STEP)
    moves = np.vstack([np.eye(3), -np.eye(3)])
    rows = np.arange(m)
    for _ in range(POLISH_ITERATIONS):
        active = step > POLISH_MIN_STEP
        if not active.any():
            break
        trials = x[:, None, :] + step[:, None, None] * moves
        rotations = bases[:, None] @ rotations_from_vectors(trials.reshape(-1, 3)).reshape(m, 6, 3, 3)
        values = _abs_I(tensor, rotations)
        j = np.argmax(values, axis=1)
        gain = active & (values[rows, j] > best + POLISH_GAIN)
        x[gain], best[gain] = trials[rows, j][gain], values[rows, j][gain]
        step = np.where(gain, np.minimum(2 * step, POLISH_STEP), np.where(active, step / 2, step))
    return float(best.max())


def strong_sup(tensor, seed):
    """sup |I| over orthonormal frames by dense Haar sampling plus local polish.

    A method unrelated to ghzmeter's multistart Nelder-Mead: SEARCH_SAMPLES
    Haar rotations, then a compass search from the best SEARCH_POLISH
    samples that lie at least DISTINCT_ANGLE apart.
    """
    rng = np.random.default_rng(seed)
    rotations, values = [], []
    for _ in range(SEARCH_SAMPLES // SEARCH_CHUNK):
        r = haar_rotations(rng, SEARCH_CHUNK)
        rotations.append(r)
        values.append(np.abs(functional_I(tensor, r[:, :, 0], r[:, :, 1])))
    rotations, values = np.concatenate(rotations), np.concatenate(values)
    # tr(A^T B) = 1 + 2 cos(angle between A and B)
    near = 1 + 2 * np.cos(DISTINCT_ANGLE)
    chosen = np.empty((0, 3, 3))
    for idx in np.argsort(values)[::-1]:
        r = rotations[idx]
        if not np.any(np.einsum("ij,mij->m", r, chosen) >= near):
            chosen = np.concatenate([chosen, r[None]])
            if len(chosen) == SEARCH_POLISH:
                break
    return _polish(tensor, chosen)
