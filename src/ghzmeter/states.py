"""Three-party quantum states: named families, random sampling, file I/O."""

import json
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .linalg import ATOL, as_complex, as_real, kron, max_norm

EIGVAL_FLOOR = -1e-10
# a state holds local_dim**3 amplitudes, and no array is longer than 2**63 - 1
MAX_LOCAL_DIM = 2**21 - 1

# each cut's einsum subscripts: the single party's amplitudes, then the pair's
BISEPARABLE_CUTS = {"A|BC": "a,bc->abc", "B|AC": "b,ac->abc", "C|AB": "c,ab->abc"}

# each state kind's state-file key and QuantumState field, its [re, im] pairs in basis order
STATE_FILE_FIELDS = {"pure": ("amplitudes", "vector"), "mixed": ("density", "density")}


class StateError(ValueError):
    """Raised when a state violates one of its invariants."""


def _as_complex(x, name, shape):
    """x by :func:`ghzmeter.linalg.as_complex` in `shape`, its ValueError a StateError."""
    try:
        return as_complex(x, name, shape)
    except ValueError as err:
        raise StateError(str(err)) from None


@dataclass(frozen=True)
class QuantumState:
    """Pure or mixed state of three parties, each of local dimension ``local_dim``.

    Basis ordering is big-endian with party A first: basis index of |ijk> is
    i*d*d + j*d + k.  ``vector`` is a 1-D array of d**3 amplitudes and ``density`` a
    d**3 x d**3 matrix.  The state stores its own read-only complex copy of either, so
    the caller's array stays writable, and writing to it cannot move the state.
    """

    local_dim: int
    vector: np.ndarray = None
    density: np.ndarray = None

    def __post_init__(self):
        d = self.local_dim
        check_local_dim(d)
        dim = d**3
        if (self.vector is None) == (self.density is None):
            raise StateError("exactly one of vector / density must be given")
        if self.vector is not None:
            v = _as_complex(self.vector, "vector", (dim,))
            with np.errstate(over="ignore"):  # a norm past the float range reads inf
                norm = np.linalg.norm(v)
            if not abs(norm - 1.0) < ATOL:
                raise StateError(f"pure state not normalized: ||psi|| = {norm!r}")
            object.__setattr__(self, "vector", v)
        else:
            rho = _as_complex(self.density, "density", (dim, dim))
            if not np.all(np.isfinite(rho)):
                raise StateError("density matrix has non-finite entries")
            if not max_norm(rho - rho.conj().T) < ATOL:
                raise StateError("density matrix is not Hermitian")
            tr = np.trace(rho).real
            if not abs(tr - 1.0) < ATOL:
                raise StateError(f"density matrix trace must be 1, got {tr!r}")
            if np.min(np.linalg.eigvalsh(rho)) < EIGVAL_FLOOR:
                raise StateError("density matrix has a negative eigenvalue")
            object.__setattr__(self, "density", rho)

    @property
    def kind(self):
        return "pure" if self.vector is not None else "mixed"

    def density_matrix(self):
        if self.density is not None:
            return self.density
        return np.outer(self.vector, self.vector.conj())


@dataclass(frozen=True)
class AcinParams:
    """Canonical-form coordinates lambda_0..lambda_4 in [0, 1], phi in [0, pi].

    The six are stored as the floats they were checked as, so the caller's arrays cannot
    move them and equal params hash alike.
    """

    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    phi: float = 0.0

    def __post_init__(self):
        lams = (self.lambda0, self.lambda1, self.lambda2, self.lambda3, self.lambda4)
        try:
            lams, phi = as_real(lams, "lambda coefficients", (5,)), as_real(self.phi, "phi", ())
        except ValueError as err:
            raise StateError(str(err)) from None
        # checked before squaring, so a huge lambda cannot overflow
        if not np.all((lams >= 0) & (lams <= 1.0 + ATOL)):
            raise StateError(f"lambda coefficients must lie in [0, 1]: {lams}")
        total = float(np.sum(lams**2))
        if not abs(total - 1.0) < ATOL:
            raise StateError(f"sum of lambda_i^2 must be 1, got {total!r}")
        if not 0.0 <= phi <= np.pi:
            raise StateError(f"phi must lie in [0, pi], got {phi!r}")
        for f, value in zip(fields(self), [*lams.tolist(), phi]):
            object.__setattr__(self, f.name, value)

    @property
    def lambdas(self):
        return np.array([self.lambda0, self.lambda1, self.lambda2, self.lambda3, self.lambda4])

    @property
    def mu(self):
        return self.lambda0 * self.lambda4


def make_ghz(d=2):
    """GHZ state d**-0.5 * sum_j |jjj> on three qudits."""
    check_local_dim(d)
    v = np.zeros(d**3, dtype=complex)
    v[:: d * d + d + 1] = 1.0 / np.sqrt(d)  # |jjj> sits at index j * (d*d + d + 1)
    return QuantumState(d, vector=v)


def make_w():
    """W state (|001> + |010> + |100>)/sqrt(3)."""
    v = np.zeros(8, dtype=complex)
    v[[1, 2, 4]] = 1.0 / np.sqrt(3)
    return QuantumState(2, vector=v)


def make_acin(params):
    """Pure state in canonical form from :class:`AcinParams`."""
    v = np.zeros(8, dtype=complex)
    v[0] = params.lambda0
    v[4] = params.lambda1 * np.exp(1j * params.phi)
    v[5] = params.lambda2
    v[6] = params.lambda3
    v[7] = params.lambda4
    return QuantumState(2, vector=v)


def make_ghz_basis_element(i, j, k, sign=+1):
    """(|ijk> +/- |i~ j~ k~>)/sqrt(2) with x~ the flipped bit."""
    if sign not in (+1, -1):
        raise StateError("sign must be +1 or -1")
    if not all(isinstance(bit, Integral) and bit in (0, 1) for bit in (i, j, k)):
        raise StateError("bits i, j, k must be 0 or 1")
    v = np.zeros(8, dtype=complex)
    v[4 * i + 2 * j + k] = 1.0 / np.sqrt(2)
    v[4 * (1 - i) + 2 * (1 - j) + (1 - k)] += sign / np.sqrt(2)
    return QuantumState(2, vector=v)


def ghz_basis():
    """The eight GHZ basis states by (i, j, k, sign), each pair {ijk, flipped} named at i = 0."""
    return [
        ((0, j, k, s), make_ghz_basis_element(0, j, k, s))
        for j in range(2)
        for k in range(2)
        for s in (+1, -1)
    ]


def make_product(a, b, c):
    """Product state from three single-qubit amplitude pairs."""
    a, b, c = (_as_complex(x, name, (2,)) for name, x in zip("abc", (a, b, c)))
    return QuantumState(2, vector=(a[:, None, None] * b[:, None] * c).reshape(-1))


def make_biseparable(cut, single, pair):
    """Tensor a single-qubit state with a two-qubit state at the given cut.

    ``single`` is a length-2 amplitude vector, ``pair`` a length-4 one in
    basis order |00>,|01>,|10>,|11> on the remaining two parties kept in
    alphabetical order.
    """
    if not (isinstance(cut, str) and cut in BISEPARABLE_CUTS):
        raise StateError(f"cut must be one of {tuple(BISEPARABLE_CUTS)}, got {cut!r}")
    s, p = _as_complex(single, "single", (2,)), _as_complex(pair, "pair", (4,))
    v = np.einsum(BISEPARABLE_CUTS[cut], s, p.reshape(2, 2))
    return QuantumState(2, vector=v.reshape(-1))


def maximally_mixed(d=2):
    """The state 1/d**3 on three qudits."""
    check_local_dim(d)
    dim = d**3
    return QuantumState(d, density=np.eye(dim, dtype=complex) / dim)


def check_local_dim(d):
    """Raise StateError unless `d` is an integer in [2, MAX_LOCAL_DIM]."""
    # d is not formatted into the message: an integer past 4300 digits has no str
    if not (isinstance(d, Integral) and 2 <= d <= MAX_LOCAL_DIM):
        raise StateError(f"local dimension must be an integer in [2, {MAX_LOCAL_DIM}]")


def check_seed(seed):
    """Raise ValueError unless `seed` is a non-negative integer; a bool is not one."""
    if isinstance(seed, bool) or not (isinstance(seed, Integral) and seed >= 0):
        raise ValueError("seed must be a non-negative integer")


def haar_random_pure(d, seed):
    """Haar-random pure state on (C^d)^x3, deterministic in the seed.

    Accepts either a non-negative integer seed or an existing
    ``numpy.random.Generator``, whose stream it advances.  Anything else,
    None included, raises ValueError: None would draw fresh OS entropy.
    """
    check_local_dim(d)
    if not isinstance(seed, np.random.Generator):
        check_seed(seed)
    rng = np.random.default_rng(seed)
    dim = d**3
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return QuantumState(d, vector=z / np.linalg.norm(z))


def haar_random_unitary(n, rng):
    """Haar-random n x n unitary via QR with phase-normalized diagonal."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_local_unitaries(state, ua, ub, uc):
    """Apply U_A x U_B x U_C to a three-qubit state."""
    u = kron(ua, ub, uc)
    if state.vector is not None:
        return QuantumState(state.local_dim, vector=u @ state.vector)
    return QuantumState(state.local_dim, density=u @ state.density @ u.conj().T)


def save_state(state, path):
    """Write a state file (JSON) with [re, im] pairs in basis order."""
    key, field = STATE_FILE_FIELDS[state.kind]
    data = getattr(state, field)
    pairs = np.stack([data.real, data.imag], -1).tolist()
    doc = {"local_dim": state.local_dim, "kind": state.kind, key: pairs}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_state(path):
    """Read a state file written by :func:`save_state`, re-validating invariants.

    The [re, im] pairs are read as real numbers by :func:`ghzmeter.linalg.as_real`,
    then viewed as complex numbers.  Every malformed document raises :class:`StateError`.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, bad UTF-8, deep nesting
            raise StateError(f"cannot parse state file {path}: {exc}") from exc
    try:
        d = doc["local_dim"]
        kind = doc["kind"]
    except (KeyError, TypeError) as exc:
        raise StateError(f"state file {path} is missing local_dim/kind") from exc
    if not (isinstance(d, int) or isinstance(d, float) and d.is_integer()):
        raise StateError(f"local_dim must be an integer, got {d!r}")
    # a JSON list or object is unhashable, so it cannot be looked up in the table
    if not (isinstance(kind, str) and kind in STATE_FILE_FIELDS):
        raise StateError(f"unknown state kind {kind!r}; expected 'pure' or 'mixed'")
    key, field = STATE_FILE_FIELDS[kind]
    pairs = doc.get(key)
    if pairs is None:
        raise StateError(f"{kind} state file must carry a {key!r} array")
    try:
        # a float pair is a complex number in memory; the view needs an even last axis and
        # the squeeze one complex per row, so only [re, im] pairs pass
        data = np.asarray(as_real(pairs, key)).view(complex).squeeze(-1)
    except ValueError as exc:
        raise StateError(f"{key} must hold [re, im] number pairs: {exc}") from exc
    return QuantumState(int(d), **{field: data})
