"""Three-party quantum states: named families, random sampling, file I/O."""

import json
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .linalg import kron, max_norm

NORM_ATOL = 1e-12
EIGVAL_FLOOR = -1e-10
# a state holds local_dim**3 amplitudes, and no array is longer than 2**63 - 1
MAX_LOCAL_DIM = 2**21 - 1

# each cut's einsum subscripts: the single party's amplitudes, then the pair's
BISEPARABLE_CUTS = {"A|BC": "a,bc->abc", "B|AC": "b,ac->abc", "C|AB": "c,ab->abc"}


class StateError(ValueError):
    """Raised when a state violates one of its invariants."""


@dataclass(frozen=True)
class QuantumState:
    """Pure or mixed state of three parties, each of local dimension ``local_dim``.

    Basis ordering is big-endian with party A first: basis index of |ijk> is
    i*d*d + j*d + k.
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
            v = np.asarray(self.vector, dtype=complex).reshape(-1)
            if v.shape != (dim,):
                raise StateError(
                    f"expected {dim} amplitudes for local_dim {d}, got {v.shape[0]}"
                )
            with np.errstate(over="ignore"):  # a norm past the float range reads inf
                norm = np.linalg.norm(v)
            if not abs(norm - 1.0) < NORM_ATOL:
                raise StateError(f"pure state not normalized: ||psi|| = {norm!r}")
            v.setflags(write=False)
            object.__setattr__(self, "vector", v)
        else:
            rho = np.asarray(self.density, dtype=complex)
            if rho.shape != (dim, dim):
                raise StateError(
                    f"expected a {dim}x{dim} density matrix, got shape {rho.shape}"
                )
            if not np.all(np.isfinite(rho)):
                raise StateError("density matrix has non-finite entries")
            if not max_norm(rho - rho.conj().T) < NORM_ATOL:
                raise StateError("density matrix is not Hermitian")
            tr = np.trace(rho).real
            if not abs(tr - 1.0) < NORM_ATOL:
                raise StateError(f"density matrix trace must be 1, got {tr!r}")
            if np.min(np.linalg.eigvalsh(rho)) < EIGVAL_FLOOR:
                raise StateError("density matrix has a negative eigenvalue")
            rho.setflags(write=False)
            object.__setattr__(self, "density", rho)

    @property
    def kind(self):
        return "pure" if self.vector is not None else "mixed"

    @property
    def dim(self):
        return self.local_dim**3

    def density_matrix(self):
        if self.density is not None:
            return self.density
        return np.outer(self.vector, self.vector.conj())

    def expectation(self, operator):
        """<O> for a dim x dim operator; complex in general."""
        operator = np.asarray(operator, dtype=complex)
        if operator.shape != (self.dim, self.dim):
            raise StateError(
                f"operator shape {operator.shape} does not match dimension {self.dim}"
            )
        if self.vector is not None:
            return complex(self.vector.conj() @ operator @ self.vector)
        return complex(np.trace(operator @ self.density))


@dataclass(frozen=True)
class AcinParams:
    """Canonical-form coordinates lambda_0..lambda_4 in [0, 1], phi in [0, pi]."""

    lambda0: float
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float
    phi: float = 0.0

    def __post_init__(self):
        lams = self.lambdas
        # checked before squaring, so a huge lambda cannot overflow
        if not np.all((lams >= 0) & (lams <= 1.0 + NORM_ATOL)):
            raise StateError(f"lambda coefficients must lie in [0, 1]: {lams}")
        total = float(np.sum(lams**2))
        if not abs(total - 1.0) < NORM_ATOL:
            raise StateError(f"sum of lambda_i^2 must be 1, got {total!r}")
        if not 0.0 <= self.phi <= np.pi:
            raise StateError(f"phi must lie in [0, pi], got {self.phi!r}")

    @property
    def lambdas(self):
        return np.array(
            [self.lambda0, self.lambda1, self.lambda2, self.lambda3, self.lambda4]
        )

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
        raise StateError(f"sign must be +1 or -1, got {sign!r}")
    if not all(isinstance(bit, Integral) and bit in (0, 1) for bit in (i, j, k)):
        raise StateError(f"bits must be 0 or 1, got {(i, j, k)!r}")
    v = np.zeros(8, dtype=complex)
    v[4 * i + 2 * j + k] = 1.0 / np.sqrt(2)
    v[4 * (1 - i) + 2 * (1 - j) + (1 - k)] += sign / np.sqrt(2)
    return QuantumState(2, vector=v)


def ghz_basis():
    """The eight GHZ basis states, indexed by (i, j, k, sign)."""
    return [
        ((i, j, k, s), make_ghz_basis_element(i, j, k, s))
        for i in range(2)
        for j in range(2)
        for k in range(2)
        if (i, j, k) < (1 - i, 1 - j, 1 - k)
        for s in (+1, -1)
    ]


def make_product(a, b, c):
    """Product state from three single-qubit amplitude pairs."""
    v = kron(
        np.asarray(a, complex).reshape(2, 1),
        np.asarray(b, complex).reshape(2, 1),
        np.asarray(c, complex).reshape(2, 1),
    ).reshape(-1)
    return QuantumState(2, vector=v)


def make_biseparable(cut, single, pair):
    """Tensor a single-qubit state with a two-qubit state at the given cut.

    ``single`` is a length-2 amplitude vector, ``pair`` a length-4 one in
    basis order |00>,|01>,|10>,|11> on the remaining two parties kept in
    alphabetical order.
    """
    if not (isinstance(cut, str) and cut in BISEPARABLE_CUTS):
        raise StateError(f"cut must be one of {tuple(BISEPARABLE_CUTS)}, got {cut!r}")
    s = np.asarray(single, dtype=complex).reshape(-1)
    p = np.asarray(pair, dtype=complex).reshape(-1)
    if s.shape != (2,) or p.shape != (4,):
        raise StateError(
            f"expected 2 and 4 amplitudes, got {s.shape[0]} and {p.shape[0]}"
        )
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
    """Raise ValueError unless `seed` is a non-negative integer."""
    if not (isinstance(seed, Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


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


def _pairs(values):
    return [[float(z.real), float(z.imag)] for z in values]


def save_state(state, path):
    """Write a state file (JSON) with [re, im] pairs in basis order."""
    doc = {"local_dim": state.local_dim, "kind": state.kind}
    if state.vector is not None:
        doc["amplitudes"] = _pairs(state.vector)
    else:
        doc["density"] = [_pairs(row) for row in state.density]
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_state(path):
    """Read a state file written by :func:`save_state`, re-validating invariants.

    Every malformed document raises :class:`StateError`.
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
    if kind not in ("pure", "mixed"):
        raise StateError(f"unknown state kind {kind!r}; expected 'pure' or 'mixed'")
    key = "amplitudes" if kind == "pure" else "density"
    pairs = doc.get(key)
    if pairs is None:
        raise StateError(f"{kind} state file must carry a {key!r} array")
    try:
        if kind == "pure":
            data = np.array([complex(re, im) for re, im in pairs])
        else:
            data = np.array([[complex(re, im) for re, im in row] for row in pairs])
    except (TypeError, ValueError, OverflowError) as exc:
        raise StateError(f"{key} must hold [re, im] number pairs: {exc}") from exc
    if kind == "pure":
        return QuantumState(int(d), vector=data)
    return QuantumState(int(d), density=data)
