import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ghzmeter import (
    AcinParams,
    QuantumState,
    StateError,
    ghz_basis,
    haar_random_pure,
    kron,
    load_state,
    make_acin,
    make_biseparable,
    make_ghz,
    make_ghz_basis_element,
    make_product,
    make_w,
    maximally_mixed,
    save_state,
)
from ghzmeter.linalg import SIGMA_X, SIGMA_Z, weyl_operator
from ghzmeter.states import apply_local_unitaries, haar_random_unitary

from conftest import (
    MALFORMED_STATE_FILES,
    NOT_NUMBERS,
    WRONG_SHAPES,
    operator_quad,
    real_expectation,
    triple_observable,
)


def test_ghz_amplitudes():
    ghz = make_ghz(2)
    assert np.allclose(ghz.vector[[0, 7]], 1 / np.sqrt(2))
    assert np.allclose(np.delete(ghz.vector, [0, 7]), 0)


def test_ghz_qutrit():
    ghz = make_ghz(3)
    idx = [0, 13, 26]
    assert np.allclose(ghz.vector[idx], 1 / np.sqrt(3))
    x = weyl_operator(3, 1, 0)
    assert abs(real_expectation(ghz, kron(x, x, x)) - 1.0) < 1e-12


def test_w_correlators():
    w = make_w()
    assert abs(real_expectation(w, kron(SIGMA_Z, SIGMA_Z, SIGMA_Z)) + 1.0) < 1e-12
    assert abs(real_expectation(w, kron(SIGMA_X, SIGMA_X, SIGMA_Z)) - 2 / 3) < 1e-12
    assert abs(real_expectation(w, kron(SIGMA_X, SIGMA_X, SIGMA_X))) < 1e-12


def test_acin_special_cases():
    ghz_like = make_acin(AcinParams(1 / np.sqrt(2), 0, 0, 0, 1 / np.sqrt(2)))
    assert np.allclose(ghz_like.vector, make_ghz(2).vector)
    assert np.allclose(make_acin(AcinParams(1, 0, 0, 0, 0)).vector, np.eye(8)[0])


def test_acin_schmidt_subfamily():
    beta = 0.7
    st = make_acin(AcinParams(np.cos(beta), 0, 0, 0, np.sin(beta)))
    assert abs(st.vector[0] - np.cos(beta)) < 1e-12
    assert abs(st.vector[7] - np.sin(beta)) < 1e-12


def test_acin_rejects_unnormalized():
    with pytest.raises(StateError):
        AcinParams(1.0, 0.5, 0, 0, 0)
    with pytest.raises(StateError):
        AcinParams(1.0, 0, 0, 0, 0, phi=4.0)


def test_acin_normalized_for_random_params(rng):
    for _ in range(50):
        lam = np.abs(rng.standard_normal(5))
        lam /= np.linalg.norm(lam)
        st = make_acin(AcinParams(*lam, phi=rng.uniform(0, np.pi)))
        assert abs(np.linalg.norm(st.vector) - 1.0) < 1e-12


@pytest.mark.parametrize("bits", [(2, 0, 0), (0, -1, 1), (1, 1.0, 0)])
def test_ghz_basis_element_rejects_non_bits(bits):
    with pytest.raises(StateError, match="bits"):
        make_ghz_basis_element(*bits)


def test_ghz_basis_element_zero_plus_is_ghz():
    assert np.allclose(make_ghz_basis_element(0, 0, 0, +1).vector, make_ghz(2).vector)


def test_ghz_basis_orthonormal():
    basis = ghz_basis()
    assert len(basis) == 8
    mat = np.array([st.vector for _, st in basis])
    assert np.allclose(mat @ mat.conj().T, np.eye(8), atol=1e-12)


def test_ghz_basis_stabiliser_eigenvalues(frame_xy):
    # common eigenstates of O1..O4 at (x, y) with eigenvalue product -1
    for _, st in ghz_basis():
        eps = []
        for o in operator_quad(frame_xy):
            out = o @ st.vector
            e = st.vector.conj() @ out
            assert np.linalg.norm(out - e * st.vector) < 1e-12
            eps.append(np.real(e))
        assert abs(np.prod(eps) + 1.0) < 1e-12


def test_biseparable_example_correlators():
    phi_plus = np.array([1, 0, 0, 1]) / np.sqrt(2)
    st = make_biseparable("A|BC", [1, 0], phi_plus)
    z, x = [0, 0, 1], [1, 0, 0]
    e1 = real_expectation(st, triple_observable(z, x, x))
    e4 = real_expectation(st, triple_observable(z, z, z))
    e2 = real_expectation(st, triple_observable(x, z, x))
    e3 = real_expectation(st, triple_observable(x, x, z))
    assert abs(e1 - 1.0) < 1e-12 and abs(e4 - 1.0) < 1e-12
    assert abs(e2) < 1e-12 and abs(e3) < 1e-12


def test_biseparable_product_case():
    st = make_biseparable("A|BC", [1, 0], [1, 0, 0, 0])
    assert np.allclose(st.vector, make_product([1, 0], [1, 0], [1, 0]).vector)


def test_biseparable_cut_permutes_correlators(rng):
    # oracle: permuting the cut label permutes the parties of the expectation
    single = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    single /= np.linalg.norm(single)
    pair = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    pair /= np.linalg.norm(pair)
    na, nb, nc = ([0, 0, 1], [1, 0, 0], [0, 1, 0])
    a_bc = make_biseparable("A|BC", single, pair)
    b_ac = make_biseparable("B|AC", single, pair)
    c_ab = make_biseparable("C|AB", single, pair)
    ref = real_expectation(a_bc, triple_observable(na, nb, nc))
    assert abs(real_expectation(b_ac, triple_observable(nb, na, nc)) - ref) < 1e-12
    assert abs(real_expectation(c_ab, triple_observable(nb, nc, na)) - ref) < 1e-12


def test_biseparable_validation():
    with pytest.raises(StateError):
        make_biseparable("AB|C", [1, 0], [1, 0, 0, 0])
    with pytest.raises(StateError):
        make_biseparable(["A|BC"], [1, 0], [1, 0, 0, 0])
    with pytest.raises(StateError):
        make_biseparable("A|BC", [1, 0, 0], [1, 0, 0, 0])


def test_haar_random_pure_basic():
    st1 = haar_random_pure(2, seed=1)
    st2 = haar_random_pure(2, seed=2)
    assert abs(np.linalg.norm(st1.vector) - 1.0) < 1e-12
    assert abs(np.vdot(st1.vector, st2.vector)) ** 2 < 1.0 - 1e-6
    assert np.allclose(st1.vector, haar_random_pure(2, seed=1).vector)


@pytest.mark.parametrize("seed", [None, -1, 1.5, "a"], ids=["None", "negative", "float", "string"])
def test_haar_random_pure_rejects_seed_outside_non_negative_integers(seed):
    with pytest.raises(ValueError, match="seed"):
        haar_random_pure(2, seed)


def test_haar_random_pure_takes_integer_or_generator_seed():
    expected = haar_random_pure(3, 4).vector
    assert np.array_equal(haar_random_pure(3, np.int64(4)).vector, expected)
    assert np.array_equal(haar_random_pure(3, np.random.default_rng(4)).vector, expected)


def test_haar_amplitude_statistics():
    # |amp|^2 of each basis state has mean 1/8; Monte-Carlo with binomial-style error bars
    rng = np.random.default_rng(7)
    n = 10_000
    acc = np.zeros(8)
    for _ in range(n):
        acc += np.abs(haar_random_pure(2, rng).vector) ** 2
    mean = acc / n
    sigma = np.sqrt((1 / 8) * (7 / 8) / 9 / n)
    assert np.all(np.abs(mean - 1 / 8) < 3 * sigma)


def test_haar_rotation_invariance():
    # KS test at alpha = 0.01 on <sigma_z x 1 x 1> before/after a fixed local rotation
    rng = np.random.default_rng(11)
    u = haar_random_unitary(2, rng)
    op = kron(SIGMA_Z, np.eye(2), np.eye(2))
    before, after = [], []
    for _ in range(10_000):
        st = haar_random_pure(2, rng)
        before.append(real_expectation(st, op))
        rotated = apply_local_unitaries(st, u, np.eye(2), np.eye(2))
        after.append(real_expectation(rotated, op))
    assert stats.ks_2samp(before, after).pvalue > 0.01


def test_state_validation_errors():
    with pytest.raises(StateError):
        QuantumState(2, vector=np.ones(8))  # not normalized
    with pytest.raises(StateError):
        QuantumState(2, vector=np.ones(5) / np.sqrt(5))  # wrong length
    with pytest.raises(StateError):
        QuantumState(2, density=np.eye(8) / 4)  # trace 2
    with pytest.raises(StateError):
        QuantumState(2)
    with pytest.raises(StateError, match="density matrix is not Hermitian"):
        QuantumState(2, density=np.eye(8) / 8 + 0.1 * np.eye(8, k=1))  # trace 1
    with pytest.raises(StateError, match="density matrix has a negative eigenvalue"):
        QuantumState(2, density=np.diag([0.6, 0.6, -0.2, 0, 0, 0, 0, 0]))


@pytest.mark.parametrize(
    "d",
    [2.0, 2.5, "2", np.nan, -(10**5000), -3, 0, 1, 2**21],
    ids=["float", "fraction", "string", "nan", "huge", "-3", "0", "1", "2**21"],
)
def test_local_dim_outside_integers_in_range_rejected(d):
    # a 5001-digit integer has no str, so the message must not format d
    unit = np.zeros(8, dtype=complex)
    unit[0] = 1.0
    for build in (
        lambda: QuantumState(d, vector=unit),
        lambda: make_ghz(d),
        lambda: maximally_mixed(d),
        lambda: haar_random_pure(d, 0),
    ):
        with pytest.raises(StateError, match=r"local dimension must be an integer in \[2, 2097151\]"):
            build()


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_state_rejects_non_finite(bad):
    v = np.full(8, 1 / np.sqrt(8), dtype=complex)
    v[3] = bad
    with pytest.raises(StateError):
        QuantumState(2, vector=v)
    for entry in ((2, 2), (0, 5)):
        rho = np.eye(8, dtype=complex) / 8
        rho[entry] = rho[entry[::-1]] = bad
        with pytest.raises(StateError):
            QuantumState(2, density=rho)


@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_builders_reject_entries_that_are_not_numbers(bad):
    vector, density = [8**-0.5] * 8, (np.eye(8) / 8).tolist()
    vector[3] = density[2][5] = bad
    for build, name in (
        (lambda: QuantumState(2, vector=vector), "vector"),
        (lambda: QuantumState(2, density=density), "density"),
        (lambda: make_product([1, 0], [0, bad], [1, 0]), "b"),
        (lambda: make_biseparable("A|BC", [bad, 0], [1, 0, 0, 0]), "single"),
        (lambda: make_biseparable("A|BC", [1, 0], [1, 0, 0, bad]), "pair"),
    ):
        with pytest.raises(StateError, match=f"^{name} must hold complex numbers in the float range"):
            build()


@pytest.mark.parametrize("field, data", WRONG_SHAPES)
def test_builders_reject_wrong_shapes(tmp_path, field, data):
    if field == "pair":
        builds = [
            ("a", lambda: make_product(data, [1, 0], [1, 0])),
            ("single", lambda: make_biseparable("A|BC", data, [1, 0, 0, 0])),
        ]
    else:
        kind, key = ("pure", "amplitudes") if field == "vector" else ("mixed", "density")
        pairs = np.stack([data.real, data.imag], -1).tolist()
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"local_dim": 2, "kind": kind, key: pairs}))
        builds = [(field, lambda: QuantumState(2, **{field: data})), (field, lambda: load_state(path))]
    for name, build in builds:
        message = rf"^{name} must hold complex numbers in the float range, \d+ of them in shape .*, got shape"
        with pytest.raises(StateError, match=message):
            build()


def test_state_holds_its_own_read_only_copy():
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    pure = QuantumState(2, vector=v)
    v[0], v[7] = 0.0, 1.0  # the caller writes |111> into its array
    assert pure.vector[0] == 1.0 and pure.vector[7] == 0.0
    rho = np.eye(8, dtype=complex) / 8
    mixed = QuantumState(2, density=rho)
    assert rho.flags.writeable and not np.shares_memory(mixed.density, rho)
    assert not (pure.vector.flags.writeable or mixed.density.flags.writeable)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_acin_rejects_non_finite(bad):
    for args in ((bad, 0, 0, 0, 0), (1, bad, 0, 0, 0), (0, 0, 0, 0, bad)):
        with pytest.raises(StateError):
            AcinParams(*args)
    with pytest.raises(StateError):
        AcinParams(1, 0, 0, 0, 0, phi=bad)


def test_acin_params_keep_the_values_they_checked():
    a, b = np.array(0.6), np.array(0.8)
    params = AcinParams(a, 0, 0, 0, b)
    a[...], b[...] = 0.8, 0.6  # the caller swaps its arrays in place
    assert (params.lambda0, params.lambda4) == (0.6, 0.8)
    assert np.array_equal(make_acin(params).vector, make_acin(AcinParams(0.6, 0, 0, 0, 0.8)).vector)


def test_maximally_mixed():
    mm = maximally_mixed(2)
    assert mm.kind == "mixed"
    assert abs(np.trace(mm.density) - 1.0) < 1e-12


def test_save_load_round_trip(tmp_path):
    path = tmp_path / "ghz.json"
    save_state(make_ghz(2), path)
    loaded = load_state(path)
    assert loaded.kind == "pure"
    assert np.max(np.abs(loaded.vector - make_ghz(2).vector)) < 1e-15

    mpath = tmp_path / "mixed.json"
    save_state(maximally_mixed(2), mpath)
    reloaded = load_state(mpath)
    assert np.max(np.abs(reloaded.density - maximally_mixed(2).density)) < 1e-15


def test_load_rejects_wrong_amplitude_count(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        '{"local_dim": 2, "kind": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}'
    )
    with pytest.raises(StateError, match=r"8 of them in shape \(8,\), got shape \(2,\)$"):
        load_state(path)


def test_load_rejects_bad_trace(tmp_path):
    rho = np.eye(8) / 16  # trace 0.5
    st_path = tmp_path / "rho.json"
    doc = {
        "local_dim": 2,
        "kind": "mixed",
        "density": [[[float(v), 0.0] for v in row] for row in rho],
    }
    import json

    st_path.write_text(json.dumps(doc))
    with pytest.raises(StateError, match="trace"):
        load_state(st_path)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_load_rejects_non_finite(tmp_path, bad):
    import json

    amps = [[1.0, 0.0]] + [[0.0, 0.0]] * 7
    amps[5] = [bad, 0.0]
    path = tmp_path / "pure.json"
    path.write_text(json.dumps({"local_dim": 2, "kind": "pure", "amplitudes": amps}))
    with pytest.raises(StateError):
        load_state(path)
    rows = [[[1 / 8 if i == j else 0.0, 0.0] for j in range(8)] for i in range(8)]
    rows[4][4] = [bad, 0.0]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps({"local_dim": 2, "kind": "mixed", "density": rows}))
    with pytest.raises(StateError):
        load_state(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("not json {")
    with pytest.raises(StateError, match="parse"):
        load_state(path)


@pytest.mark.parametrize("payload", MALFORMED_STATE_FILES.values(), ids=MALFORMED_STATE_FILES)
def test_load_rejects_malformed_document(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_bytes(payload)
    with pytest.raises(StateError):
        load_state(path)


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=9) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=40,
)
_PAIRS = st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=9)
# state-shaped documents, so the parse and validation past the header get exercised too
_STATE_DOCS = st.fixed_dictionaries(
    {},
    optional={
        "local_dim": st.sampled_from([2, 2.0, 3]) | _JSON,
        "kind": st.sampled_from(["pure", "mixed"]) | _JSON,
        "amplitudes": _PAIRS | _JSON,
        "density": st.lists(_PAIRS, max_size=9) | _JSON,
    },
)


@settings(max_examples=150, deadline=None)
@given(doc=_JSON | _STATE_DOCS)
def test_load_returns_state_or_raises_state_error(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("doc") / "state.json"
    path.write_text(json.dumps(doc))  # nan and inf are written as NaN and Infinity
    try:
        state = load_state(path)
    except StateError:
        return
    assert isinstance(state, QuantumState)
