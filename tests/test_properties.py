"""Property tests of the input boundary: constructors and the CLI on fuzzed input."""

import contextlib
import dataclasses
import io
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ghzmeter import (
    AcinParams,
    OrthoFrame,
    QuantumState,
    QuditGenPair,
    StateError,
    closed_form_from_mu,
    correlators_from_tensor,
    haar_random_pure,
    lu_invariance_check,
    make_acin,
    make_ghz,
    make_ghz_basis_element,
    make_w,
    maximally_mixed,
    maximize_I,
    pauli_tensor,
    schmidt_subfamily_I,
    tau3_relation,
    w_reduced_I,
    weyl_operator,
)
from ghzmeter.cli import NAMED_STATES, main
from ghzmeter.correlators import MAX_COMPONENT
from ghzmeter.states import check_seed

from conftest import random_mixed_state

# every float, nan and +-inf included
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
# complex numbers, which a real-valued argument must reject, and integers, some past the float range
NOT_FLOATS = st.complex_numbers() | st.integers() | st.sampled_from([10**400, -(10**400)])


@settings(max_examples=200, deadline=None)
@given(
    n1=st.lists(FLOATS | NOT_FLOATS, min_size=3, max_size=3),
    n2=st.lists(FLOATS | NOT_FLOATS, min_size=3, max_size=3),
)
def test_ortho_frame_is_valid_or_raises(n1, n2):
    try:
        frame = OrthoFrame(n1, n2)
    except ValueError:
        return
    for n in (frame.n1, frame.n2):
        assert n.dtype == float and np.all(np.isfinite(n)) and abs(np.linalg.norm(n) - 1) < 1e-12
    assert isinstance(frame.c, float) and np.isfinite(frame.c)


# every float a direction may hold, the bound itself included
COMPONENTS = st.floats(-MAX_COMPONENT, MAX_COMPONENT) | st.sampled_from([-MAX_COMPONENT, MAX_COMPONENT])


@st.composite
def direction_pairs(draw):
    shape = draw(st.sampled_from([(3,), (5, 3)]))
    return tuple(draw(arrays(float, shape, elements=COMPONENTS)) for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pair=direction_pairs())
@example(seed=0, pair=(np.full(3, MAX_COMPONENT), np.full(3, -MAX_COMPONENT)))
@example(seed=1, pair=(np.full((5, 3), -MAX_COMPONENT), np.full((5, 3), MAX_COMPONENT)))
def test_correlators_within_the_bound_are_finite(seed, pair):
    tensor = pauli_tensor(random_mixed_state(np.random.default_rng(seed)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        quad = correlators_from_tensor(tensor, *pair)
    assert np.shape(quad) == (4,) + pair[0].shape[:-1] and np.all(np.isfinite(quad))


@settings(max_examples=200, deadline=None)
@given(
    local_dim=st.sampled_from([2, 2.0]) | FLOATS | st.integers() | st.text(),
    entries=st.lists(FLOATS, min_size=16, max_size=16),
    mixed=st.booleans(),
)
def test_quantum_state_is_valid_or_raises(local_dim, entries, mixed):
    # building the input may overflow or meet 1j * inf; QuantumState must then reject it
    with np.errstate(over="ignore", invalid="ignore"):
        amplitudes = np.array(entries[:8]) + 1j * np.array(entries[8:])
        if mixed:
            # Hermitian by construction whenever finite, so trace and spectrum get exercised
            data = {"density": np.outer(amplitudes, amplitudes.conj())}
        else:
            data = {"vector": amplitudes}
    try:
        state = QuantumState(local_dim, **data)
    except StateError:
        return
    rho = state.density_matrix()
    assert np.all(np.isfinite(rho)) and abs(np.trace(rho).real - 1) < 1e-9


AMPLITUDES = {
    int: st.integers(-1, 1),
    float: st.floats(-2, 2),
    complex: st.complex_numbers(max_magnitude=2),
}


@st.composite
def state_inputs(draw):
    """A vector or a density on three qubits, as a list or as an int, float or complex array.

    A float or complex vector may be scaled to unit norm, and a density is the projector on a
    vector, so valid states come up as well as rejected ones.
    """
    dtype = draw(st.sampled_from(list(AMPLITUDES)))
    v = draw(arrays(dtype, 8, elements=AMPLITUDES[dtype]))
    norm = np.linalg.norm(v)
    if dtype is not int and norm > 0 and draw(st.booleans()):
        v = v / norm
    field = draw(st.sampled_from(["vector", "density"]))
    data = v if field == "vector" else np.outer(v, v.conj())
    return field, data.tolist() if draw(st.booleans()) else data


@settings(max_examples=200, deadline=None)
@given(case=state_inputs())
@example(case=("vector", np.eye(8, dtype=int)[3]))
@example(case=("density", np.diag(np.eye(8, dtype=int)[5]).tolist()))
def test_state_holds_a_read_only_copy_of_its_input(case):
    field, data = case
    try:
        state = QuantumState(2, **{field: data})
    except StateError:
        return
    stored = getattr(state, field)
    assert not stored.flags.writeable and not np.shares_memory(stored, data)
    assert np.array_equal(stored, np.asarray(data, dtype=complex))
    assert not isinstance(data, np.ndarray) or data.flags.writeable


# d <= 6, so no example allocates more than 6**3 amplitudes or a 216 x 216 matrix
@settings(max_examples=200, deadline=None)
@given(d=st.integers(max_value=6) | FLOATS)
def test_makers_return_valid_state_or_raise(d):
    for build in (make_ghz, maximally_mixed, lambda d: haar_random_pure(d, 0)):
        try:
            state = build(d)
        except StateError:
            continue
        assert isinstance(d, int) and state.local_dim == d >= 2
        rho = state.density_matrix()
        assert rho.shape == (d**3, d**3) and abs(np.trace(rho).real - 1) < 1e-12


# d <= 8, so no example allocates more than an 8 x 8 matrix; labels are unbounded
@settings(max_examples=200, deadline=None)
@given(d=st.integers(max_value=8) | FLOATS, p=st.integers() | FLOATS, q=st.integers() | FLOATS)
def test_weyl_operator_is_unitary_monomial_or_raises(d, p, q):
    try:
        w = weyl_operator(d, p, q)
    except ValueError:
        return
    assert isinstance(d, int) and w.shape == (d, d)
    nonzero = w != 0
    assert np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1)
    assert np.allclose(np.abs(w[nonzero]), 1, atol=1e-12, rtol=0)
    assert np.allclose(w.conj().T @ w, np.eye(d), atol=1e-12, rtol=0)


# a list in place of a real number, holding one or two of the values around it
def listed(values):
    return values | st.lists(values, min_size=1, max_size=2)


ACIN_VALUES = FLOATS | st.sampled_from([0.0, 0.6, 0.8, 1.0]) | NOT_FLOATS


@settings(max_examples=200, deadline=None)
@given(
    lambdas=st.lists(listed(ACIN_VALUES), min_size=5, max_size=5),
    phi=listed(FLOATS | NOT_FLOATS),
)
@example(lambdas=[[1.0], [0.0], [0.0], [0.0], [0.0]], phi=0.0)
@example(lambdas=[1.0, 0.0, 0.0, 0.0, 0.0], phi=[0.0])
@example(lambdas=[np.array(0.6), 0.8, 0, 0, 0], phi=np.array(0.5))
def test_acin_params_is_valid_or_raises(lambdas, phi):
    try:
        params = AcinParams(*lambdas, phi=phi)
    except StateError:
        return
    assert all(type(v) is float for v in dataclasses.astuple(params))
    assert hash(params) == hash(AcinParams(*params.lambdas, phi=params.phi))
    assert np.all(np.isfinite(params.lambdas)) and abs(np.sum(params.lambdas**2) - 1) < 1e-9
    assert 0 <= params.phi <= np.pi
    assert np.isfinite(params.mu) and abs(np.linalg.norm(make_acin(params).vector) - 1) < 1e-9


# the closed forms on the canonical family: |I| <= 2 wherever they accept the input
@settings(max_examples=200, deadline=None)
@given(x=listed(FLOATS | st.floats(-0.6, 0.6) | NOT_FLOATS))
@example(x=[0.3])
@example(x=[0.1, 0.2])
def test_closed_forms_are_valid_or_raise(x):
    for closed_form in (closed_form_from_mu, schmidt_subfamily_I, tau3_relation):
        try:
            value = closed_form(x)
        except ValueError:
            continue
        assert isinstance(value, float) and np.isfinite(value) and abs(value) <= 2 + 1e-12


@settings(max_examples=200, deadline=None)
@given(a3=FLOATS | st.floats(-1, 1) | NOT_FLOATS, b3=FLOATS | st.floats(-1, 1) | NOT_FLOATS)
def test_w_reduced_I_is_valid_or_raises(a3, b3):
    try:
        value = w_reduced_I(a3, b3)
    except ValueError:
        return
    assert isinstance(value, float) and np.isfinite(value) and abs(value) <= 2


@pytest.mark.parametrize(
    "call, error, name",
    [
        (check_seed, ValueError, "seed"),
        (lambda n: maximize_I(make_w(), restarts=n), ValueError, "restarts"),
        (lambda n: lu_invariance_check(make_ghz(2), trials=n, restarts=1), ValueError, "trials"),
        (lambda n: weyl_operator(n, 0, 0), ValueError, "dimension d"),
        (lambda n: QuditGenPair(3, (n, 0), (0, 1)), ValueError, "g1"),
        (lambda n: make_ghz_basis_element(n, 0, 0), StateError, "bits"),
        (lambda n: make_ghz_basis_element(0, 0, 0, n), StateError, "sign"),
        (lambda n: AcinParams(n, 0, 0, 0, 1), StateError, "lambda"),
        (lambda n: AcinParams(1, 0, 0, 0, 0, n), StateError, "phi"),
    ],
    ids=["seed", "restarts", "trials", "weyl-d", "generator", "bit", "sign", "lambda", "phi"],
)
def test_huge_integer_is_not_formatted_into_its_error(call, error, name):
    # str() of an integer past 4300 digits raises its own ValueError
    with pytest.raises(error, match=name):
        call(-(10**5000))


NUMBERS = st.integers(-1, 4) | st.floats(-1, 5) | FLOATS | st.integers(-(2**70), 2**70)
LABELS = (
    st.tuples(NUMBERS, NUMBERS)
    | st.lists(NUMBERS, max_size=3).map(tuple)
    | st.lists(NUMBERS, max_size=3)
    | st.lists(st.integers(-1, 4), max_size=3).map(np.array)
    | st.tuples(st.tuples(NUMBERS, NUMBERS), NUMBERS)
    | st.integers()
    | st.none()
)


@settings(max_examples=200, deadline=None)
@given(d=NUMBERS, g1=LABELS, g2=LABELS)
@example(d=3, g1=[1, 0], g2=np.array([0, 1]))
def test_qudit_gen_pair_is_valid_or_raises(d, g1, g2):
    try:
        pair = QuditGenPair(d, g1, g2)
    except ValueError:
        return
    assert isinstance(pair.d, int) and pair.d >= 2
    for g in (pair.g1, pair.g2):
        assert type(g) is tuple and len(g) == 2
        assert all(isinstance(x, int) and 0 <= x < pair.d for x in g)
    assert pair.symplectic in range(pair.d)
    # scan_qudit_pairs keys its results by pairs, so a pair equals and hashes like its tuple twin
    twin = QuditGenPair(d, tuple(int(x) for x in g1), tuple(int(x) for x in g2))
    assert pair == twin and hash(pair) == hash(twin)


@pytest.mark.parametrize("g1, g2, name", [(((1, 2), 3), (0, 1), "g1"), ((0, 1), [[1], [2]], "g2")])
def test_ragged_generator_is_named_in_its_error(g1, g2, name):
    with pytest.raises(ValueError, match=f"generator {name}"):
        QuditGenPair(3, g1, g2)


# Free tokens carry no digit, so no free token is a count that would make a
# subcommand allocate or loop without bound, and no path separator, so an
# --output path stays inside the working directory of the test.
TOKENS = st.text(
    st.characters(blacklist_categories=("Nd", "Cs"), blacklist_characters="/\\\x00"),
    max_size=8,
)


def _option(flag, values):
    return st.tuples(st.just(flag), values | TOKENS)


def _numbers(*counts):
    return st.one_of(
        st.lists(FLOATS | st.integers(-2, 2), min_size=n, max_size=n).map(
            lambda xs: ",".join(map(str, xs))
        )
        for n in counts
    )


def _ints(low, high):
    return st.integers(low, high).map(str)


COMMON = [
    _option("--format", st.sampled_from(["table", "csv", "json"])),
    # relative to the working directory: a file, a directory, a missing directory
    _option("--output", st.sampled_from(["out.txt", ".", "missing/out.txt"])),
    _option("--seed", _ints(-1, 2**70)),
]
STATES = [
    _option("--state", st.sampled_from(NAMED_STATES)),
    _option("--acin", _numbers(5, 6)),
    _option("--state-file", st.sampled_from(["out.txt", "missing.json"])),
]
RESTARTS = _option("--restarts", _ints(-1, 5))
SAMPLES = _option("--samples", _ints(-1, 2))
# options given first, so no search runs at its default size
BOUNDED = {"optimize": [RESTARTS], "bench": [RESTARTS], "random": [RESTARTS, SAMPLES]}
FLAGS = {
    "eval": STATES + [_option("--n1", _numbers(3)), _option("--n2", _numbers(3))] + COMMON,
    "optimize": STATES + [RESTARTS] + COMMON,
    "scan-mu": [_option("--steps", _ints(-1, 5))] + COMMON,
    "bench": [RESTARTS] + COMMON,
    "random": [RESTARTS, SAMPLES] + COMMON,
    "qudit": [
        _option("--d", _ints(-1, 3)),
        _option("--g1", st.sampled_from(["1,0", "0,1", "1,1"])),
        _option("--g2", st.sampled_from(["0,1", "2,1"])),
        _option("--state", st.sampled_from(["ghz", "mixed", "out.txt"])),
        st.just(("--scan",)),
    ]
    + COMMON,
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)) | TOKENS)
    options = [draw(option) for option in BOUNDED.get(command, [])]
    options += draw(st.lists(st.one_of(FLAGS.get(command, FLAGS["eval"])), max_size=6))
    argv = [command] + [token for option in options for token in option]
    for token in draw(st.lists(TOKENS, max_size=2)):
        argv.insert(draw(st.integers(0, len(argv))), token)
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
def test_cli_main_never_raises(tmp_path_factory, argv):
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cli"))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse exits 0 after --help
                code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
