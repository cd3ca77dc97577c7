"""Property tests of the input boundary: constructors and the CLI on fuzzed input."""

import contextlib
import io
import os

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzmeter import (
    AcinParams,
    OrthoFrame,
    QuantumState,
    QuditGenPair,
    StateError,
    closed_form_from_mu,
    haar_random_pure,
    make_ghz,
    maximally_mixed,
    schmidt_subfamily_I,
    tau3_relation,
    w_reduced_I,
    weyl_operator,
)
from ghzmeter.cli import NAMED_STATES, main

# every float, nan and +-inf included
FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=200, deadline=None)
@given(n1=st.lists(FLOATS, min_size=3, max_size=3), n2=st.lists(FLOATS, min_size=3, max_size=3))
def test_ortho_frame_is_valid_or_raises(n1, n2):
    try:
        frame = OrthoFrame(n1, n2)
    except ValueError:
        return
    for n in (frame.n1, frame.n2):
        assert np.all(np.isfinite(n)) and abs(np.linalg.norm(n) - 1) < 1e-12
    assert np.isfinite(frame.c)


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


@settings(max_examples=200, deadline=None)
@given(lambdas=st.lists(FLOATS | st.sampled_from([0.0, 0.6, 0.8]), min_size=5, max_size=5), phi=FLOATS)
def test_acin_params_is_valid_or_raises(lambdas, phi):
    try:
        params = AcinParams(*lambdas, phi=phi)
    except StateError:
        return
    assert np.all(np.isfinite(params.lambdas)) and abs(np.sum(params.lambdas**2) - 1) < 1e-9
    assert 0 <= params.phi <= np.pi


# the closed forms on the canonical family: |I| <= 2 wherever they accept the input
@settings(max_examples=200, deadline=None)
@given(x=FLOATS | st.floats(-0.6, 0.6))
def test_closed_forms_are_valid_or_raise(x):
    for closed_form in (closed_form_from_mu, schmidt_subfamily_I, tau3_relation):
        try:
            value = closed_form(x)
        except ValueError:
            continue
        assert np.isfinite(value) and abs(value) <= 2 + 1e-12


@settings(max_examples=200, deadline=None)
@given(a3=FLOATS | st.floats(-1, 1), b3=FLOATS | st.floats(-1, 1))
def test_w_reduced_I_is_valid_or_raises(a3, b3):
    try:
        value = w_reduced_I(a3, b3)
    except ValueError:
        return
    assert np.isfinite(value) and abs(value) <= 2


NUMBERS = st.integers(-1, 4) | st.floats(-1, 5) | FLOATS | st.integers(-(2**70), 2**70)
LABELS = st.tuples(NUMBERS, NUMBERS) | st.lists(NUMBERS, max_size=3).map(tuple)


@settings(max_examples=200, deadline=None)
@given(d=NUMBERS, g1=LABELS, g2=LABELS)
def test_qudit_gen_pair_is_valid_or_raises(d, g1, g2):
    try:
        pair = QuditGenPair(d, g1, g2)
    except ValueError:
        return
    assert isinstance(pair.d, int) and pair.d >= 2
    for g in (pair.g1, pair.g2):
        assert len(g) == 2 and all(isinstance(x, int) and 0 <= x < pair.d for x in g)
    assert pair.symplectic in range(pair.d)


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
            except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help
                code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
