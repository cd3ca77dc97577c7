"""Command-line front end: evaluate, optimize, scan, benchmark, sample, qudit."""

import argparse
import csv
import io
import json
import os
import sys

import numpy as np

from . import functional, optimize, states
from .correlators import correlators_from_tensor, pauli_tensor
from .linalg import OrthoFrame
from .states import StateError

PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)

# each --state name and the qubit state it builds
NAMED_STATE_MAKERS = {
    "ghz": lambda: states.make_ghz(2),
    "w": states.make_w,
    "bisep": lambda: states.make_biseparable("A|BC", [1.0, 0.0], PHI_PLUS),
    "product": lambda: states.make_product([1, 0], [1, 0], [1, 0]),
    "mixed": lambda: states.maximally_mixed(2),
}
# a sequence: Hypothesis's sampled_from, like argparse's choices, takes it and not a dict
NAMED_STATES = tuple(NAMED_STATE_MAKERS)


def default_seed():
    raw = os.environ.get("GHZMETER_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"GHZMETER_SEED must be an integer, got {raw!r}") from None


def resolve_state(args):
    if args.state is not None:
        return NAMED_STATE_MAKERS[args.state]()
    if args.acin is not None:
        vals = parse_floats("--acin", args.acin, (5, 6))
        phi = vals[5] if len(vals) == 6 else 0.0
        try:
            return states.make_acin(states.AcinParams(*vals[:5], phi=phi))
        except StateError as exc:
            raise ValueError(f"--acin: {exc}")
    try:
        return states.load_state(args.state_file)
    except (OSError, StateError) as exc:
        raise ValueError(f"--state-file: {exc}")


def parse_floats(flag, text, lengths):
    try:
        vals = [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}")
    if len(vals) not in lengths:
        raise ValueError(f"{flag} expects {' or '.join(map(str, lengths))} numbers, got {len(vals)}")
    return vals


def parse_direction(flag, text):
    vals = np.asarray(parse_floats(flag, text, (3,)))
    scale = np.max(np.abs(vals))
    with np.errstate(over="ignore"):  # a norm past the float range reads inf
        if not (0.0 < scale and np.linalg.norm(vals) < np.inf):
            raise ValueError(f"{flag} must be a 3-vector of nonzero finite norm, got {text!r}")
    # divided first by the power of two at max|v|: exact, so every direction
    # whose squares stay normal keeps its rounding, and tiny ones cannot underflow
    unit = np.ldexp(vals, -np.frexp(scale)[1])
    return unit / np.linalg.norm(unit)


def emit(args, rows, line, head="", **fields):
    """Write the rows in the requested format: human table, CSV, or JSON.

    ``rows`` are dicts: their keys, in order, are the CSV header and the JSON keys.  The table
    is ``head``, then ``line`` for each row, formatted with ``fields`` and the row's values.
    """
    if args.format == "table":
        text = head.format(**fields) + "".join(line.format(**fields, **row) for row in rows)
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(rows, indent=1) + "\n"
    if args.output:
        with open(args.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def pair_columns(pair):
    """Columns g1p, g1q, g2p, g2q, symplectic of a qudit generator pair."""
    (g1p, g1q), (g2p, g2q) = pair.g1, pair.g2
    return dict(g1p=g1p, g1q=g1q, g2p=g2p, g2q=g2q, symplectic=pair.symplectic)


def cmd_eval(args):
    state = resolve_state(args)
    frame = OrthoFrame(parse_direction("--n1", args.n1), parse_direction("--n2", args.n2))
    e = correlators_from_tensor(pauli_tensor(state), frame.n1, frame.n2)
    value = functional.I_of(e)
    row = dict(e1=e.e1, e2=e.e2, e3=e.e3, e4=e.e4, I=value, abs_I=abs(value))
    # numpy's array printer costs more than the evaluation, so the frame is
    # passed as fields: only a table formats it
    emit(args, [row],
         "e1 = {e1:.9g}  e2 = {e2:.9g}  e3 = {e3:.9g}  e4 = {e4:.9g}\n"
         "I  = {I:.9g}   |I| = {abs_I:.9g}\n",
         "n1 = {n1}  n2 = {n2}  (n1.n2 = {c:.9g})\n", n1=frame.n1, n2=frame.n2, c=frame.c)
    return 0


def cmd_optimize(args):
    state = resolve_state(args)
    result = optimize.maximize_I(state, restarts=args.restarts, seed=args.seed)
    n1, n2 = result.best_frame.n1, result.best_frame.n2
    row = dict(best_value=result.best_value, e_ghz=result.e_ghz)
    row.update(zip(("n1x", "n1y", "n1z", "n2x", "n2y", "n2z"), n1.tolist() + n2.tolist()))
    row.update(restarts=result.restarts, converged_restarts=result.converged_restarts,
               iterations_total=result.iterations_total, seed=result.seed)
    emit(args, [row],
         "sup|I|  = {best_value:.9g}\nE_GHZ   = {e_ghz:.9g}\n"
         "n1      = {n1x:.9g},{n1y:.9g},{n1z:.9g}\nn2      = {n2x:.9g},{n2y:.9g},{n2z:.9g}\n"
         "restarts = {restarts} (converged {converged_restarts}), "
         "seed = {seed}, iterations = {iterations_total}\n")
    return 0


def cmd_scan_mu(args):
    if args.steps < 2:
        raise ValueError("--steps must be at least 2")
    rows = []
    frame = OrthoFrame([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    for mu in np.linspace(0.0, 0.5, args.steps):
        closed = functional.closed_form_from_mu(mu)
        # canonical state with lambda0*lambda4 = mu and the weight balanced on |000>,|111>
        lam0 = np.sqrt(0.5 * (1.0 + np.sqrt(1.0 - 4.0 * mu**2)))
        lam4 = mu / lam0 if lam0 > 0 else 0.0
        rest = np.sqrt(max(0.0, 1.0 - lam0**2 - lam4**2))
        params = states.AcinParams(lam0, rest, 0.0, 0.0, lam4)
        direct = functional.eval_I(states.make_acin(params), frame)
        rows.append(dict(mu=float(mu), closed_form=closed, direct=direct))
    emit(args, rows, "{mu:10.6f} {closed_form:14.9f} {direct:14.9f}\n",
         f"{'mu':>10} {'closed_form':>14} {'direct':>14}\n")
    return 0


def cmd_bench(args):
    rows = []
    for name in ("ghz", "w", "bisep", "product"):
        state = NAMED_STATE_MAKERS[name]()
        result = optimize.maximize_I(state, restarts=args.restarts, seed=args.seed)
        rows.append(dict(state=name, sup_abs_I=result.best_value, e_ghz=result.e_ghz,
                         restarts=args.restarts, seed=args.seed))
    emit(args, rows, "{state:>8} {sup_abs_I:12.6f} {e_ghz:10.6f}\n",
         f"{'state':>8} {'sup_abs_I':>12} {'e_ghz':>10}\n")
    return 0


def cmd_random(args):
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    states.check_seed(args.seed)
    rng = np.random.default_rng(args.seed)
    values = []
    for _ in range(args.samples):
        state = states.haar_random_pure(2, rng)
        values.append(
            optimize.maximize_I(state, restarts=args.restarts, seed=args.seed).best_value
        )
    values = np.array(values)
    quantiles = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
    row = dict(samples=args.samples, restarts=args.restarts, seed=args.seed)
    row.update(zip(("min", "q1", "median", "q3", "max"), quantiles.tolist()))
    emit(args, [row],
         "samples = {samples}, restarts per sample = {restarts} (reduced), seed = {seed}\n"
         "sup|I| quantiles (min/q1/median/q3/max): "
         "{min:.9g} {q1:.9g} {median:.9g} {q3:.9g} {max:.9g}\n")
    if values.max() >= 2.0 - 1e-3:
        print(
            f"warning: a sample reached sup|I| = {values.max()!r}, "
            "within 1e-3 of the algebraic bound",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_qudit(args):
    d = args.d
    if args.state == "ghz":
        state = states.make_ghz(d)
    elif args.state == "mixed":
        state = states.maximally_mixed(d)
    else:
        try:
            state = states.load_state(args.state)
        except (OSError, StateError) as exc:
            raise ValueError(f"--state: {exc}")
    if state.local_dim != d:
        raise ValueError(f"state has local_dim {state.local_dim}, expected {d}")
    if args.scan:
        best, pair, _ = functional.scan_qudit_pairs(state)
        emit(args, [dict(d=d, **pair_columns(pair), max_abs_Id=best)],
             "d = {d}: exhaustive scan over non-commuting generator pairs\n"
             "max |I_d| = {max_abs_Id:.9g} at g1 = ({g1p}, {g1q}), g2 = ({g2p}, {g2q}) "
             "(symplectic {symplectic})\n")
        return 0
    try:
        g1 = tuple(int(x) for x in args.g1.split(","))
        g2 = tuple(int(x) for x in args.g2.split(","))
        pair = functional.QuditGenPair(d, g1, g2)
    except ValueError as exc:
        raise ValueError(f"invalid generators: {exc}")
    value = functional.eval_Id(state, pair)
    residual = functional.qudit_product_residual(pair)
    row = dict(d=d, **pair_columns(pair))
    row.update(Id_re=value.real, Id_im=value.imag, abs_Id=abs(value), residual=residual)
    emit(args, [row],
         "g1 = ({g1p}, {g1q}), g2 = ({g2p}, {g2q}), symplectic = {symplectic}\n"
         "I_d = {Id_re:.9g} {Id_im:+.9g}i   |I_d| = {abs_Id:.9g}\n"
         "G1G2G3 vs omega^(2s) G4 residual = {residual:.9g}\n")
    return 0


def add_state_options(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--state", choices=NAMED_STATES, help="named state")
    group.add_argument("--acin", help="lambda0..lambda4[,phi] canonical parameters")
    group.add_argument("--state-file", help="path to a JSON state file")


def add_output_options(parser):
    parser.add_argument("--format", choices=("table", "csv", "json"), default="table")
    parser.add_argument("--output", help="write to this path instead of stdout")


class Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ValueError, so main reports them in one line."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = Parser(
        prog="ghzmeter",
        description="Multiplicative GHZ functional and tripartite entanglement indicator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate I at an explicit frame")
    add_state_options(p)
    p.add_argument("--n1", required=True, help="first direction, e.g. 1,0,0")
    p.add_argument("--n2", required=True, help="second direction, e.g. 0,1,0")
    add_output_options(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("optimize", help="maximize |I| over orthonormal frames")
    add_state_options(p)
    p.add_argument("--restarts", type=int, default=optimize.DEFAULT_RESTARTS)
    p.add_argument("--seed", type=int, default=None)
    add_output_options(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("scan-mu", help="closed form vs direct evaluation on a mu grid")
    p.add_argument("--steps", type=int, default=51)
    add_output_options(p)
    p.set_defaults(func=cmd_scan_mu)

    p = sub.add_parser("bench", help="sup|I| for the four representative states")
    p.add_argument("--restarts", type=int, default=optimize.DEFAULT_RESTARTS)
    p.add_argument("--seed", type=int, default=None)
    add_output_options(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("random", help="sup|I| statistics over Haar-random pure states")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--restarts", type=int, default=30)
    p.add_argument("--seed", type=int, default=None)
    add_output_options(p)
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("qudit", help="evaluate the qudit functional I_d")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--g1", default="1,0", help="first generator p,q")
    p.add_argument("--g2", default="0,1", help="second generator p,q")
    p.add_argument("--state", default="ghz", help="ghz, mixed, or a state-file path")
    p.add_argument("--scan", action="store_true", help="scan all non-commuting pairs")
    add_output_options(p)
    p.set_defaults(func=cmd_qudit)

    return parser


PARSER = build_parser()


def main(argv=None):
    try:
        args = PARSER.parse_args(argv)
        if getattr(args, "seed", 0) is None:
            args.seed = default_seed()
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # OSError: --output cannot be written
        # a message that echoes user text stays on one line
        message = (str(exc) or "out of memory").replace("\n", "\\n").replace("\r", "\\r")
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
