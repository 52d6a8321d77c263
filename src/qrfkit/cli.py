"""Command-line front end.

Four subcommands: `perspective` rewrites a state as seen by one of its
qubits, `check` runs the transference and corollary constraints on a 3-qubit
state, `sweep` tabulates the degradation curves over an acceleration grid,
and `sample` batch-verifies random states.  Output goes to stdout or --out;
errors are reported as one JSON line on stderr and a nonzero exit code:

    0 success, 2 io, 3 shape, 4 domain, 5 numeric

Builtin states (usable wherever --state takes a path): `rindler:<r>`,
`ghz:<g>`, `w-even:<w1>,<w2>,<w3>`, `sep-counterexample`, `appc-q:<q>`.
The default tolerance 1e-9 can be overridden by --tol or the QRF_TOL
environment variable (--tol wins).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from collections.abc import Iterator

import numpy as np

from . import rindler
from .errors import DomainError, GridError, IoError, NumericError, QrfError, ShapeError
from .measures import MeasurePair
from .perspective import assign_perspective
from .qstate import PureState, _by_block, _dumps, _fill_rows, _nonfinite_refused, _row_template, state_from_amplitudes
from .qstate import _MALFORMED, state_from_json, state_to_json
from .transference import ConstraintId, ConstraintReport, ParityClass, _analysis_of, _reports, _sample_block
from .transference import parity_class

DEFAULT_TOL = 1e-9
# Largest --grid count, 500 times the paper's 201-point grid.
MAX_GRID_POINTS = 100_000
# Largest sample --count.  It keeps every state index below 2**32, one seed word,
# which the stacked seeding in transference relies on.
MAX_SAMPLE_COUNT = 100_000

EXIT_CODES = {"io": 2, "shape": 3, "domain": 4, "numeric": 5}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qrfkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    measures = ["entropy", "linear", "both"]

    p = sub.add_parser("perspective", help="rewrite a state as seen by one of its qubits")
    p.add_argument("--state", required=True, help="state file path or builtin name")
    p.add_argument("--perspective", required=True, help="target qubit: index 0..n-1, or A|R|Rbar for 0|1|2")

    c = sub.add_parser("check", help="run transference and corollary constraints")
    c.add_argument("--state", required=True)
    c.add_argument("--measures", choices=measures, default="both")

    s = sub.add_parser("sweep", help="tabulate degradation curves over an r grid")
    s.add_argument("--grid", required=True, help="start:stop:count over [0, pi/4]")
    s.add_argument("--measures", choices=measures, default="both")
    s.add_argument("--format", choices=["csv", "json"], default="csv")

    b = sub.add_parser("sample", help="batch-verify random states")
    b.add_argument("--count", type=int, required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--parity", choices=["even", "odd", "neither"], default="even")
    b.add_argument("--measures", choices=measures, default="both")

    # Shared by every subcommand, and last in each one's --help.
    for command in sub.choices.values():
        command.add_argument("--tol", type=float, default=None)
        command.add_argument("--out", default=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main uses, built on its first call; parsing leaves it unchanged."""
    return build_parser()


def resolve_tol(arg_tol) -> float:
    if arg_tol is not None:
        tol = arg_tol
    else:
        env = os.environ.get("QRF_TOL")
        if env is None:
            return DEFAULT_TOL
        try:
            tol = float(env)
        except ValueError:
            raise DomainError(f"QRF_TOL value {env!r} is not a number") from None
    if not tol > 0.0 or not math.isfinite(tol):
        raise DomainError(f"tolerance must be a positive finite number, got {tol}")
    return tol


def _builtin_param(text: str, name: str) -> float:
    """text as a float; a non-numeric text is a DomainError, a NaN a NumericError naming the builtin."""
    try:
        value = float(text)
    except ValueError:
        raise DomainError(f"builtin {name} expects a numeric parameter, got {text!r}") from None
    if math.isnan(value):
        raise NumericError(f"{name} parameter must be a number, got {value}")
    return value


def load_state(spec: str, tol: float) -> PureState:
    """Resolve --state: ``name:params`` or sep-counterexample is a builtin, anything else a state file path.

    Builtins are exact constructions, so tol reaches state files only."""
    match spec.partition(":"):
        case ("sep-counterexample", "", ""):
            return state_from_amplitudes([0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0])
        case ("rindler", ":", arg):
            return rindler.global_state(_builtin_param(arg, "rindler"))
        case ("ghz", ":", arg):
            g = _builtin_param(arg, "ghz")
            if not 0.0 <= g <= 1.0:
                raise DomainError(f"ghz weight must lie in [0, 1], got {g}")
            return state_from_amplitudes([g, 0, 0, 0, 0, 0, 0, math.sqrt(1.0 - g * g)])
        case ("w-even", ":", arg):
            parts = arg.split(",")
            if len(parts) != 3:
                raise DomainError("w-even expects three comma-separated weights")
            w = np.array([_builtin_param(p, "w-even") for p in parts])
            with _nonfinite_refused():  # an overflowing norm is inf, refused below
                norm = float(np.linalg.norm(w))
            if norm < math.sqrt(sys.float_info.min) and w.any():  # w.w lost bits below the normal range
                w = w / np.abs(w).max()
                norm = float(np.linalg.norm(w))
            if not math.isfinite(norm):  # an infinite weight, or an overflowing norm
                raise NumericError(f"w-even weights {arg} have no finite norm")
            if norm == 0.0:
                raise DomainError("w-even weights must not all vanish")
            # Not _renormalised: it leaves a norm within 1e-12 of 1 undivided, and on about a third of weight triples
            # already that close to unit the amplitudes, and so the check output, would change in the last bit.
            a, b, c = w / norm
            return state_from_amplitudes([0, 0, 0, a, 0, b, c, 0])
        case ("appc-q", ":", arg):
            q = _builtin_param(arg, "appc-q")
            if q * q >= 0.5:
                raise DomainError(f"appc-q parameter must satisfy q^2 < 1/2, got {q}")
            edge = math.sqrt(0.5 - q * q)
            return state_from_amplitudes([edge, q, -q, edge, 0, 0, 0, 0])
    try:
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise IoError(f"cannot read state file {spec}: {e}") from e
    try:
        return state_from_json(text, tol=tol)
    except _MALFORMED as e:
        raise IoError(f"state file {spec} is not a valid state document: {e}") from e


def parse_perspective(text: str) -> int:
    """A nonnegative decimal index or A|R|Rbar; assign_perspective checks the range."""
    aliases = {"a": 0, "r": 1, "rbar": 2}
    key = text.strip().lower()
    if key.isascii() and key.isdecimal():
        digits = key.lstrip("0") or "0"
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts, so past the end of any register
            raise ShapeError(f"perspective target of {len(digits)} digits lies outside any register") from None
    if key not in aliases:
        raise DomainError(f"perspective must be a nonnegative qubit index or A|R|Rbar, got {text!r}")
    return aliases[key]


def parse_measures(text: str) -> list[MeasurePair]:
    if text == "both":
        return [MeasurePair.ENTROPY, MeasurePair.LINEAR]
    return [MeasurePair.parse(text)]


def parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise GridError(f"grid must be start:stop:count, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise GridError(f"grid must be start:stop:count with numeric fields, got {text!r}") from None
    if count < 0:
        raise GridError(f"grid count must be nonnegative, got {count}")
    if count > MAX_GRID_POINTS:
        raise GridError(f"grid count must be at most {MAX_GRID_POINTS}, got {count}")
    if not math.isfinite(stop - start):  # an inf or NaN bound, or a span past the float range
        raise GridError(f"grid bounds must be finite with a finite span, got {text!r}")
    return [float(r) for r in np.linspace(start, stop, count)]


def run_perspective(args, tol: float) -> list[str]:
    psi = load_state(args.state, tol)
    target = parse_perspective(args.perspective)
    return [state_to_json(assign_perspective(psi, target), perspective_of=target), "\n"]


def run_check(args, tol: float) -> list[str]:
    psi = load_state(args.state, tol)
    pairs = parse_measures(args.measures)
    analysis = _analysis_of([psi], pairs)
    results = [{"measure_pair": m.value,
                "transference": [r.to_dict() for r in _reports(analysis.transference(m, tol), 0)],
                "corollary": [r.to_dict() for r in _reports(analysis.corollary(m, tol), 0)]} for m in pairs]
    doc = {"parity": parity_class(psi).value, "tol": tol, "results": results}
    return [_dumps(doc, indent=2) + "\n"]


def run_sweep(args, tol: float) -> Iterator[str]:
    grid = parse_grid(args.grid)
    pairs = parse_measures(args.measures)
    tables = zip(pairs, rindler._sweep_pairs(grid, pairs))
    return (rindler._sweep_json if args.format == "json" else rindler._sweep_csv)(tables)


def run_sample(args, tol: float) -> Iterator[str]:
    if args.count < 1:
        raise DomainError(f"sample count must be >= 1, got {args.count}")
    if args.count > MAX_SAMPLE_COUNT:
        raise DomainError(f"sample count must be at most {MAX_SAMPLE_COUNT}, got {args.count}")
    if args.seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {args.seed}")
    cls = ParityClass(args.parity.title())
    pairs = parse_measures(args.measures)
    index = np.arange(args.count)
    whole = _by_block(args.count, lambda rows: _sample_block(cls, args.seed, index[rows], pairs, tol))
    tables = [whole[start:start + 4] for start in range(0, len(whole), 4)]
    passed = [satisfied.all(axis=1) for *_, satisfied in tables]
    template, columns = "", []
    for m, table, ok in zip(pairs, tables, passed):
        doc = {"index": "%d", "parity": args.parity, "measure_pair": m.value,
               "constraints": [ConstraintReport(c, "%r", "%r", "%r", "%s").to_dict() for c in ConstraintId],
               "all_satisfied": "%s"}
        template += _row_template(doc) + "\n"
        # One column per field in line order: each constraint's lhs, rhs, residual and verdict in turn.
        columns += [index, *(column[:, j] for j in range(3) for column in table), ok]
    pass_counts = {m.value: int(np.count_nonzero(ok)) for m, ok in zip(pairs, passed)}
    summary = _dumps({"summary": {"count": args.count, "parity": args.parity, "seed": args.seed, "pass": pass_counts}})
    # One template per state: its lines follow one another, one per measure pair.
    return itertools.chain(_fill_rows(template, columns), [summary + "\n"])


_RUNNERS = {
    "perspective": run_perspective,
    "check": run_check,
    "sweep": run_sweep,
    "sample": run_sample,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        # Each runner checks everything before it returns; its pieces are then formatted as they are written.
        pieces = _RUNNERS[args.command](args, resolve_tol(args.tol))
        if args.out is None:
            if sys.stdout is None:  # started with file descriptor 1 closed
                raise IoError("cannot write output to stdout: it is closed")
            try:
                sys.stdout.writelines(pieces)
                sys.stdout.flush()
            except OSError as e:
                # A closed pipe: stdout goes to devnull, so the flush at exit has nothing to report (see signal's SIGPIPE note).
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise IoError(f"cannot write output to stdout: {e}") from e
        else:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.writelines(pieces)
            except OSError as e:
                raise IoError(f"cannot write output file {args.out}: {e}") from e
    except QrfError as e:
        with contextlib.suppress(OSError):  # an unwritable stderr loses the error line, not the exit code
            if sys.stderr is not None:  # None when started with file descriptor 2 closed
                sys.stderr.write(_dumps({"error": e.kind, "message": str(e)}) + "\n")
        return EXIT_CODES[e.kind]
    return 0


if __name__ == "__main__":
    sys.exit(main())
