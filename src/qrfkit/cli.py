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
import json
import math
import os
import sys

import numpy as np

from . import rindler
from .errors import DomainError, GridError, IoError, QrfError
from .measures import MeasurePair
from .perspective import assign_perspective
from .qstate import PureState, state_from_amplitudes, state_from_json, state_to_json
from .transference import (
    ParityClass,
    check_corollary,
    check_transference,
    parity_class,
    random_parity_state,
)

DEFAULT_TOL = 1e-9

EXIT_CODES = {"io": 2, "shape": 3, "domain": 4, "numeric": 5}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qrfkit", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("perspective", help="rewrite a state as seen by one of its qubits")
    p.add_argument("--state", required=True, help="state file path or builtin name")
    p.add_argument("--perspective", required=True, help="target qubit: index 0..n-1, or A|R|Rbar for 0|1|2")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", default=None)

    c = sub.add_parser("check", help="run transference and corollary constraints")
    c.add_argument("--state", required=True)
    c.add_argument("--measures", choices=["entropy", "linear", "both"], default="both")
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--out", default=None)

    s = sub.add_parser("sweep", help="tabulate degradation curves over an r grid")
    s.add_argument("--grid", required=True, help="start:stop:count over [0, pi/4]")
    s.add_argument("--measures", choices=["entropy", "linear", "both"], default="both")
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.add_argument("--tol", type=float, default=None)
    s.add_argument("--out", default=None)

    b = sub.add_parser("sample", help="batch-verify random states")
    b.add_argument("--count", type=int, required=True)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--parity", choices=["even", "odd", "neither"], default="even")
    b.add_argument("--measures", choices=["entropy", "linear", "both"], default="both")
    b.add_argument("--tol", type=float, default=None)
    b.add_argument("--out", default=None)

    return parser


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
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"builtin {name} expects a numeric parameter, got {text!r}") from None


def load_state(spec: str, tol: float) -> PureState:
    """Resolve --state: builtin registry first, file path otherwise."""
    if spec == "sep-counterexample":
        return state_from_amplitudes([0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0], tol=tol)
    if spec.startswith("rindler:"):
        return rindler.global_state(_builtin_param(spec[8:], "rindler"))
    if spec.startswith("ghz:"):
        g = _builtin_param(spec[4:], "ghz")
        if not 0.0 <= g <= 1.0:
            raise DomainError(f"ghz weight must lie in [0, 1], got {g}")
        amps = np.zeros(8)
        amps[0b000] = g
        amps[0b111] = math.sqrt(1.0 - g * g)
        return state_from_amplitudes(amps, tol=tol)
    if spec.startswith("w-even:"):
        parts = spec[7:].split(",")
        if len(parts) != 3:
            raise DomainError("w-even expects three comma-separated weights")
        w = np.array([_builtin_param(p, "w-even") for p in parts])
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            raise DomainError("w-even weights must not all vanish")
        amps = np.zeros(8)
        amps[[0b011, 0b101, 0b110]] = w / norm
        return state_from_amplitudes(amps, tol=tol)
    if spec.startswith("appc-q:"):
        q = _builtin_param(spec[7:], "appc-q")
        if q * q >= 0.5:
            raise DomainError(f"appc-q parameter must satisfy q^2 < 1/2, got {q}")
        edge = math.sqrt(0.5 - q * q)
        return state_from_amplitudes([edge, q, -q, edge, 0, 0, 0, 0], tol=tol)
    try:
        with open(spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise IoError(f"cannot read state file {spec}: {e}") from e
    try:
        return state_from_json(text, tol=tol)
    except QrfError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise IoError(f"state file {spec} is not a valid state document: {e}") from e


def parse_perspective(text: str) -> int:
    """A nonnegative decimal index or A|R|Rbar; assign_perspective checks the range."""
    aliases = {"a": 0, "r": 1, "rbar": 2}
    key = text.strip().lower()
    if key.isascii() and key.isdecimal():
        return int(key)
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
    return [float(r) for r in np.linspace(start, stop, count)]


def run_perspective(args, tol: float) -> str:
    psi = load_state(args.state, tol)
    target = parse_perspective(args.perspective)
    return state_to_json(assign_perspective(psi, target), perspective_of=target) + "\n"


def run_check(args, tol: float) -> str:
    psi = load_state(args.state, tol)
    results = []
    for m in parse_measures(args.measures):
        results.append(
            {
                "measure_pair": m.value,
                "transference": [r.to_dict() for r in check_transference(psi, m, tol)],
                "corollary": [r.to_dict() for r in check_corollary(psi, m, tol)],
            }
        )
    doc = {"parity": parity_class(psi).value, "tol": tol, "results": results}
    return json.dumps(doc, indent=2) + "\n"


def run_sweep(args, tol: float) -> str:
    grid = parse_grid(args.grid)
    pairs = parse_measures(args.measures)
    if args.format == "json":
        rows = []
        for m in pairs:
            rows.extend(rindler.sweep_to_dicts(rindler.sweep(grid, m), m))
        return json.dumps(rows, indent=2) + "\n"
    tables = [rindler.sweep_to_csv(rindler.sweep(grid, m), m) for m in pairs]
    # One header: later tables contribute their rows only.
    return tables[0] + "".join(t.split("\n", 1)[1] for t in tables[1:])


def run_sample(args, tol: float) -> str:
    if args.count < 1:
        raise DomainError(f"sample count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {args.seed}")
    cls = {"even": ParityClass.EVEN, "odd": ParityClass.ODD, "neither": ParityClass.NEITHER}[args.parity]
    pairs = parse_measures(args.measures)
    pass_counts = {m.value: 0 for m in pairs}
    lines = []
    for i in range(args.count):
        rng = np.random.default_rng([args.seed, i])
        psi = random_parity_state(cls, rng)
        for m in pairs:
            reports = check_transference(psi, m, tol)
            ok = all(r.satisfied for r in reports)
            pass_counts[m.value] += ok
            lines.append(
                json.dumps(
                    {
                        "index": i,
                        "parity": args.parity,
                        "measure_pair": m.value,
                        "constraints": [r.to_dict() for r in reports],
                        "all_satisfied": ok,
                    }
                )
            )
    lines.append(
        json.dumps(
            {"summary": {"count": args.count, "parity": args.parity, "seed": args.seed, "pass": pass_counts}}
        )
    )
    return "\n".join(lines) + "\n"


_RUNNERS = {
    "perspective": run_perspective,
    "check": run_check,
    "sweep": run_sweep,
    "sample": run_sample,
}


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = _RUNNERS[args.command](args, resolve_tol(args.tol))
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
            except OSError as e:
                raise IoError(f"cannot write output file {args.out}: {e}") from e
    except QrfError as e:
        _emit_error(e.kind, str(e))
        return EXIT_CODES[e.kind]
    return 0


if __name__ == "__main__":
    sys.exit(main())
