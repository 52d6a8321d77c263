"""The accelerated-observer state family and its degradation curves.

One inertial party (Alice) shares a Bell pair with a uniformly accelerating
party (Rob) whose horizon partner (anti-Rob) purifies the pair; the family
is parameterized by the squeezing angle r with tan r = exp(-pi omega / a),
r in [0, pi/4].  The right endpoint is the infinite-acceleration limit and
is admitted as an evaluable boundary point since every expression here is
continuous there.

Closed forms exist for the six entanglement quantities (three perspectival,
three across global cuts), stated once as a table evaluated once per (r,
measure pair).  The six subsystem coherences carry no printed closed forms;
their reference values are derived from that table by the transference
identities (global-cut entanglement minus perspectival entanglement), which
the family satisfies exactly as an even parity state.  Mutual information is
entropic by definition, so those columns are sums of the entropic curves
under either measure pair.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Iterator
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DomainError, GridError, NonPositiveInputError, NumericError, UnknownQuantityError, _iterable, _real
from .errors import _require_member
from .measures import MeasurePair, _binary_entropies, _is_entropic
from .qstate import PureState, _by_block, _fill_rows, _row_template, state_from_amplitudes
# oracle_coherence is imported for callers only: qrfkit.rindler.oracle_coherence stays importable.
from .transference import _Analysis, oracle_coherence  # noqa: F401

R_MAX = math.pi / 4.0
_R_SLACK = 1e-12  # r this far past R_MAX is round-off and clamps to R_MAX


class ObserverLabel(enum.Enum):
    ALICE = 0
    ROB = 1
    ANTIROB = 2


class Quantity(enum.Enum):
    """The six tabulated entanglement curves."""

    E_PERSP_A = "E_persp_A_R_Rbar"
    E_PERSP_R = "E_persp_R_A_Rbar"
    E_PERSP_RBAR = "E_persp_Rbar_A_R"
    E_RBAR_AR = "E_Rbar_AR"
    E_R_ARBAR = "E_R_ARbar"
    E_A_RRBAR = "E_A_RRbar"


PERSP_QUANTITY = {
    ObserverLabel.ALICE: Quantity.E_PERSP_A,
    ObserverLabel.ROB: Quantity.E_PERSP_R,
    ObserverLabel.ANTIROB: Quantity.E_PERSP_RBAR,
}

# Global cut with the given observer standing alone.
GLOBAL_QUANTITY = {
    ObserverLabel.ALICE: Quantity.E_A_RRBAR,
    ObserverLabel.ROB: Quantity.E_R_ARBAR,
    ObserverLabel.ANTIROB: Quantity.E_RBAR_AR,
}


def _check_r(r: float, error=DomainError, what: str = "acceleration parameter") -> float:
    """r as a float in [0, pi/4]; up to _R_SLACK past pi/4 is round-off and clamps to pi/4.  An r that is not a real
    number, or lies outside, raises error: DomainError by default."""
    r = _real(r, f"{what} %r is not a real number", error)
    if not 0.0 <= r <= R_MAX + _R_SLACK:
        raise error(f"{what} {r} outside [0, pi/4]")
    return min(r, R_MAX)


def r_from_acceleration(a: float, omega: float) -> float:
    """Squeezing angle for proper acceleration a and mode frequency omega.  An a or omega that is not a real number
    raises DomainError, and one that is not positive, NaN included, NonPositiveInputError."""
    a, omega = _real(a, "acceleration %r is not a real number"), _real(omega, "frequency %r is not a real number")
    if not (a > 0.0 and omega > 0.0):  # also rejects NaN
        raise NonPositiveInputError("acceleration and frequency must be positive")
    if math.isinf(a) and math.isinf(omega):
        raise DomainError(f"omega / a is undefined for omega = {omega}, a = {a}")
    return math.atan(math.exp(-math.pi * (omega / a)))


def _global_amplitudes(grid) -> np.ndarray:
    """(K, 8) complex128 amplitudes of global_state at each checked r of grid."""
    amps = np.zeros((len(grid), 8), dtype=np.complex128)
    amps[:, 0b000] = [math.cos(r) / math.sqrt(2.0) for r in grid]
    amps[:, 0b011] = [math.sin(r) / math.sqrt(2.0) for r in grid]
    amps[:, 0b110] = 1.0 / math.sqrt(2.0)
    return amps


def global_state(r: float) -> PureState:
    """(1/sqrt 2)(cos r |000> + sin r |011> + |110>) over (A, R, Rbar)."""
    return state_from_amplitudes(_global_amplitudes([_check_r(r)])[0])


def perspectival_state(r: float, obs: ObserverLabel) -> PureState:
    """Two-qubit state of the other two parties as seen by obs."""
    r = _check_r(r)
    _require_member(obs, ObserverLabel, "observer")
    c, s = math.cos(r), math.sin(r)
    inv = 1.0 / math.sqrt(2.0)
    if obs is ObserverLabel.ALICE:
        amps = [c * inv, inv, 0.0, s * inv]
    elif obs is ObserverLabel.ROB:
        amps = [c * inv, inv, s * inv, 0.0]
    else:
        amps = [c * inv, 0.0, s * inv, inv]
    return state_from_amplitudes(amps)


def _curves(grid, m: MeasurePair) -> np.ndarray:
    """The six printed closed forms at each checked r of grid, one (K, 6) row per point in Quantity order."""
    # Trig and squares stay per point in math: numpy's ** 2 of the same float differs from math's at some r.
    if _is_entropic(m):
        cos, sin, c2, cos4 = np.array([(math.cos(r), math.sin(r), math.cos(r) ** 2, math.cos(4.0 * r)) for r in grid]).T
        split = np.sqrt(7.0 + cos4) / (2.0 * math.sqrt(2.0))
        h2 = _binary_entropies(np.column_stack([(1.0 + split) / 2.0, (1.0 + cos) / 2.0, (1.0 + sin) / 2.0,
                                                (1.0 + c2) / 2.0, c2 / 2.0]))
        return np.column_stack([h2, np.ones(len(h2))])
    sin2, s2, c2 = np.array([(math.sin(2.0 * r) ** 2, math.sin(r) ** 2, math.cos(r) ** 2) for r in grid]).T
    return np.column_stack([sin2 / 8.0, s2 / 2.0, c2 / 2.0, (s2 / 2.0) * (1.0 + c2), c2 * (1.0 - c2 / 2.0),
                            np.full(len(c2), 0.5)])


_COLUMN = {q: i for i, q in enumerate(Quantity)}


def closed_form_entanglement(r: float, quantity: Quantity, m: MeasurePair) -> float:
    """Printed closed form for one of the six entanglement curves."""
    column = _COLUMN[_require_member(quantity, Quantity, "quantity")]
    return float(_curves([_check_r(r)], m)[0, column])


def _coherence_columns(alpha: ObserverLabel, beta: ObserverLabel) -> tuple[int, int]:
    """Curve columns (global, perspectival) whose difference is beta's coherence in alpha's perspective."""
    gamma = ObserverLabel(3 - alpha.value - beta.value)
    return _COLUMN[GLOBAL_QUANTITY[gamma]], _COLUMN[PERSP_QUANTITY[alpha]]


def closed_form_coherence(r: float, alpha: ObserverLabel, beta: ObserverLabel, m: MeasurePair) -> float:
    """Reference value of beta's coherence inside alpha's perspectival state.

    No printed closed form exists; this is the transference identity
    rearranged, valid because the family is an even parity state: the
    coherence equals the (gamma | alpha beta) global entanglement minus the
    perspectival entanglement, gamma being the remaining party.
    """
    _require_member(alpha, ObserverLabel, "observer")
    _require_member(beta, ObserverLabel, "observer")
    if alpha is beta:
        raise DomainError("coherence subsystem must differ from the perspective holder")
    g, p = _coherence_columns(alpha, beta)
    curves = _curves([_check_r(r)], m)[0]
    return float(curves[g] - curves[p])


def _mi_curves(p_a, p_r, p_rbar, e_rbar, e_r, e_a):
    """SweepRecord's six MI fields from the entropic curves; floats and float64 columns give the same bits."""
    return e_r + e_rbar - e_a, e_a + e_rbar - e_r, e_a + e_r - e_rbar, 2.0 * p_a, 2.0 * p_r, 2.0 * p_rbar


@dataclass(frozen=True)
class MiCurves:
    mi_a_r: float
    mi_a_rbar: float
    mi_r_rbar: float
    mi_persp_a: float
    mi_persp_r: float
    mi_persp_rbar: float


def mutual_information_curves(r: float) -> MiCurves:
    """Entropic mutual information, three global cuts and three perspectival."""
    mi_r_rbar, mi_a_rbar, mi_a_r, *persp = _mi_curves(*_curves([_check_r(r)], MeasurePair.ENTROPY)[0].tolist())
    return MiCurves(mi_a_r, mi_a_rbar, mi_r_rbar, *persp)


@dataclass(frozen=True)
class SweepRecord:
    """One degradation-sweep row: closed-form curve values at one r.

    max_residual is the largest deviation between any closed-form field and
    its density-matrix recomputation at the same point.
    """

    r: float
    e_persp_a: float
    e_persp_r: float
    e_persp_rbar: float
    c_a_of_r: float
    c_a_of_rbar: float
    c_r_of_a: float
    c_r_of_rbar: float
    c_rbar_of_a: float
    c_rbar_of_r: float
    e_rbar_ar: float
    e_r_arbar: float
    e_a_rrbar: float
    mi_r_rbar: float
    mi_a_rbar: float
    mi_a_r: float
    mi_persp_a: float
    mi_persp_r: float
    mi_persp_rbar: float
    max_residual: float


CSV_COLUMNS = (
    "measure_pair",
    "r",
    "E_persp_A_R_Rbar",
    "E_persp_R_A_Rbar",
    "E_persp_Rbar_A_R",
    "C_A_of_R",
    "C_A_of_Rbar",
    "C_R_of_A",
    "C_R_of_Rbar",
    "C_Rbar_of_A",
    "C_Rbar_of_R",
    "E_Rbar_AR",
    "E_R_ARbar",
    "E_A_RRbar",
    "MI_R_Rbar",
    "MI_A_Rbar",
    "MI_A_R",
    "MI_persp_A_R_Rbar",
    "MI_persp_R_A_Rbar",
    "MI_persp_Rbar_A_R",
    "max_residual",
)


def _sweep_pairs(r_grid, pairs) -> list[np.ndarray]:
    """sweep's rows for every measure pair in pairs, each one finite (K, 20) array in SweepRecord field order.

    The whole grid is checked first, then analysed a block of points at a time,
    so no stack holds more than one block.  A string or bytes grid, whose
    characters would be its points, raises GridError, and so does a grid that
    is not iterable or a point that is not a real number, such as None or "0.1".
    """
    if isinstance(r_grid, (str, bytes, bytearray)):
        raise GridError(f"sweep grid must be a sequence of numbers, not a {type(r_grid).__name__}")
    grid = [_check_r(r, GridError, "grid point") for r in _iterable(r_grid, "sweep grid", GridError)]
    if not grid:
        raise GridError("sweep grid is empty")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise GridError("sweep grid must be ascending")
    observers = list(ObserverLabel)
    ordered_pairs = [(alpha, beta) for alpha in observers for beta in observers if beta is not alpha]
    g_cols, p_cols = np.array([_coherence_columns(alpha, beta) for alpha, beta in ordered_pairs]).T

    def tables_of(rows):
        points = grid[rows]
        a = _Analysis(_global_amplitudes(points), pairs, mutual_information=True)
        # One (K, 6) table per measure pair; mutual information is entropic under either pair.
        curves = {m: _curves(points, m) for m in {*pairs, MeasurePair.ENTROPY}}
        mi_closed = np.column_stack(_mi_curves(*curves[MeasurePair.ENTROPY].T))
        for m in pairs:
            t = curves[m]
            # Both (K, 18) arrays follow the SweepRecord field order, r and max_residual aside;
            # Quantity order puts the perspectival curves first and the global cuts last, Rbar's first.
            closed = np.column_stack([t[:, :3], t[:, g_cols] - t[:, p_cols], t[:, 3:], mi_closed])
            # coh[m] holds each observer's slots in ascending party order, which is ordered_pairs' order.
            oracle = np.column_stack([*a.persp_ent[m], *a.coh[m].reshape(6, -1), *a.global_ent[m][::-1], *a.mi])
            # np.max keeps a NaN wherever it stands, so the finiteness check below sees it.
            yield np.column_stack([points, closed, np.max(np.abs(closed - oracle), axis=1)])
    tables = _by_block(len(grid), lambda rows: list(tables_of(rows)))
    for table in tables:
        if not np.isfinite(table).all():
            bad = np.flatnonzero(~np.isfinite(table).all(axis=1))[0]
            raise NumericError(f"sweep row at r = {grid[bad]!r} holds a non-finite value")
    return tables


def sweep(r_grid, m: MeasurePair) -> list[SweepRecord]:
    """Evaluate the full record at every grid point, ordered by r."""
    return [SweepRecord(*row) for row in _sweep_pairs(r_grid, [m])[0].tolist()]


def _sweep_csv(tables) -> Iterator[str]:
    """The text pieces of one CSV_COLUMNS header, then the rows of each (measure pair, (K, 20) array) table in turn."""
    rows = [_fill_rows(m.value + ",%.12g" * t.shape[1] + "\n", list(t.T)) for m, t in tables]
    return itertools.chain([",".join(CSV_COLUMNS) + "\n"], *rows)


def _sweep_json(tables) -> Iterator[str]:
    """The text pieces of json.dumps(sweep_to_dicts rows, indent=2) + "\\n" of (measure pair, (K, 20) array) tables."""
    # A row's template is its ",\n" separator, then that of a one-row document without its "[\n" and "\n]";
    # the first row's separator becomes the "[\n" that opens the list.
    rows = itertools.chain(*[
        _fill_rows(",\n" + _row_template([dict(zip(CSV_COLUMNS, [m.value, *["%r"] * t.shape[1]]))], indent=2)[2:-2],
                   list(t.T)) for m, t in tables])
    return itertools.chain(["[" + next(rows, ",\n")[1:]], rows, ["\n]\n"])


def sweep_to_csv(records, m: MeasurePair) -> str:
    """RFC-4180 CSV, 12 significant digits, LF line endings; a NaN or infinite field raises NumericError, and a record
    that is not a SweepRecord UnknownQuantityError."""
    _is_entropic(m)  # refuses a non-member before any row is written
    rows = np.array(_record_rows(records), dtype=np.float64).reshape(-1, len(CSV_COLUMNS) - 1)
    return "".join(_sweep_csv([(m, rows)]))


def sweep_to_dicts(records, m: MeasurePair) -> list[dict]:
    """Full-precision row dicts keyed by the CSV column names; a record that is not a SweepRecord raises
    UnknownQuantityError."""
    _is_entropic(m)  # refuses a non-member before any row is written
    return [dict(zip(CSV_COLUMNS, [m.value, *row])) for row in _record_rows(records)]


def _record_rows(records) -> list[tuple]:
    """The field values of each record, in SweepRecord order; anything but a SweepRecord, or records that are not
    iterable, raise UnknownQuantityError."""
    records = _iterable(records, "sweep records", UnknownQuantityError)
    return [astuple(_require_member(rec, SweepRecord, "sweep record")) for rec in records]
