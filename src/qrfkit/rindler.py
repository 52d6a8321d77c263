"""The accelerated-observer state family and its degradation curves.

One inertial party (Alice) shares a Bell pair with a uniformly accelerating
party (Rob) whose horizon partner (anti-Rob) purifies the pair; the family
is parameterized by the squeezing angle r with tan r = exp(-pi omega / a),
r in [0, pi/4].  The right endpoint is the infinite-acceleration limit and
is admitted as an evaluable boundary point since every expression here is
continuous there.

Closed forms exist for the six entanglement quantities (three perspectival,
three across global cuts).  The six subsystem coherences carry no printed
closed forms; their reference values come from the transference identities
(global-cut entanglement minus perspectival entanglement), which the family
satisfies exactly as an even parity state.  Mutual information is entropic
by definition, so those columns are entropy-based under either measure pair.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, GridError, NonPositiveInputError, NumericError
from .measures import MeasurePair, _mutual_informations, binary_entropy
from .qstate import PureState, state_from_amplitudes
# oracle_coherence is imported for callers only: qrfkit.rindler.oracle_coherence stays importable.
from .transference import _Analysis, _density_stacks, oracle_coherence  # noqa: F401

R_MAX = math.pi / 4.0


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


def _check_r(r: float) -> float:
    r = float(r)
    if not 0.0 <= r <= R_MAX + 1e-12:
        raise DomainError(f"acceleration parameter {r} outside [0, pi/4]")
    return min(r, R_MAX)


def r_from_acceleration(a: float, omega: float) -> float:
    """Squeezing angle for proper acceleration a and mode frequency omega."""
    if not (a > 0.0 and omega > 0.0):  # also rejects NaN
        raise NonPositiveInputError("acceleration and frequency must be positive")
    ratio = omega / a
    if math.isnan(ratio):  # inf / inf
        raise DomainError(f"omega / a is undefined for omega = {omega}, a = {a}")
    return math.atan(math.exp(-math.pi * ratio))


def global_state(r: float) -> PureState:
    """(1/sqrt 2)(cos r |000> + sin r |011> + |110>) over (A, R, Rbar)."""
    r = _check_r(r)
    amps = [0.0] * 8
    amps[0b000] = math.cos(r) / math.sqrt(2.0)
    amps[0b011] = math.sin(r) / math.sqrt(2.0)
    amps[0b110] = 1.0 / math.sqrt(2.0)
    return state_from_amplitudes(amps)


def perspectival_state(r: float, obs: ObserverLabel) -> PureState:
    """Two-qubit state of the other two parties as seen by obs."""
    r = _check_r(r)
    c, s = math.cos(r), math.sin(r)
    inv = 1.0 / math.sqrt(2.0)
    if obs is ObserverLabel.ALICE:
        amps = [c * inv, inv, 0.0, s * inv]
    elif obs is ObserverLabel.ROB:
        amps = [c * inv, inv, s * inv, 0.0]
    else:
        amps = [c * inv, 0.0, s * inv, inv]
    return state_from_amplitudes(amps)


def closed_form_entanglement(r: float, quantity: Quantity, m: MeasurePair) -> float:
    """Printed closed form for one of the six entanglement curves."""
    r = _check_r(r)
    c2 = math.cos(r) ** 2
    s2 = math.sin(r) ** 2
    if m is MeasurePair.ENTROPY:
        if quantity is Quantity.E_PERSP_A:
            split = math.sqrt(7.0 + math.cos(4.0 * r)) / (2.0 * math.sqrt(2.0))
            return binary_entropy((1.0 + split) / 2.0)
        if quantity is Quantity.E_PERSP_R:
            return binary_entropy((1.0 + math.cos(r)) / 2.0)
        if quantity is Quantity.E_PERSP_RBAR:
            return binary_entropy((1.0 + math.sin(r)) / 2.0)
        if quantity is Quantity.E_RBAR_AR:
            return binary_entropy((1.0 + c2) / 2.0)
        if quantity is Quantity.E_R_ARBAR:
            return binary_entropy(c2 / 2.0)
        return 1.0
    if quantity is Quantity.E_PERSP_A:
        return math.sin(2.0 * r) ** 2 / 8.0
    if quantity is Quantity.E_PERSP_R:
        return s2 / 2.0
    if quantity is Quantity.E_PERSP_RBAR:
        return c2 / 2.0
    if quantity is Quantity.E_RBAR_AR:
        return (s2 / 2.0) * (1.0 + c2)
    if quantity is Quantity.E_R_ARBAR:
        return c2 * (1.0 - c2 / 2.0)
    return 0.5


def closed_form_coherence(r: float, alpha: ObserverLabel, beta: ObserverLabel, m: MeasurePair) -> float:
    """Reference value of beta's coherence inside alpha's perspectival state.

    No printed closed form exists; this is the transference identity
    rearranged, valid because the family is an even parity state: the
    coherence equals the (gamma | alpha beta) global entanglement minus the
    perspectival entanglement, gamma being the remaining party.
    """
    if alpha is beta:
        raise DomainError("coherence subsystem must differ from the perspective holder")
    gamma = ObserverLabel(3 - alpha.value - beta.value)
    return closed_form_entanglement(r, GLOBAL_QUANTITY[gamma], m) - closed_form_entanglement(
        r, PERSP_QUANTITY[alpha], m
    )


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
    r = _check_r(r)
    ent = MeasurePair.ENTROPY
    e_a = closed_form_entanglement(r, Quantity.E_A_RRBAR, ent)
    e_r = closed_form_entanglement(r, Quantity.E_R_ARBAR, ent)
    e_rbar = closed_form_entanglement(r, Quantity.E_RBAR_AR, ent)
    return MiCurves(
        mi_a_r=e_a + e_r - e_rbar,
        mi_a_rbar=e_a + e_rbar - e_r,
        mi_r_rbar=e_r + e_rbar - e_a,
        mi_persp_a=2.0 * closed_form_entanglement(r, Quantity.E_PERSP_A, ent),
        mi_persp_r=2.0 * closed_form_entanglement(r, Quantity.E_PERSP_R, ent),
        mi_persp_rbar=2.0 * closed_form_entanglement(r, Quantity.E_PERSP_RBAR, ent),
    )


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


def _sweep_pairs(r_grid, pairs) -> list[list[SweepRecord]]:
    """sweep for every measure pair in pairs, analysing the whole grid as one stack."""
    grid = [float(r) for r in r_grid]
    if not grid:
        raise GridError("sweep grid is empty")
    for r in grid:
        if not 0.0 <= r <= R_MAX + 1e-12:
            raise GridError(f"grid point {r} outside [0, pi/4]")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise GridError("sweep grid must be ascending")
    grid = [min(r, R_MAX) for r in grid]
    global_rho, perspective_rho = _density_stacks(global_state(r) for r in grid)
    a = _Analysis(global_rho, perspective_rho, pairs)
    mi_oracle = np.column_stack([
        *(_mutual_informations(global_rho, [i], [j]) for i, j in ((1, 2), (0, 2), (0, 1))),
        *(_mutual_informations(rho, [0], [1]) for rho in perspective_rho),
    ])
    del global_rho, perspective_rho  # the largest arrays go before the records are built
    observers = list(ObserverLabel)
    ordered_pairs = [(alpha, beta) for alpha in observers for beta in observers if beta is not alpha]
    # Mutual information is entropic under either measure pair, so both sides are computed once.
    mi_closed = []
    for r in grid:
        mi = mutual_information_curves(r)
        mi_closed.append([mi.mi_r_rbar, mi.mi_a_rbar, mi.mi_a_r, mi.mi_persp_a, mi.mi_persp_r, mi.mi_persp_rbar])
    tables = []
    for m in pairs:
        # Both (K, 18) arrays follow the SweepRecord field order, r and max_residual aside.
        closed = np.array([
            [
                *(closed_form_entanglement(r, PERSP_QUANTITY[obs], m) for obs in observers),
                *(closed_form_coherence(r, alpha, beta, m) for alpha, beta in ordered_pairs),
                *(closed_form_entanglement(r, GLOBAL_QUANTITY[obs], m) for obs in reversed(observers)),
                *mi,
            ]
            for r, mi in zip(grid, mi_closed)
        ])
        # coh[m] holds each observer's slots in ascending party order, which is ordered_pairs' order.
        oracle = np.column_stack([*a.persp_ent[m], *a.coh[m].reshape(6, -1), *a.global_ent[m][::-1], mi_oracle])
        # np.max keeps a NaN wherever it stands, so the finiteness check below sees it.
        rows = np.column_stack([grid, closed, np.max(np.abs(closed - oracle), axis=1)])
        if not np.isfinite(rows).all():
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))[0]
            raise NumericError(f"sweep row at r = {grid[bad]!r} holds a non-finite value")
        tables.append([SweepRecord(*row) for row in rows.tolist()])
    return tables


def sweep(r_grid, m: MeasurePair) -> list[SweepRecord]:
    """Evaluate the full record at every grid point, ordered by r."""
    return _sweep_pairs(r_grid, [m])[0]


def record_row(rec: SweepRecord, m: MeasurePair) -> list:
    """Row values in CSV_COLUMNS order."""
    ordered = [getattr(rec, f.name) for f in fields(SweepRecord)]
    return [m.value] + ordered


def sweep_to_csv(records, m: MeasurePair) -> str:
    """RFC-4180 CSV, 12 significant digits, LF line endings."""
    lines = [",".join(CSV_COLUMNS)]
    for rec in records:
        row = record_row(rec, m)
        lines.append(",".join(v if isinstance(v, str) else f"{v:.12g}" for v in row))
    return "\n".join(lines) + "\n"


def sweep_to_dicts(records, m: MeasurePair) -> list[dict]:
    """Full-precision row dicts keyed by the CSV column names."""
    return [dict(zip(CSV_COLUMNS, record_row(rec, m))) for rec in records]
