"""Entanglement-transference constraints on 3-qubit states.

For a permutation (alpha, beta, gamma) of the three parties, the constraint
says that the entanglement inside alpha's perspectival state plus the basis
coherence of beta's share of it equals the entanglement of the global state
across the (gamma | alpha beta) cut.  Parity states (support entirely on
even-weight or entirely on odd-weight basis strings) satisfy all three
permutations for both measure pairs; this module also provides the closed
X/Y/L coefficient forms that make that manifest, and samplers for the state
families used in the property checks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import WrongQubitCountError
from .measures import (
    MeasurePair,
    binary_entropy,
    coherence,
    entanglement,
)
from .perspective import _register_slot, assign_perspective
from .qstate import PureState, density_matrix, partial_trace, permute_qubits, state_from_amplitudes

SAT_TOL = 1e-9          # default satisfaction tolerance for residuals
SUPPORT_TOL = 1e-12     # amplitude modulus below this counts as absent

EVEN_SUPPORT = frozenset({0b000, 0b011, 0b101, 0b110})
ODD_SUPPORT = frozenset({0b001, 0b010, 0b100, 0b111})


class ConstraintId(enum.Enum):
    C1 = "C1"
    C2 = "C2"
    C3 = "C3"

    @property
    def permutation(self) -> tuple[int, int, int]:
        """(alpha, beta, gamma) party indices for this constraint."""
        return {
            ConstraintId.C1: (0, 1, 2),
            ConstraintId.C2: (1, 2, 0),
            ConstraintId.C3: (2, 0, 1),
        }[self]


class ParityClass(enum.Enum):
    EVEN = "Even"
    ODD = "Odd"
    NEITHER = "Neither"


@dataclass(frozen=True)
class ConstraintReport:
    constraint: ConstraintId
    lhs: float
    rhs: float
    residual: float
    satisfied: bool

    def to_dict(self) -> dict:
        return {
            "constraint": self.constraint.value,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "satisfied": self.satisfied,
        }


@dataclass(frozen=True)
class XylTriple:
    x: float
    y: float
    l: float


def _require_three(psi: PureState) -> None:
    if psi.n_qubits != 3:
        raise WrongQubitCountError(f"expected a 3-qubit state, got {psi.n_qubits} qubits")


def parity_class(psi: PureState) -> ParityClass:
    """Classify by basis-string weight parity of the state's support."""
    _require_three(psi)
    support = {b for b, a in enumerate(psi.amplitudes) if abs(a) > SUPPORT_TOL}
    if support <= EVEN_SUPPORT:
        return ParityClass.EVEN
    if support <= ODD_SUPPORT:
        return ParityClass.ODD
    return ParityClass.NEITHER


def oracle_coherence(psi_persp: PureState, slot: int, m: MeasurePair) -> float:
    """Coherence of one qubit's reduced state inside a perspectival state."""
    return coherence(partial_trace(density_matrix(psi_persp), [slot]), m)


def perspectival_side(psi: PureState, alpha: int, beta: int, m: MeasurePair) -> float:
    """Entanglement within alpha's perspectival state plus beta's coherence."""
    persp = assign_perspective(psi, alpha)
    return entanglement(persp, [0], m) + oracle_coherence(persp, _register_slot(beta, alpha), m)


def transference_sides(psi: PureState, c: ConstraintId, m: MeasurePair) -> tuple[float, float]:
    _require_three(psi)
    alpha, beta, gamma = c.permutation
    lhs = perspectival_side(psi, alpha, beta, m)
    rhs = entanglement(psi, [gamma], m)
    return lhs, rhs


def _report(c: ConstraintId, lhs: float, rhs: float, tol: float) -> ConstraintReport:
    residual = abs(lhs - rhs)
    return ConstraintReport(constraint=c, lhs=lhs, rhs=rhs, residual=residual, satisfied=residual <= tol)


def check_transference(psi: PureState, m: MeasurePair, tol: float = SAT_TOL) -> list[ConstraintReport]:
    """All three constraint permutations for one measure pair."""
    _require_three(psi)
    out = []
    for c in ConstraintId:
        lhs, rhs = transference_sides(psi, c, m)
        out.append(_report(c, lhs, rhs, tol))
    return out


def check_corollary(psi: PureState, m: MeasurePair, tol: float = SAT_TOL) -> list[ConstraintReport]:
    """Pairwise invariance of entanglement plus coherence across perspectives.

    The three cyclic pairings equate the (alpha, beta) side with the
    (beta, alpha) side; each follows from subtracting two of the transference
    constraints, so transference implies all of them, but they can hold on
    states where transference fails.
    """
    _require_three(psi)
    out = []
    for c in ConstraintId:
        alpha, beta, _ = c.permutation
        lhs = perspectival_side(psi, alpha, beta, m)
        rhs = perspectival_side(psi, beta, alpha, m)
        out.append(_report(c, lhs, rhs, tol))
    return out


def xyl_closed_form(psi: PureState, c: ConstraintId, m: MeasurePair) -> XylTriple:
    """Closed coefficient forms of the three constraint ingredients.

    X determines the global-cut entanglement, Y the perspectival
    entanglement, L the dephased diagonal of beta's share.  All three are
    polynomial in the global amplitudes; see reconstruct_from_xyl for how
    they rebuild the measured quantities.  Every constraint is C1's forms
    on the register reordered so that alpha, beta and gamma sit at
    positions 0, 1 and 2.
    """
    _require_three(psi)
    ordered = permute_qubits(psi, c.permutation)
    a = ordered.amplitudes
    p2 = np.abs(a) ** 2
    # Merged pair amplitudes of the basis pairs (000, 111), (001, 110), (010, 101), (011, 100).
    u, v, w, x = assign_perspective(ordered, 0).amplitudes.real
    u2, v2, w2, x2 = u * u, v * v, w * w, x * x
    # gamma is the last qubit: even indices b have gamma = 0, and b + 1 is b with gamma flipped.
    p0 = p2[::2].sum()
    s = np.vdot(a[1::2], a[::2])
    p1 = 1.0 - p0
    l_ent = u2 + v2
    if m is MeasurePair.ENTROPY:
        xv = float(np.sqrt((p0 - p1) ** 2 + 4.0 * abs(s) ** 2))
        yv = float(np.sqrt(max(1.0 - 4.0 * (u2 * x2 + v2 * w2) + 8.0 * u * v * w * x, 0.0)))
        lv = float(l_ent)
    else:
        xv = float(p0 * p0 + p1 * p1 + 2.0 * abs(s) ** 2)
        yv = float((u * w + v * x) ** 2)
        lv = float(l_ent * l_ent + (1.0 - l_ent) ** 2)
    return XylTriple(x=xv, y=yv, l=lv)


def reconstruct_from_xyl(t: XylTriple, m: MeasurePair) -> tuple[float, float, float]:
    """(global entanglement, perspectival entanglement, coherence) from X/Y/L."""
    if m is MeasurePair.ENTROPY:
        e_global = binary_entropy((1.0 + t.x) / 2.0)
        e_persp = binary_entropy((1.0 + t.y) / 2.0)
        coh = binary_entropy(t.l) - e_persp
    else:
        e_global = 1.0 - t.x
        e_persp = 1.0 - t.l - 2.0 * t.y
        coh = 2.0 * t.y
    return e_global, e_persp, coh


def condition_check(psi: PureState, c: ConstraintId, m: MeasurePair, tol: float = SAT_TOL) -> bool:
    """Algebraic satisfaction criterion in terms of the X/Y/L triple alone."""
    t = xyl_closed_form(psi, c, m)
    if m is MeasurePair.ENTROPY:
        return abs(t.l - (1.0 - t.x) / 2.0) <= tol or abs(t.l - (1.0 + t.x) / 2.0) <= tol
    return abs(t.l - t.x) <= tol


# ---------------------------------------------------------------------------
# State samplers for the property suites.  Coefficients are drawn with
# independent standard-normal real and imaginary parts and renormalized,
# which is uniform on the complex sphere of the chosen support.
# ---------------------------------------------------------------------------

def random_parity_state(cls: ParityClass, rng: np.random.Generator) -> PureState:
    if cls is ParityClass.NEITHER:
        return random_state(3, rng)
    support = sorted(EVEN_SUPPORT if cls is ParityClass.EVEN else ODD_SUPPORT)
    coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    coeffs /= np.linalg.norm(coeffs)
    amps = np.zeros(8, dtype=np.complex128)
    amps[support] = coeffs
    return state_from_amplitudes(amps)


def random_state(n_qubits: int, rng: np.random.Generator) -> PureState:
    dim = 1 << n_qubits
    coeffs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    coeffs /= np.linalg.norm(coeffs)
    return state_from_amplitudes(coeffs)
