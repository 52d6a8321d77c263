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
from .perspective import assign_perspective
from .qstate import PureState, density_matrix, partial_trace, state_from_amplitudes

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


def perspectival_side(psi: PureState, alpha: int, beta: int, m: MeasurePair) -> float:
    """Entanglement within alpha's perspectival state plus beta's coherence."""
    persp = assign_perspective(psi, alpha)
    others = [i for i in range(3) if i != alpha]
    slot = others.index(beta)
    ent = entanglement(persp, [0], m)
    rho_beta = partial_trace(density_matrix(persp), [slot])
    return ent + coherence(rho_beta, m)


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
    they rebuild the measured quantities.
    """
    _require_three(psi)
    a = psi.amplitudes
    p2 = np.abs(a) ** 2
    # Merged pair weights: complement-related basis pairs (b, 7-b).
    u2 = p2[0] + p2[7]
    v2 = p2[1] + p2[6]
    w2 = p2[2] + p2[5]
    x2 = p2[3] + p2[4]
    u, v, w, x = np.sqrt([u2, v2, w2, x2])
    pi_p = u * v * w * x
    if c is ConstraintId.C1:
        p0 = p2[0] + p2[2] + p2[4] + p2[6]
        s = a[0] * a[1].conjugate() + a[2] * a[3].conjugate() + a[4] * a[5].conjugate() + a[6] * a[7].conjugate()
        det_terms = u2 * x2 + v2 * w2
        y_lin = (u * w + v * x) ** 2
        l_ent = u2 + v2
    elif c is ConstraintId.C2:
        p0 = p2[0] + p2[1] + p2[2] + p2[3]
        s = a[0] * a[4].conjugate() + a[1] * a[5].conjugate() + a[2] * a[6].conjugate() + a[3] * a[7].conjugate()
        det_terms = u2 * w2 + v2 * x2
        y_lin = (u * v + w * x) ** 2
        l_ent = u2 + x2
    else:
        p0 = p2[0] + p2[1] + p2[4] + p2[5]
        s = a[0] * a[2].conjugate() + a[1] * a[3].conjugate() + a[4] * a[6].conjugate() + a[5] * a[7].conjugate()
        det_terms = u2 * v2 + w2 * x2
        y_lin = (u * x + v * w) ** 2
        l_ent = u2 + w2
    p1 = 1.0 - p0
    if m is MeasurePair.ENTROPY:
        xv = float(np.sqrt((p0 - p1) ** 2 + 4.0 * abs(s) ** 2))
        yv = float(np.sqrt(max(1.0 - 4.0 * det_terms + 8.0 * pi_p, 0.0)))
        lv = float(l_ent)
    else:
        xv = float(p0 * p0 + p1 * p1 + 2.0 * abs(s) ** 2)
        yv = float(y_lin)
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
