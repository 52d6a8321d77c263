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
from .measures import MeasurePair, _coherences, _entanglements, _is_entropic, binary_entropy, coherence, entanglement
from .perspective import _flip_merge, _register_slot, assign_perspective
from .qstate import PureState, _density_matrices, _partial_traces, density_matrix, partial_trace, permute_qubits
from .qstate import state_from_amplitudes

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
        return _report_dict(self.constraint, self.lhs, self.rhs, self.residual, self.satisfied)


def _report_dict(c: ConstraintId, lhs: float, rhs: float, residual: float, satisfied: bool) -> dict:
    """ConstraintReport.to_dict of one report's values; the CLI writes each state's reports with it, building none."""
    return {"constraint": c.value, "lhs": lhs, "rhs": rhs, "residual": residual, "satisfied": satisfied}


@dataclass(frozen=True)
class XylTriple:
    x: float
    y: float
    l: float


def _require_three(psi: PureState) -> PureState:
    if psi.n_qubits != 3:
        raise WrongQubitCountError(f"expected a 3-qubit state, got {psi.n_qubits} qubits")
    return psi


def parity_class(psi: PureState) -> ParityClass:
    """Classify by basis-string weight parity of the state's support."""
    _require_three(psi)
    support = set(np.flatnonzero(np.abs(psi.amplitudes) > SUPPORT_TOL).tolist())
    if support <= EVEN_SUPPORT:
        return ParityClass.EVEN
    if support <= ODD_SUPPORT:
        return ParityClass.ODD
    return ParityClass.NEITHER


def oracle_coherence(psi_persp: PureState, slot: int, m: MeasurePair) -> float:
    """Coherence of one qubit's reduced state inside a perspectival state."""
    return coherence(partial_trace(density_matrix(psi_persp), [slot]), m)


_PERMUTATIONS = [c.permutation for c in ConstraintId]


def _density_stacks(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Density matrices of a (K, 8) amplitude stack, (K, 8, 8), and of its three perspectives, (3, K, 4, 4)."""
    return _density_matrices(amps), np.stack([_density_matrices(_flip_merge(amps, alpha)) for alpha in range(3)])


class _Analysis:
    """Every ingredient of the constraints on a stack of 3-qubit states, computed at construction.

    The arguments are _density_stacks' output.  For each measure pair m,
    persp_ent[m] is (3, K), each observer's perspectival entanglement;
    coh[m] is (3, 2, K), the coherence of each slot of each observer's
    register; global_ent[m] is (3, K), the entanglement across each
    (q | rest) cut.  Values are those of the per-call functions
    (assign_perspective, entanglement, oracle_coherence) bit for bit.
    """

    def __init__(self, global_rho: np.ndarray, perspective_rho: np.ndarray, pairs):
        slots = np.stack([_partial_traces(perspective_rho, [s]) for s in range(2)], axis=1)
        cuts = np.stack([_partial_traces(global_rho, [q]) for q in range(3)])
        self.persp_ent = {m: _entanglements(slots[:, 0], m) for m in pairs}
        self.coh = {m: _coherences(slots, m) for m in pairs}
        self.global_ent = {m: _entanglements(cuts, m) for m in pairs}

    def side(self, alpha: int, beta: int, m: MeasurePair) -> np.ndarray:
        """perspectival_side of every analysed state."""
        return self.persp_ent[m][alpha] + self.coh[m][alpha, _register_slot(beta, alpha)]

    def transference(self, m: MeasurePair, tol: float) -> tuple[np.ndarray, ...]:
        """check_transference of every analysed state, as a _table."""
        return self._table(m, [self.global_ent[m][gamma] for *_, gamma in _PERMUTATIONS], tol)

    def corollary(self, m: MeasurePair, tol: float) -> tuple[np.ndarray, ...]:
        """check_corollary of every analysed state, as a _table."""
        return self._table(m, [self.side(beta, alpha, m) for alpha, beta, _ in _PERMUTATIONS], tol)

    def _table(self, m: MeasurePair, rhs, tol: float) -> tuple[np.ndarray, ...]:
        """(lhs, rhs, residual, satisfied) as (K, 3) arrays, one column per ConstraintId; rhs is one (K,) array per constraint."""
        lhs = np.stack([self.side(alpha, beta, m) for alpha, beta, _ in _PERMUTATIONS], axis=1)
        rhs = np.stack(rhs, axis=1)
        residual = np.abs(lhs - rhs)
        return lhs, rhs, residual, residual <= tol


def _rows(table, k: int):
    """State k's (constraint, lhs, rhs, residual, satisfied) in an _Analysis table, one tuple per ConstraintId."""
    # tolist gives Python floats and bools, so neither reports nor documents hold numpy scalars.
    return zip(ConstraintId, *(column[k].tolist() for column in table))


def _analysis_of(states, pairs) -> _Analysis:
    """The analysis of a sequence of 3-qubit states as one stack; one state is a stack of K = 1."""
    return _Analysis(*_density_stacks(np.array([_require_three(psi).amplitudes for psi in states])), pairs)


def perspectival_side(psi: PureState, alpha: int, beta: int, m: MeasurePair) -> float:
    """Entanglement within alpha's perspectival state plus beta's coherence."""
    persp = assign_perspective(psi, alpha)
    return entanglement(persp, [0], m) + oracle_coherence(persp, _register_slot(beta, alpha), m)


def transference_sides(psi: PureState, c: ConstraintId, m: MeasurePair) -> tuple[float, float]:
    alpha, beta, gamma = c.permutation
    _require_three(psi)
    return perspectival_side(psi, alpha, beta, m), entanglement(psi, [gamma], m)


def check_transference(psi: PureState, m: MeasurePair, tol: float = SAT_TOL) -> list[ConstraintReport]:
    """All three constraint permutations for one measure pair."""
    return [ConstraintReport(*row) for row in _rows(_analysis_of([psi], [m]).transference(m, tol), 0)]


def check_corollary(psi: PureState, m: MeasurePair, tol: float = SAT_TOL) -> list[ConstraintReport]:
    """Pairwise invariance of entanglement plus coherence across perspectives.

    The three cyclic pairings equate the (alpha, beta) side with the
    (beta, alpha) side; each follows from subtracting two of the transference
    constraints, so transference implies all of them, but they can hold on
    states where transference fails.
    """
    return [ConstraintReport(*row) for row in _rows(_analysis_of([psi], [m]).corollary(m, tol), 0)]


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
    if _is_entropic(m):
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
    if _is_entropic(m):
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
    if _is_entropic(m):
        return abs(t.l - (1.0 - t.x) / 2.0) <= tol or abs(t.l - (1.0 + t.x) / 2.0) <= tol
    return abs(t.l - t.x) <= tol


# ---------------------------------------------------------------------------
# State samplers for the property suites.  Coefficients are drawn with
# independent standard-normal real and imaginary parts and renormalized,
# which is uniform on the complex sphere of the chosen support.
# ---------------------------------------------------------------------------

def _unit_gaussian(rng: np.random.Generator, size: int) -> np.ndarray:
    coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return coeffs / np.linalg.norm(coeffs)


def _parity_amplitudes(cls: ParityClass, rng: np.random.Generator) -> np.ndarray:
    """The (8,) amplitudes random_parity_state draws; already unit, so its state holds them unchanged."""
    if cls is ParityClass.NEITHER:
        return _unit_gaussian(rng, 8)
    amps = np.zeros(8, dtype=np.complex128)
    amps[sorted(EVEN_SUPPORT if cls is ParityClass.EVEN else ODD_SUPPORT)] = _unit_gaussian(rng, 4)
    return amps


def random_parity_state(cls: ParityClass, rng: np.random.Generator) -> PureState:
    return state_from_amplitudes(_parity_amplitudes(cls, rng))


def random_state(n_qubits: int, rng: np.random.Generator) -> PureState:
    return state_from_amplitudes(_unit_gaussian(rng, 1 << n_qubits))
