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
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WrongQubitCountError
from .measures import MeasurePair, _coherences, _entanglements, _entropies, _is_entropic, binary_entropy, coherence
from .measures import entanglement
from .perspective import _flip_merge, _register_slot, assign_perspective
from .qstate import PureState, _density_matrices, _dephased, _partial_traces, density_matrix, partial_trace
from .qstate import permute_qubits, state_from_amplitudes

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


class _Analysis:
    """Every ingredient of the constraints on a (K, 8) amplitude stack of 3-qubit states, computed at construction.

    For each measure pair m, persp_ent[m] is (3, K), each observer's
    perspectival entanglement; coh[m] is (3, 2, K), the coherence of each
    slot of each observer's register; global_ent[m] is (3, K), the
    entanglement across each (q | rest) cut.  With mutual_information, mi
    is (6, K): I between the two parties other than q for q = 0, 1, 2, then
    I(slot 0 : slot 1) in each observer's perspective.  Each reduced
    spectrum is taken once, in one _entropies call per matrix size.  Values
    are those of the per-call functions (assign_perspective, entanglement,
    oracle_coherence, mutual_information) bit for bit.
    """

    def __init__(self, amps: np.ndarray, pairs, mutual_information: bool = False):
        k = len(amps)
        entropic = MeasurePair.ENTROPY in pairs
        # Every one-qubit reduction sits in one stack: the perspectives' slots (slot-major), the
        # global pairs' singles, the global cuts, then the dephased slots.  The slots' and singles'
        # spectra serve mutual information under either pair; the rest serve the entropic pair only.
        n_mi = 6 + 6 * mutual_information
        # Each density stack is freed once its reductions are written, before the next is built.
        rho = _density_matrices(amps)
        two = np.empty((n_mi + 3 + 6 * entropic, k, 2, 2), np.complex128)
        slots, cuts = two[:6].reshape(2, 3, k, 2, 2), two[n_mi:n_mi + 3]
        # The global pairs' joints, then the perspectives themselves.
        joints = np.empty((6 * mutual_information, k, 4, 4), np.complex128)
        for q in range(3):
            _partial_traces(rho, [q], out=cuts[q])
            if mutual_information:
                _partial_traces(rho, [i for i in range(3) if i != q], out=joints[q])
                for side in range(2):
                    _partial_traces(joints[q], [side], out=two[6 + 2 * q + side])
        for alpha in range(3):
            rho = _density_matrices(_flip_merge(amps, alpha))
            for s in range(2):
                _partial_traces(rho, [s], out=slots[s, alpha])
            if mutual_information:
                joints[3 + alpha] = rho
        del rho
        if entropic:
            two[n_mi + 3:] = _dephased(slots).reshape(6, k, 2, 2)
        if mutual_information:
            joint_ent = _entropies(joints)
            del joints
        if entropic or mutual_information:
            ent = _entropies(two if entropic else two[:n_mi])
            slot_ent = ent[:6].reshape(2, 3, k)
        self.persp_ent, self.coh, self.global_ent = {}, {}, {}
        for m in pairs:
            if _is_entropic(m):
                self.persp_ent[m] = slot_ent[0]
                self.coh[m] = (ent[n_mi + 3:].reshape(2, 3, k) - slot_ent).swapaxes(0, 1)
                self.global_ent[m] = ent[n_mi:n_mi + 3]
            else:
                self.persp_ent[m] = _entanglements(slots[0], m)
                self.coh[m] = _coherences(slots, m).swapaxes(0, 1)
                self.global_ent[m] = _entanglements(cuts, m)
        if mutual_information:
            single_ent = ent[6:12].reshape(3, 2, k)
            self.mi = np.concatenate([single_ent[:, 0] + single_ent[:, 1] - joint_ent[:3],
                                      slot_ent[0] + slot_ent[1] - joint_ent[3:]])

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
        if not tol >= 0:  # a NaN or negative tolerance would mark every constraint violated
            raise DomainError(f"satisfaction tolerance must be a nonnegative number, got {tol}")
        return lhs, rhs, residual, residual <= tol


def _rows(table, k: int):
    """State k's (constraint, lhs, rhs, residual, satisfied) in an _Analysis table, one tuple per ConstraintId."""
    # tolist gives Python floats and bools, so neither reports nor documents hold numpy scalars.
    return zip(ConstraintId, *(column[k].tolist() for column in table))


def _analysis_of(states, pairs) -> _Analysis:
    """The analysis of a sequence of 3-qubit states as one stack; one state is a stack of K = 1."""
    return _Analysis(np.array([_require_three(psi).amplitudes for psi in states]), pairs)


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
    if not tol >= 0:  # as in _Analysis._table
        raise DomainError(f"satisfaction tolerance must be a nonnegative number, got {tol}")
    t = xyl_closed_form(psi, c, m)
    if _is_entropic(m):
        return abs(t.l - (1.0 - t.x) / 2.0) <= tol or abs(t.l - (1.0 + t.x) / 2.0) <= tol
    return abs(t.l - t.x) <= tol


# ---------------------------------------------------------------------------
# State samplers for the property suites.  Coefficients are drawn with
# independent standard-normal real and imaginary parts and renormalized,
# which is uniform on the complex sphere of the chosen support.
# ---------------------------------------------------------------------------

def _unit_gaussian(rngs: Iterable[np.random.Generator], size: int) -> np.ndarray:
    """(K, size) stack, row k drawn from the k-th generator: one standard_normal(2 * size)
    gives the real then the imaginary parts, divided by the row's np.linalg.norm."""
    draws = np.fromiter((rng.standard_normal(2 * size) for rng in rngs), dtype=(np.float64, 2 * size))
    coeffs = draws[:, :size] + 1j * draws[:, size:]
    # Per row, so each norm is exactly np.linalg.norm of that state's coefficients.
    return coeffs / np.array([np.linalg.norm(row) for row in coeffs])[:, None]


def _parity_amplitudes(cls: ParityClass, rngs: Iterable[np.random.Generator]) -> np.ndarray:
    """The (K, 8) amplitudes random_parity_state draws, one row per generator; already unit,
    so each state holds its row unchanged."""
    if cls is ParityClass.NEITHER:
        return _unit_gaussian(rngs, 8)
    coeffs = _unit_gaussian(rngs, 4)
    amps = np.zeros((len(coeffs), 8), dtype=np.complex128)
    amps[:, sorted(EVEN_SUPPORT if cls is ParityClass.EVEN else ODD_SUPPORT)] = coeffs
    return amps


def random_parity_state(cls: ParityClass, rng: np.random.Generator) -> PureState:
    return state_from_amplitudes(_parity_amplitudes(cls, [rng])[0])


def random_state(n_qubits: int, rng: np.random.Generator) -> PureState:
    return state_from_amplitudes(_unit_gaussian([rng], 1 << n_qubits)[0])
