"""Entanglement-transference constraints on 3-qubit states.

For a permutation (alpha, beta, gamma) of the three parties, the constraint
says that the entanglement inside alpha's perspectival state plus the basis
coherence of beta's share of it equals the entanglement of the global state
across the (gamma | alpha beta) cut.  Parity states (support entirely on
even-weight or entirely on odd-weight basis strings) satisfy all three
permutations for both measure pairs; this module also provides the closed
X/Y/L coefficient forms that make that manifest, and samplers for the state
families used in the property checks; the sampler section also holds the
CLI's stacked, seeded block sampler.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NotPowerOfTwoError, ShapeError, WrongQubitCountError, _check_tolerance, _integer, _require_member
from .measures import MeasurePair, _coherences, _dephased_entropies, _entanglements, _entropies, _is_entropic
from .measures import binary_entropy, coherence, entanglement
from .perspective import _flip_merge, _register_slot, assign_perspective
from .qstate import PureState, _density_matrices, _norms, _partial_traces, _require_shapeable, _require_unit
from .qstate import density_matrix, partial_trace, permute_qubits, state_from_amplitudes

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
        return {"constraint": self.constraint.value, "lhs": self.lhs, "rhs": self.rhs, "residual": self.residual,
                "satisfied": self.satisfied}


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


def _global_reductions(amps: np.ndarray, mutual_information: bool):
    """The (3, K, 2, 2) reductions to each qubit q of a (K, 8) stack and, with mutual_information, the
    (3, K, 4, 4) reductions to the two parties other than q, else None; the global stack dies here."""
    rho = _density_matrices(amps)
    cuts = np.stack([_partial_traces(rho, [q]) for q in range(3)])
    if not mutual_information:
        return cuts, None
    return cuts, np.stack([_partial_traces(rho, [i for i in range(3) if i != q]) for q in range(3)])


class _Analysis:
    """Every ingredient of the constraints on a (K, 8) amplitude stack of 3-qubit states, computed at construction.

    For each measure pair m, persp_ent[m] is (3, K), each observer's
    perspectival entanglement; coh[m] is (3, 2, K), the coherence of each
    slot of each observer's register; global_ent[m] is (3, K), the
    entanglement across each (q | rest) cut.  With mutual_information, mi
    is (6, K): I between the two parties other than q for q = 0, 1, 2, then
    I(slot 0 : slot 1) in each observer's perspective.  Each kind of
    reduced state is one stack, and each reduced spectrum is taken once per
    block; the dephased spectra are read off the diagonals.  Values are
    those of the per-call functions (assign_perspective, entanglement,
    oracle_coherence, mutual_information) bit for bit.
    """

    def __init__(self, amps: np.ndarray, pairs, mutual_information: bool = False):
        cuts, joints = _global_reductions(amps, mutual_information)
        persp = _density_matrices(np.stack([_flip_merge(amps, alpha) for alpha in range(3)]))
        slots = np.stack([_partial_traces(persp, [s]) for s in range(2)], axis=1)
        # The slots' spectra serve the entropic pair and mutual information under either pair.
        if MeasurePair.ENTROPY in pairs or mutual_information:
            slot_ent = _entropies(slots)
        self.persp_ent, self.coh, self.global_ent = {}, {}, {}
        for m in pairs:
            self.global_ent[m] = _entanglements(cuts, m)
            if _is_entropic(m):
                self.persp_ent[m] = slot_ent[:, 0]
                self.coh[m] = _dephased_entropies(slots) - slot_ent
            else:
                self.persp_ent[m] = _entanglements(slots[:, 0], m)
                self.coh[m] = _coherences(slots, m)
        if mutual_information:
            single_ent = _entropies(np.stack([_partial_traces(joints, [s]) for s in range(2)], axis=1))
            self.mi = np.concatenate([single_ent[:, 0] + single_ent[:, 1] - _entropies(joints),
                                      slot_ent[:, 0] + slot_ent[:, 1] - _entropies(persp)])

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
        return lhs, rhs, residual, residual <= _check_tolerance(tol, "satisfaction")


def _reports(table, k: int) -> list[ConstraintReport]:
    """State k's reports in an _Analysis table, one per ConstraintId; tolist gives them Python floats and bools."""
    return list(map(ConstraintReport, ConstraintId, *(column[k].tolist() for column in table)))


def _analysis_of(states, pairs) -> _Analysis:
    """The analysis of a sequence of 3-qubit states as one stack; one state is a stack of K = 1."""
    return _Analysis(np.array([_require_unit(_require_three(psi)).amplitudes for psi in states]), pairs)


def perspectival_side(psi: PureState, alpha: int, beta: int, m: MeasurePair) -> float:
    """Entanglement within alpha's perspectival state plus beta's coherence."""
    persp = assign_perspective(psi, alpha)
    return entanglement(persp, [0], m) + oracle_coherence(persp, _register_slot(beta, alpha), m)


def transference_sides(psi: PureState, c: ConstraintId, m: MeasurePair) -> tuple[float, float]:
    alpha, beta, gamma = _require_member(c, ConstraintId, "constraint").permutation
    _require_unit(_require_three(psi))
    return perspectival_side(psi, alpha, beta, m), entanglement(psi, [gamma], m)


def check_transference(psi: PureState, m: MeasurePair, tol: float = SAT_TOL) -> list[ConstraintReport]:
    """All three constraint permutations for one measure pair."""
    return _reports(_analysis_of([psi], [m]).transference(m, tol), 0)


def check_corollary(psi: PureState, m: MeasurePair, tol: float = SAT_TOL) -> list[ConstraintReport]:
    """Pairwise invariance of entanglement plus coherence across perspectives.

    The three cyclic pairings equate the (alpha, beta) side with the
    (beta, alpha) side; each follows from subtracting two of the transference
    constraints, so transference implies all of them, but they can hold on
    states where transference fails.
    """
    return _reports(_analysis_of([psi], [m]).corollary(m, tol), 0)


def xyl_closed_form(psi: PureState, c: ConstraintId, m: MeasurePair) -> XylTriple:
    """Closed coefficient forms of the three constraint ingredients.

    X determines the global-cut entanglement, Y the perspectival
    entanglement, L the dephased diagonal of beta's share.  All three are
    polynomial in the global amplitudes; see reconstruct_from_xyl for how
    they rebuild the measured quantities.  Every constraint is C1's forms
    on the register reordered so that alpha, beta and gamma sit at
    positions 0, 1 and 2.
    """
    _require_unit(_require_three(psi))
    ordered = permute_qubits(psi, _require_member(c, ConstraintId, "constraint").permutation)
    a = ordered.amplitudes
    # Unit amplitudes bound every form below, so none overflows.
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
    tol = _check_tolerance(tol, "satisfaction")
    t = xyl_closed_form(psi, c, m)
    if _is_entropic(m):
        return abs(t.l - (1.0 - t.x) / 2.0) <= tol or abs(t.l - (1.0 + t.x) / 2.0) <= tol
    return abs(t.l - t.x) <= tol


# ---------------------------------------------------------------------------
# State samplers for the property suites and the CLI's sample.  Coefficients
# are drawn with independent standard-normal real and imaginary parts and
# renormalized, which is uniform on the complex sphere of the chosen support.
# ---------------------------------------------------------------------------

# numpy.random.SeedSequence's hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128 in pcg64.h).
_SEED_INIT_A, _SEED_MULT_A = 0x43B0D7E5, 0x931E8875
_SEED_INIT_B, _SEED_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEED_MIX_L, _SEED_MIX_R = 0xCA01F9DD, 0x4973F715
_SEED_POOL, _SEED_XSHIFT = 4, 16
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**j mod 2**32 for j < count: the constants one SeedSequence hash steps through."""
    return np.array([init * pow(mult, j, 1 << 32) % (1 << 32) for j in range(count)], dtype=np.uint32)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each column j of values: xor consts[j], times consts[j + 1], xor-shift."""
    mixed = (values ^ consts[:-1]) * consts[1:]
    return mixed ^ (mixed >> _SEED_XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of pool words x with hashed words y."""
    mixed = np.uint32(_SEED_MIX_L) * x - np.uint32(_SEED_MIX_R) * y
    return mixed ^ (mixed >> _SEED_XSHIFT)


def _pcg64_states(seed: int, indices) -> list[tuple[int, int]]:
    """(state, inc) of default_rng([seed, i]).bit_generator for each index i, seeded in one stacked pass.

    SeedSequence assembles [seed, i] as the little-endian 32-bit words of seed, then
    those of i; each index i < 2**32 (cli.MAX_SAMPLE_COUNT keeps it so) is one word.  Its
    pool mixing and generate_state(4, uint64) run over the whole (K, L) word table; the
    hash constants' sequence depends on L only, not on the row."""
    words = [(seed >> shift) & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    n_words = len(words) + 1
    # Zero columns pad a table narrower than the pool, as the pool's unfilled words hash 0.
    table = np.zeros((len(indices), max(n_words, _SEED_POOL)), dtype=np.uint32)
    table[:, :len(words)] = words
    table[:, len(words)] = indices
    extra = max(n_words - _SEED_POOL, 0)
    # One constant per hashmix call (4 to fill the pool, 12 to cross-mix it, 4 per extra word), and one more.
    hash_a = _hash_constants(_SEED_INIT_A, _SEED_MULT_A, _SEED_POOL * _SEED_POOL + _SEED_POOL * extra + 1)
    pool, at = _hashmix(table[:, :_SEED_POOL], hash_a[:_SEED_POOL + 1]), _SEED_POOL
    for src in range(_SEED_POOL):
        dst = [d for d in range(_SEED_POOL) if d != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], hash_a[at:at + _SEED_POOL]))
        at += _SEED_POOL - 1
    for src in range(_SEED_POOL, n_words):
        pool = _mix(pool, _hashmix(table[:, src, None], hash_a[at:at + _SEED_POOL + 1]))
        at += _SEED_POOL
    # generate_state(4, uint64) hashes 8 words, cycling through the pool twice.
    state = _hashmix(np.tile(pool, 2), _hash_constants(_SEED_INIT_B, _SEED_MULT_B, 8 + 1))
    # uint64 j is 32-bit words 2j (low) and 2j + 1 (high); pcg64_set_seed reads uint64s 0, 1
    # as the 128-bit initial state and uint64s 2, 3 as the sequence, high half first.
    state = state.astype(np.uint64)
    columns = ((state[:, 2 * j] | state[:, 2 * j + 1] << np.uint64(32)).tolist() for j in range(4))
    mask, starts = (1 << 128) - 1, []
    for init_hi, init_lo, seq_hi, seq_lo in zip(*columns):
        inc = (((seq_hi << 64) | seq_lo) << 1 | 1) & mask
        starts.append((((inc + ((init_hi << 64) | init_lo)) * _PCG64_MULT + inc) & mask, inc))
    return starts


def _sample_draws(seed: int, indices, width: int) -> np.ndarray:
    """(K, width) stack whose row k is default_rng([seed, indices[k]]).standard_normal(width),
    drawn from one PCG64 set to each row's start state in turn, straight into the row."""
    bit_generator = np.random.PCG64(0)  # every row sets its own state
    generator = np.random.Generator(bit_generator)
    draws = np.empty((len(indices), width))
    for row, (state, inc) in zip(draws, _pcg64_states(seed, indices)):
        bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        generator.standard_normal(out=row)
    return draws


def _unit_gaussian(draws: np.ndarray) -> np.ndarray:
    """(K, size) stack from a (K, 2 * size) standard-normal stack: each row's first half gives
    the real parts, its second half the imaginary parts, divided by the row's norm."""
    size = draws.shape[1] // 2
    coeffs = draws[:, :size] + 1j * draws[:, size:]
    return coeffs / _norms(coeffs)[:, None]


def _parity_amplitudes(cls: ParityClass, draw: Callable[[int], np.ndarray]) -> np.ndarray:
    """The (K, 8) amplitudes random_parity_state draws, from draw(width), a (K, width)
    standard-normal stack; already unit, so each state holds its row unchanged."""
    if cls is ParityClass.NEITHER:
        return _unit_gaussian(draw(16))
    coeffs = _unit_gaussian(draw(8))
    amps = np.zeros((len(coeffs), 8), dtype=np.complex128)
    amps[:, sorted(EVEN_SUPPORT if cls is ParityClass.EVEN else ODD_SUPPORT)] = coeffs
    return amps


def _sample_block(cls: ParityClass, seed: int, indices, pairs, tol: float) -> list[np.ndarray]:
    """Each pair's (lhs, rhs, residual, satisfied) (K, 3) tables in turn, for the states at indices of sample --seed seed."""
    analysis = _Analysis(_parity_amplitudes(cls, lambda width: _sample_draws(seed, indices, width)), pairs)
    return [column for m in pairs for column in analysis.transference(m, tol)]


def random_parity_state(cls: ParityClass, rng: np.random.Generator) -> PureState:
    _require_member(cls, ParityClass, "parity class")
    return state_from_amplitudes(_parity_amplitudes(cls, lambda width: rng.standard_normal((1, width)))[0])


def random_state(n_qubits: int, rng: np.random.Generator) -> PureState:
    n_qubits = _integer(n_qubits, "qubit count")
    if n_qubits < 1:
        error = ShapeError if n_qubits < 0 else NotPowerOfTwoError  # 0 qubits is one amplitude, as state_from_amplitudes
        raise error(f"qubit count must be positive, got {n_qubits}")
    _require_shapeable(n_qubits)
    return state_from_amplitudes(_unit_gaussian(rng.standard_normal((1, 2 << n_qubits)))[0])
