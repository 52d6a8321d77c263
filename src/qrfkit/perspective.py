"""Perspective assignment and the discrete frame-change operator.

A perspective assignment rewrites an N-qubit global state as the
(N-1)-qubit state seen by one of its own subsystems, which always regards
itself as |0>.  Two equivalent formulations are provided: the direct
flip-merge rule over complement-related basis pairs, and a five-step channel
pipeline (density matrix, dephase, perspective operator, trace, purify).
After dephasing only the diagonal of |psi><psi| is left, so the channel runs
every step on that length-2^n vector, in O(2^n) time and about 32 bytes per
amplitude of memory: every row of the operator has p-bit 0, so the operator
and the trace over p are one sum of two strided halves of the diagonal.  The
frame-change operator switches between two already-assigned perspectives for
the group Z2 acting by bit flip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ShapeError, _check_target, _integer
from .qstate import PureState, _freeze, _nonfinite_refused, _purified, _renormalised, _renormalised_rows
from .qstate import _require_register, _require_shapeable

_ASSIGNMENT_NEEDS = "perspective assignment needs at least 2 qubits"


def _register_slot(party: int, observer: int) -> int:
    """Position of party inside observer's register: later parties move down by one."""
    return party - (party > observer)


def _controlled_flip(n: int, control: int, mask: int) -> np.ndarray:
    """Index map of the operator sending |b> to |b ^ mask> when b's control bit is set, else to |b>.

    Entry b is the row that column b of the operator's 0/1 matrix holds its 1 in.
    """
    rows = np.arange(1 << n)
    rows.reshape(1 << control, 2, -1)[:, 1] ^= mask  # axis 1 is the control bit
    return rows


def _matrix_of(rows: np.ndarray) -> np.ndarray:
    """The complex128 0/1 matrix of an index map: column c holds a single 1, at row rows[c]."""
    m = np.zeros((rows.size, rows.size), dtype=np.complex128)
    m[rows, np.arange(rows.size)] = 1.0
    return m


def _flip_merge(amps: np.ndarray, p: int) -> np.ndarray:
    """Perspective of qubit p for each row of a (K, 2^n) amplitude stack, as (K, 2^(n-1)) complex128.

    Rows are renormalised one by one, exactly as a single state is.
    """
    n = amps.shape[-1].bit_length() - 1
    # float_power(hypot) matches scalar abs(c) ** 2 bit for bit, which keeps the
    # JSON output stable; np.abs(a) ** 2 can differ in the last ulp.  Index
    # 2^n - 1 - b of the reversed row is b's all-qubit complement.
    probs = np.float_power(np.hypot(amps.real, amps.imag), 2.0)
    merged = (probs + probs[:, ::-1]).reshape((len(amps),) + (2,) * n)
    out = np.sqrt(merged.take(0, axis=p + 1)).reshape(len(amps), -1).astype(np.complex128)
    return _renormalised_rows(out)


def assign_perspective(psi: PureState, p: int) -> PureState:
    """State of the remaining N-1 qubits as seen by qubit p.

    Basis states come in pairs (b, b-complement) related by flipping every
    qubit; the pair member with p-bit 0 contributes coefficient c1 and the
    other c2, and the output amplitude on the p-deleted string of b is
    sqrt(|c1|^2 + |c2|^2).  The merge phase is fixed to zero, so the output
    is real and nonnegative regardless of input phases.
    """
    p = _check_target(psi.n_qubits, p, needs=_ASSIGNMENT_NEEDS)
    with _nonfinite_refused():
        return PureState(n_qubits=psi.n_qubits - 1, amplitudes=_flip_merge(psi.amplitudes[None], p)[0])


def perspective_operator(p: int, n: int) -> np.ndarray:
    """The non-unitary shift-to-p matrix on n qubits.

    Column b holds |b> when the p-bit of b is 0 and the all-qubit complement
    of |b> when it is 1, i.e. |0><0|_p x identity + |0><1|_p x flip-rest.
    """
    n = _integer(n, "register size")
    p = _check_target(n, p)
    _require_shapeable(n, square=True)
    return _matrix_of(_controlled_flip(n, p, (1 << n) - 1))


def assign_perspective_channel(psi: PureState, p: int) -> PureState:
    """Channel formulation of assign_perspective; identical output.

    Pipeline: density matrix, maximal dephasing, conjugation by the
    perspective operator, partial trace over p, purification of the
    resulting diagonal state.  Dephasing leaves only the diagonal of
    |psi><psi|, so every step runs on that length-2^n vector.  Every row of
    the operator has p-bit 0, so op @ rho @ op^T followed by the trace over
    p sends b with p-bit 0 to its own p-deleted string, and b with p-bit 1
    to the complement of its p-deleted string.  In the (2^p, 2, 2^(n-1-p))
    view of the diagonal, whose axis 1 is bit p, that is the first half plus
    the second half reversed along both other axes.  Each output entry gets
    the two terms a scatter over the operator's rows and the trace would
    give it; the diagonal is never negative and a sum of two floats
    commutes, so the bits are the same.  O(2^n) time and about 32 bytes per
    amplitude of working memory (tracemalloc at 12 and 16 qubits);
    perspective_operator still returns the dense matrix.
    """
    p = _check_target(psi.n_qubits, p, needs=_ASSIGNMENT_NEEDS)
    a = psi.amplitudes
    with _nonfinite_refused():
        diagonal = (a * a.conj()).real  # the diagonal of _density_matrices, entry by entry
        halves = diagonal.reshape(1 << p, 2, -1)  # axis 1 is bit p
        reduced = (halves[:, 0] + halves[::-1, 1, ::-1]).ravel()
        return PureState(n_qubits=psi.n_qubits - 1, amplitudes=_purified(reduced))


def embed(psi: PureState, p: int) -> PureState:
    """Insert a fresh |0> qubit at position p, growing the register by one.

    Inverse direction of assignment for states already in someone's
    perspective: the observer re-enters the register in its own ground slot.
    """
    n = psi.n_qubits + 1
    p = _check_target(n, p)
    a = psi.amplitudes.reshape((2,) * psi.n_qubits)
    out = np.stack([a, np.zeros_like(a)], axis=p).ravel()
    return PureState(n_qubits=n, amplitudes=_freeze(out))


@dataclass(frozen=True)
class QrfOperator:
    """Unitary frame change between two perspectives of the same system.

    The matrix acts on the n_qubits-sized perspectival register of a system
    of n_qubits + 1 parties.  from_label and to_label are party indices in
    the global numbering; the control slot is to_label's position inside
    from_label's register.  A matrix of any shape but (2**n_qubits, 2**n_qubits)
    raises ShapeError, and one of a dtype that is not integer, float or complex
    DomainError.
    """

    n_qubits: int
    from_label: int
    to_label: int
    matrix: np.ndarray

    def __post_init__(self):
        _require_register(self.matrix, self.n_qubits, 2, "frame-change matrix")


def z2_operator(n_parties: int, from_label: int, to_label: int) -> QrfOperator:
    """Build the Z2 frame-change operator between two party perspectives.

    Sum over group elements g in {0, 1} of |g><g| on the control slot
    tensored with the g-th power of the bit flip on every other slot: the
    identity branch plus a controlled flip of all spectators.  The matrix is
    a permutation, hence unitary, and squares to the identity.
    """
    n_parties = _integer(n_parties, "party count")
    for label in (from_label, to_label):
        _check_target(n_parties, label, "party label", needs="frame change needs at least 2 parties")
    if from_label == to_label:
        raise ShapeError("frame change requires two distinct party labels")
    n = n_parties - 1
    _require_shapeable(n, square=True)
    control = _register_slot(to_label, from_label)
    spectators = ((1 << n) - 1) ^ (1 << (n - 1 - control))
    m = _matrix_of(_controlled_flip(n, control, spectators))
    return QrfOperator(n_qubits=n, from_label=from_label, to_label=to_label, matrix=_freeze(m))


def qrf_transform(op: QrfOperator, psi: PureState) -> PureState:
    """Apply a frame-change operator to a perspectival state."""
    if op.n_qubits != psi.n_qubits:
        raise DimensionMismatchError(
            f"operator on {op.n_qubits} qubits cannot act on {psi.n_qubits}-qubit state"
        )
    with _nonfinite_refused():
        return PureState(n_qubits=psi.n_qubits, amplitudes=_renormalised(op.matrix @ psi.amplitudes))
