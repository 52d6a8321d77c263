"""Perspective assignment and the discrete frame-change operator.

A perspective assignment rewrites an N-qubit global state as the
(N-1)-qubit state seen by one of its own subsystems, which always regards
itself as |0>.  Two equivalent formulations are provided: the direct
flip-merge rule over complement-related basis pairs, and a five-step channel
pipeline (density matrix, dephase, perspective operator, trace, purify).
After dephasing only the diagonal of |psi><psi| is left, so the channel runs
every step on that length-2^n vector, in O(2^n) time and memory.  The
frame-change operator switches between two already-assigned perspectives for
the group Z2 acting by bit flip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ShapeError, TooFewQubitsError
from .qstate import PureState, _freeze, _purified, _renormalised, _renormalised_rows


def _check_target(n: int, p: int) -> None:
    if not 0 <= p < n:
        raise ShapeError(f"perspective target {p} outside register of {n} qubits")


def _register_slot(party: int, observer: int) -> int:
    """Position of party inside observer's register: later parties move down by one."""
    return party - (party > observer)


def _controlled_flip(n: int, control: int, mask: int) -> np.ndarray:
    """Index map of the operator sending |b> to |b ^ mask> when b's control bit is set, else to |b>.

    Entry b is the row that column b of the operator's 0/1 matrix holds its 1 in.
    """
    cols = np.arange(1 << n)
    return np.where((cols >> (n - 1 - control)) & 1, cols ^ mask, cols)


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
    n = psi.n_qubits
    _check_target(n, p)
    if n < 2:
        raise TooFewQubitsError("perspective assignment needs at least 2 qubits")
    return PureState(n_qubits=n - 1, amplitudes=_flip_merge(psi.amplitudes[None], p)[0])


def perspective_operator(p: int, n: int) -> np.ndarray:
    """The non-unitary shift-to-p matrix on n qubits.

    Column b holds |b> when the p-bit of b is 0 and the all-qubit complement
    of |b> when it is 1, i.e. |0><0|_p x identity + |0><1|_p x flip-rest.
    """
    _check_target(n, p)
    return _matrix_of(_controlled_flip(n, p, (1 << n) - 1))


def assign_perspective_channel(psi: PureState, p: int) -> PureState:
    """Channel formulation of assign_perspective; identical output.

    Pipeline: density matrix, maximal dephasing, conjugation by the
    perspective operator, partial trace over p, purification of the
    resulting diagonal state.  Dephasing leaves only the diagonal of
    |psi><psi|, so every step runs on that length-2^n vector: op @ rho @ op^T
    scatter-adds it through the operator's index map (column c goes to row
    rows[c]), and the trace over p sums axis p of the (2,) * n reshape.  O(2^n) time, about 64 bytes per amplitude of working memory;
    perspective_operator still returns the dense matrix.
    """
    n = psi.n_qubits
    _check_target(n, p)
    if n < 2:
        raise TooFewQubitsError("perspective assignment needs at least 2 qubits")
    a = psi.amplitudes
    diagonal = (a * a.conj()).real  # the diagonal of _density_matrices, entry by entry
    shifted = np.zeros(a.size)
    np.add.at(shifted, _controlled_flip(n, p, (1 << n) - 1), diagonal)
    reduced = shifted.reshape((2,) * n).sum(axis=p).ravel()
    return PureState(n_qubits=n - 1, amplitudes=_purified(reduced))


def embed(psi: PureState, p: int) -> PureState:
    """Insert a fresh |0> qubit at position p, growing the register by one.

    Inverse direction of assignment for states already in someone's
    perspective: the observer re-enters the register in its own ground slot.
    """
    n = psi.n_qubits + 1
    _check_target(n, p)
    a = psi.amplitudes.reshape((2,) * psi.n_qubits)
    out = np.stack([a, np.zeros_like(a)], axis=p).ravel()
    return PureState(n_qubits=n, amplitudes=_freeze(out))


@dataclass(frozen=True)
class QrfOperator:
    """Unitary frame change between two perspectives of the same system.

    The matrix acts on the n_qubits-sized perspectival register of a system
    of n_qubits + 1 parties.  from_label and to_label are party indices in
    the global numbering; the control slot is to_label's position inside
    from_label's register.
    """

    n_qubits: int
    from_label: int
    to_label: int
    matrix: np.ndarray


def z2_operator(n_parties: int, from_label: int, to_label: int) -> QrfOperator:
    """Build the Z2 frame-change operator between two party perspectives.

    Sum over group elements g in {0, 1} of |g><g| on the control slot
    tensored with the g-th power of the bit flip on every other slot: the
    identity branch plus a controlled flip of all spectators.  The matrix is
    a permutation, hence unitary, and squares to the identity.
    """
    if n_parties < 2:
        raise TooFewQubitsError("frame change needs at least 2 parties")
    for label in (from_label, to_label):
        if not 0 <= label < n_parties:
            raise ShapeError(f"party label {label} outside [0, {n_parties})")
    if from_label == to_label:
        raise ShapeError("frame change requires two distinct party labels")
    n = n_parties - 1
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
    return PureState(n_qubits=psi.n_qubits, amplitudes=_renormalised(op.matrix @ psi.amplitudes))
