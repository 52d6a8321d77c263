"""Entanglement, coherence, and mutual information on qubit registers.

Two internally consistent measure pairs are supported:

* ``MeasurePair.ENTROPY``: entanglement is the von Neumann entropy (base 2)
  of a reduced state; coherence is the relative entropy of coherence,
  S(dephased) - S(state), which is nonnegative.
* ``MeasurePair.LINEAR``: entanglement is the linear entropy 1 - Tr(rho^2)
  of a reduced state; coherence is the l2 coherence, the total squared
  magnitude of the off-diagonal entries.

Mutual information is always the entropic combination S(L) + S(R) - S(LR).
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import InvalidBipartitionError, NumericError, UnknownQuantityError
from .qstate import DensityMatrix, PureState, clamped_eigenvalues, density_matrix, dephase, partial_trace


class MeasurePair(enum.Enum):
    ENTROPY = "entropy"
    LINEAR = "linear"

    @classmethod
    def parse(cls, text: str) -> "MeasurePair":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise UnknownQuantityError(f"unknown measure pair {text!r}") from None


def binary_entropy(p: float) -> float:
    """H2(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def _require_finite(rho: DensityMatrix) -> None:
    """Raise NumericError unless every entry of rho is finite.

    The entries are checked, not a result: LAPACK can return a finite
    spectrum for a NaN diagonal.
    """
    if not np.isfinite(rho.entries).all():
        raise NumericError("density matrix has non-finite entries, so its measures are not finite")


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum_i lambda_i log2 lambda_i over the clamped spectrum.

    A NaN or infinite entry raises NumericError.
    """
    _require_finite(rho)
    vals = clamped_eigenvalues(rho)
    pos = vals[vals > 0.0]
    return float(-np.sum(pos * np.log2(pos)))


def linear_entropy(rho: DensityMatrix) -> float:
    """1 - Tr(rho^2); zero exactly on pure states.  A NaN or infinite entry raises NumericError."""
    _require_finite(rho)
    return float(1.0 - np.trace(rho.entries @ rho.entries).real)


def _partition(n: int, left) -> tuple[list[int], list[int]]:
    left = sorted(set(left))
    if not left or left[0] < 0 or left[-1] >= n:
        raise InvalidBipartitionError(f"left block {left} is not a proper subset of [0, {n})")
    right = [i for i in range(n) if i not in left]
    if not right:
        raise InvalidBipartitionError("left block must leave at least one qubit on the right")
    return left, right


def _reduced_entanglement(reduced: DensityMatrix, pair: MeasurePair) -> float:
    """Entanglement of a pure state from the reduced state of one side of the cut."""
    if pair is MeasurePair.ENTROPY:
        return von_neumann_entropy(reduced)
    return linear_entropy(reduced)


def entanglement(psi: PureState, left, pair: MeasurePair = MeasurePair.ENTROPY) -> float:
    """Bipartite entanglement of a pure state across (left | rest).

    For a pure global state the two reduced spectra agree, so reducing to the
    smaller block costs nothing in generality; we always reduce to ``left``.
    """
    left, _ = _partition(psi.n_qubits, left)
    return _reduced_entanglement(partial_trace(density_matrix(psi), left), pair)


def coherence(rho: DensityMatrix, pair: MeasurePair = MeasurePair.ENTROPY) -> float:
    """Basis coherence of a (possibly reduced) state in the computational basis.

    A NaN or infinite entry raises NumericError under either measure pair.
    """
    if pair is MeasurePair.ENTROPY:
        return von_neumann_entropy(dephase(rho)) - von_neumann_entropy(rho)
    _require_finite(rho)
    off = rho.entries - np.diag(np.diag(rho.entries))
    return float(np.sum(np.abs(off) ** 2))


def mutual_information(rho: DensityMatrix, left, right) -> float:
    """I(L:R) = S(L) + S(R) - S(LR) on a state of the joint register.

    ``left`` and ``right`` must be disjoint; together they need not exhaust
    the register, in which case the remainder is traced out first.
    """
    left = sorted(set(left))
    right = sorted(set(right))
    if set(left) & set(right):
        raise InvalidBipartitionError(f"blocks {left} and {right} overlap")
    n = rho.n_qubits
    for i in left + right:
        if i < 0 or i >= n:
            raise InvalidBipartitionError(f"index {i} outside [0, {n})")
    joint = rho if len(left) + len(right) == n else partial_trace(rho, left + right)
    # After the joint reduction, positions renumber to 0..k-1 in sorted order.
    order = sorted(left + right)
    left_pos = [order.index(i) for i in left]
    right_pos = [order.index(i) for i in right]
    s_l = von_neumann_entropy(partial_trace(joint, left_pos))
    s_r = von_neumann_entropy(partial_trace(joint, right_pos))
    return s_l + s_r - von_neumann_entropy(joint)
