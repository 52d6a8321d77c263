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

from .errors import InvalidBipartitionError, NumericError, UnknownQuantityError, _require_member
from .qstate import DensityMatrix, PureState, _clamped_spectra, _dephased, _partial_traces, density_matrix, partial_trace
from .qstate import clamped_eigenvalues  # noqa: F401  kept importable from measures for callers


class MeasurePair(enum.Enum):
    ENTROPY = "entropy"
    LINEAR = "linear"

    @classmethod
    def parse(cls, text: str) -> "MeasurePair":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise UnknownQuantityError(f"unknown measure pair {text!r}") from None


def _is_entropic(pair) -> bool:
    """Whether pair is MeasurePair.ENTROPY; anything that is not a MeasurePair raises UnknownQuantityError."""
    return _require_member(pair, MeasurePair, "measure pair") is MeasurePair.ENTROPY


def binary_entropy(p: float) -> float:
    """H2(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def _require_finite(rho: np.ndarray) -> None:
    """Raise NumericError unless every entry of a stack of matrices is finite.

    The entries are checked, not a result: LAPACK can return a finite
    spectrum for a NaN diagonal.
    """
    if not np.isfinite(rho).all():
        raise NumericError("density matrix has non-finite entries, so its measures are not finite")


def _entropies(rho: np.ndarray) -> np.ndarray:
    """-sum_i lambda_i log2 lambda_i over the clamped spectrum of each matrix in a (..., d, d) stack."""
    _require_finite(rho)
    spectra = _clamped_spectra(rho)
    flat = spectra.reshape(-1, spectra.shape[-1])
    counts = (flat > 0.0).sum(axis=-1)
    out = np.zeros(len(flat))
    # The positive eigenvalues are a suffix of each ascending spectrum.  Rows are
    # summed in groups of equal suffix length, so every sum adds the same terms
    # in the same order as a sum over that spectrum's positive values alone.
    for c in set(counts.tolist()) - {0}:
        rows = counts == c
        pos = flat[rows, -c:]
        out[rows] = np.sum(pos * np.log2(pos), axis=-1)
    return -out.reshape(spectra.shape[:-1])


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """S(rho) = -sum_i lambda_i log2 lambda_i over the clamped spectrum.

    A NaN or infinite entry raises NumericError.
    """
    return float(_entropies(rho.entries[None])[0])


def _linear_entropies(rho: np.ndarray) -> np.ndarray:
    """1 - Tr(rho^2) of each matrix in a (..., d, d) stack."""
    _require_finite(rho)
    return 1.0 - np.trace(rho @ rho, axis1=-2, axis2=-1).real


def linear_entropy(rho: DensityMatrix) -> float:
    """1 - Tr(rho^2); zero exactly on pure states.  A NaN or infinite entry raises NumericError."""
    return float(_linear_entropies(rho.entries[None])[0])


def _partition(n: int, left) -> tuple[list[int], list[int]]:
    left = sorted(set(left))
    if not left or left[0] < 0 or left[-1] >= n:
        raise InvalidBipartitionError(f"left block {left} is not a proper subset of [0, {n})")
    right = [i for i in range(n) if i not in left]
    if not right:
        raise InvalidBipartitionError("left block must leave at least one qubit on the right")
    return left, right


def _entanglements(reduced: np.ndarray, pair: MeasurePair) -> np.ndarray:
    """Entanglement of pure states from a stack of reduced states of one side of the cut."""
    return _entropies(reduced) if _is_entropic(pair) else _linear_entropies(reduced)


def entanglement(psi: PureState, left, pair: MeasurePair = MeasurePair.ENTROPY) -> float:
    """Bipartite entanglement of a pure state across (left | rest).

    For a pure global state the two reduced spectra agree, so reducing to the
    smaller block costs nothing in generality; we always reduce to ``left``.
    """
    left, _ = _partition(psi.n_qubits, left)
    return float(_entanglements(partial_trace(density_matrix(psi), left).entries[None], pair)[0])


def _coherences(rho: np.ndarray, pair: MeasurePair) -> np.ndarray:
    """Basis coherence of each matrix in a (..., d, d) stack; a NaN or infinite entry raises NumericError."""
    if _is_entropic(pair):
        return _entropies(_dephased(rho)) - _entropies(rho)
    _require_finite(rho)
    return np.sum(np.abs(rho - _dephased(rho)) ** 2, axis=(-2, -1))


def coherence(rho: DensityMatrix, pair: MeasurePair = MeasurePair.ENTROPY) -> float:
    """Basis coherence of a (possibly reduced) state in the computational basis.

    A NaN or infinite entry raises NumericError under either measure pair.
    """
    return float(_coherences(rho.entries[None], pair)[0])


def _mutual_informations(rho: np.ndarray, left: list[int], right: list[int]) -> np.ndarray:
    """I(L:R) of each matrix in a stack, for disjoint sorted qubit lists left and right."""
    order = sorted(left + right)
    joint = _partial_traces(rho, order)
    # After the joint reduction, positions renumber to 0..k-1 in sorted order.
    s_l = _entropies(_partial_traces(joint, [order.index(i) for i in left]))
    s_r = _entropies(_partial_traces(joint, [order.index(i) for i in right]))
    return s_l + s_r - _entropies(joint)


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
    return float(_mutual_informations(rho.entries[None], left, right)[0])
