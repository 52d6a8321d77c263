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
from .qstate import DensityMatrix, PureState, _clamped_spectra, _density_matrices, _dephased, _nonfinite_refused
from .qstate import _partial_traces, _qubit_list, _require_finite, _require_unit
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


def _binary_entropies(p: np.ndarray) -> np.ndarray:
    """binary_entropy of each entry of a float64 array; a NaN entry raises NumericError."""
    if np.isnan(p).any():
        raise NumericError(f"binary entropy of p = {p[np.isnan(p)][0]} is undefined")
    inside = (p > 0.0) & (p < 1.0)
    q = np.where(inside, p, 0.5)
    return np.where(inside, -q * np.log2(q) - (1.0 - q) * np.log2(1.0 - q), 0.0)


def binary_entropy(p: float) -> float:
    """H2(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0: p <= 0 and p >= 1 give 0, a NaN p raises NumericError."""
    return float(_binary_entropies(np.array([p], dtype=np.float64))[0])


def _entropies(rho: np.ndarray) -> np.ndarray:
    """-sum_i lambda_i log2 lambda_i over the clamped spectrum of each matrix in a (..., d, d) stack."""
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
    """1 - Tr(rho^2) of each matrix in a (..., d, d) stack; every entry reaches the trace, so a NaN or infinite
    entry, or a square that overflows, gives a non-finite value, which raises NumericError."""
    return _require_finite(1.0 - np.trace(rho @ rho, axis1=-2, axis2=-1).real, "linear entropy is not finite")


def linear_entropy(rho: DensityMatrix) -> float:
    """1 - Tr(rho^2); zero exactly on pure states.  A NaN or infinite entry, or one whose square overflows, raises
    NumericError."""
    with _nonfinite_refused():
        return float(_linear_entropies(rho.entries[None])[0])


def _partition(n: int, left) -> tuple[list[int], list[int]]:
    left = _qubit_list(left, n, InvalidBipartitionError)
    right = [i for i in range(n) if i not in left]
    if not left or not right:  # each side needs at least one qubit
        raise InvalidBipartitionError(f"left block {left} is not a nonempty proper subset of [0, {n})")
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
    amps = _require_unit(psi).amplitudes
    return float(_entanglements(_partial_traces(_density_matrices(amps[None]), left), pair)[0])


def _coherences(rho: np.ndarray, pair: MeasurePair) -> np.ndarray:
    """Basis coherence of each matrix in a (..., d, d) stack; a NaN or infinite entry raises NumericError, and so does
    an l2 coherence that overflows."""
    if _is_entropic(pair):
        return _entropies(_dephased(rho)) - _entropies(rho)
    return _require_finite(np.sum(np.abs(rho - _dephased(rho)) ** 2, axis=(-2, -1)), "l2 coherence is not finite")


def coherence(rho: DensityMatrix, pair: MeasurePair = MeasurePair.ENTROPY) -> float:
    """Basis coherence of a (possibly reduced) state in the computational basis.

    A NaN or infinite entry raises NumericError under either measure pair.
    """
    with _nonfinite_refused():
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
    left, right = (_qubit_list(block, rho.n_qubits, InvalidBipartitionError) for block in (left, right))
    if set(left) & set(right):
        raise InvalidBipartitionError(f"blocks {left} and {right} overlap")
    return float(_mutual_informations(rho.entries[None], left, right)[0])
