"""N-qubit pure states, density matrices, and the linear-algebra primitives
every other module builds on.

Basis convention is big-endian throughout: qubit 0 is the most significant
bit of the computational-basis index, so for three qubits the amplitude at
index 6 = 0b110 belongs to |110>.  States are immutable after construction
(the underlying arrays are marked read-only) and all operations here are pure
functions, so values are safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyKeepSetError,
    NormToleranceError,
    NotDiagonalError,
    NotPowerOfTwoError,
    NumericError,
    ShapeError,
)

NORM_TOL = 1e-9      # default normalization tolerance for state construction
ATOL = 1e-10         # default comparison tolerance
EIG_CLAMP = 1e-12    # eigenvalues in [-EIG_CLAMP, 0) are treated as exactly 0
_UNIT_NORM_BAND = 1e-12      # norms this close to 1 stay undivided, so normalized vectors round-trip bit-stable
_ROW_NORM_SCREEN = 0.99e-12  # _renormalised_rows' vectorised screen; must sit inside _UNIT_NORM_BAND


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over a 2**n computational basis."""

    n_qubits: int
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix."""

    dim: int
    entries: np.ndarray

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _renormalised(vec: np.ndarray) -> np.ndarray:
    """Divide vec by its norm in place, then freeze it as complex128.

    The cast comes last: real and complex division can differ in the last bit.
    A zero vector has no direction to keep, so it raises NormToleranceError
    whatever tolerance let it through.
    """
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise NormToleranceError("state norm is 0, so the vector cannot be normalized")
    if abs(norm - 1.0) > _UNIT_NORM_BAND:
        vec /= norm
    return _freeze(vec.astype(np.complex128, copy=False))


def _renormalised_rows(rows: np.ndarray) -> np.ndarray:
    """_renormalised applied to each row of a (K, D) complex128 stack, in place."""
    # A vectorised norm passes the rows clearly inside the band that
    # _renormalised leaves alone; only the others take the 1-D rule, so each
    # decision and divisor is that of a single vector.
    screen = np.sqrt(np.sum(np.abs(rows) ** 2, axis=-1))
    for k in np.flatnonzero(~(np.abs(screen - 1.0) <= _ROW_NORM_SCREEN)):
        _renormalised(rows[k])
    return _freeze(rows)


def state_from_amplitudes(amps, tol: float = NORM_TOL) -> PureState:
    """Build a PureState from a sequence of complex amplitudes.

    The length must be a power of two >= 2.  The vector is renormalized if its
    norm differs from one by at most ``tol``; a larger deviation signals
    malformed input and raises NormToleranceError.
    """
    vec = np.asarray(amps, dtype=np.complex128).ravel().copy()
    dim = vec.size
    if dim < 2 or dim & (dim - 1):
        raise NotPowerOfTwoError(f"amplitude count {dim} is not a power of two >= 2")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing norm is inf, rejected below
        norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= tol:  # also rejects NaN and infinite norms
        raise NormToleranceError(f"state norm {norm!r} deviates from 1 by more than {tol}")
    return PureState(n_qubits=dim.bit_length() - 1, amplitudes=_renormalised(vec))


def _density_matrices(amps: np.ndarray) -> np.ndarray:
    """|psi><psi| of each row of a (..., D) stack; broadcasting matches np.outer bit for bit, einsum does not."""
    return amps[..., :, None] * amps.conj()[..., None, :]


def density_matrix(psi: PureState) -> DensityMatrix:
    """Outer product |psi><psi|: unit-trace, rank-1, Hermitian."""
    return DensityMatrix(dim=psi.dim, entries=_freeze(_density_matrices(psi.amplitudes[None])[0]))


def _partial_traces(rho: np.ndarray, keep: list[int]) -> np.ndarray:
    """Reduced states on the sorted qubit list keep of a (..., 2^n, 2^n) stack of n-qubit matrices."""
    n = rho.shape[-1].bit_length() - 1
    if len(keep) == n:
        return rho
    lead = rho.shape[:-2]
    t = rho.reshape(lead + (2,) * (2 * n))
    # Row axis i gets label i; column axis i gets the same label when qubit i
    # is traced out (einsum contracts repeated labels) and label n+i otherwise.
    # The stack axes ride along under the ellipsis.
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    d = 1 << len(keep)
    return np.einsum(t, [Ellipsis, *row, *col], [Ellipsis, *out]).reshape(lead + (d, d))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not in ``keep``.

    Kept subsystems retain their original relative order.  ``keep`` is a
    collection of qubit indices; it must be nonempty.
    """
    keep = sorted(set(keep))
    if not keep:
        raise EmptyKeepSetError("keep set must contain at least one subsystem")
    n = rho.n_qubits
    if keep[0] < 0 or keep[-1] >= n:
        raise EmptyKeepSetError(f"keep set {keep} outside [0, {n})")
    reduced = _partial_traces(rho.entries[None], keep)[0]
    return DensityMatrix(dim=reduced.shape[0], entries=_freeze(reduced))


def permute_qubits(psi: PureState, order) -> PureState:
    """Reorder the register so new position i holds the old qubit order[i]."""
    n = psi.n_qubits
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ShapeError(f"order {order} is not a permutation of 0..{n - 1}")
    arr = psi.amplitudes.reshape((2,) * n).transpose(order).ravel().copy()
    return PureState(n_qubits=n, amplitudes=_freeze(arr))


def _dephased(rho: np.ndarray) -> np.ndarray:
    """The diagonal part of each matrix in a (..., d, d) stack, off-diagonal entries zero."""
    diag = np.arange(rho.shape[-1])
    out = np.zeros_like(rho)
    out[..., diag, diag] = rho[..., diag, diag]
    return out


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Zero all off-diagonal entries.

    Equals the per-qubit maximal dephasing channel (Kraus pair
    {sqrt(1/2) I, sqrt(1/2) sigma_z} on every qubit): each off-diagonal
    element picks up a factor (1-2p) = 0 per differing bit.
    """
    return DensityMatrix(dim=rho.dim, entries=_freeze(_dephased(rho.entries[None])[0]))


def purify_diagonal(rho: DensityMatrix, tol: float = ATOL) -> PureState:
    """Collapse a diagonal density matrix to the pure state with amplitudes
    equal to the nonnegative square roots of its diagonal.

    This is the purification-then-projection step: the canonical purification
    of diag(p_i) followed by projecting the ancilla register onto the
    uniform-phase subspace leaves exactly sqrt(p_i) amplitudes.
    """
    m = rho.entries
    if not np.isfinite(m).all():  # a NaN would pass the diagonality test below
        raise NumericError("density matrix has non-finite entries, so it has no purification")
    if np.max(np.abs(m - _dephased(m))) > tol:
        raise NotDiagonalError("matrix has off-diagonal weight above tolerance")
    return PureState(n_qubits=rho.n_qubits, amplitudes=_purified(np.diag(m).real))


def _purified(probs: np.ndarray) -> np.ndarray:
    """Frozen complex128 amplitudes sqrt(p_i) of a real diagonal, negatives clipped to 0, renormalised."""
    if not np.isfinite(probs).all():
        raise NumericError("diagonal has non-finite entries, so it has no purification")
    return _renormalised(np.sqrt(np.clip(probs, 0.0, None)))


def _clamped_spectra(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part (M + M*)/2 of each matrix in a (..., d, d) stack.

    Symmetrizing first removes round-off asymmetry; values in [-1e-12, 0) are
    numerical noise on a PSD matrix and are set to 0 before any logarithm.
    """
    herm = 0.5 * (rho + np.conj(np.swapaxes(rho, -1, -2)))
    vals = np.linalg.eigvalsh(herm)
    vals[(vals < 0) & (vals > -EIG_CLAMP)] = 0.0
    return vals


def clamped_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of the Hermitian part (M + M*)/2, tiny negatives clamped to 0."""
    return _clamped_spectra(rho.entries[None])[0]


# ---------------------------------------------------------------------------
# JSON state format: {"n_qubits": n, "amplitudes": [[re, im], ...]}
# Amplitudes are listed in big-endian basis order.  Perspectival states carry
# an extra "perspective_of" index.  Density matrices are never serialized.
# ---------------------------------------------------------------------------

def _dumps(doc, **kwargs) -> str:
    """json.dumps that refuses NaN and infinities, raising NumericError, so output is always valid JSON."""
    try:
        return json.dumps(doc, allow_nan=False, **kwargs)
    except ValueError as e:
        raise NumericError(f"output holds a non-finite number: {e}") from None


def state_to_json(psi: PureState, perspective_of: int | None = None) -> str:
    doc = {
        "n_qubits": psi.n_qubits,
        "amplitudes": np.column_stack([psi.amplitudes.real, psi.amplitudes.imag]).tolist(),
    }
    if perspective_of is not None:
        doc["perspective_of"] = int(perspective_of)
    return _dumps(doc)


def state_from_json(text: str, tol: float = NORM_TOL) -> PureState:
    """Parse the JSON state format.  A malformed document raises ValueError, TypeError or KeyError."""
    doc = json.loads(text)
    pairs = doc["amplitudes"]
    amps = [complex(re, im) for re, im in pairs]
    # complex() takes booleans as numbers, so the parts' types are checked too.
    if not {type(x) for pair in pairs for x in pair} <= {int, float}:
        raise ValueError("amplitude parts must be JSON numbers")
    declared = doc.get("n_qubits")
    if "n_qubits" in doc and type(declared) is not int:
        raise ValueError(f"declared n_qubits {declared!r} is not an integer")
    psi = state_from_amplitudes(amps, tol=tol)
    if "n_qubits" in doc and declared != psi.n_qubits:
        raise NotPowerOfTwoError(f"declared n_qubits {declared} does not match {len(amps)} amplitudes")
    return psi
