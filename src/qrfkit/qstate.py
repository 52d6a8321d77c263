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
    """
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-12:
        # Skipping the division for norms this close to 1 keeps already
        # normalized vectors bit-stable across save/load round trips.
        vec /= norm
    return _freeze(vec.astype(np.complex128, copy=False))


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
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= tol:  # also rejects NaN norms
        raise NormToleranceError(f"state norm {norm!r} deviates from 1 by more than {tol}")
    return PureState(n_qubits=dim.bit_length() - 1, amplitudes=_renormalised(vec))


def density_matrix(psi: PureState) -> DensityMatrix:
    """Outer product |psi><psi|: unit-trace, rank-1, Hermitian."""
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    return DensityMatrix(dim=psi.dim, entries=_freeze(rho))


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
    if len(keep) == n:
        return rho
    t = rho.entries.reshape((2,) * (2 * n))
    # Row axis i gets label i; column axis i gets the same label when qubit i
    # is traced out (einsum contracts repeated labels) and label n+i otherwise.
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(t, row + col, out)
    d = 1 << len(keep)
    return DensityMatrix(dim=d, entries=_freeze(reduced.reshape(d, d).copy()))


def permute_qubits(psi: PureState, order) -> PureState:
    """Reorder the register so new position i holds the old qubit order[i]."""
    n = psi.n_qubits
    order = list(order)
    if sorted(order) != list(range(n)):
        raise ShapeError(f"order {order} is not a permutation of 0..{n - 1}")
    arr = psi.amplitudes.reshape((2,) * n).transpose(order).ravel().copy()
    return PureState(n_qubits=n, amplitudes=_freeze(arr))


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Zero all off-diagonal entries.

    Equals the per-qubit maximal dephasing channel (Kraus pair
    {sqrt(1/2) I, sqrt(1/2) sigma_z} on every qubit): each off-diagonal
    element picks up a factor (1-2p) = 0 per differing bit.
    """
    return DensityMatrix(dim=rho.dim, entries=_freeze(np.diag(np.diag(rho.entries)).copy()))


def purify_diagonal(rho: DensityMatrix, tol: float = ATOL) -> PureState:
    """Collapse a diagonal density matrix to the pure state with amplitudes
    equal to the nonnegative square roots of its diagonal.

    This is the purification-then-projection step: the canonical purification
    of diag(p_i) followed by projecting the ancilla register onto the
    uniform-phase subspace leaves exactly sqrt(p_i) amplitudes.
    """
    m = rho.entries
    off = m - np.diag(np.diag(m))
    if np.max(np.abs(off)) > tol:
        raise NotDiagonalError("matrix has off-diagonal weight above tolerance")
    probs = np.clip(np.diag(m).real, 0.0, None)
    return PureState(n_qubits=rho.n_qubits, amplitudes=_renormalised(np.sqrt(probs)))


def clamped_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of the Hermitian part (M + M*)/2, tiny negatives clamped.

    Symmetrizing first removes round-off asymmetry; values in [-1e-12, 0) are
    numerical noise on a PSD matrix and are set to 0 before any logarithm.
    """
    herm = 0.5 * (rho.entries + rho.entries.conj().T)
    vals = np.linalg.eigvalsh(herm)
    vals[(vals < 0) & (vals > -EIG_CLAMP)] = 0.0
    return vals


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
        "amplitudes": [[float(a.real), float(a.imag)] for a in psi.amplitudes],
    }
    if perspective_of is not None:
        doc["perspective_of"] = int(perspective_of)
    return _dumps(doc)


def state_from_json(text: str, tol: float = NORM_TOL) -> PureState:
    doc = json.loads(text)
    amps = [complex(re, im) for re, im in doc["amplitudes"]]
    psi = state_from_amplitudes(amps, tol=tol)
    if "n_qubits" in doc and int(doc["n_qubits"]) != psi.n_qubits:
        raise NotPowerOfTwoError(
            f"declared n_qubits {doc['n_qubits']} does not match {len(amps)} amplitudes"
        )
    return psi
