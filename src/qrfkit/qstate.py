"""N-qubit pure states, density matrices, and the linear-algebra primitives
every other module builds on.

Basis convention is big-endian throughout: qubit 0 is the most significant
bit of the computational-basis index, so for three qubits the amplitude at
index 6 = 0b110 belongs to |110>.  States are immutable after construction
(the underlying arrays are marked read-only) and all operations here are pure
functions, so values are safe to share across threads.

The register size is checked once, by the types: a PureState holds exactly
2**n_qubits amplitudes and a DensityMatrix a dim x dim matrix with dim a power
of two, and any other value raises ShapeError at construction, so every
function here may read the size from the field or from the array alike.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyKeepSetError, NormToleranceError, NotDiagonalError, NotPowerOfTwoError
from .errors import NumericError, ShapeError, _check_target, _check_tolerance, _integer

NORM_TOL = 1e-9      # default normalization tolerance for state construction
# 3 NORM_TOL: a state within NORM_TOL of unit norm has reductions of trace within 2 NORM_TOL + NORM_TOL**2 of 1,
# and the rest is room for round-off.
_TRACE_TOL = 3e-9
ATOL = 1e-10         # default comparison tolerance
EIG_CLAMP = 1e-12    # eigenvalues in [-EIG_CLAMP, 0) are treated as exactly 0
_UNIT_NORM_BAND = 1e-12      # norms this close to 1 stay undivided, so normalized vectors round-trip bit-stable
_JSON_NUMBERS = frozenset((int, float))  # the types json.loads gives JSON numbers; bool is neither

# The one numeric guard of the public entry points.  Overflow and inf - inf give an inf or NaN, which the entry point
# then refuses with a typed error; this keeps numpy's RuntimeWarning from coming first, or instead under -W error.
_nonfinite_refused = functools.partial(np.errstate, over="ignore", invalid="ignore")


def _require_register(array, n_qubits, axes: int, what: str) -> None:
    """ShapeError unless array has shape (2**n_qubits,) * axes: the size rule of states, matrices and operators; then
    DomainError unless its dtype is integer, float or complex, so no bool, object, string or datetime array passes."""
    try:
        fits = n_qubits >= 0 and array.shape == (1 << n_qubits,) * axes
    except (AttributeError, TypeError):  # no array, or a qubit count that is not an integer
        fits = False
    if not fits:
        raise ShapeError(f"{what} of shape {getattr(array, 'shape', None)} do not fit qubit count {n_qubits!r}")
    dtype = getattr(array, "dtype", None)
    if getattr(dtype, "kind", None) not in ("i", "u", "f", "c"):
        raise DomainError(f"{what} of dtype {dtype} are not integer, float or complex numbers")


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over a 2**n computational basis; amplitudes of any shape but
    (2**n_qubits,) raise ShapeError, and of a dtype that is not integer, float or complex DomainError."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _require_register(self.amplitudes, self.n_qubits, 1, "state amplitudes")

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive-semidefinite, unit-trace complex matrix; entries of any shape but (dim, dim), or a dim
    that is not a power of two, raise ShapeError, and entries of a dtype that is not integer, float or complex
    DomainError."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.dim, int) and self.dim > 0 and not self.dim & (self.dim - 1)):
            raise ShapeError(f"density matrix dimension {self.dim!r} is not a power of two")
        _require_register(self.entries, self.n_qubits, 2, "density matrix entries")

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _require_shapeable(n_qubits: int, square: bool = False) -> None:
    """ShapeError unless numpy can shape an n_qubits register's 16 * 2**n_qubits bytes of complex128 amplitudes,
    or, square, the 16 * 4**n_qubits bytes of its dense 2**n_qubits x 2**n_qubits operator.

    Past that size numpy raises a bare ValueError; a size it can shape but not allocate is a MemoryError.
    """
    if (16 << (2 * n_qubits if square else n_qubits)) > np.iinfo(np.intp).max:
        kind = "operator" if square else "register"
        raise ShapeError(f"qubit count {n_qubits} is past the largest {kind} numpy can shape")


def _require_finite(values: np.ndarray, message: str) -> np.ndarray:
    """values, unless one of them is NaN or infinite: then NumericError(message)."""
    if not np.isfinite(values).all():
        raise NumericError(message)
    return values


def _checked_norm(vec: np.ndarray, tol: float) -> float:
    """The norm of vec; a NaN or infinite norm (named as such, at any tol), or one further than tol from 1, raises
    NormToleranceError."""
    # numpy's own 1-D norm rule, without its Python dispatch: a complex vector's real and imaginary dots, summed.
    norm = math.sqrt(vec.real.dot(vec.real) + vec.imag.dot(vec.imag) if vec.dtype.kind == "c" else vec.dot(vec))
    if not math.isfinite(norm):  # a NaN or infinite part, or a norm that overflowed: no tolerance is involved
        raise NormToleranceError(f"state norm is {norm!r}, not a finite number, so the vector cannot be normalized")
    if not abs(norm - 1.0) <= tol:
        raise NormToleranceError(f"state norm {norm!r} deviates from 1 by more than {tol}")
    return norm


def _require_unit_trace(rho: DensityMatrix) -> np.ndarray:
    """rho's entries, unless their trace is finite and further than _TRACE_TOL from 1: then NormToleranceError.

    A NaN or infinite trace is left to the measure's own check of non-finite entries, and its message."""
    with _nonfinite_refused():
        trace = float(np.trace(rho.entries).real)
    if math.isfinite(trace) and abs(trace - 1.0) > _TRACE_TOL:
        raise NormToleranceError(f"density matrix trace {trace!r} deviates from 1 by more than {_TRACE_TOL}")
    return rho.entries


def _require_unit(psi: PureState) -> PureState:
    """psi, unless its norm is not finite or is further than NORM_TOL from 1: then NormToleranceError.

    Past this check every amplitude is finite and of modulus at most 1 + NORM_TOL, so no product, sum or power of
    them that a measure takes can overflow."""
    with _nonfinite_refused():
        _checked_norm(psi.amplitudes, NORM_TOL)
    return psi


def _renormalised(vec: np.ndarray, tol: float = math.inf) -> np.ndarray:
    """vec divided by its norm in place, then frozen as complex128: the one rule every state's norm goes through.

    A NaN or infinite norm (named as such, at any tol), a zero norm, or one further than tol from 1, raises
    NormToleranceError; one within _UNIT_NORM_BAND of 1 leaves vec undivided.  The cast comes last: real and complex
    division can differ in the last bit.
    """
    norm = _checked_norm(vec, tol)
    if norm == 0.0:
        raise NormToleranceError("state norm is 0, so the vector cannot be normalized")
    if abs(norm - 1.0) > _UNIT_NORM_BAND:
        vec /= norm
    return _freeze(vec.astype(np.complex128, copy=False))


def _norms(rows: np.ndarray) -> np.ndarray:
    """The norm of each row of a (K, D) complex stack."""
    re, im = rows.real, rows.imag
    # Row by row through the strided BLAS ddot of _renormalised's 1-D rule, so each norm equals it bit for bit.
    return np.sqrt(re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]


def _renormalised_rows(rows: np.ndarray) -> np.ndarray:
    """_renormalised applied to each row of a (K, D) complex128 stack, in place."""
    # The exact norms pick the rows _renormalised would divide or refuse; only those take the rule itself.
    for k in np.flatnonzero(~(np.abs(_norms(rows) - 1.0) <= _UNIT_NORM_BAND)):
        _renormalised(rows[k])
    return _freeze(rows)


def state_from_amplitudes(amps, tol: float = NORM_TOL) -> PureState:
    """Build a PureState from a sequence of complex amplitudes.

    The length must be a power of two >= 2.  The vector is renormalized if its
    norm differs from one by at most ``tol``; a larger deviation signals
    malformed input and raises NormToleranceError.  A NaN or negative tol
    raises DomainError, and so does an amplitude that is not a number.
    """
    try:
        # numpy reads None as NaN, so a None is looked for first; an array of numbers holds none.
        held = amps if isinstance(amps, np.ndarray) else np.asarray(amps, dtype=object)
        if held.dtype == object and any(a is None for a in held.flat):
            raise TypeError("None is not a number")
        vec = np.asarray(amps, dtype=np.complex128).ravel().copy()
    except (TypeError, ValueError) as e:
        raise DomainError(f"amplitudes must be a sequence of numbers: {e}") from None
    dim = vec.size
    if dim < 2 or dim & (dim - 1):
        raise NotPowerOfTwoError(f"amplitude count {dim} is not a power of two >= 2")
    _check_tolerance(tol, "norm")
    with _nonfinite_refused():
        return PureState(n_qubits=dim.bit_length() - 1, amplitudes=_renormalised(vec, tol))


def _density_matrices(amps: np.ndarray) -> np.ndarray:
    """|psi><psi| of each row of a (..., D) stack; broadcasting matches np.outer bit for bit, einsum does not."""
    return amps[..., :, None] * amps.conj()[..., None, :]


def density_matrix(psi: PureState) -> DensityMatrix:
    """Outer product |psi><psi|: unit-trace, rank-1, Hermitian; a state whose norm is not finite, or is further than
    NORM_TOL from 1, raises NormToleranceError."""
    entries = _density_matrices(_require_unit(psi).amplitudes[None])[0]
    return DensityMatrix(dim=psi.dim, entries=_freeze(entries))


def _partial_traces(rho: np.ndarray, keep: list[int]) -> np.ndarray:
    """Reduced states on the sorted qubit list keep of a (..., 2^n, 2^n) stack of n-qubit matrices."""
    n = rho.shape[-1].bit_length() - 1
    lead = rho.shape[:-2]
    t = rho.reshape(lead + (2,) * (2 * n))
    # Row axis i gets label i; column axis i gets the same label when qubit i
    # is traced out (einsum contracts repeated labels) and label n+i otherwise.
    # The stack axes ride along under the ellipsis.
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    labels = [i for i in keep] + [n + i for i in keep]
    d = 1 << len(keep)
    return np.einsum(t, [Ellipsis, *row, *col], [Ellipsis, *labels]).reshape(lead + (d, d))


def _qubit_list(indices, n: int, error) -> list[int]:
    """The distinct entries of indices, sorted, each by _check_target: one outside [0, n) raises error."""
    return sorted({_check_target(n, i, "qubit index", error) for i in indices})


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not in ``keep``.

    Kept subsystems retain their original relative order.  ``keep`` is a
    collection of integer qubit indices; it must be nonempty.  The result
    holds its own copy, also when ``keep`` names every qubit.
    """
    keep = _qubit_list(keep, rho.n_qubits, EmptyKeepSetError)
    if not keep:
        raise EmptyKeepSetError("keep set must contain at least one subsystem")
    # Keeping every qubit, einsum's identity relabel returns a view of rho.entries, which the caller may still write.
    reduced = _partial_traces(rho.entries[None], keep)[0].copy()
    return DensityMatrix(dim=reduced.shape[0], entries=_freeze(reduced))


def permute_qubits(psi: PureState, order) -> PureState:
    """Reorder the register so new position i holds the old qubit order[i]."""
    n = psi.n_qubits
    order = [_integer(i, "qubit order entry") for i in order]
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
    uniform-phase subspace leaves exactly sqrt(p_i) amplitudes.  A NaN or
    negative tol raises DomainError.
    """
    _check_tolerance(tol, "diagonality")
    m = rho.entries
    # A NaN would pass the diagonality test below.
    _require_finite(m, "density matrix has non-finite entries, so it has no purification")
    if np.max(np.abs(m - _dephased(m))) > tol:
        raise NotDiagonalError("matrix has off-diagonal weight above tolerance")
    with _nonfinite_refused():  # an overflowing norm is inf, which the rule refuses
        return PureState(n_qubits=rho.n_qubits, amplitudes=_purified(np.diag(m).real))


def _purified(probs: np.ndarray) -> np.ndarray:
    """Frozen complex128 amplitudes sqrt(p_i) of a real diagonal, negatives clipped to 0, renormalised.
    A NaN or +inf entry gives a NaN or infinite norm, which _renormalised refuses; no caller passes -inf."""
    # maximum(probs, 0.0), not maximum(0.0, probs): of two equal arguments it returns the second, so -0.0 becomes +0.0.
    return _renormalised(np.sqrt(np.maximum(probs, 0.0)))


def _clamped_spectra(rho: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part (M + M*)/2 of each matrix in a (..., d, d) stack.

    Symmetrizing first removes round-off asymmetry; values in [-1e-12, 0) are
    numerical noise on a PSD matrix and are set to 0 before any logarithm.
    A NaN or infinite entry raises NumericError: the entries are checked, not
    the spectrum, since LAPACK can return a finite spectrum for a NaN diagonal.
    """
    _require_finite(rho, "density matrix has non-finite entries, so its spectrum is not finite")
    # One C-contiguous copy, then every step in place, so numpy needs no buffers; x + rho is rho + x bit for bit.
    herm = np.swapaxes(rho, -1, -2).copy()
    np.conjugate(herm, out=herm)
    herm += rho
    herm *= 0.5
    return _clamped(np.linalg.eigvalsh(herm))


def _clamped(vals: np.ndarray) -> np.ndarray:
    """A stack of spectra with its values in (-EIG_CLAMP, 0), numerical noise on a PSD matrix, set to 0 in place."""
    vals[(vals < 0) & (vals > -EIG_CLAMP)] = 0.0
    return vals


def _dephased_spectra(rho: np.ndarray) -> np.ndarray:
    """_clamped_spectra(_dephased(rho)) of each unit-trace matrix in a (..., d, d) stack, read off its diagonal.

    The Hermitian part of a diagonal matrix has the real diagonal exactly.  LAPACK's tridiagonal reduction of it has
    nothing to reduce, and its QR step splits it into 1 x 1 blocks and sorts them, so the eigenvalues are the sorted
    real diagonal bit for bit; a unit trace keeps the matrix clear of LAPACK's rescaling of tiny ones.  The entries
    are not checked here: every caller also takes rho's own spectrum, which checks them all.
    """
    return _clamped(np.sort(np.diagonal(rho, axis1=-2, axis2=-1).real, axis=-1))


def clamped_eigenvalues(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of the Hermitian part, tiny negatives clamped to 0; a NaN or infinite entry raises NumericError."""
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


_ROW_BLOCK = 4096  # rows analysed and formatted at a time, so no stacked run holds more than a block of stacks or text


def _by_block(count: int, block, lazy: bool = False):
    """block(rows) for each slice rows of _ROW_BLOCK rows of range(count), in turn: where every stacked run's blocks
    start and end.  Lazy, the results are yielded as computed.  Otherwise each is a list of arrays over rows, written
    into one array of count rows per entry, allocated from the first block's shapes; those arrays are returned."""
    blocks = [slice(start, start + _ROW_BLOCK) for start in range(0, count, _ROW_BLOCK)]
    if lazy:
        return map(block, blocks)
    whole = []
    for rows in blocks:
        arrays = block(rows)
        whole = whole or [np.empty((count, *a.shape[1:]), a.dtype) for a in arrays]
        for column, a in zip(whole, arrays):
            column[rows] = a
    return whole


def _refuse_nonfinite(columns) -> None:
    """_dumps' NumericError for the first NaN or infinity in the first float column that holds one."""
    for c in columns:
        if c.dtype.kind == "f" and not np.isfinite(c).all():
            _dumps(float(c[~np.isfinite(c)][0]))  # raises, with the message _dumps gives for it


def _row_template(doc, **kwargs) -> str:
    """json.dumps(doc, **kwargs) as a % template: each string value "%r", "%d" or "%s" becomes that bare field."""
    text = json.dumps(doc, **kwargs).replace("%", "%%")
    for field in ("%r", "%d", "%s"):
        text = text.replace(f'"%{field}"', field)
    return text


def _fill_rows(template, columns) -> Iterator[str]:
    """template % row for each row of the equal-length 1-D columns, yielded as one text per _ROW_BLOCK rows.

    Float columns fill float fields (%r gives json's float form), integer
    columns %d, and bool columns %s as true/false; the template carries each
    row's separator.  A NaN or infinity in any float column raises _dumps'
    NumericError here, at the call, before the returned iterator formats a row.
    """
    _refuse_nonfinite(columns)

    def text(rows):
        values = [(np.where(c[rows], "true", "false") if c.dtype == bool else c[rows]).tolist() for c in columns]
        return "".join(map(template.__mod__, zip(*values)))
    return _by_block(len(columns[0]), text, lazy=True)


def state_to_json(psi: PureState, perspective_of: int | None = None) -> str:
    """The JSON state document of psi: {"n_qubits": n, "amplitudes": [[re, im], ...]} in big-endian basis order,
    then "perspective_of": p when given, on one line.

    Its bytes are those json.dumps writes for the [float(re), float(im)] pairs: each part is its repr, the pairs
    are joined a _ROW_BLOCK at a time, and a state whose imaginary parts are all +0.0 (bitwise, so -0.0 is not)
    has them written as part of the separator.  A NaN or infinite part raises _dumps' NumericError before any text
    is formatted.  perspective_of names the observer the state is seen by, one of the n + 1 parties, so it must
    be an integer in [0, n]; anything else raises ShapeError.
    """
    parts = np.ascontiguousarray(psi.amplitudes, np.complex128).view(np.float64).reshape(-1, 2)
    _refuse_nonfinite(parts.T)
    doc = {"n_qubits": psi.n_qubits, "amplitudes": []}
    if perspective_of is not None:
        p = _integer(perspective_of, "perspective_of")
        if not 0 <= p <= psi.n_qubits:
            raise ShapeError(f"perspective_of {p} is not an observer index in [0, {psi.n_qubits}]")
        doc["perspective_of"] = p
    head, tail = json.dumps(doc).split("[]")
    real = not parts[:, 1].view(np.uint64).any()  # every imaginary part has the bits of +0.0
    pair_end = ", 0.0" if real else ""
    sep = pair_end + "], ["

    def text(rows):
        if real:
            return sep.join(map(repr, parts[rows, 0].tolist()))
        reals, imags = (map(repr, c.tolist()) for c in parts[rows].T)
        return sep.join(map(", ".join, zip(reals, imags)))
    pieces = [head, "[["]
    for block in _by_block(len(parts), text, lazy=True):
        pieces += (block, sep)
    pieces[-1] = pair_end + "]]" + tail
    return "".join(pieces)


# The layout state_to_json writes, which state_from_json reads a slice at a time: a head, the pair body, then the tail
# and JSON whitespace only ([ \t\n\r], not \s, which also takes spaces json refuses).  Digit runs are ASCII and bounded.
_CANONICAL_HEAD = re.compile(r'\{"n_qubits": (0|[1-9][0-9]{0,3}), "amplitudes": \[\[')
_CANONICAL_TAIL = re.compile(r'\]\](, "perspective_of": (0|[1-9][0-9]{0,3}))?\}[ \t\n\r]*')
# The exceptions a malformed state document raises out of state_from_json.
_MALFORMED = (KeyError, OverflowError, RecursionError, TypeError, ValueError)


def _float_parts(pairs) -> np.ndarray:
    """The float64 parts of a list of [re, im] pairs, each as float() converts it; a pair of another length, or a part
    that is not a JSON number, raises ValueError, and an integer past the float range OverflowError."""
    if not set(map(len, pairs)) <= {2}:
        raise ValueError("each amplitude must be a pair [re, im] of two JSON numbers")
    parts = list(itertools.chain.from_iterable(pairs))
    # float() and numpy take booleans as numbers, so only JSON numbers reach the conversion.
    if not set(map(type, parts)) <= _JSON_NUMBERS:
        raise ValueError("amplitude parts must be JSON numbers")
    # np.fromiter converts a flat list in about half the time np.array takes.
    return np.fromiter(parts, dtype=np.float64, count=len(parts))


def _canonical_parts(text) -> tuple[np.ndarray, int] | None:
    """The float64 parts and declared qubit count of a document in state_to_json's layout, parsed a slice of the pair
    body at a time, or None for any other input or any slice that does not parse into pairs of JSON numbers.

    The body between the head's "[[" and the tail's "]]" is cut at a "], [" past a fixed character budget, and each
    slice parsed as json.loads("[[" + slice + "]]"), so at most one slice's Python objects are alive at once.  This
    is exact: if every "[[" + slice + "]]" parses as a list of pairs, the first pair opens right after its "[[" and the
    last closes right before its "]]", so "[[" + body + "]]" parses as their concatenation.  The fixed head and tail
    leave no room for another key or a duplicate, so the document is {"n_qubits": N, "amplitudes": that list} with
    at most a "perspective_of" index, and the parts are those json.loads of the whole text gives.  Nothing is sized by
    the declared count, so a head claiming 40 qubits over two pairs costs two pairs.
    """
    head = _CANONICAL_HEAD.match(text) if isinstance(text, str) else None  # bytes and bytearray are read whole
    if head is None:
        return None
    stop = text.rfind("]]")
    if stop < head.end() or not _CANONICAL_TAIL.fullmatch(text, stop):
        return None
    budget = 32 * _ROW_BLOCK  # characters: about _ROW_BLOCK pairs of repr floats
    blocks, start = [], head.end()
    try:
        while start <= stop:
            cut = text.find("], [", start + budget, stop)
            end = stop if cut < 0 else cut
            blocks.append(_float_parts(json.loads("[[" + text[start:end] + "]]")))
            start = end + 4
    except _MALFORMED:  # the whole-document reader raises the error
        return None
    return np.concatenate(blocks), int(head[1])


def _whole_document_parts(text) -> tuple[np.ndarray, int | None]:
    """The float64 parts and declared qubit count (None if absent) of any state document, parsed whole by json.loads;
    a malformed document raises one of _MALFORMED."""
    doc = json.loads(text)
    parts = _float_parts(doc["amplitudes"])
    declared = doc.get("n_qubits")
    if "n_qubits" in doc and type(declared) is not int:
        raise ValueError(f"declared n_qubits {declared!r} is not an integer")
    return parts, declared


def state_from_json(text: str, tol: float = NORM_TOL) -> PureState:
    """Parse the JSON state format.  A malformed document raises ValueError, TypeError, KeyError, OverflowError or
    RecursionError.

    A str in the layout state_to_json writes is read a slice of pairs at a time; any other input, and any such str
    a slice of which fails, is read whole, which gives the same parts or raises the error.
    """
    parts, declared = _canonical_parts(text) or _whole_document_parts(text)
    amps = parts.view(np.complex128)
    psi = state_from_amplitudes(amps, tol=tol)
    if declared is not None and declared != psi.n_qubits:
        raise NotPowerOfTwoError(f"declared n_qubits {declared} does not match {len(amps)} amplitudes")
    return psi
