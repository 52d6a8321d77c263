"""Written-out references, and the checks against them that run at two sizes, for the tier-1 tests and full_size.py.

Each reference computes what a qrfkit kernel computes with one numpy call per step and none of the kernel's private
helpers, so the two are independent computations.  The perspective operator is Giacomini, Castro-Ruiz & Brukner's
(Nat. Commun. 10, 494, 2019) for Z2; the measures are Baumgratz, Cramer & Plenio's (PRL 113, 140401, 2014).  The
printed closed forms, the named states and the mutual-information landmarks are the paper's, after Fuentes-Schuller &
Mann (PRL 95, 120404, 2005), each written here once with math; the closed forms take H2 from a scalar rule of their own.
"""

import itertools
import json
import math

import numpy as np

from qrfkit import DensityMatrix, MeasurePair, ParityClass, Quantity, assign_perspective, assign_perspective_channel
from qrfkit import dephase, density_matrix, partial_trace, perspective_operator, purify_diagonal, random_parity_state
from qrfkit import state_from_amplitudes
from qrfkit.errors import NotPowerOfTwoError
from qrfkit.measures import _coherences, _dephased_entropies, _linear_entropies
from qrfkit.qstate import _dephased_spectra, clamped_eigenvalues
from qrfkit.transference import _Analysis, _parity_amplitudes, _sample_draws

ANALYSIS_FIELDS = ("persp_ent", "coh", "global_ent")
RT2 = 1.0 / math.sqrt(2.0)
BELL = [RT2, 0.0, 0.0, RT2]  # the Bell state (|00> + |11>) / sqrt(2)
MI_PLATEAU = 0.6225562489182659  # (3/2) * (2 - log2(3)), the two-mode plateau of the mutual information
# 2 * H2((1 + cos(pi/4)) / 2), where both perspectival mutual-information curves cross
MI_CROSSING = 2.0 * (-(0.5 + 0.25 * math.sqrt(2.0)) * math.log2(0.5 + 0.25 * math.sqrt(2.0))
                     - (0.5 - 0.25 * math.sqrt(2.0)) * math.log2(0.5 - 0.25 * math.sqrt(2.0)))
R_MAX_TEXT = "0.7853981633974483"  # repr(math.pi / 4), the grid's upper bound
WORKED = [0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.5]  # the paper's worked example, (|000> + |001> + |010> + |111>) / 2
WORKED_FROM_1 = [RT2, 0.5, 0.0, 0.5]  # the worked example's amplitudes from qubit 1's perspective


def scalar_binary_entropy(p):
    """H2 of one float, written as a scalar rule."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def printed_curves(r, m):
    """The six printed closed forms at one r under measure pair m, keyed by Quantity, written with math and H2."""
    c2 = math.cos(r) ** 2
    if m is MeasurePair.ENTROPY:
        split = math.sqrt(7.0 + math.cos(4.0 * r)) / (2.0 * math.sqrt(2.0))
        values = (scalar_binary_entropy((1.0 + split) / 2.0), scalar_binary_entropy((1.0 + math.cos(r)) / 2.0),
                  scalar_binary_entropy((1.0 + math.sin(r)) / 2.0), scalar_binary_entropy((1.0 + c2) / 2.0),
                  scalar_binary_entropy(c2 / 2.0), 1.0)
    else:
        s2 = math.sin(r) ** 2
        values = (math.sin(2.0 * r) ** 2 / 8.0, s2 / 2.0, c2 / 2.0, (s2 / 2.0) * (1.0 + c2), c2 * (1.0 - c2 / 2.0), 0.5)
    return dict(zip((Quantity.E_PERSP_A, Quantity.E_PERSP_R, Quantity.E_PERSP_RBAR, Quantity.E_RBAR_AR,
                     Quantity.E_R_ARBAR, Quantity.E_A_RRBAR), values))


def sep_counterexample():
    """|0>|+>|+>: it satisfies every corollary and violates transference by exactly 1."""
    return state_from_amplitudes([0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0])


def ghz(g):
    """The GHZ family g|000> + sqrt(1 - g^2)|111>, which violates every transference constraint for 0 < g < 1."""
    return state_from_amplitudes([g, 0, 0, 0, 0, 0, 0, math.sqrt(1 - g * g)])


def odd_edge_state(q):
    """The appendix-C edge family (e, q, -q, e, 0, 0, 0, 0) with e = sqrt(1/2 - q^2): only constraint C2 fails."""
    e = math.sqrt(0.5 - q * q)
    return state_from_amplitudes([e, q, -q, e, 0, 0, 0, 0])


def sample_lines(count, seed, parity, pairs, reports_of):
    """sample's lines as json.dumps writes each line's document, then the summary's: reports_of(i, m) gives state i's
    constraint documents under measure pair m."""
    lines, passes = [], {m.value: 0 for m in pairs}
    for i in range(count):
        for m in pairs:
            constraints = reports_of(i, m)
            ok = all(c["satisfied"] for c in constraints)
            passes[m.value] += ok
            lines.append(json.dumps({"index": i, "parity": parity, "measure_pair": m.value,
                                     "constraints": constraints, "all_satisfied": ok}))
    lines.append(json.dumps({"summary": {"count": count, "parity": parity, "seed": seed, "pass": passes}}))
    return lines


def unit_amplitudes(n, rng):
    """2^n amplitudes with standard-normal real parts, then imaginary parts, divided by numpy's norm."""
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return v / np.linalg.norm(v)


def unit_state(n, rng):
    """The state of unit_amplitudes(n, rng), which it holds bit for bit: a norm within 1e-12 of 1 is left undivided."""
    return state_from_amplitudes(unit_amplitudes(n, rng))


def state_document(amps, **fields):
    """The state document json.dumps writes for amplitudes amps, as [float(re), float(im)] pairs, then fields."""
    pairs = [[float(a.real), float(a.imag)] for a in amps]
    return json.dumps({"n_qubits": len(amps).bit_length() - 1, "amplitudes": pairs, **fields})


def whole_document_state(text, tol=1e-9):
    """state_from_json's reading of a whole document written out: json.loads, each pair's length, each part's type,
    float() of each part through np.fromiter, the declared count's type, state_from_amplitudes, then the count."""
    doc = json.loads(text)
    pairs = doc["amplitudes"]
    if not set(map(len, pairs)) <= {2}:
        raise ValueError("each amplitude must be a pair [re, im] of two JSON numbers")
    parts = list(itertools.chain.from_iterable(pairs))
    if not set(map(type, parts)) <= {int, float}:
        raise ValueError("amplitude parts must be JSON numbers")
    amps = np.fromiter(parts, dtype=np.float64, count=len(parts)).view(np.complex128)
    declared = doc.get("n_qubits")
    if "n_qubits" in doc and type(declared) is not int:
        raise ValueError(f"declared n_qubits {declared!r} is not an integer")
    psi = state_from_amplitudes(amps, tol=tol)
    if "n_qubits" in doc and declared != psi.n_qubits:
        raise NotPowerOfTwoError(f"declared n_qubits {declared} does not match {len(amps)} amplitudes")
    return psi


def renormalised(vec):
    """The renormalisation rule written out: numpy's norm, then a divide unless it is within 1e-12 of 1."""
    norm = float(np.linalg.norm(vec))
    return vec if abs(norm - 1.0) <= 1e-12 else vec / norm


def flip_merge(amps, p, n):
    """The perspective of qubit p by the scalar flip-merge rule, one basis string at a time."""
    full = (1 << n) - 1
    shift = n - 1 - p
    out = np.zeros(1 << (n - 1), dtype=np.complex128)
    for b in range(1 << n):
        if (b >> shift) & 1 == 0:
            w = abs(amps[b]) ** 2 + abs(amps[b ^ full]) ** 2
            out[((b >> (shift + 1)) << shift) | (b & ((1 << shift) - 1))] = np.sqrt(w)
    return renormalised(out)


def dense_channel(s, p):
    """The channel's amplitudes with the perspective operator applied as two dense matmuls."""
    n = s.n_qubits
    rho = dephase(density_matrix(s))
    op = perspective_operator(p, n)
    shifted = DensityMatrix(dim=rho.dim, entries=op @ rho.entries @ op.conj().T)
    return purify_diagonal(partial_trace(shifted, [i for i in range(n) if i != p])).amplitudes


def where_flip(n, control, mask):
    """The index map of the controlled flip by an np.where over the control bit of every column."""
    cols = np.arange(1 << n)
    return np.where((cols >> (n - 1 - control)) & 1, cols ^ mask, cols)


def add_at_channel(s, p):
    """The channel's amplitudes by where_flip's index map, np.add.at into zeros, a sum over axis p of the (2,) * n
    reshape, np.clip and the written-out renormalisation rule."""
    n, a = s.n_qubits, s.amplitudes
    shifted = np.zeros(a.size)
    np.add.at(shifted, where_flip(n, p, (1 << n) - 1), (a * a.conj()).real)
    reduced = np.clip(shifted.reshape((2,) * n).sum(axis=p).ravel(), 0.0, None)
    return renormalised(np.sqrt(reduced)).astype(np.complex128)


def check_channel_bytes(pipeline, states):
    """The channel's amplitudes must equal pipeline(s, p)'s byte for byte, for each state s and each of its qubits p."""
    for s in states:
        for p in range(s.n_qubits):
            assert assign_perspective_channel(s, p).amplitudes.tobytes() == pipeline(s, p).tobytes(), (
                f"channel differs from {pipeline.__name__} at n={s.n_qubits}, p={p}")


def channel_deviation(psi, p):
    """The largest distance between the channel's amplitudes and the direct rule's."""
    return float(np.max(np.abs(assign_perspective_channel(psi, p).amplitudes - assign_perspective(psi, p).amplitudes)))


def stacked_draws(seed, count):
    """sample's stacked states of each parity for seed, after checking them and their draws against
    default_rng([seed, i]) byte for byte; each row's generator is reset to its start state before each draw."""
    draws = {width: _sample_draws(seed, np.arange(count), width) for width in (8, 16)}
    states = {cls: _parity_amplitudes(cls, lambda width: draws[width]) for cls in ParityClass}
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        start = rng.bit_generator.state
        for width, stack in draws.items():
            rng.bit_generator.state = start
            assert stack[i].tobytes() == rng.standard_normal(width).tobytes(), (
                f"stacked draw {i} differs from default_rng for seed {seed}, width {width}")
        for cls, stack in states.items():
            rng.bit_generator.state = start
            assert stack[i].tobytes() == random_parity_state(cls, rng).amplitudes.tobytes(), (
                f"stacked state {i} differs from random_parity_state for seed {seed}, parity {cls.value}")
    return states


def analysis_with_mutual_information(amps, pairs):
    """The _Analysis of amps with mutual information, after checking that its constraint fields are those of the
    analysis without it, byte for byte."""
    with_mi, without = (_Analysis(amps, pairs, mutual_information=flag) for flag in (True, False))
    for m in pairs:
        for field in ANALYSIS_FIELDS:
            got, expect = getattr(with_mi, field)[m], getattr(without, field)[m]
            assert got.shape == expect.shape and got.tobytes() == expect.tobytes(), (
                f"{field} under {m.value} differs with mutual information")
    return with_mi


def entropy_of(spectrum):
    """-sum lambda log2 lambda over the positive values of one ascending spectrum."""
    pos = spectrum[spectrum > 0.0]
    return -np.sum(pos * np.log2(pos))


def spectra(stack, dephased=False):
    """The clamped spectrum of each matrix of a (K, d, d) stack, or of each once dephased, by LAPACK's eigvalsh: one
    clamped_eigenvalues call per matrix."""
    matrices = (DensityMatrix(dim=m.shape[0], entries=m) for m in stack)
    return np.array([clamped_eigenvalues(dephase(rho) if dephased else rho) for rho in matrices])


def linear_entropies(stack):
    """1 - Tr(rho^2) of each matrix of a (..., d, d) stack, by np.trace."""
    return 1.0 - np.trace(stack @ stack, axis1=-2, axis2=-1).real


def edge_density_stack(d, count, rng):
    """count seeded d x d density matrices of unit trace, five in six with an edited diagonal: one entry 0, every
    entry -0.0 but one, one entry in (-1e-12, 0), a degenerate diagonal (every entry 1/d), or a zero diagonal."""
    a = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    stack = a @ a.conj().swapaxes(-1, -2)
    stack /= np.trace(stack, axis1=-2, axis2=-1).real[:, None, None]
    kind, diag = np.arange(count) % 6, np.arange(d)
    stack[kind == 1, 0, 0] = 0.0
    stack[np.flatnonzero(kind == 2)[:, None], diag[1:], diag[1:]] = -0.0
    stack[kind == 3, d - 1, d - 1] = -rng.uniform(1e-16, 1e-12, np.count_nonzero(kind == 3))
    stack[np.flatnonzero(kind == 4)[:, None], diag, diag] = 1.0 / d
    stack[np.flatnonzero(kind == 5)[:, None], diag, diag] = 0.0
    return stack


def check_diagonal_kernels(stack):
    """On a (K, d, d) stack the dephased spectra read off the diagonal, their entropies and the entropic coherence
    must equal those of the diagonalised dephased matrices, and the linear entropies np.trace's, byte for byte."""
    dephased = spectra(stack, dephased=True)
    dephased_entropies = np.array([entropy_of(s) for s in dephased])
    entropies = np.array([entropy_of(s) for s in spectra(stack)])
    expect = {
        "dephased spectra": (_dephased_spectra(stack), dephased),
        "dephased entropies": (_dephased_entropies(stack), dephased_entropies),
        "entropic coherence": (_coherences(stack, MeasurePair.ENTROPY), dephased_entropies - entropies),
        "linear entropies": (_linear_entropies(stack), linear_entropies(stack)),
    }
    for name, (got, want) in expect.items():
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (
            f"{name} differ from the written-out rule at d = {stack.shape[-1]}")
