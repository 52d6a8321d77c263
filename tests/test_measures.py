import math

import numpy as np
import pytest

from qrfkit import (
    ConstraintId,
    DensityMatrix,
    MeasurePair,
    ObserverLabel,
    Quantity,
    XylTriple,
    check_corollary,
    check_transference,
    closed_form_coherence,
    closed_form_entanglement,
    condition_check,
    global_state,
    perspectival_state,
    reconstruct_from_xyl,
    sweep,
    sweep_to_csv,
    xyl_closed_form,
    binary_entropy,
    coherence,
    dephase,
    density_matrix,
    entanglement,
    linear_entropy,
    mutual_information,
    partial_trace,
    state_from_amplitudes,
    von_neumann_entropy,
)
from qrfkit.errors import InvalidBipartitionError, NumericError, ShapeError, UnknownQuantityError
from qrfkit.measures import _entropies
from qrfkit.rindler import sweep_to_dicts
from qrfkit.transference import perspectival_side
from qrfkit.qstate import clamped_eigenvalues

RT2 = 1.0 / math.sqrt(2.0)

# binary entropy of 1/4, frozen from an independent evaluation of
# -(p log2 p + (1-p) log2 (1-p))
H2_QUARTER = 0.8112781244591328
# (3/2) * (2 - log2(3))
MI_PLATEAU = 0.6225562489182659


def rand_state(n, rng):
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return state_from_amplitudes(v / np.linalg.norm(v))


def diag_density(probs):
    return DensityMatrix(len(probs), np.diag(np.asarray(probs, dtype=complex)))


def test_measure_pair_parse():
    assert MeasurePair.parse("entropy") is MeasurePair.ENTROPY
    assert MeasurePair.parse("linear") is MeasurePair.LINEAR
    with pytest.raises(UnknownQuantityError):
        MeasurePair.parse("renyi")


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.5) - 1.0) <= 1e-15
    assert abs(binary_entropy(0.25) - H2_QUARTER) <= 1e-15


def test_binary_entropy_nan_is_a_numeric_error():
    with pytest.raises(NumericError):
        binary_entropy(math.nan)
    with pytest.raises(NumericError):
        reconstruct_from_xyl(XylTriple(math.nan, 0.5, 0.5), MeasurePair.ENTROPY)
    # The clamping rule is unchanged, infinities included.
    assert binary_entropy(-math.inf) == binary_entropy(math.inf) == binary_entropy(-0.5) == binary_entropy(1.5) == 0.0


def test_von_neumann_entropy_examples():
    pure = density_matrix(state_from_amplitudes([RT2, 0.0, 0.0, RT2]))
    assert abs(von_neumann_entropy(pure)) <= 1e-12
    assert abs(von_neumann_entropy(diag_density([0.5, 0.5])) - 1.0) <= 1e-12
    got = von_neumann_entropy(diag_density([0.25, 0.75]))
    assert abs(got - H2_QUARTER) <= 1e-12


def test_entropy_handles_spectrum_noise():
    # tiny negative eigenvalue noise must clamp to zero, not produce NaN
    m = np.diag([1.0, -1e-13]).astype(complex)
    assert von_neumann_entropy(DensityMatrix(2, m)) == 0.0


def test_entropy_rejects_non_finite_matrices():
    # an all-NaN matrix once gave S = -0.0 and entropic coherence 0.0; a NaN
    # diagonal entry still gets a finite spectrum [0, -0] from LAPACK
    bad = [
        np.full((2, 2), np.nan, dtype=complex),
        np.full((2, 2), np.inf, dtype=complex),
        np.diag([np.nan, 1.0]).astype(complex),
        np.array([[0.5, 1j * np.nan], [0.0, 0.5]]),
    ]
    for m in bad:
        rho = DensityMatrix(2, m)
        with pytest.raises(NumericError):
            von_neumann_entropy(rho)
        with pytest.raises(NumericError):
            coherence(rho, MeasurePair.ENTROPY)


@pytest.mark.parametrize("pair", list(MeasurePair))
def test_measures_reject_non_finite_matrices_under_both_pairs(pair):
    # the linear pair once returned nan for these; the entropic pair raised
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.inf)):
        for entries in (np.full((2, 2), bad, dtype=complex), np.array([[0.5, bad], [0.0, 0.5]], dtype=complex)):
            rho = DensityMatrix(2, entries)
            with pytest.raises(NumericError):
                coherence(rho, pair)
            entropy = von_neumann_entropy if pair is MeasurePair.ENTROPY else linear_entropy
            with pytest.raises(NumericError):
                entropy(rho)


def test_linear_entropy_examples():
    pure = density_matrix(state_from_amplitudes([RT2, 0.0, 0.0, RT2]))
    assert abs(linear_entropy(pure)) <= 1e-12
    assert abs(linear_entropy(diag_density([0.5, 0.5])) - 0.5) <= 1e-12


def test_entanglement_bell():
    bell = state_from_amplitudes([RT2, 0.0, 0.0, RT2])
    assert abs(entanglement(bell, [0], MeasurePair.ENTROPY) - 1.0) <= 1e-12
    assert abs(entanglement(bell, [0], MeasurePair.LINEAR) - 0.5) <= 1e-12


def test_entanglement_product_state_vanishes():
    s = state_from_amplitudes(np.kron([RT2, RT2], [1.0, 0.0]))
    for pair in MeasurePair:
        assert abs(entanglement(s, [0], pair)) <= 1e-12


def test_entanglement_side_symmetry():
    # pure-state entanglement is the same from either side of the cut
    rng = np.random.default_rng(21)
    for i in range(100):
        n = int(rng.integers(2, 5))
        s = rand_state(n, rng)
        k = int(rng.integers(1, n))
        left = sorted(rng.choice(n, size=k, replace=False).tolist())
        right = [q for q in range(n) if q not in left]
        for pair in MeasurePair:
            a = entanglement(s, left, pair)
            b = entanglement(s, right, pair)
            assert abs(a - b) <= 1e-10
            assert a >= -1e-12


def test_entanglement_bad_partition():
    bell = state_from_amplitudes([RT2, 0.0, 0.0, RT2])
    with pytest.raises(InvalidBipartitionError):
        entanglement(bell, [])
    with pytest.raises(InvalidBipartitionError):
        entanglement(bell, [0, 1])
    with pytest.raises(InvalidBipartitionError):
        entanglement(bell, [2])


def test_coherence_plus_state():
    plus = density_matrix(state_from_amplitudes([RT2, RT2]))
    assert abs(coherence(plus, MeasurePair.ENTROPY) - 1.0) <= 1e-12
    assert abs(coherence(plus, MeasurePair.LINEAR) - 0.5) <= 1e-12


def test_coherence_vanishes_on_diagonal():
    for pair in MeasurePair:
        assert abs(coherence(diag_density([0.3, 0.2, 0.5, 0.0]), pair)) <= 1e-12


def test_coherence_nonnegative_and_detects_offdiagonals():
    rng = np.random.default_rng(22)
    for i in range(100):
        s = rand_state(2, rng)
        rho = partial_trace(density_matrix(s), [0])
        for pair in MeasurePair:
            c = coherence(rho, pair)
            assert c >= -1e-10
            off = abs(rho.entries[0, 1])
            if off > 1e-6:
                assert c > 0.0
        assert abs(coherence(dephase(rho), MeasurePair.LINEAR)) <= 1e-15


def test_mutual_information_product():
    s = state_from_amplitudes(np.kron([RT2, RT2], [0.6, 0.8]))
    rho = density_matrix(s)
    assert abs(mutual_information(rho, [0], [1])) <= 1e-10


def test_mutual_information_bell():
    bell = density_matrix(state_from_amplitudes([RT2, 0.0, 0.0, RT2]))
    assert abs(mutual_information(bell, [0], [1]) - 2.0) <= 1e-12


def test_mutual_information_is_twice_entanglement_for_pure():
    rng = np.random.default_rng(23)
    for i in range(50):
        s = rand_state(3, rng)
        rho = density_matrix(s)
        mi = mutual_information(rho, [0], [1, 2])
        e = entanglement(s, [0], MeasurePair.ENTROPY)
        assert abs(mi - 2.0 * e) <= 1e-10


def test_mutual_information_reduces_joint_first():
    # left+right need not exhaust the register
    rng = np.random.default_rng(24)
    s = rand_state(3, rng)
    rho = density_matrix(s)
    direct = mutual_information(rho, [0], [2])
    via_joint = mutual_information(partial_trace(rho, [0, 2]), [0], [1])
    assert abs(direct - via_joint) <= 1e-10


def test_mutual_information_plateau_value():
    # two-qubit reduction of (1/2, 0, 0, 1/2 | 0, 0, 1/sqrt2, 0) over the
    # trailing pair: rank-2 mixture of (|00>+|11>)/sqrt2 and |10>
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[0, 3] = m[3, 0] = m[3, 3] = 0.25
    m[2, 2] = 0.5
    rho = DensityMatrix(4, m)
    assert abs(mutual_information(rho, [0], [1]) - MI_PLATEAU) <= 1e-12


def test_mutual_information_overlap_rejected():
    bell = density_matrix(state_from_amplitudes([RT2, 0.0, 0.0, RT2]))
    with pytest.raises(InvalidBipartitionError):
        mutual_information(bell, [0], [0, 1])


def test_qubit_blocks_must_hold_integers():
    # A float index is refused rather than read as some other qubit.
    bell = state_from_amplitudes([RT2, 0.0, 0.0, RT2])
    rho = density_matrix(bell)
    for bad in ([0.5], [1.0], ["0"]):
        with pytest.raises(ShapeError, match="is not an integer"):
            entanglement(bell, bad)
        with pytest.raises(ShapeError, match="is not an integer"):
            mutual_information(rho, bad, [0])
        with pytest.raises(ShapeError, match="is not an integer"):
            mutual_information(rho, [0], bad)
    assert entanglement(bell, [np.int64(0)]) == entanglement(bell, [0])
    assert mutual_information(rho, [np.int64(0)], [np.int32(1)]) == mutual_information(rho, [0], [1])


def test_entropy_bounded_by_kept_qubits():
    rng = np.random.default_rng(25)
    for i in range(50):
        s = rand_state(4, rng)
        red = partial_trace(density_matrix(s), [0, 2])
        v = von_neumann_entropy(red)
        assert -1e-12 <= v <= 2.0 + 1e-12


def low_rank_density(n, rank, rng):
    """A random density matrix of the given rank: an equal mixture of random pure states."""
    d = 2 ** n
    m = sum(density_matrix(rand_state(n, rng)).entries for _ in range(rank)) / rank
    return DensityMatrix(d, m)


def test_entropy_sums_positive_eigenvalues_bit_for_bit():
    # Rank-deficient spectra put zeros before the positive eigenvalues; a row sum
    # padded with those zeros can differ in the last bit from a sum over the
    # positive eigenvalues alone, which is what von_neumann_entropy defines.
    rng = np.random.default_rng(41)
    for n in range(1, 9):
        stack = []
        for rank in (1, 2, 3, 5, 2 ** n):
            rho = low_rank_density(n, min(rank, 2 ** n), rng)
            vals = clamped_eigenvalues(rho)
            pos = vals[vals > 0.0]
            assert von_neumann_entropy(rho) == float(-np.sum(pos * np.log2(pos))), (n, rank)
            stack.append(rho)
        singles = [von_neumann_entropy(rho) for rho in stack]
        assert _entropies(np.stack([rho.entries for rho in stack])).tolist() == singles, n


# Every entry point that branches on or writes a measure pair, given a stand-in argument
# in place of a MeasurePair member (or, for closed_form_entanglement's quantity,
# in place of a Quantity member, and for the observer entries, in place of an
# ObserverLabel member).
MEMBER_ARGUMENTS = {
    "entanglement": lambda bad: entanglement(global_state(0.3), [0], bad),
    "coherence": lambda bad: coherence(partial_trace(density_matrix(global_state(0.3)), [1]), bad),
    "check_transference": lambda bad: check_transference(global_state(0.3), bad),
    "check_corollary": lambda bad: check_corollary(global_state(0.3), bad),
    "perspectival_side": lambda bad: perspectival_side(global_state(0.3), 0, 1, bad),
    "xyl_closed_form": lambda bad: xyl_closed_form(global_state(0.3), ConstraintId.C1, bad),
    "reconstruct_from_xyl": lambda bad: reconstruct_from_xyl(XylTriple(x=0.5, y=0.5, l=0.5), bad),
    "condition_check": lambda bad: condition_check(global_state(0.3), ConstraintId.C1, bad),
    "closed_form_entanglement": lambda bad: closed_form_entanglement(0.3, Quantity.E_PERSP_R, bad),
    "closed_form_entanglement quantity": lambda bad: closed_form_entanglement(0.3, bad, MeasurePair.ENTROPY),
    "closed_form_coherence": lambda bad: closed_form_coherence(0.3, ObserverLabel.ALICE, ObserverLabel.ROB, bad),
    "closed_form_coherence observer": lambda bad: closed_form_coherence(0.3, bad, ObserverLabel.ROB, MeasurePair.ENTROPY),
    "perspectival_state observer": lambda bad: perspectival_state(0.3, bad),
    "sweep": lambda bad: sweep([0.0, 0.3], bad),
    "sweep_to_csv": lambda bad: sweep_to_csv(sweep([0.0, 0.3], MeasurePair.ENTROPY), bad),
    "sweep_to_dicts": lambda bad: sweep_to_dicts(sweep([0.0, 0.3], MeasurePair.ENTROPY), bad),
}


@pytest.mark.parametrize("bad", ["entropy", None, 1])
@pytest.mark.parametrize("entry", sorted(MEMBER_ARGUMENTS))
def test_non_member_arguments_are_refused(entry, bad):
    # A string, None or an integer must not fall through to the linear formulas
    # or to another observer's state.
    with pytest.raises(UnknownQuantityError):
        MEMBER_ARGUMENTS[entry](bad)
