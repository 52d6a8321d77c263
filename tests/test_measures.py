import math

import numpy as np
import pytest

from qrfkit import (
    DensityMatrix,
    MeasurePair,
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
from qrfkit.errors import InvalidBipartitionError, NumericError, UnknownQuantityError

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


def test_entropy_bounded_by_kept_qubits():
    rng = np.random.default_rng(25)
    for i in range(50):
        s = rand_state(4, rng)
        red = partial_trace(density_matrix(s), [0, 2])
        v = von_neumann_entropy(red)
        assert -1e-12 <= v <= 2.0 + 1e-12
