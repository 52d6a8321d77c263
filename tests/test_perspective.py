import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qrfkit import (
    assign_perspective,
    assign_perspective_channel,
    embed,
    permute_qubits,
    perspective_operator,
    qrf_transform,
    state_from_amplitudes,
    z2_operator,
)
from qrfkit.errors import (
    DimensionMismatchError,
    NumericError,
    ShapeError,
    TooFewQubitsError,
)
from qrfkit.perspective import _controlled_flip
from qrfkit.qstate import _UNIT_NORM_BAND, DensityMatrix, PureState, density_matrix, dephase, partial_trace, purify_diagonal

RT2 = 1.0 / math.sqrt(2.0)


def rand_state(n, rng):
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return state_from_amplitudes(v / np.linalg.norm(v))


def test_assignment_worked_example():
    """Three-qubit state with known two-qubit reduction for each observer."""
    s = state_from_amplitudes([0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.5])
    out = assign_perspective(s, 1)
    np.testing.assert_allclose(out.amplitudes, [RT2, 0.5, 0.0, 0.5], atol=1e-12)
    out = assign_perspective(s, 0)
    np.testing.assert_allclose(out.amplitudes, [RT2, 0.5, 0.5, 0.0], atol=1e-12)
    out = assign_perspective(s, 2)
    np.testing.assert_allclose(out.amplitudes, [RT2, 0.5, 0.0, 0.5], atol=1e-12)


def test_assignment_merges_flipped_pairs():
    # both members of a flip pair contribute to one output coefficient
    g = 0.6
    s = state_from_amplitudes([g, 0, 0, 0, 0, 0, 0, 0.8])
    out = assign_perspective(s, 0)
    np.testing.assert_allclose(out.amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_assignment_two_qubits():
    bell = state_from_amplitudes([RT2, 0.0, 0.0, RT2])
    out = assign_perspective(bell, 0)
    np.testing.assert_allclose(out.amplitudes, [1.0, 0.0], atol=1e-12)


def test_assignment_output_is_real_nonnegative():
    rng = np.random.default_rng(31)
    for i in range(200):
        n = int(rng.integers(2, 5))
        s = rand_state(n, rng)
        p = int(rng.integers(0, n))
        out = assign_perspective(s, p)
        assert out.n_qubits == n - 1
        assert np.max(np.abs(out.amplitudes.imag)) == 0.0
        assert np.min(out.amplitudes.real) >= 0.0
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def reference_assignment(amps, p, n):
    """Scalar flip-merge rule, one basis string at a time."""
    full = (1 << n) - 1
    shift = n - 1 - p
    out = np.zeros(1 << (n - 1), dtype=np.complex128)
    for b in range(1 << n):
        if (b >> shift) & 1 == 0:
            w = abs(amps[b]) ** 2 + abs(amps[b ^ full]) ** 2
            out[((b >> (shift + 1)) << shift) | (b & ((1 << shift) - 1))] = np.sqrt(w)
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > 1e-12:
        out /= norm
    return out


def test_assignment_matches_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(36)
    for n in range(2, 9):
        for trial in range(3):
            s = rand_state(n, rng)
            for p in range(n):
                expect = reference_assignment(s.amplitudes, p, n)
                assert np.array_equal(assign_perspective(s, p).amplitudes, expect), (n, p)


def test_assignment_rejects_small_registers():
    one = state_from_amplitudes([1.0, 0.0])
    with pytest.raises(TooFewQubitsError):
        assign_perspective(one, 0)
    s = state_from_amplitudes([RT2, 0.0, 0.0, RT2])
    with pytest.raises(ShapeError):
        assign_perspective(s, 2)
    with pytest.raises(ShapeError):
        assign_perspective(s, -1)


def test_perspective_operator_action():
    # columns with target bit 1 land on the fully complemented row
    n_op = perspective_operator(0, 3)
    basis = np.zeros(8)
    basis[7] = 1.0                      # |111>
    moved = n_op @ basis
    expect = np.zeros(8)
    expect[0] = 1.0                     # -> |000>
    np.testing.assert_allclose(moved, expect, atol=0)

    # explicit tensor assembly of the same operator
    x = np.array([[0, 1], [1, 0]])
    p0 = np.diag([1.0, 0.0])
    p01 = np.zeros((2, 2)); p01[0, 1] = 1.0
    direct = np.kron(p0, np.eye(4)) + np.kron(p01, np.kron(x, x))
    np.testing.assert_allclose(n_op, direct, atol=0)


def test_perspective_operator_middle_target():
    """Kron assembly |0><0|_p x I + |0><1|_p x X-rest for every target p."""
    x = np.array([[0, 1], [1, 0]])
    p0 = np.diag([1.0, 0.0])
    p01 = np.zeros((2, 2)); p01[0, 1] = 1.0
    for n in range(2, 6):
        for p in range(n):
            keep = [p0 if q == p else np.eye(2) for q in range(n)]
            flip = [p01 if q == p else x for q in range(n)]
            direct = reduce(np.kron, keep) + reduce(np.kron, flip)
            np.testing.assert_allclose(perspective_operator(p, n), direct, atol=0)


def test_channel_matches_direct_assignment_on_examples():
    s = state_from_amplitudes([0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.5])
    for p in range(3):
        a = assign_perspective(s, p)
        b = assign_perspective_channel(s, p)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-12


def test_channel_refuses_nan_amplitudes():
    # PureState's constructor does not validate, so a NaN reaches the channel's purification step.
    psi = PureState(n_qubits=2, amplitudes=np.array([math.nan, 0.0, 0.0, 1.0], dtype=complex))
    with pytest.raises(NumericError):
        assign_perspective_channel(psi, 0)


def test_direct_forms_refuse_nan_amplitudes():
    # As the channel does: the flip-merge and the frame change renormalise through the one rule, which refuses NaN.
    psi = PureState(n_qubits=2, amplitudes=np.array([math.nan, 0.0, 0.0, 1.0], dtype=complex))
    for p in range(2):
        with pytest.raises(NumericError):
            assign_perspective(psi, p)
    for op in (z2_operator(3, 0, 1), z2_operator(3, 2, 0)):
        with pytest.raises(NumericError):
            qrf_transform(op, psi)


def test_channel_matches_direct_assignment_randomized():
    rng = np.random.default_rng(32)
    for i in range(600):
        n = int(rng.integers(2, 9))
        s = rand_state(n, rng)
        for p in range(n):
            a = assign_perspective(s, p)
            b = assign_perspective_channel(s, p)
            assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-12


def dense_channel(s, p):
    """The channel with the perspective operator applied as two dense matmuls."""
    n = s.n_qubits
    rho = dephase(density_matrix(s))
    op = perspective_operator(p, n)
    shifted = DensityMatrix(dim=rho.dim, entries=op @ rho.entries @ op.conj().T)
    return purify_diagonal(partial_trace(shifted, [i for i in range(n) if i != p]))


def bit_test_states(n, rng):
    """Random, sparse, negative, GHZ, product and signed-zero states on n qubits, for the channel's bit tests."""
    d = 1 << n
    sparse = np.zeros(d, dtype=complex)
    sparse[rng.choice(d, size=max(1, d // 8), replace=False)] = rng.standard_normal(max(1, d // 8))
    negative = -np.abs(rng.standard_normal(d))
    ghz = np.zeros(d)
    ghz[[0, d - 1]] = RT2
    product = reduce(np.kron, [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(n)])
    # -0.0 parts guard the sign of zero and the order of the two terms in each sum
    signed_zeros = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    signed_zeros.real[rng.random(d) < 0.3] = -0.0
    signed_zeros.imag[rng.random(d) < 0.3] = -0.0
    signed_zeros[rng.random(d) < 0.2] = complex(-0.0, -0.0)
    states = [rand_state(n, rng) for _ in range(3)]
    return states + [state_from_amplitudes(v / np.linalg.norm(v)) for v in (sparse, negative, ghz, product, signed_zeros)]


def test_channel_scatter_matches_dense_operator_bit_for_bit():
    rng = np.random.default_rng(37)
    for n in range(2, 9):
        d = 1 << n
        states = bit_test_states(n, rng)
        for p in range(n):
            rows = _controlled_flip(n, p, d - 1)
            op = perspective_operator(p, n)
            assert np.array_equal(np.count_nonzero(op, axis=0), np.ones(d))
            assert np.array_equal(op[rows, np.arange(d)], np.ones(d))
            for s in states:
                got = assign_perspective_channel(s, p).amplitudes
                assert got.tobytes() == dense_channel(s, p).amplitudes.tobytes(), (n, p)


def where_flip(n, control, mask):
    """_controlled_flip's index map by an np.where over the control bit of every column."""
    cols = np.arange(1 << n)
    return np.where((cols >> (n - 1 - control)) & 1, cols ^ mask, cols)


def add_at_channel(s, p):
    """The channel's amplitudes by np.where's index map, np.add.at into zeros, a sum over axis p of the (2,) * n
    reshape, np.clip and np.linalg.norm: every step its own numpy call, none through _purified."""
    n, a = s.n_qubits, s.amplitudes
    shifted = np.zeros(a.size)
    np.add.at(shifted, where_flip(n, p, (1 << n) - 1), (a * a.conj()).real)
    vec = np.sqrt(np.clip(shifted.reshape((2,) * n).sum(axis=p).ravel(), 0.0, None))
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > _UNIT_NORM_BAND:
        vec /= norm
    return vec.astype(np.complex128)


def test_channel_matches_add_at_pipeline_bit_for_bit():
    rng = np.random.default_rng(37)
    for n in range(2, 11):
        states = bit_test_states(n, rng)
        # Off-unit norms make the renormalisation divide, so the norm's own bits reach the output.
        states += [PureState(n_qubits=n, amplitudes=k * s.amplitudes) for s in states[:2] for k in (3.7, 1e-3)]
        for p in range(n):
            for s in states:
                got = assign_perspective_channel(s, p).amplitudes
                assert got.tobytes() == add_at_channel(s, p).tobytes(), (n, p)
    for n in range(1, 13):
        full = (1 << n) - 1
        for control in range(n):
            for mask in (full, full ^ (1 << (n - 1 - control))):
                assert np.array_equal(_controlled_flip(n, control, mask), where_flip(n, control, mask)), (n, control)


def test_channel_memory_is_linear_in_the_amplitude_count():
    # The dense pipeline peaks at 704 MiB here; the diagonal path needs about 40 bytes per amplitude.
    n = 12
    s = rand_state(n, np.random.default_rng(38))
    tracemalloc.start()
    try:
        assign_perspective_channel(s, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 << n, peak


def test_ghz_like_assignment_collapses():
    s = state_from_amplitudes([RT2, 0, 0, 0, 0, 0, 0, RT2])
    out = assign_perspective(s, 0)
    np.testing.assert_allclose(out.amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
    out = assign_perspective_channel(s, 0)
    np.testing.assert_allclose(out.amplitudes, [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_embed_inserts_zero_slot():
    s = state_from_amplitudes([RT2, 0.5, 0.0, 0.5])
    up = embed(s, 1)
    assert up.n_qubits == 3
    np.testing.assert_allclose(up.amplitudes,
                               [RT2, 0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0],
                               atol=1e-12)
    back = assign_perspective(up, 1)
    np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-12)


def test_assignment_stable_under_reembedding():
    rng = np.random.default_rng(33)
    for i in range(100):
        n = int(rng.integers(2, 5))
        s = rand_state(n, rng)
        p = int(rng.integers(0, n))
        once = assign_perspective(s, p)
        again = assign_perspective(embed(once, p), p)
        assert np.max(np.abs(once.amplitudes - again.amplitudes)) <= 1e-12


def test_z2_operator_is_unitary_and_self_inverse():
    for n_parties in range(3, 8):
        for from_label in range(n_parties):
            for to_label in range(n_parties):
                if to_label == from_label:
                    continue
                op = z2_operator(n_parties, from_label, to_label)
                m = op.matrix
                d = m.shape[0]
                assert d == 2 ** (n_parties - 1)
                assert np.max(np.abs(m @ m.conj().T - np.eye(d))) == 0.0
                assert np.max(np.abs(m @ m - np.eye(d))) == 0.0
                # a permutation: one 1 per row and column, every other entry +0.0
                ones = m == 1.0
                assert np.array_equal(ones.sum(axis=0), np.ones(d))
                assert np.array_equal(ones.sum(axis=1), np.ones(d))
                assert not np.any(m[~ones])
                assert not np.any(np.signbit(m.real)) and not np.any(np.signbit(m.imag))


def test_z2_operator_branches():
    op = z2_operator(3, 0, 1)
    # control slot 0 clear: spectators untouched
    v = np.zeros(4); v[1] = 1.0         # |01>
    np.testing.assert_allclose(op.matrix @ v, v, atol=0)
    # control slot 0 set: remaining register is complemented
    v = np.zeros(4); v[2] = 1.0         # |10>
    w = np.zeros(4); w[3] = 1.0         # |11>
    np.testing.assert_allclose(op.matrix @ v, w, atol=0)


def test_z2_operator_four_party_example():
    # |1>_control tensor |01> flips the two spectator qubits
    op = z2_operator(4, 0, 1)
    v = np.zeros(8); v[0b101] = 1.0
    w = np.zeros(8); w[0b110] = 1.0
    np.testing.assert_allclose(op.matrix @ v, w, atol=0)


def test_qrf_transform_applies_matrix():
    op = z2_operator(3, 0, 1)
    s = state_from_amplitudes([0.0, 0.0, 1.0, 0.0])
    out = qrf_transform(op, s)
    np.testing.assert_allclose(out.amplitudes, [0.0, 0.0, 0.0, 1.0], atol=0)
    # involution: applying the same operator twice restores the input
    rng = np.random.default_rng(34)
    s = rand_state(2, rng)
    twice = qrf_transform(op, qrf_transform(op, s))
    assert np.max(np.abs(twice.amplitudes - s.amplitudes)) <= 1e-12


def test_qrf_transform_dimension_check():
    op = z2_operator(4, 0, 1)
    s = state_from_amplitudes([RT2, 0.0, 0.0, RT2])
    with pytest.raises(DimensionMismatchError):
        qrf_transform(op, s)


def test_z2_operator_validation():
    with pytest.raises(TooFewQubitsError):
        z2_operator(1, 0, 1)
    with pytest.raises(ShapeError):
        z2_operator(3, 0, 0)
    with pytest.raises(ShapeError):
        z2_operator(3, 0, 3)


INDEXED_CALLS = {
    "assign_perspective": lambda p: assign_perspective(state_from_amplitudes([1, 0, 0, 0, 0, 0, 0, 0]), p),
    "assign_perspective_channel": lambda p: assign_perspective_channel(state_from_amplitudes([1, 0, 0, 0, 0, 0, 0, 0]), p),
    "perspective_operator": lambda p: perspective_operator(p, 3),
    "embed": lambda p: embed(state_from_amplitudes([1, 0, 0, 0]), p),
    "z2_operator": lambda p: z2_operator(3, p, 0),
}


@pytest.mark.parametrize("name", list(INDEXED_CALLS))
def test_non_integer_index_is_a_shape_error(name):
    call = INDEXED_CALLS[name]
    for bad in (0.5, 1.0, "1", None):
        with pytest.raises(ShapeError):
            call(bad)
    # numpy integers and Python bools are integers.
    for good in (np.int64(1), np.uint8(1), True):
        call(good)


def test_non_integer_register_size_is_a_shape_error():
    for bad in (2.0, 3.0, 2.5, "3", None):
        with pytest.raises(ShapeError):
            perspective_operator(0, bad)
        with pytest.raises(ShapeError):
            z2_operator(bad, 0, 1)
    # numpy integers and Python integers give the same operators.
    assert np.array_equal(perspective_operator(0, np.int64(2)), perspective_operator(0, 2))
    assert np.array_equal(z2_operator(np.uint8(3), 0, 1).matrix, z2_operator(3, 0, 1).matrix)


def test_frame_change_report():
    """Frame changes agree with direct assignment to within 1e-12.

    The operator is applied to one observer's assigned state and compared to
    the state assigned directly to the other observer, after relabeling the
    shared parties.  A wrong control slot in z2_operator shows up here as an
    O(1) deviation.
    """
    rng = np.random.default_rng(35)
    worst = 0.0
    for n_parties in (3, 4):
        for i in range(50):
            s = rand_state(n_parties, rng)
            for from_label in range(n_parties):
                for to_label in range(n_parties):
                    if to_label == from_label:
                        continue
                    src = assign_perspective(s, from_label)
                    dst = assign_perspective(s, to_label)
                    op = z2_operator(n_parties, from_label, to_label)
                    moved = qrf_transform(op, src)
                    others_f = [p for p in range(n_parties) if p != from_label]
                    others_t = [p for p in range(n_parties) if p != to_label]
                    relabeled = [from_label if p == to_label else p for p in others_f]
                    order = [relabeled.index(p) for p in others_t]
                    lined_up = permute_qubits(moved, order)
                    dev = float(np.max(np.abs(lined_up.amplitudes - dst.amplitudes)))
                    worst = max(worst, dev)
    print(f"frame-change vs direct assignment, max deviation: {worst:.3e}")
    assert worst <= 1e-12


# Even 1 << n cannot be shaped at n >= 63, so a call that skipped the check would fail fast, allocating nothing.
@pytest.mark.parametrize("n", [63, 64, 200])
def test_registers_numpy_cannot_shape_raise_shape_error(n):
    with pytest.raises(ShapeError, match="qubit count"):
        perspective_operator(0, n)
    with pytest.raises(ShapeError, match="qubit count"):
        z2_operator(n + 1, 0, 1)
    with pytest.raises(ShapeError, match="qubit count"):
        embed(PureState(n - 1, np.zeros(2, dtype=np.complex128)), 0)
