import math
import tracemalloc
import warnings
from dataclasses import astuple
from functools import reduce

import numpy as np
import pytest

from qrfkit import (
    ConstraintId,
    MeasurePair,
    QrfOperator,
    assign_perspective,
    assign_perspective_channel,
    check_corollary,
    check_transference,
    coherence,
    condition_check,
    embed,
    entanglement,
    global_state,
    linear_entropy,
    permute_qubits,
    perspective_operator,
    qrf_transform,
    state_from_amplitudes,
    transference_sides,
    xyl_closed_form,
    z2_operator,
)
from qrfkit.errors import (
    DimensionMismatchError,
    NormToleranceError,
    NumericError,
    ShapeError,
    TooFewQubitsError,
)
from qrfkit.perspective import _controlled_flip
from qrfkit.qstate import DensityMatrix, PureState, clamped_eigenvalues, density_matrix
from qrfkit.transference import oracle_coherence
from reference import BELL, RT2, WORKED, WORKED_FROM_1, add_at_channel, channel_deviation, check_channel_bytes
from reference import dense_channel, flip_merge, unit_state, where_flip


def test_assignment_worked_example():
    """Three-qubit state with known two-qubit reduction for each observer."""
    s = state_from_amplitudes(WORKED)
    out = assign_perspective(s, 1)
    np.testing.assert_allclose(out.amplitudes, WORKED_FROM_1, atol=1e-12)
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
    bell = state_from_amplitudes(BELL)
    out = assign_perspective(bell, 0)
    np.testing.assert_allclose(out.amplitudes, [1.0, 0.0], atol=1e-12)


def test_assignment_output_is_real_nonnegative():
    rng = np.random.default_rng(31)
    for i in range(200):
        n = int(rng.integers(2, 5))
        s = unit_state(n, rng)
        p = int(rng.integers(0, n))
        out = assign_perspective(s, p)
        assert out.n_qubits == n - 1
        assert np.max(np.abs(out.amplitudes.imag)) == 0.0
        assert np.min(out.amplitudes.real) >= 0.0
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


def test_assignment_matches_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(36)
    for n in range(2, 9):
        for trial in range(3):
            s = unit_state(n, rng)
            for p in range(n):
                expect = flip_merge(s.amplitudes, p, n)
                assert np.array_equal(assign_perspective(s, p).amplitudes, expect), (n, p)


def test_assignment_rejects_small_registers():
    one = state_from_amplitudes([1.0, 0.0])
    with pytest.raises(TooFewQubitsError):
        assign_perspective(one, 0)
    s = state_from_amplitudes(BELL)
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
    s = state_from_amplitudes(WORKED)
    for p in range(3):
        assert channel_deviation(s, p) <= 1e-12


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
        s = unit_state(n, rng)
        for p in range(n):
            assert channel_deviation(s, p) <= 1e-12


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
    states = [unit_state(n, rng) for _ in range(3)]
    return states + [state_from_amplitudes(v / np.linalg.norm(v)) for v in (sparse, negative, ghz, product, signed_zeros)]


def test_channel_scatter_matches_dense_operator_bit_for_bit():
    rng = np.random.default_rng(37)
    for n in range(2, 9):
        d = 1 << n
        for p in range(n):
            rows = _controlled_flip(n, p, d - 1)
            op = perspective_operator(p, n)
            assert np.array_equal(np.count_nonzero(op, axis=0), np.ones(d))
            assert np.array_equal(op[rows, np.arange(d)], np.ones(d))
        check_channel_bytes(dense_channel, bit_test_states(n, rng))


def test_channel_matches_add_at_pipeline_bit_for_bit():
    rng = np.random.default_rng(37)
    for n in range(2, 11):
        states = bit_test_states(n, rng)
        # Off-unit norms make the renormalisation divide, so the norm's own bits reach the output.
        states += [PureState(n_qubits=n, amplitudes=k * s.amplitudes) for s in states[:2] for k in (3.7, 1e-3)]
        check_channel_bytes(add_at_channel, states)
    for n in range(1, 13):
        full = (1 << n) - 1
        for control in range(n):
            for mask in (full, full ^ (1 << (n - 1 - control))):
                assert np.array_equal(_controlled_flip(n, control, mask), where_flip(n, control, mask)), (n, control)


def test_channel_memory_is_linear_in_the_amplitude_count():
    # The dense pipeline peaks at 704 MiB at 12 qubits; the diagonal path peaks at about 32 bytes per amplitude, the
    # complex product a * conj(a) and its conjugate operand, with no index map.
    for n in (12, 16):
        s = unit_state(n, np.random.default_rng(38))
        tracemalloc.start()
        try:
            assign_perspective_channel(s, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 36 << n, (n, peak)



def test_channel_halves_apply_the_operator_map_with_bit_p_dropped():
    # The operator's map with bit p dropped is the map the channel's two strided halves of the diagonal apply.
    for n in range(2, 13):
        for p in range(n):
            rows = _controlled_flip(n, p, (1 << n) - 1)
            low = n - 1 - p  # bits below p
            assert not (rows >> low & 1).any(), (n, p)  # every row of the operator has p-bit 0
            dropped = (rows >> (low + 1) << low) | (rows & ((1 << low) - 1))
            halves = np.arange(1 << n).reshape(1 << p, 2, -1)
            halves_map = np.empty(1 << n, dtype=np.int64)
            for half in (halves[:, 0], halves[::-1, 1, ::-1]):
                halves_map[half.ravel()] = np.arange(1 << (n - 1))
            assert np.array_equal(halves_map, dropped), (n, p)


def test_channel_at_15_qubits_holds_nothing_between_calls():
    # The channel agrees with the direct rule and holds less than a byte per amplitude once it returns.
    n = 15
    s = unit_state(n, np.random.default_rng(40))
    for p in (0, n - 1):
        assert channel_deviation(s, p) <= 1e-12
        tracemalloc.start()
        try:
            assign_perspective_channel(s, p)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1 << n, (p, held)

# Real or imaginary parts that overflow a square (1e200), a fourth power (1e80), underflow a square (1e-200), are not
# finite, or are a signed zero.
EXTREME_PARTS = [1e200, -1e200, 1e80, 1e-200, math.nan, math.inf, -math.inf, -0.0]


# The public functions of a hand-built 3-qubit state, each giving its numbers as an array; NORM_CALLS take its norm,
# and MEASURE_CALLS refuse it unless its norm is within NORM_TOL of 1.
NORM_CALLS = [lambda psi, p=p, assign=assign: assign(psi, p).amplitudes
              for p in range(3) for assign in (assign_perspective, assign_perspective_channel)]
NORM_CALLS += [lambda psi, op=op: qrf_transform(op, psi).amplitudes for op in (z2_operator(4, 0, 1), z2_operator(4, 3, 0))]
MEASURE_CALLS = [lambda psi: density_matrix(psi).entries]
MEASURE_CALLS += [lambda psi, m=m, f=f: np.array(f(psi, m), dtype=float) for m in MeasurePair for f in (
    lambda psi, m: entanglement(psi, [0], m), lambda psi, m: entanglement(psi, [1, 2], m),
    lambda psi, m: oracle_coherence(psi, 1, m), lambda psi, m: condition_check(psi, ConstraintId.C2, m),
    lambda psi, m: astuple(xyl_closed_form(psi, ConstraintId.C1, m)),
    lambda psi, m: transference_sides(psi, ConstraintId.C3, m),
    lambda psi, m: [[r.lhs, r.rhs, r.residual] for r in check_transference(psi, m)],
    lambda psi, m: [[r.lhs, r.rhs, r.residual] for r in check_corollary(psi, m)])]
MATRIX_CALLS = [linear_entropy, lambda rho: coherence(rho, MeasurePair.LINEAR), clamped_eigenvalues]  # of a 2-qubit rho


@pytest.mark.parametrize("part", EXTREME_PARTS, ids=repr)
def test_entry_points_raise_no_runtime_warning(part):
    # Each call gives finite numbers or a typed error, never a numpy RuntimeWarning.  The measure calls refuse every
    # state off unit, 2 * global_state(0.4) too, and give finite numbers on the unit rescaling of a finite one.
    base = unit_state(3, np.random.default_rng(41)).amplitudes
    small = math.isfinite(part) and abs(part) < 1.0
    scaled = PureState(n_qubits=3, amplitudes=2 * global_state(0.4).amplitudes)
    for index in (0, 5):
        for imaginary in (False, True):
            amps = base.copy()
            entries = density_matrix(unit_state(2, np.random.default_rng(42))).entries.copy()
            for a, at in ((amps, index), (entries, (index % 4, 3 - index % 4))):
                (a.imag if imaginary else a.real)[at] = part
            psi, rho = PureState(n_qubits=3, amplitudes=amps), DensityMatrix(dim=4, entries=entries)
            unit = state_from_amplitudes(amps / np.abs(amps).max(), tol=math.inf) if math.isfinite(part) else None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for call in MEASURE_CALLS:
                    for off_unit in (psi, scaled):
                        with pytest.raises(NormToleranceError):
                            call(off_unit)
                    assert unit is None or np.isfinite(call(unit)).all()
                for calls, arg, error, match in ((NORM_CALLS, psi, NormToleranceError, "not a finite number"),
                                                 (MATRIX_CALLS, rho, NumericError, None)):
                    for call in calls:
                        if small:
                            assert np.isfinite(call(arg)).all()
                        elif not math.isfinite(part) or (arg is psi and abs(part) > 1e154):
                            with pytest.raises(error, match=match):
                                call(arg)
                        else:  # finite numbers, or a refusal where a square or a fourth power overflows
                            try:
                                assert np.isfinite(call(arg)).all()
                            except NumericError:
                                pass


@pytest.mark.parametrize("part", [math.nan, math.inf, 1e200])
def test_non_finite_norm_has_its_own_message(part):
    amps = np.array([part, 0.0, 0.0, 1.0], dtype=complex)
    name = "nan" if math.isnan(part) else "inf"
    for call in (lambda: assign_perspective(PureState(n_qubits=2, amplitudes=amps.copy()), 0),
                 lambda: assign_perspective_channel(PureState(n_qubits=2, amplitudes=amps.copy()), 1),
                 lambda: state_from_amplitudes(amps),
                 lambda: state_from_amplitudes(amps, tol=math.inf)):
        with pytest.raises(NormToleranceError) as info:
            call()
        assert str(info.value) == f"state norm is {name}, not a finite number, so the vector cannot be normalized"


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
        s = unit_state(n, rng)
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
    s = unit_state(2, rng)
    twice = qrf_transform(op, qrf_transform(op, s))
    assert np.max(np.abs(twice.amplitudes - s.amplitudes)) <= 1e-12


def test_qrf_transform_dimension_check():
    op = z2_operator(4, 0, 1)
    s = state_from_amplitudes(BELL)
    with pytest.raises(DimensionMismatchError):
        qrf_transform(op, s)
    # The operator type holds the state types' size rule: an 8 x 8 matrix is not a 2-qubit operator.
    with pytest.raises(ShapeError, match="qubit count"):
        QrfOperator(n_qubits=2, from_label=0, to_label=1, matrix=np.eye(8))


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
            s = unit_state(n_parties, rng)
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
    # The state type refuses 2 amplitudes for n - 1 qubits, so embed never meets such a register.
    with pytest.raises(ShapeError, match="qubit count"):
        PureState(n - 1, np.zeros(2, dtype=np.complex128))
