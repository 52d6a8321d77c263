import json
import math

import numpy as np
import pytest

from qrfkit import (
    DensityMatrix,
    PureState,
    ShapeError,
    dephase,
    density_matrix,
    partial_trace,
    permute_qubits,
    purify_diagonal,
    state_from_amplitudes,
    state_from_json,
    state_to_json,
)
from qrfkit.errors import (
    EmptyKeepSetError,
    NormToleranceError,
    NotDiagonalError,
    NotPowerOfTwoError,
    NumericError,
)
from qrfkit.qstate import _ROW_NORM_SCREEN, _UNIT_NORM_BAND, _renormalised, _renormalised_rows, clamped_eigenvalues

RT2 = 1.0 / math.sqrt(2.0)


def rand_state_vec(n, rng):
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    return v / np.linalg.norm(v)


def test_state_from_amplitudes_basic():
    s = state_from_amplitudes([1.0, 0.0])
    assert s.n_qubits == 1
    assert s.dim == 2
    np.testing.assert_allclose(s.amplitudes, [1.0, 0.0])


def test_state_amplitudes_are_readonly():
    s = state_from_amplitudes([1.0, 0.0])
    with pytest.raises((ValueError, RuntimeError)):
        s.amplitudes[0] = 0.5


def test_non_power_of_two_rejected():
    for bad in ([1.0], [0.5, 0.5, 0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0]):
        with pytest.raises(NotPowerOfTwoError):
            state_from_amplitudes(bad)


def test_norm_tolerance_enforced():
    # |v|^2 = 1.00016..., off by ~8e-5 in norm, fails at tol 1e-6
    with pytest.raises(NormToleranceError):
        state_from_amplitudes([0.6, 0.8001], tol=1e-6)
    s = state_from_amplitudes([0.6, 0.8001], tol=1e-3)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-12


def test_non_finite_amplitudes_rejected():
    # a NaN norm compares False against any tolerance, so it must not pass
    for bad in ([math.nan, 1.0], [complex(0.0, math.nan), 1.0],
                [math.nan] * 8, [math.inf, 0.0]):
        with pytest.raises(NormToleranceError):
            state_from_amplitudes(bad)
    with pytest.raises(NormToleranceError):
        state_from_amplitudes([math.nan, 1.0], tol=1e6)


def test_near_unit_norm_is_not_rescaled():
    # norm deviations below the rescale guard must leave bytes untouched
    amps = np.array([RT2, 0.5, 0.0, 0.5])
    s = state_from_amplitudes(amps)
    assert np.all(s.amplitudes == amps.astype(complex))


def test_density_matrix_worked_example():
    s = state_from_amplitudes([0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.5])
    rho = density_matrix(s)
    assert rho.dim == 8
    assert rho.n_qubits == 3
    np.testing.assert_allclose(np.diag(rho.entries),
                               [0.25, 0.25, 0.25, 0, 0, 0, 0, 0.25],
                               atol=1e-15)
    np.testing.assert_allclose(rho.entries[0, 7], 0.25, atol=1e-15)


def test_density_matrix_properties():
    rng = np.random.default_rng(11)
    for i in range(50):
        n = int(rng.integers(1, 4))
        s = state_from_amplitudes(rand_state_vec(n, rng))
        rho = density_matrix(s)
        m = rho.entries
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
        assert abs(np.trace(m).real - 1.0) <= 1e-12
        ev = np.sort(clamped_eigenvalues(rho))
        assert abs(ev[-1] - 1.0) <= 1e-10   # rank one
        assert np.all(ev[:-1] <= 1e-10)


def test_partial_trace_bell():
    bell = state_from_amplitudes([RT2, 0.0, 0.0, RT2])
    red = partial_trace(density_matrix(bell), [0])
    np.testing.assert_allclose(red.entries, 0.5 * np.eye(2), atol=1e-12)
    red = partial_trace(density_matrix(bell), [1])
    np.testing.assert_allclose(red.entries, 0.5 * np.eye(2), atol=1e-12)


def test_partial_trace_product_state():
    plus = np.array([RT2, RT2])
    s = state_from_amplitudes(np.kron([1.0, 0.0], plus))
    red = partial_trace(density_matrix(s), [1])
    np.testing.assert_allclose(red.entries, np.outer(plus, plus), atol=1e-12)


def test_partial_trace_keep_is_canonicalized():
    # kept qubits come back in register order regardless of how keep is listed
    rng = np.random.default_rng(12)
    s = state_from_amplitudes(rand_state_vec(3, rng))
    rho = density_matrix(s)
    a = partial_trace(rho, [0, 2]).entries
    b = partial_trace(rho, [2, 0]).entries
    c = partial_trace(rho, [2, 0, 2]).entries
    np.testing.assert_allclose(a, b, atol=0)
    np.testing.assert_allclose(a, c, atol=0)


def test_partial_trace_disjoint_order_independence():
    rng = np.random.default_rng(13)
    for i in range(50):
        s = state_from_amplitudes(rand_state_vec(4, rng))
        rho = density_matrix(s)
        one_shot = partial_trace(rho, [0, 3]).entries
        staged = partial_trace(partial_trace(rho, [0, 1, 3]), [0, 2]).entries
        assert np.max(np.abs(one_shot - staged)) <= 1e-12


def test_partial_trace_bad_keep_rejected():
    s = state_from_amplitudes([1.0, 0.0])
    with pytest.raises(EmptyKeepSetError):
        partial_trace(density_matrix(s), [])
    with pytest.raises(ShapeError):
        partial_trace(density_matrix(s), [1])
    with pytest.raises(ShapeError):
        partial_trace(density_matrix(s), [-1, 0])


def test_dephase():
    plus = state_from_amplitudes([RT2, RT2])
    rho = density_matrix(plus)
    d = dephase(rho)
    np.testing.assert_allclose(d.entries, 0.5 * np.eye(2), atol=1e-12)
    # idempotent and trace preserving
    np.testing.assert_allclose(dephase(d).entries, d.entries, atol=1e-15)
    assert abs(np.trace(d.entries).real - 1.0) <= 1e-12


def test_dephase_keeps_diagonal():
    rng = np.random.default_rng(14)
    for i in range(20):
        s = state_from_amplitudes(rand_state_vec(3, rng))
        rho = density_matrix(s)
        np.testing.assert_allclose(np.diag(dephase(rho).entries),
                                   np.diag(rho.entries), atol=1e-15)


def test_purify_diagonal_examples():
    d = DensityMatrix(2, np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_allclose(purify_diagonal(d).amplitudes, [1.0, 0.0])

    d = DensityMatrix(4, np.diag([0.5, 0.25, 0.0, 0.25]).astype(complex))
    np.testing.assert_allclose(purify_diagonal(d).amplitudes,
                               [RT2, 0.5, 0.0, 0.5], atol=1e-15)


def test_purify_diagonal_rejects_zero_diagonal():
    for dim in (2, 8):
        with pytest.raises(NormToleranceError):
            purify_diagonal(DensityMatrix(dim, np.zeros((dim, dim), dtype=complex)))


def test_purify_diagonal_rejects_non_finite_entries():
    # A NaN off-diagonal would pass the diagonality test, since nan > tol is False.
    nan_diagonal = np.diag([math.nan, 1.0]).astype(complex)
    nan_off_diagonal = np.array([[0.5, math.nan], [math.nan, 0.5]], dtype=complex)
    for entries in (nan_diagonal, nan_off_diagonal):
        with pytest.raises(NumericError):
            purify_diagonal(DensityMatrix(2, entries))


def test_zero_vector_is_rejected_at_any_tolerance():
    for tol in (1e-9, 2.0, 1e6):
        with pytest.raises(NormToleranceError):
            state_from_amplitudes([0.0, 0.0, 0.0, 0.0], tol=tol)


def test_purify_diagonal_rejects_coherences():
    plus = state_from_amplitudes([RT2, RT2])
    with pytest.raises(NotDiagonalError):
        purify_diagonal(density_matrix(plus))


def test_purify_of_dephased_density_gives_moduli():
    rng = np.random.default_rng(15)
    for i in range(100):
        n = int(rng.integers(1, 4))
        s = state_from_amplitudes(rand_state_vec(n, rng))
        out = purify_diagonal(dephase(density_matrix(s)))
        assert np.max(np.abs(out.amplitudes - np.abs(s.amplitudes))) <= 1e-12


def test_permute_qubits():
    s = state_from_amplitudes([0.0, 1.0, 0.0, 0.0])   # |01>
    swapped = permute_qubits(s, [1, 0])
    np.testing.assert_allclose(swapped.amplitudes, [0.0, 0.0, 1.0, 0.0])
    with pytest.raises(ShapeError):
        permute_qubits(s, [0, 0])
    with pytest.raises(ShapeError):
        permute_qubits(s, [0])


def test_permute_roundtrip():
    rng = np.random.default_rng(16)
    s = state_from_amplitudes(rand_state_vec(3, rng))
    fwd = permute_qubits(s, [2, 0, 1])
    # inverse permutation restores the original layout
    back = permute_qubits(fwd, [1, 2, 0])
    np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-15)


def test_json_roundtrip_exact():
    rng = np.random.default_rng(17)
    s = state_from_amplitudes(rand_state_vec(3, rng))
    back = state_from_json(state_to_json(s))
    assert back.n_qubits == s.n_qubits
    assert np.all(back.amplitudes == s.amplitudes)


def test_json_writer_matches_per_amplitude_form():
    rng = np.random.default_rng(18)
    for n in range(1, 13):
        v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        v /= np.linalg.norm(v)
        # Exact zeros and negative zeros in either part, as assignment and embedding produce them.
        v[::3] = 0.0
        v.real[1::5] = -0.0
        v.imag[2::7] = -0.0
        v[-1] = complex(-0.0, -0.0)
        psi = PureState(n_qubits=n, amplitudes=v)
        pairs = [[float(a.real), float(a.imag)] for a in v]
        assert state_to_json(psi) == json.dumps({"n_qubits": n, "amplitudes": pairs})
        assert state_to_json(psi, perspective_of=0) == json.dumps(
            {"n_qubits": n, "amplitudes": pairs, "perspective_of": 0})


def test_json_perspective_tag():
    s = state_from_amplitudes([1.0, 0.0])
    doc = json.loads(state_to_json(s, perspective_of=2))
    assert doc["perspective_of"] == 2
    assert "perspective_of" not in json.loads(state_to_json(s))


def test_json_qubit_count_must_match():
    text = json.dumps({"n_qubits": 3, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ShapeError):
        state_from_json(text)


def test_row_renormalisation_matches_single_vectors():
    # Rows on both sides of the 1e-12 band, and a NaN row, take the single-vector rule bit for bit.
    # The vectorised screen sits inside the band, so its round-off passes no row the band would divide.
    assert 0.0 < _ROW_NORM_SCREEN < _UNIT_NORM_BAND == 1e-12
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    scales = [1.0, 1.0 + 1e-10, 1.0 - 1e-10, 1.0 + 0.98e-12, 1.0 + 1.02e-12, 1.0 - 1.02e-12, 2.0, math.nan]
    rows *= np.array(scales)[:, None]
    expect = [_renormalised(row.copy()) for row in rows]
    got = _renormalised_rows(rows.copy())
    assert not got.flags.writeable
    for k in range(len(rows)):
        assert got[k].tobytes() == expect[k].tobytes(), scales[k]
