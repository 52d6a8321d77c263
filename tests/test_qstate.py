import copy
import json
import math
import sys
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

from qrfkit import (
    DensityMatrix,
    PureState,
    QrfOperator,
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
from qrfkit import qstate
from qrfkit.errors import (
    DomainError,
    EmptyKeepSetError,
    NormToleranceError,
    NotDiagonalError,
    NotPowerOfTwoError,
    NumericError,
)
from qrfkit.qstate import _UNIT_NORM_BAND, _norms, _renormalised, _renormalised_rows, clamped_eigenvalues
from reference import BELL, RT2, WORKED, renormalised, state_document, unit_amplitudes, unit_state, whole_document_state
from test_cli import STATE_MUTATIONS


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


def test_non_numeric_amplitudes_are_a_domain_error():
    for bad in (["a", "b"], [{}, 1.0], [[1.0, 0.0], [1.0]]):
        with pytest.raises(DomainError, match="sequence of numbers"):
            state_from_amplitudes(bad)
    # numpy converts None to NaN, which once surfaced as a NaN norm rather than as the non-number it is.
    for bad in ([None, 1.0], [[1.0, None]], np.array([1.0, None], dtype=object), None):
        with pytest.raises(DomainError, match="sequence of numbers: None is not a number"):
            state_from_amplitudes(bad)
    # A hand-built value holding no numbers once passed construction, then raised a bare AttributeError, TypeError,
    # UFuncTypeError or ValueError in the entry points, or was written as numbers: ["1", "0"] as [[1.0, 0.0], ...].
    for amps in (np.array([True, False]), np.array([None, 1.0], dtype=object), np.array(["a", 1.0], dtype=object),
                 np.array(["1", "0"]), np.array([b"1", b"0"]), np.array(["2020-01-01", "2020-01-02"], "datetime64[D]"),
                 np.array([1, 0], "timedelta64[s]")):
        with pytest.raises(DomainError, match="are not integer, float or complex numbers"):
            PureState(1, amps)
        with pytest.raises(DomainError, match="are not integer, float or complex numbers"):
            DensityMatrix(2, np.diag(amps))
        with pytest.raises(DomainError, match="are not integer, float or complex numbers"):
            QrfOperator(1, 0, 1, np.diag(amps))
    for dtype in (np.int64, np.uint8, np.float16, np.float64, np.complex128, np.clongdouble):
        amps = np.array([1, 0], dtype)
        assert PureState(1, amps).amplitudes is amps
        assert DensityMatrix(2, np.diag(amps)).dim == QrfOperator(1, 0, 1, np.diag(amps)).n_qubits + 1 == 2
        assert state_to_json(PureState(1, amps)) == state_document(amps)


def test_state_types_refuse_a_size_their_register_does_not_have():
    # A hand-built value of the wrong size once reached assign_perspective, entanglement, state_to_json or a
    # measure and gave a short state, -0.0, a document state_from_json refuses, or an entropy of 1.0.
    bad_states = [(3, np.ones(4) / 2), (1, np.ones((2, 1))), (-1, np.ones(1)), (1.0, np.ones(2)), (None, np.ones(2)),
                  (1, [RT2, RT2])]
    for n, amps in bad_states:
        with pytest.raises(ShapeError):
            PureState(n_qubits=n, amplitudes=amps)
    bad_matrices = [(4, np.eye(2) / 2), (3, np.eye(3) / 3), (2, np.ones((2, 3))), (0, np.ones((0, 0))),
                    (4.0, np.eye(4) / 4), (2, np.ones(4))]
    for dim, entries in bad_matrices:
        with pytest.raises(ShapeError):
            DensityMatrix(dim=dim, entries=entries)
    assert PureState(0, np.ones(1, dtype=complex)).dim == 1
    assert DensityMatrix(1, np.ones((1, 1), dtype=complex)).n_qubits == 0
    assert PureState(np.int64(1), np.array([1.0, 0.0], dtype=complex)).dim == 2


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
    s = state_from_amplitudes(WORKED)
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
        s = unit_state(n, rng)
        rho = density_matrix(s)
        m = rho.entries
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)
        assert abs(np.trace(m).real - 1.0) <= 1e-12
        ev = np.sort(clamped_eigenvalues(rho))
        assert abs(ev[-1] - 1.0) <= 1e-10   # rank one
        assert np.all(ev[:-1] <= 1e-10)


def test_partial_trace_bell():
    bell = state_from_amplitudes(BELL)
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
    s = unit_state(3, rng)
    rho = density_matrix(s)
    a = partial_trace(rho, [0, 2]).entries
    b = partial_trace(rho, [2, 0]).entries
    c = partial_trace(rho, [2, 0, 2]).entries
    np.testing.assert_allclose(a, b, atol=0)
    np.testing.assert_allclose(a, c, atol=0)


def test_partial_trace_disjoint_order_independence():
    rng = np.random.default_rng(13)
    for i in range(50):
        s = unit_state(4, rng)
        rho = density_matrix(s)
        one_shot = partial_trace(rho, [0, 3]).entries
        staged = partial_trace(partial_trace(rho, [0, 1, 3]), [0, 2]).entries
        assert np.max(np.abs(one_shot - staged)) <= 1e-12


def test_partial_trace_of_every_qubit_is_a_copy():
    m = np.eye(4, dtype=complex) / 4
    kept = partial_trace(DensityMatrix(4, m), [0, 1])
    m[0, 0] = 9
    assert kept.entries.tolist() == (np.eye(4) / 4).tolist()
    assert not kept.entries.flags.writeable


def test_partial_trace_bad_keep_rejected():
    s = state_from_amplitudes([1.0, 0.0])
    with pytest.raises(EmptyKeepSetError):
        partial_trace(density_matrix(s), [])
    with pytest.raises(ShapeError):
        partial_trace(density_matrix(s), [1])
    with pytest.raises(ShapeError):
        partial_trace(density_matrix(s), [-1, 0])


def test_partial_trace_qubit_indices_must_be_integers():
    rho = density_matrix(unit_state(2, np.random.default_rng(16)))
    for keep in ([0.5], [1.0], [0, "1"], [None]):
        with pytest.raises(ShapeError, match="is not an integer"):
            partial_trace(rho, keep)
    assert partial_trace(rho, [np.int64(1)]).entries.tobytes() == partial_trace(rho, [1]).entries.tobytes()


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
        s = unit_state(3, rng)
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
    # A finite diagonal whose purification's norm overflows must not come back as the all-zero "state".
    overflowing = np.diag([1e308, 1e308]).astype(complex)
    for entries, error in ((nan_diagonal, NumericError), (nan_off_diagonal, NumericError),
                           (overflowing, NormToleranceError)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                purify_diagonal(DensityMatrix(2, entries))


def test_purify_diagonal_refuses_nan_and_negative_tolerances():
    flat = DensityMatrix(2, np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    for tol in (math.nan, -1e-3, -math.inf, "x", None, 1j, [1e-9], np.array([1e-9, 1.0]), True, np.array(1e-9)):
        with pytest.raises(DomainError, match="diagonality tolerance must be a nonnegative number, got"):
            purify_diagonal(flat, tol)
    np.testing.assert_allclose(purify_diagonal(flat, math.inf).amplitudes, [RT2, RT2])
    np.testing.assert_allclose(purify_diagonal(flat, 0.5).amplitudes, [RT2, RT2])


def test_purify_diagonal_gives_positive_zeros_for_signed_and_negative_entries():
    d = DensityMatrix(4, np.diag([0.5, -0.0, 0.5, -1e-17]).astype(complex))
    amps = purify_diagonal(d).amplitudes
    assert amps.tobytes() == np.array([math.sqrt(0.5), 0.0, math.sqrt(0.5), 0.0], dtype=complex).tobytes()
    assert not np.signbit(amps.real).any() and not np.signbit(amps.imag).any()


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
        s = unit_state(n, rng)
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
    with pytest.raises(ShapeError):
        permute_qubits(s, [1.0, 0.0])


def test_permute_roundtrip():
    rng = np.random.default_rng(16)
    s = unit_state(3, rng)
    fwd = permute_qubits(s, [2, 0, 1])
    # inverse permutation restores the original layout
    back = permute_qubits(fwd, [1, 2, 0])
    np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-15)


def test_json_roundtrip_exact():
    rng = np.random.default_rng(17)
    s = unit_state(3, rng)
    back = state_from_json(state_to_json(s))
    assert back.n_qubits == s.n_qubits
    assert np.all(back.amplitudes == s.amplitudes)


def test_json_writer_matches_per_amplitude_form():
    rng = np.random.default_rng(18)
    tiny, big = 5e-324, sys.float_info.max
    # Subnormal parts and parts near the float maximum, as a hand-built PureState may hold them.
    extremes = [complex(tiny, -tiny), complex(-2.2250738585072014e-309, 1e-320), complex(big, -big),
                complex(-big, np.nextafter(big, 0.0)), complex(1.7976931348623155e308, -1e308)]
    # json's repr switches to exponent form at 1e16 and below 0.0001.
    switch_points = [1e16, 9999999999999998.0, 1e-05, 0.0001]
    for n in (*range(1, 14), 16):  # 13 qubits fill two writer blocks exactly, 16 span sixteen
        v = unit_amplitudes(n, rng)
        # Exact zeros and negative zeros in either part, as assignment and embedding produce them.
        v[::3] = 0.0
        v.real[1::5] = -0.0
        v.imag[2::7] = -0.0
        v[-1] = complex(-0.0, -0.0)
        # All four signed-zero pairs, then the extremes, over the first entries.
        head = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), *extremes]
        v[:len(head)] = head[:v.size]
        assert state_to_json(PureState(n, v), perspective_of=0) == state_document(v, perspective_of=0)
        # A PureState built by hand may hold real or strided amplitudes; they are written as complex.
        for amps in (v, v.real.copy(), np.repeat(v, 2)[::2]):
            assert state_to_json(PureState(n, amps)) == state_document(amps)
        # A real state, as perspective assignment writes it: -0.0, subnormal and switch-point real parts, every
        # imaginary part +0.0.  One -0.0 or subnormal imaginary part, at either side of a block seam, makes it complex.
        real = v.real.astype(complex)
        real.real[len(head):len(head) + 4] = switch_points[:real[len(head):len(head) + 4].size]
        assert state_to_json(PureState(n, real), perspective_of=n) == state_document(real, perspective_of=n)
        for index in sorted({i for i in (0, 4095, 4096, real.size - 1) if i < real.size}):
            for imag in (-0.0, tiny):
                amps = real.copy()
                amps.imag[index] = imag
                assert state_to_json(PureState(n, amps)) == state_document(amps), (n, index, imag)


def test_json_writer_refuses_non_finite_parts(monkeypatch):
    # The parts are checked before the first row is formatted, and by the stream of pieces before it is returned.
    formatted = []
    monkeypatch.setattr(qstate, "_by_block", lambda count, block, lazy=False: formatted.append(count) or iter(()))
    for bad in (math.nan, math.inf, -math.inf):
        for amps in ([bad, 0.0], [complex(0.0, bad), 1.0], [0.5, 0.5, 0.5, complex(0.5, bad)]):
            psi = PureState(len(amps).bit_length() - 1, np.array(amps, dtype=np.complex128))
            for write in (state_to_json, qstate._state_json):
                with pytest.raises(NumericError):
                    write(psi)
    assert formatted == []


def test_json_perspective_tag():
    # A 2-qubit perspectival state is the view of one of the 3 parties, so observer 2 is in range.
    s = state_from_amplitudes([1.0, 0.0, 0.0, 0.0])
    doc = json.loads(state_to_json(s, perspective_of=2))
    assert doc["perspective_of"] == 2
    assert "perspective_of" not in json.loads(state_to_json(s))


def test_json_perspective_tag_must_name_an_observer():
    # An n-qubit perspectival state is the view of one of n + 1 parties; an integer index
    # in [0, n] is written as given, anything else is refused rather than truncated.
    s = state_from_amplitudes([1.0, 0.0, 0.0, 0.0])
    for observer in (0, np.int64(1), 2):
        assert json.loads(state_to_json(s, perspective_of=observer))["perspective_of"] == observer
    for bad in (1.5, 1.0, "1"):
        with pytest.raises(ShapeError, match="is not an integer"):
            state_to_json(s, perspective_of=bad)
    for bad in (-1, -4, 3):
        for write in (state_to_json, qstate._state_json):
            with pytest.raises(ShapeError, match=rf"^perspective_of {bad} is not an observer index in \[0, 2\]$"):
                write(s, perspective_of=bad)


# State documents with integer parts, negative zeros, subnormals, parts past the square root of the
# float range, and a seeded 16-qubit state, each with whether its norm is within tolerance of 1.
STATE_DOCS = [
    ('{"n_qubits": 1, "amplitudes": [[1, 0], [0, 0]]}', True),
    ('{"amplitudes": [[0, 1], [-0.0, -0.0], [3, 4.0], [0.0, -0.0]]}', False),
    ('{"n_qubits": 1, "amplitudes": [[-0.0, 1.0], [5e-324, -2.2250738585072014e-309]]}', True),
    (json.dumps({"n_qubits": 1, "amplitudes": [[2 ** 1000, 0], [1, -(2 ** 1000)]]}), False),
    # Integers at rounding boundaries: numpy, not complex(), converts them to floats.
    (json.dumps({"amplitudes": [[2 ** 53 + 1, 2 ** 63 + 1], [2 ** 64 + 3, -(2 ** 63) - 1]]}), False),
    (json.dumps({"n_qubits": 1, "amplitudes": [[10 ** 308, 0], [-1, -(10 ** 308)]]}), False),
    (state_to_json(unit_state(16, np.random.default_rng(19))), True),
]


@pytest.mark.parametrize("text, normalized", STATE_DOCS,
                         ids=["integers", "zeros", "subnormal", "2**1000", "rounded integers", "10**308", "16 qubits"])
def test_json_reader_converts_each_pair_through_complex(monkeypatch, text, normalized):
    converted = np.array([complex(re, im) for re, im in json.loads(text)["amplitudes"]])
    if normalized:  # the reader's state keeps the converted parts bit for bit
        assert state_from_json(text).amplitudes.tobytes() == converted.tobytes()
    # Whatever the norm, the parts handed to normalisation are exactly the converted pairs.
    monkeypatch.setattr(qstate, "state_from_amplitudes",
                        lambda amps, tol: PureState(len(amps).bit_length() - 1, np.asarray(amps, dtype=np.complex128)))
    assert state_from_json(text).amplitudes.tobytes() == converted.tobytes()


def test_json_reader_refuses_integers_past_the_float_range():
    for pair in ([10 ** 400, 0], [0, -(10 ** 400)]):
        with pytest.raises(OverflowError):
            state_from_json(json.dumps({"amplitudes": [pair, [1, 0]]}))


def test_json_reader_refuses_pairs_of_other_lengths():
    # [[1, 0, 0], [0]] holds four parts, which without the length check would read as two amplitudes.
    for pairs in ([[1, 0, 0], [0]], [[1], [0, 0, 0]], [[1, 0], [0, 0], [0, 0], [0]], [[1, 0], []]):
        with pytest.raises(ValueError, match="pair"):
            state_from_json(json.dumps({"amplitudes": pairs}))


def test_json_qubit_count_must_match():
    text = json.dumps({"n_qubits": 3, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ShapeError):
        state_from_json(text)


def _edge_document(n, rng):
    """A unit state's document in state_to_json's layout with exact, negative and subnormal zeros and integer parts."""
    amps = unit_amplitudes(n, rng)
    amps[::5] = 0.0
    amps.real[1::3] = -0.0
    amps /= np.linalg.norm(amps)
    amps.imag[::10] = 5e-324  # in place of zeros
    pairs = [[float(a.real), float(a.imag)] for a in amps]
    for pair in pairs[::4]:  # positive zeros as the integer 0
        pair[:] = [0 if x == 0.0 and math.copysign(1.0, x) > 0 else x for x in pair]
    return json.dumps({"n_qubits": n, "amplitudes": pairs})


def _last_pair_as(text, pair):
    """text with its last amplitude pair's text replaced by pair."""
    head, _, tail = text.rpartition("], [")
    return head + "], [" + pair + tail[tail.index("]"):]


_DOC_12 = state_to_json(unit_state(12, np.random.default_rng(12)), perspective_of=3)
# Documents in state_to_json's layout, each read a slice at a time at any block size.
CANONICAL_DOCS = {
    "n=1 integers": '{"n_qubits": 1, "amplitudes": [[1, 0], [0, -0.0]]}',
    "n=1": _edge_document(1, np.random.default_rng(1)),
    "n=3": _edge_document(3, np.random.default_rng(3)),
    "n=12": _edge_document(12, np.random.default_rng(12)),
    "perspective_of": _DOC_12,
    "trailing newline": _DOC_12 + "\n",
    "trailing JSON whitespace": _DOC_12 + " \t\r\n",
    "40 qubits over two pairs": '{"n_qubits": 40, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}',
}
# Everything else the two readers must agree on, documents or errors.
OTHER_DOCS = {
    "trailing form feed": _DOC_12 + "\x0c",
    "bytes": _DOC_12.encode(),
    "UTF-16 bytes": _DOC_12.encode("utf-16"),
    "bytearray": bytearray(_DOC_12.encode()),
    "leading BOM": "\ufeff" + _DOC_12,
    "UTF-8 BOM bytes": b"\xef\xbb\xbf" + _DOC_12.encode(),
    "bad token in the last slice": _last_pair_as(_DOC_12, "0.5, 0.5x"),
    "10**400 in the last slice": _last_pair_as(_DOC_12, f"{10 ** 400}, 0"),
    "NaN in the last slice": _last_pair_as(_DOC_12, "NaN, 0.0"),
    "pair separator in a string part": _last_pair_as(_DOC_12, '"], [", 0.0'),
    "duplicate amplitudes after the list": _DOC_12[:-1] + ', "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}',
}
_MUTATED_DOC = json.loads(_DOC_12)
for _mutation, _mutate, _ in STATE_MUTATIONS:
    _rng = np.random.default_rng(zlib.crc32(_mutation.encode()))
    for _k in range(2):
        OTHER_DOCS[f"{_mutation} {_k}"] = _mutate(copy.deepcopy(_MUTATED_DOC), _rng)


def _read(reader, text, tol):
    """The amplitude bytes reader gives for text at tol, or the type and message of the exception it raises."""
    try:
        return reader(text, tol=tol).amplitudes.tobytes()
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("block", [qstate._ROW_BLOCK, 1], ids=["default block", "one-pair block"])
def test_state_reader_agrees_with_the_whole_document_reader(monkeypatch, block):
    # At one pair's budget a slice ends at almost every pair, so each mutation lands in a slice of its own.
    monkeypatch.setattr(qstate, "_ROW_BLOCK", block)
    for name, text in {**CANONICAL_DOCS, **OTHER_DOCS}.items():
        for tol in (1e-9, math.inf):  # at an infinite tolerance a mutated part reaches the amplitudes
            assert _read(state_from_json, text, tol) == _read(whole_document_state, text, tol), (name, tol)
    for name, text in CANONICAL_DOCS.items():
        assert qstate._canonical_parts(text) is not None, f"{name} was not read a slice at a time"


def test_state_reader_peaks_below_4_mib_at_16_qubits():
    # At 16 qubits json.loads of the whole text peaks at 12 MiB; a slice at a time holds one slice's Python objects.
    psi = unit_state(16, np.random.default_rng(16))
    for text in (state_to_json(psi), state_to_json(psi, perspective_of=16)):
        tracemalloc.start()
        try:
            state_from_json(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20, f"state_from_json peaked at {peak / 2 ** 20:.2f} MiB"


def test_row_renormalisation_matches_single_vectors():
    # Rows on both sides of the 1e-12 band give the written-out rule's bytes, from the stack and one by one.
    assert _UNIT_NORM_BAND == 1e-12
    rng = np.random.default_rng(5)
    scales = [1.0, 1.0 + 1e-10, 1.0 - 1e-10, 1.0 + 0.98e-12, 1.0 - 0.98e-12, 1.0 + 1.02e-12, 1.0 - 1.02e-12, 2.0, 0.5]
    for dim in (2, 4, 8, 64):
        rows = rng.standard_normal((len(scales), dim)) + 1j * rng.standard_normal((len(scales), dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows *= np.array(scales)[:, None]
        expect = [renormalised(row) for row in rows]
        got = _renormalised_rows(rows.copy())
        assert not got.flags.writeable
        for k, scale in enumerate(scales):
            assert got[k].tobytes() == expect[k].tobytes(), (dim, scale)
            assert _renormalised(rows[k].copy()).tobytes() == expect[k].tobytes(), (dim, scale)


def test_non_finite_and_zero_rows_are_refused():
    # A NaN, infinite or zero norm has no unit vector to give, as a single vector or as any row of a stack.
    good = np.full(4, 0.5, dtype=complex)
    for bad in ([math.nan, 0.0, 0.0, 1.0], [complex(0.5, math.nan), 0.5, 0.5, 0.5], [math.inf, 0.0, 0.0, 0.0],
                [complex(0.0, -math.inf), 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]):
        bad = np.array(bad, dtype=complex)
        with pytest.raises(NormToleranceError):
            _renormalised(bad.copy())
        for rows in (bad[None], np.stack([good, bad]), np.stack([bad, good, good])):
            with pytest.raises(NormToleranceError):
                _renormalised_rows(rows)


def test_row_norms_equal_numpy_norm():
    # Each stacked norm is np.linalg.norm of its row, bit for bit, so the band decides a row as it does a vector.
    rng = np.random.default_rng(6)
    for n in range(1, 17):
        rows = rng.standard_normal((3, 1 << n)) + 1j * rng.standard_normal((3, 1 << n))
        rows[1] *= 1e-150
        rows[2] *= 1e150
        got = _norms(rows)
        assert got.shape == (3,)
        for k in range(3):
            assert got[k].tobytes() == np.float64(np.linalg.norm(rows[k])).tobytes(), (n, k)


def test_infinite_norm_is_rejected_at_any_tolerance():
    # [1e308, 1e308] has norm inf; at tol = inf it once passed and was divided to all zeros
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tol in (1e-9, 1e300, math.inf):
            with pytest.raises(NormToleranceError):
                state_from_amplitudes([1e308, 1e308], tol=tol)
            with pytest.raises(NormToleranceError):
                state_from_amplitudes([math.inf, 0.0], tol=tol)


def test_state_tolerance_must_be_a_nonnegative_number():
    # As every other tolerance: a NaN or negative one, or one that is no number, is refused, not read as a norm deviation.
    for tol in (math.nan, -1.0, -1e-9, -math.inf, "x", None, 1j, [1e-9], np.array([1e-9, 1.0]), True, np.array(1e-9)):
        with pytest.raises(DomainError):
            state_from_amplitudes([RT2, RT2], tol=tol)
        with pytest.raises(DomainError):
            state_from_json(json.dumps({"amplitudes": [[RT2, 0.0], [RT2, 0.0]]}), tol=tol)
    for tol in (0.0, math.inf):
        assert state_from_amplitudes([1.0, 0.0], tol=tol).amplitudes.tobytes() == np.array([1.0, 0.0], complex).tobytes()
