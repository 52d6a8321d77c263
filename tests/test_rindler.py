import dataclasses
import math

import numpy as np
import pytest

from qrfkit import (
    MeasurePair,
    MiCurves,
    ObserverLabel,
    ParityClass,
    PureState,
    Quantity,
    assign_perspective,
    binary_entropy,
    check_corollary,
    check_transference,
    closed_form_coherence,
    closed_form_entanglement,
    density_matrix,
    entanglement,
    global_state,
    mutual_information,
    mutual_information_curves,
    parity_class,
    partial_trace,
    permute_qubits,
    perspectival_state,
    r_from_acceleration,
    state_from_amplitudes,
    sweep,
    sweep_to_csv,
)
from qrfkit import qstate, rindler, transference
from qrfkit.cli import main, parse_grid
from qrfkit.errors import DomainError, EmptyKeepSetError, GridError, InvalidBipartitionError, NonPositiveInputError
from qrfkit.errors import NumericError, ShapeError, UnknownQuantityError
from qrfkit.rindler import (
    CSV_COLUMNS,
    GLOBAL_QUANTITY,
    PERSP_QUANTITY,
    R_MAX,
    _check_r,
    _global_amplitudes,
    oracle_coherence,
    sweep_to_dicts,
)
from reference import MI_CROSSING, MI_PLATEAU, RT2, printed_curves

# atan(exp(-pi)) evaluated independently
R_AT_UNIT_RATIO = 0.352513421777619


def grid(count):
    return np.linspace(0.0, R_MAX, count)


def test_r_from_acceleration():
    assert abs(r_from_acceleration(math.pi, 1.0) - R_AT_UNIT_RATIO) <= 1e-12
    assert r_from_acceleration(1e-6, 1.0) == 0.0
    assert abs(r_from_acceleration(1e9, 1.0) - R_MAX) <= 1e-8
    vals = [r_from_acceleration(a, 1.0) for a in (0.5, 1.0, 2.0, 5.0, 50.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for bad in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(NonPositiveInputError):
            r_from_acceleration(*bad)
    for bad in (("a", 1.0), (1j, 1.0), (None, 1.0)):
        with pytest.raises(DomainError):
            r_from_acceleration(*bad)
    # the infinite-acceleration limit is the admitted endpoint r = pi/4
    assert r_from_acceleration(math.inf, 1.0) == R_MAX


def test_r_from_acceleration_infinite_limits():
    assert r_from_acceleration(math.inf, 1.0) == R_MAX
    assert r_from_acceleration(1.0, math.inf) == 0.0
    # omega / a is inf / inf here, which once came back as r = nan
    with pytest.raises(DomainError) as info:
        r_from_acceleration(math.inf, math.inf)
    assert info.value.kind == "domain"


def test_global_state_endpoints():
    s = global_state(0.0)
    np.testing.assert_allclose(s.amplitudes,
                               [RT2, 0, 0, 0, 0, 0, RT2, 0], atol=1e-15)
    s = global_state(R_MAX)
    np.testing.assert_allclose(s.amplitudes,
                               [0.5, 0, 0, 0.5, 0, 0, RT2, 0], atol=1e-15)


def test_global_state_is_even_and_normalized():
    for r in grid(17):
        s = global_state(r)
        assert parity_class(s) is ParityClass.EVEN
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-12


def test_sweep_stack_rows_equal_global_state_bytes():
    # The sweep analyses this complex128 stack without building a PureState per point;
    # a float64 stack would take eigvalsh's real path and change bits in some rows.
    points = [*np.linspace(0.0, R_MAX, 2001).tolist(), R_MAX + 5e-13, 1e-300, 5e-324]
    stack = _global_amplitudes([_check_r(r) for r in points])
    assert stack.dtype == np.complex128
    assert stack.tobytes() == b"".join(global_state(r).amplitudes.tobytes() for r in points)


def test_r_domain():
    with pytest.raises(DomainError):
        global_state(-0.1)
    with pytest.raises(DomainError):
        global_state(R_MAX + 1e-6)
    # round-off past the endpoint clamps instead of failing
    s = global_state(R_MAX + 5e-13)
    np.testing.assert_allclose(s.amplitudes, global_state(R_MAX).amplitudes, atol=0)


# Each entry point that takes a real number or an index collection, as a function of that one argument, with the
# error its rule raises and the values it must refuse.  A str or a list is iterable, and its entries were refused
# one by one already, so only the other values are cases for a collection.
_PSI = global_state(0.3)
_NOT_REAL = ["0.3", None, True, 1j, [0.3], np.array(0.3)]
_NOT_COLLECTION = [None, True, 1j, np.array(0.3)]
ARGUMENT_RULES = {
    "global_state": (global_state, DomainError, _NOT_REAL),
    "perspectival_state": (lambda r: perspectival_state(r, ObserverLabel.ROB), DomainError, _NOT_REAL),
    "closed_form_entanglement": (lambda r: closed_form_entanglement(r, Quantity.E_A_RRBAR, MeasurePair.ENTROPY),
                                 DomainError, _NOT_REAL),
    "closed_form_coherence": (lambda r: closed_form_coherence(r, ObserverLabel.ALICE, ObserverLabel.ROB,
                                                              MeasurePair.LINEAR), DomainError, _NOT_REAL),
    "mutual_information_curves": (mutual_information_curves, DomainError, _NOT_REAL),
    "binary_entropy": (binary_entropy, DomainError, _NOT_REAL),
    "partial_trace": (lambda keep: partial_trace(density_matrix(_PSI), keep), EmptyKeepSetError, _NOT_COLLECTION),
    "entanglement": (lambda left: entanglement(_PSI, left), InvalidBipartitionError, _NOT_COLLECTION),
    "mutual_information": (lambda left: mutual_information(density_matrix(_PSI), left, [2]), InvalidBipartitionError,
                           _NOT_COLLECTION),
    "permute_qubits": (lambda order: permute_qubits(_PSI, order), ShapeError, _NOT_COLLECTION),
    "sweep_to_csv": (lambda records: sweep_to_csv(records, MeasurePair.ENTROPY), UnknownQuantityError,
                     _NOT_COLLECTION),
    "sweep_to_dicts": (lambda records: sweep_to_dicts(records, MeasurePair.ENTROPY), UnknownQuantityError,
                       _NOT_COLLECTION),
}


def _bits(result) -> bytes:
    if isinstance(result, PureState):
        return result.amplitudes.tobytes()
    return np.array(dataclasses.astuple(result) if isinstance(result, MiCurves) else result, np.float64).tobytes()


@pytest.mark.parametrize("name", ARGUMENT_RULES)
def test_arguments_are_real_numbers_or_index_collections(name):
    call, error, refused = ARGUMENT_RULES[name]
    rule = "is not a real number" if refused is _NOT_REAL else "must be a collection"
    for bad in refused:
        with pytest.raises(error, match=rule) as info:
            call(bad)
        assert repr(bad) in str(info.value), (bad, info.value)
    if refused is _NOT_REAL:
        # An integer or a numpy scalar is the real number it equals, bit for bit.
        for number, equal in ((0, 0.0), (np.int64(0), 0.0), (np.float64(0.3), 0.3), (np.float64(R_MAX), R_MAX)):
            assert _bits(call(number)) == _bits(call(equal)), (number, equal)


def test_perspectival_states_match_assignment():
    for r in grid(17):
        g = global_state(r)
        for obs in ObserverLabel:
            printed = perspectival_state(r, obs)
            assigned = assign_perspective(g, obs.value)
            assert np.max(np.abs(printed.amplitudes - assigned.amplitudes)) <= 1e-12


def test_perspectival_state_forms():
    r = 0.5
    c, s = math.cos(r) * RT2, math.sin(r) * RT2
    np.testing.assert_allclose(perspectival_state(r, ObserverLabel.ALICE).amplitudes,
                               [c, RT2, 0.0, s], atol=1e-15)
    np.testing.assert_allclose(perspectival_state(r, ObserverLabel.ROB).amplitudes,
                               [c, RT2, s, 0.0], atol=1e-15)
    np.testing.assert_allclose(perspectival_state(r, ObserverLabel.ANTIROB).amplitudes,
                               [c, 0.0, s, RT2], atol=1e-15)


def test_closed_form_entanglement_endpoints():
    ent, lin = MeasurePair.ENTROPY, MeasurePair.LINEAR
    assert closed_form_entanglement(0.0, Quantity.E_PERSP_A, ent) == 0.0
    assert abs(closed_form_entanglement(R_MAX, Quantity.E_PERSP_A, lin) - 0.125) <= 1e-15
    for r in grid(9):
        assert closed_form_entanglement(r, Quantity.E_A_RRBAR, ent) == 1.0
        assert closed_form_entanglement(r, Quantity.E_A_RRBAR, lin) == 0.5


def test_closed_forms_match_density_matrix_oracle():
    for m in MeasurePair:
        for r in grid(41):
            g = global_state(r)
            for obs in ObserverLabel:
                closed = closed_form_entanglement(r, PERSP_QUANTITY[obs], m)
                direct = entanglement(assign_perspective(g, obs.value), [0], m)
                assert abs(closed - direct) <= 1e-10
                closed = closed_form_entanglement(r, GLOBAL_QUANTITY[obs], m)
                direct = entanglement(g, [obs.value], m)
                assert abs(closed - direct) <= 1e-10


def test_coherence_reference_matches_oracle():
    for m in MeasurePair:
        for r in grid(21):
            g = global_state(r)
            for alpha in ObserverLabel:
                persp = assign_perspective(g, alpha.value)
                others = [o for o in ObserverLabel if o is not alpha]
                for beta in others:
                    ref = closed_form_coherence(r, alpha, beta, m)
                    direct = oracle_coherence(persp, others.index(beta), m)
                    assert abs(ref - direct) <= 1e-10


def test_coherence_reference_rejects_equal_labels():
    with pytest.raises(DomainError):
        closed_form_coherence(0.3, ObserverLabel.ROB, ObserverLabel.ROB, MeasurePair.ENTROPY)


def test_full_offset_identity():
    # antirob's entanglement plus its coherence toward rob is constant
    ent, lin = MeasurePair.ENTROPY, MeasurePair.LINEAR
    for r in grid(41):
        persp = perspectival_state(r, ObserverLabel.ANTIROB)
        e = entanglement(persp, [0], ent)
        c = oracle_coherence(persp, 1, ent)      # rob sits in slot 1 of (A, R)
        assert abs((e + c) - 1.0) <= 1e-10
        e = entanglement(persp, [0], lin)
        c = oracle_coherence(persp, 1, lin)
        assert abs((e + c) - 0.5) <= 1e-10


def test_partial_offset_stays_below_cap():
    # replacing rob with alice leaves a gap at every interior point
    ent, lin = MeasurePair.ENTROPY, MeasurePair.LINEAR
    for r in grid(41)[1:]:
        persp = perspectival_state(r, ObserverLabel.ANTIROB)
        e = entanglement(persp, [0], ent)
        c = oracle_coherence(persp, 0, ent)      # alice sits in slot 0
        assert e + c < 1.0
        e = entanglement(persp, [0], lin)
        c = oracle_coherence(persp, 0, lin)
        assert e + c < 0.5


def test_transference_holds_across_grid():
    for r in grid(51):
        g = global_state(r)
        for m in MeasurePair:
            for rep in check_transference(g, m):
                assert rep.residual <= 1e-9
            for rep in check_corollary(g, m):
                assert rep.residual <= 1e-9


def test_transference_survives_sign_flips():
    # amplitude signs never enter the parity argument
    for r in (0.2, 0.7):
        c, s = math.cos(r) * RT2, math.sin(r) * RT2
        for signs in range(8):
            amps = [0.0] * 8
            amps[0] = c * (-1.0 if signs & 1 else 1.0)
            amps[3] = s * (-1.0 if signs & 2 else 1.0)
            amps[6] = RT2 * (-1.0 if signs & 4 else 1.0)
            flipped = state_from_amplitudes(amps)
            assert parity_class(flipped) is ParityClass.EVEN
            for m in MeasurePair:
                for rep in check_transference(flipped, m):
                    assert rep.residual <= 1e-9


def test_mutual_information_endpoints():
    mi0 = mutual_information_curves(0.0)
    assert abs(mi0.mi_a_r - 2.0) <= 1e-12
    assert abs(mi0.mi_a_rbar) <= 1e-12
    assert abs(mi0.mi_r_rbar) <= 1e-12
    mi1 = mutual_information_curves(R_MAX)
    assert abs(mi1.mi_a_r - 1.0) <= 1e-12
    assert abs(mi1.mi_a_rbar - 1.0) <= 1e-12
    assert abs(mi1.mi_r_rbar - MI_PLATEAU) <= 1e-12


def test_perspectival_curves_cross_at_endpoint():
    mi1 = mutual_information_curves(R_MAX)
    assert abs(mi1.mi_persp_r - MI_CROSSING) <= 1e-12
    assert abs(mi1.mi_persp_rbar - MI_CROSSING) <= 1e-12
    assert MI_CROSSING > 1.0


def test_mi_reflection_identity():
    for r in grid(101):
        mi = mutual_information_curves(r)
        assert abs((mi.mi_a_r + mi.mi_a_rbar) - 2.0) <= 1e-12


def test_curve_monotonicity():
    rs = grid(1000)
    curves = [mutual_information_curves(r) for r in rs]
    e_rbar = [closed_form_entanglement(r, Quantity.E_PERSP_RBAR, MeasurePair.ENTROPY)
              for r in rs]
    for a, b in zip(curves, curves[1:]):
        assert b.mi_a_r < a.mi_a_r
        assert b.mi_a_rbar > a.mi_a_rbar
        assert b.mi_r_rbar >= a.mi_r_rbar - 1e-15
    for a, b in zip(e_rbar, e_rbar[1:]):
        assert b < a


def test_perspectival_mi_dominates_global():
    pairs = (("mi_persp_a", "mi_r_rbar"),
             ("mi_persp_r", "mi_a_rbar"),
             ("mi_persp_rbar", "mi_a_r"))
    for r in grid(101):
        mi = mutual_information_curves(r)
        for persp_name, global_name in pairs:
            assert getattr(mi, persp_name) >= getattr(mi, global_name) - 1e-10


def test_sweep_residuals_small():
    for m in MeasurePair:
        for rec in sweep(grid(41), m):
            assert rec.max_residual <= 1e-10


def test_sweep_rows_match_closed_forms():
    rec = sweep([0.3], MeasurePair.ENTROPY)[0]
    assert rec.r == 0.3
    assert rec.e_persp_r == closed_form_entanglement(0.3, Quantity.E_PERSP_R, MeasurePair.ENTROPY)
    assert rec.e_a_rrbar == 1.0
    mi = mutual_information_curves(0.3)
    assert rec.mi_a_r == mi.mi_a_r
    assert rec.mi_persp_rbar == mi.mi_persp_rbar


def test_sweep_grid_validation():
    # A point that is not a real number, such as None, "0.1" or a bool, is a grid error too, and so is a string or
    # bytes grid, whose characters or byte values would otherwise be taken as its points.
    for bad in ([], [0.2, 0.1], [0.0, 0.9], [-0.1, 0.2], [None], "0.1", "0", "00", b"\x00\x00", bytearray(1), ["0.1"],
                [True], [False], [1j]):
        with pytest.raises(GridError):
            sweep(bad, MeasurePair.ENTROPY)
    # endpoint round-off is clamped, not rejected
    recs = sweep([R_MAX + 5e-13], MeasurePair.ENTROPY)
    assert recs[0].r == R_MAX


def test_csv_shape_and_formatting():
    recs = sweep(grid(3), MeasurePair.LINEAR)
    text = sweep_to_csv(recs, MeasurePair.LINEAR)
    assert "\r" not in text
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "linear"
    assert first[1] == "0"
    # 12 significant digits
    r_mid = float(lines[2].split(",")[1])
    assert abs(r_mid - R_MAX / 2) <= 1e-12
    assert lines[2].split(",")[1] == f"{R_MAX / 2:.12g}"


def test_csv_deterministic():
    a = sweep_to_csv(sweep(grid(5), MeasurePair.ENTROPY), MeasurePair.ENTROPY)
    b = sweep_to_csv(sweep(grid(5), MeasurePair.ENTROPY), MeasurePair.ENTROPY)
    assert a == b


def per_value_csv(tables):
    """The sweep CSV written value by value through f"{v:.12g}", the rule its one-format writer must match."""
    lines = [",".join(CSV_COLUMNS)]
    for m, rows in tables:
        lines.extend(",".join([m.value, *[f"{v:.12g}" for v in row]]) for row in rows)
    return "\n".join(lines) + "\n"


def test_csv_rows_match_per_value_format():
    rng = np.random.default_rng(26)
    width = len(CSV_COLUMNS) - 1
    rows = rng.standard_normal((5000, width)) * 10.0 ** rng.integers(-320, 301, (5000, width))
    # Exact and negative zeros, subnormals, the range ends and round-half cases at 12 digits.
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e300, -1e300,
                1.7976931348623157e308, 0.5, 1.0, 1.2345678901235, 9.9999999999995e-5, 123456789012.5]
    rows.flat[rng.choice(rows.size, (len(specials), 40), replace=False)] = np.array(specials)[:, None]
    tables = [(MeasurePair.ENTROPY, rows), (MeasurePair.LINEAR, rows[::-1])]
    assert "".join(rindler._sweep_csv(tables)) == per_value_csv([(m, t.tolist()) for m, t in tables])
    full = np.linspace(0.0, R_MAX, 2001).tolist()
    pairs = list(MeasurePair)
    tables = list(zip(pairs, rindler._sweep_pairs(full, pairs)))
    assert "".join(rindler._sweep_csv(tables)) == per_value_csv(tables)


@pytest.mark.parametrize("count", [4095, 4096, 4097])
def test_cli_sweep_csv_at_row_block_seams(capsys, count):
    text = f"0:{R_MAX!r}:{count}"
    assert main(["sweep", "--grid", text, "--measures", "both"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    pairs = list(MeasurePair)
    tables = [(m, t.tolist()) for m, t in zip(pairs, rindler._sweep_pairs(parse_grid(text), pairs))]
    assert out == per_value_csv(tables)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_sweep_to_csv_refuses_non_finite_records(bad):
    record = sweep([0.3], MeasurePair.LINEAR)[0]
    with pytest.raises(NumericError):
        sweep_to_csv([record, dataclasses.replace(record, e_persp_r=bad)], MeasurePair.LINEAR)


def test_sweep_dicts_align_with_columns():
    rows = sweep_to_dicts(sweep(grid(2), MeasurePair.ENTROPY), MeasurePair.ENTROPY)
    assert list(rows[0]) == list(CSV_COLUMNS)
    assert rows[0]["measure_pair"] == "entropy"
    assert rows[0]["E_A_RRbar"] == 1.0
    assert rows[1]["MI_R_Rbar"] == pytest.approx(MI_PLATEAU, abs=1e-12)


def test_mi_curves_match_sweep_oracle_fields():
    rec = sweep([0.42], MeasurePair.ENTROPY)[0]
    mi = mutual_information_curves(0.42)
    assert rec.mi_r_rbar == mi.mi_r_rbar
    assert isinstance(mi, MiCurves)


@pytest.mark.parametrize("count", [4095, 4096, 4097, 8193])
def test_sweep_blocks_equal_one_whole_grid_block(monkeypatch, capsys, count):
    # sweep and sample both step through one block driver: blocks of 4096 rows give the bytes of one whole block.
    full = np.linspace(0.0, R_MAX, count).tolist()
    analysed = []
    original = rindler._Analysis

    def counted(amps, *args, **kwargs):
        analysed.append(len(amps))
        return original(amps, *args, **kwargs)

    def sample():
        assert main(["sample", "--count", str(count), "--seed", "7", "--parity", "neither", "--measures", "both"]) == 0
        return capsys.readouterr().out.encode()

    monkeypatch.setattr(rindler, "_Analysis", counted)
    monkeypatch.setattr(transference, "_Analysis", counted)
    runs = [lambda pairs=pairs: b"".join(t.tobytes() for t in rindler._sweep_pairs(full, pairs))
            for pairs in ([MeasurePair.ENTROPY], [MeasurePair.LINEAR], list(MeasurePair))]
    for run in [*runs, sample]:
        blocked = run()
        assert analysed == [4096] * (count // 4096) + [count % 4096] * (count % 4096 > 0)
        analysed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(qstate, "_ROW_BLOCK", count)
            whole = run()
        assert analysed == [count]
        analysed.clear()
        assert blocked == whole


@pytest.mark.parametrize("count", [1, 201, 2001, 100_000])
def test_closed_form_table_equals_scalar_formulas(count):
    points = np.linspace(0.0, R_MAX, count).tolist()
    for m in MeasurePair:
        table = rindler._curves(points, m)
        assert table.shape == (count, 6)
        expect = np.array([[curves[q] for q in Quantity] for curves in (printed_curves(r, m) for r in points)])
        assert np.array_equal(table.view(np.int64), expect.view(np.int64)), m
