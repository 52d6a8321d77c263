"""End-to-end acceptance gate.

Each criterion below records one `ACCEPTANCE <n>: PASS|FAIL` verdict, shown
in the terminal summary of every pytest run, and fails the corresponding
test if its assertions do not hold.
"""

import functools
import json
import time

import numpy as np

import conftest

from qrfkit import (
    ConstraintId,
    MeasurePair,
    ObserverLabel,
    ParityClass,
    check_corollary,
    check_transference,
    entanglement,
    global_state,
    mutual_information_curves,
    perspectival_state,
    random_parity_state,
    random_state,
    reconstruct_from_xyl,
    sweep,
    transference_sides,
    xyl_closed_form,
    z2_operator,
)
from qrfkit.cli import main
from qrfkit.rindler import R_MAX, oracle_coherence
from reference import (MI_CROSSING, MI_PLATEAU, RT2, WORKED, WORKED_FROM_1, channel_deviation, ghz, odd_edge_state,
                       sep_counterexample, state_document)

GRID = np.linspace(0.0, R_MAX, 201)


def criterion(num):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_VERDICTS[num] = False
                raise
            conftest.ACCEPTANCE_VERDICTS[num] = True
        return wrapper
    return deco


@criterion(1)
def test_criterion_01_worked_example_via_cli(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(state_document(WORKED), encoding="utf-8")
    out = tmp_path / "persp.json"
    started = time.perf_counter()
    code = main(["perspective", "--state", str(state), "--perspective", "1",
                 "--out", str(out)])
    elapsed = time.perf_counter() - started
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    got = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    expect = np.array(WORKED_FROM_1)
    assert np.max(np.abs(got - expect)) <= 1e-12
    assert elapsed < 1.0


@criterion(2)
def test_criterion_02_formulation_equivalence():
    started = time.perf_counter()
    for n in (2, 3, 4):
        for i in range(1000):
            psi = random_state(n, np.random.default_rng([2, n, i]))
            for p in range(n):
                assert channel_deviation(psi, p) <= 1e-12
    assert time.perf_counter() - started < 10.0


@criterion(3)
def test_criterion_03_parity_transference():
    for i in range(1000):
        for offset, cls in ((0, ParityClass.EVEN), (1, ParityClass.ODD)):
            psi = random_parity_state(cls, np.random.default_rng([3, offset, i]))
            for m in MeasurePair:
                for rep in check_transference(psi, m):
                    assert rep.residual <= 1e-9

    for g in (0.3, 0.6, RT2, 0.9):
        psi = ghz(g)
        for m in MeasurePair:
            for rep in check_transference(psi, m):
                assert not rep.satisfied
                assert rep.residual > 1e-3

    sep = sep_counterexample()
    for m in MeasurePair:
        assert all(rep.satisfied for rep in check_corollary(sep, m))
    lhs, rhs = transference_sides(sep, ConstraintId.C1, MeasurePair.ENTROPY)
    assert abs((lhs - rhs) - 1.0) <= 1e-9


@criterion(4)
def test_criterion_04_partial_solution_family():
    for q in (0.1, 0.3, 0.5):
        psi = odd_edge_state(q)
        for m in MeasurePair:
            reps = {rep.constraint: rep for rep in check_transference(psi, m)}
            assert reps[ConstraintId.C1].residual <= 1e-9
            assert reps[ConstraintId.C3].residual <= 1e-9
            assert reps[ConstraintId.C2].residual > 1e-4


@criterion(5)
def test_criterion_05_closed_form_tables():
    expect_invariant = {MeasurePair.ENTROPY: 1.0, MeasurePair.LINEAR: 0.5}
    for m in MeasurePair:
        for rec in sweep(GRID, m):
            assert rec.max_residual <= 1e-10
            assert rec.e_a_rrbar == expect_invariant[m]


@criterion(6)
def test_criterion_06_offset_identities():
    target = {MeasurePair.ENTROPY: 1.0, MeasurePair.LINEAR: 0.5}
    for r in GRID:
        persp = perspectival_state(r, ObserverLabel.ANTIROB)
        for m in MeasurePair:
            e = entanglement(persp, [0], m)
            full = oracle_coherence(persp, 1, m)       # rob slot
            assert abs((e + full) - target[m]) <= 1e-10
    for r in GRID[1:-1]:
        persp = perspectival_state(r, ObserverLabel.ANTIROB)
        e = entanglement(persp, [0], MeasurePair.ENTROPY)
        partial = oracle_coherence(persp, 0, MeasurePair.ENTROPY)   # alice slot
        assert e + partial < 1.0


@criterion(7)
def test_criterion_07_pair_identities():
    for r in GRID:
        psi = global_state(r)
        for m in MeasurePair:
            for rep in check_corollary(psi, m):
                assert rep.residual <= 1e-9


@criterion(8)
def test_criterion_08_mutual_information():
    curves = [mutual_information_curves(r) for r in GRID]

    assert abs(curves[0].mi_a_r - 2.0) <= 1e-12

    assert abs(curves[-1].mi_r_rbar - MI_PLATEAU) <= 1e-6

    assert abs(curves[-1].mi_persp_r - MI_CROSSING) <= 1e-4
    assert abs(curves[-1].mi_persp_rbar - MI_CROSSING) <= 1e-4
    assert abs(curves[-1].mi_persp_r - curves[-1].mi_persp_rbar) <= 1e-12

    for a, b in zip(curves, curves[1:]):
        assert b.mi_a_r < a.mi_a_r
        assert b.mi_a_rbar > a.mi_a_rbar
        assert b.mi_r_rbar >= a.mi_r_rbar - 1e-15
    for c in curves:
        assert abs((c.mi_a_r + c.mi_a_rbar) - 2.0) <= 1e-10

    counterparts = (("mi_persp_a", "mi_r_rbar"),
                    ("mi_persp_r", "mi_a_rbar"),
                    ("mi_persp_rbar", "mi_a_r"))
    for c in curves:
        for persp_name, global_name in counterparts:
            assert getattr(c, persp_name) >= getattr(c, global_name) - 1e-10


@criterion(9)
def test_criterion_09_frame_operator_unitarity():
    for register in (2, 3, 4):
        n_parties = register + 1
        eye = np.eye(1 << register)
        for from_label in range(n_parties):
            for to_label in range(n_parties):
                if to_label == from_label:
                    continue
                m = z2_operator(n_parties, from_label, to_label).matrix
                assert np.max(np.abs(m @ m.conj().T - eye)) <= 1e-10
                assert np.max(np.abs(m @ m - eye)) <= 1e-10


@criterion(10)
def test_criterion_10_full_run_budget():
    started = time.perf_counter()

    for m in MeasurePair:
        for rec in sweep(GRID, m):
            assert rec.max_residual <= 1e-10

    for n in (2, 3, 4):
        for i in range(1000):
            psi = random_state(n, np.random.default_rng([10, n, i]))
            for p in range(n):
                assert channel_deviation(psi, p) <= 1e-12

    for i in range(1000):
        for offset, cls in ((0, ParityClass.EVEN), (1, ParityClass.ODD)):
            psi = random_parity_state(cls, np.random.default_rng([10, 9, offset, i]))
            for m in MeasurePair:
                for rep in check_transference(psi, m):
                    assert rep.residual <= 1e-9

    for i in range(1000):
        psi = random_state(3, np.random.default_rng([10, 7, i]))
        for c in ConstraintId:
            alpha, beta, gamma = c.permutation
            for m in MeasurePair:
                triple = xyl_closed_form(psi, c, m)
                e_global, e_persp, coh = reconstruct_from_xyl(triple, m)
                lhs, rhs = transference_sides(psi, c, m)
                assert abs((e_persp + coh) - lhs) <= 1e-9
                assert abs(e_global - rhs) <= 1e-9

    assert time.perf_counter() - started < 60.0
