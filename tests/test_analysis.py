"""The stacked analysis gives the per-call functions' values bit for bit.

check_transference, check_corollary, the sweep oracle and the CLI all read
one analysis of a stack of 3-qubit states or grid points.  Each test here
compares that path with a reference built on the same machine from the
public per-call primitives or from one-state stacks, so the equalities are
exact (==) on any CPU.  The rindler closed forms are checked against the
printed formulas written out here one quantity at a time, independent of
the curve table that the sweep and the public closed-form functions share.
"""

import json
import math
import sys

import numpy as np
import pytest

from qrfkit import (
    MeasurePair,
    MiCurves,
    ObserverLabel,
    ParityClass,
    Quantity,
    SweepRecord,
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
    random_parity_state,
    state_from_amplitudes,
    sweep,
    transference_sides,
)
from qrfkit import perspective
from qrfkit.cli import main
from qrfkit.rindler import GLOBAL_QUANTITY, PERSP_QUANTITY, R_MAX
from qrfkit.transference import _analysis_of, _rows, oracle_coherence, perspectival_side

PAIRS = list(MeasurePair)


def analysed_states():
    states = []
    for cls in ParityClass:
        rng = np.random.default_rng([97, len(states)])
        states.extend(random_parity_state(cls, rng) for _ in range(12))
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    tilted = np.array([math.cos(0.4), 1j * math.sin(0.4)])
    states.append(state_from_amplitudes(np.kron(np.kron(plus, tilted), [0.6, 0.8])))
    states.append(state_from_amplitudes([0.6, 0, 0, 0, 0, 0, 0, 0.8]))
    return states


def reference_side(psi, alpha, beta, m):
    """perspectival_side as separate per-call primitives."""
    persp = assign_perspective(psi, alpha)
    return entanglement(persp, [0], m) + oracle_coherence(persp, beta - (beta > alpha), m)


def test_constraint_values_equal_per_call_primitives():
    for psi in analysed_states():
        for m in PAIRS:
            for rep in check_transference(psi, m):
                alpha, beta, gamma = rep.constraint.permutation
                assert rep.lhs == reference_side(psi, alpha, beta, m)
                assert rep.rhs == entanglement(psi, [gamma], m)
                assert (rep.lhs, rep.rhs) == transference_sides(psi, rep.constraint, m)
            for rep in check_corollary(psi, m):
                alpha, beta, _ = rep.constraint.permutation
                assert rep.lhs == reference_side(psi, alpha, beta, m)
                assert rep.rhs == reference_side(psi, beta, alpha, m)
                assert rep.lhs == perspectival_side(psi, alpha, beta, m)


def reference_entanglement(r, quantity, m):
    """The printed closed forms one quantity at a time, independent of rindler's curve table."""
    r = min(r, R_MAX)
    c2 = math.cos(r) ** 2
    s2 = math.sin(r) ** 2
    if m is MeasurePair.ENTROPY:
        if quantity is Quantity.E_PERSP_A:
            split = math.sqrt(7.0 + math.cos(4.0 * r)) / (2.0 * math.sqrt(2.0))
            return binary_entropy((1.0 + split) / 2.0)
        if quantity is Quantity.E_PERSP_R:
            return binary_entropy((1.0 + math.cos(r)) / 2.0)
        if quantity is Quantity.E_PERSP_RBAR:
            return binary_entropy((1.0 + math.sin(r)) / 2.0)
        if quantity is Quantity.E_RBAR_AR:
            return binary_entropy((1.0 + c2) / 2.0)
        if quantity is Quantity.E_R_ARBAR:
            return binary_entropy(c2 / 2.0)
        return 1.0
    if quantity is Quantity.E_PERSP_A:
        return math.sin(2.0 * r) ** 2 / 8.0
    if quantity is Quantity.E_PERSP_R:
        return s2 / 2.0
    if quantity is Quantity.E_PERSP_RBAR:
        return c2 / 2.0
    if quantity is Quantity.E_RBAR_AR:
        return (s2 / 2.0) * (1.0 + c2)
    if quantity is Quantity.E_R_ARBAR:
        return c2 * (1.0 - c2 / 2.0)
    return 0.5


OBSERVERS = list(ObserverLabel)
ORDERED_PAIRS = [(alpha, beta) for alpha in OBSERVERS for beta in OBSERVERS if beta is not alpha]


def reference_coherence(r, alpha, beta, m):
    """Global-cut entanglement of the third party minus alpha's perspectival entanglement."""
    gamma = ObserverLabel(3 - alpha.value - beta.value)
    return reference_entanglement(r, GLOBAL_QUANTITY[gamma], m) - reference_entanglement(r, PERSP_QUANTITY[alpha], m)


def reference_mi(r):
    """MiCurves fields from the entropic reference curves."""
    e = {q: reference_entanglement(r, q, MeasurePair.ENTROPY) for q in Quantity}
    e_a, e_r, e_rbar = e[Quantity.E_A_RRBAR], e[Quantity.E_R_ARBAR], e[Quantity.E_RBAR_AR]
    return MiCurves(
        mi_a_r=e_a + e_r - e_rbar,
        mi_a_rbar=e_a + e_rbar - e_r,
        mi_r_rbar=e_r + e_rbar - e_a,
        mi_persp_a=2.0 * e[Quantity.E_PERSP_A],
        mi_persp_r=2.0 * e[Quantity.E_PERSP_R],
        mi_persp_rbar=2.0 * e[Quantity.E_PERSP_RBAR],
    )


# The domain's ends, the clamped round-off just past pi/4, and the interior: an even
# grid and 40 seeded uniform points, in ascending order as a sweep requires.
REFERENCE_GRID = sorted(np.linspace(0.0, R_MAX, 23).tolist() + np.random.default_rng(40).uniform(0.0, R_MAX, 40).tolist())
REFERENCE_GRID.append(R_MAX + 5e-13)


def test_closed_forms_equal_scalar_reference():
    for r in [1e-300, *REFERENCE_GRID]:
        for m in PAIRS:
            for q in Quantity:
                assert closed_form_entanglement(r, q, m) == reference_entanglement(r, q, m)
            for alpha, beta in ORDERED_PAIRS:
                assert closed_form_coherence(r, alpha, beta, m) == reference_coherence(r, alpha, beta, m)
        assert mutual_information_curves(r) == reference_mi(r)


def reference_point_record(r, m):
    """One sweep row from the scalar reference and per-call primitives, each pair evaluated on its own."""
    r = min(r, R_MAX)
    g = global_state(r)
    rho_g = density_matrix(g)
    persp = [assign_perspective(g, obs.value) for obs in OBSERVERS]
    mi = reference_mi(r)
    closed = [
        *(reference_entanglement(r, PERSP_QUANTITY[obs], m) for obs in OBSERVERS),
        *(reference_coherence(r, alpha, beta, m) for alpha, beta in ORDERED_PAIRS),
        *(reference_entanglement(r, GLOBAL_QUANTITY[obs], m) for obs in reversed(OBSERVERS)),
        mi.mi_r_rbar, mi.mi_a_rbar, mi.mi_a_r, mi.mi_persp_a, mi.mi_persp_r, mi.mi_persp_rbar,
    ]
    oracle = [
        *(entanglement(psi, [0], m) for psi in persp),
        *(oracle_coherence(persp[alpha.value], beta.value - (beta.value > alpha.value), m)
          for alpha, beta in ORDERED_PAIRS),
        *(entanglement(g, [obs.value], m) for obs in reversed(OBSERVERS)),
        *(mutual_information(rho_g, [i], [j]) for i, j in ((1, 2), (0, 2), (0, 1))),
        *(mutual_information(density_matrix(psi), [0], [1]) for psi in persp),
    ]
    return SweepRecord(r, *closed, max(abs(c - o) for c, o in zip(closed, oracle)))


def test_sweep_records_equal_reference_rows():
    for m in PAIRS:
        got = sweep(REFERENCE_GRID, m)
        assert got == [reference_point_record(r, m) for r in REFERENCE_GRID]
        assert any(rec.max_residual > 0.0 for rec in got)


def cli_out(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def test_sweep_both_pairs_equal_single_pair_runs(capsys):
    base = ["sweep", "--grid", f"0:{R_MAX!r}:9"]
    runs = {m: cli_out(capsys, base + ["--measures", m]) for m in ("both", "entropy", "linear")}
    assert runs["both"] == runs["entropy"] + runs["linear"].split("\n", 1)[1]
    runs = {m: cli_out(capsys, base + ["--measures", m, "--format", "json"]) for m in ("both", "entropy", "linear")}
    assert json.loads(runs["both"]) == json.loads(runs["entropy"]) + json.loads(runs["linear"])


def test_sample_both_pairs_equal_single_pair_runs(capsys):
    for parity in ("even", "odd", "neither"):
        base = ["sample", "--count", "6", "--seed", "13", "--parity", parity]
        both, ent, lin = ([json.loads(line) for line in cli_out(capsys, base + ["--measures", m]).splitlines()]
                          for m in ("both", "entropy", "linear"))
        assert both[:-1] == [doc for pair in zip(ent[:-1], lin[:-1]) for doc in pair]
        summary = ent[-1]["summary"]
        summary["pass"].update(lin[-1]["summary"]["pass"])
        assert both[-1]["summary"] == summary


def test_check_both_pairs_equal_single_pair_runs(capsys):
    for state in ("rindler:0.3", "ghz:0.6", "appc-q:0.3", "sep-counterexample"):
        both, ent, lin = (json.loads(cli_out(capsys, ["check", "--state", state, "--measures", m]))
                          for m in ("both", "entropy", "linear"))
        assert both["results"] == ent["results"] + lin["results"]
        assert both["parity"] == ent["parity"] == lin["parity"]


def test_stack_equals_one_state_stacks():
    rng = np.random.default_rng(2024)
    classes = list(ParityClass)
    states = [random_parity_state(classes[i % 3], rng) for i in range(2994)]
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    for k in range(3):
        tilted = np.array([math.cos(0.3 * k), 1j * math.sin(0.3 * k)])
        states.append(state_from_amplitudes(np.kron(np.kron(plus, tilted), [0.6, 0.8])))
        g = 0.2 + 0.3 * k
        states.append(state_from_amplitudes([g, 0, 0, 0, 0, 0, 0, math.sqrt(1.0 - g * g)]))
    order = rng.permutation(len(states))
    states = [states[i] for i in order]
    stack = _analysis_of(states, PAIRS)
    tables = {m: (stack.transference(m, 1e-9), stack.corollary(m, 1e-9)) for m in PAIRS}
    for k, psi in enumerate(states):
        one = _analysis_of([psi], PAIRS)
        for m in PAIRS:
            assert (stack.persp_ent[m][:, k] == one.persp_ent[m][:, 0]).all()
            assert (stack.coh[m][:, :, k] == one.coh[m][:, :, 0]).all()
            assert (stack.global_ent[m][:, k] == one.global_ent[m][:, 0]).all()
            assert list(_rows(tables[m][0], k)) == list(_rows(one.transference(m, 1e-9), 0))
            assert list(_rows(tables[m][1], k)) == list(_rows(one.corollary(m, 1e-9), 0))


@pytest.fixture
def flip_merge_calls(monkeypatch):
    """Count calls of the stacked flip-merge kernel through every qrfkit module that holds it."""
    calls = []
    original = perspective._flip_merge

    def counted(amps, p):
        calls.append(len(amps))
        return original(amps, p)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "qrfkit" and getattr(mod, "_flip_merge", None) is original:
            monkeypatch.setattr(mod, "_flip_merge", counted)
    return calls


def test_each_state_assigns_three_perspectives(capsys, flip_merge_calls):
    # One flip-merge call per observer covers every state of a run: three per run, whatever the count.
    for count in (1, 5, 40):
        cli_out(capsys, ["sample", "--count", str(count), "--seed", "3", "--parity", "neither", "--measures", "both"])
        assert flip_merge_calls == [count] * 3
        flip_merge_calls.clear()
    for count in (1, 4, 30):
        cli_out(capsys, ["sweep", "--grid", f"0:0.5:{count}", "--measures", "both"])
        assert flip_merge_calls == [count] * 3
        flip_merge_calls.clear()
    cli_out(capsys, ["check", "--state", "rindler:0.3", "--measures", "both"])
    assert flip_merge_calls == [1] * 3
