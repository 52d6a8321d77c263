import math

import numpy as np
import pytest

from qrfkit import (
    ConstraintId,
    MeasurePair,
    ParityClass,
    assign_perspective,
    binary_entropy,
    check_corollary,
    check_transference,
    condition_check,
    entanglement,
    global_state,
    parity_class,
    random_parity_state,
    random_state,
    reconstruct_from_xyl,
    state_from_amplitudes,
    transference_sides,
    xyl_closed_form,
)
from qrfkit.errors import WrongQubitCountError
from qrfkit.transference import _analysis_of, perspectival_side

RT2 = 1.0 / math.sqrt(2.0)


def sep_counterexample():
    return state_from_amplitudes([0.5, 0.5, 0.5, 0.5, 0, 0, 0, 0])


def ghz(g):
    return state_from_amplitudes([g, 0, 0, 0, 0, 0, 0, math.sqrt(1 - g * g)])


def odd_edge_state(q):
    e = math.sqrt(0.5 - q * q)
    return state_from_amplitudes([e, q, -q, e, 0, 0, 0, 0])


def test_parity_class_examples():
    assert parity_class(global_state(0.4)) is ParityClass.EVEN
    w_odd = state_from_amplitudes(np.array([0, 1, 1, 0, 1, 0, 0, 0]) / np.sqrt(3.0))
    assert parity_class(w_odd) is ParityClass.ODD
    assert parity_class(sep_counterexample()) is ParityClass.NEITHER
    # mixed-weight support: |000> plus |111>
    assert parity_class(ghz(0.6)) is ParityClass.NEITHER
    # An amplitude counts as support only when its modulus exceeds SUPPORT_TOL (1e-12).
    for stray, cls in ((5e-13, ParityClass.EVEN), (2e-12, ParityClass.NEITHER), (-2e-12j, ParityClass.NEITHER)):
        assert parity_class(state_from_amplitudes([0, stray, 0, 1, 0, 0, 0, 0])) is cls


def test_parity_class_requires_three_qubits():
    bell = state_from_amplitudes([RT2, 0, 0, RT2])
    with pytest.raises(WrongQubitCountError):
        parity_class(bell)
    with pytest.raises(WrongQubitCountError):
        check_transference(bell, MeasurePair.ENTROPY)


def test_transference_sides_on_degradation_family():
    # both sides equal the gamma-cut entanglement H2((1 + cos^2 r) / 2)
    for r in (0.0, 0.3, 0.6, math.pi / 4):
        s = global_state(r)
        lhs, rhs = transference_sides(s, ConstraintId.C1, MeasurePair.ENTROPY)
        expect = binary_entropy((1.0 + math.cos(r) ** 2) / 2.0)
        assert abs(lhs - rhs) <= 1e-12
        assert abs(rhs - expect) <= 1e-12


def test_parity_states_satisfy_all_constraints():
    for i in range(400):
        cls = ParityClass.EVEN if i % 2 == 0 else ParityClass.ODD
        s = random_parity_state(cls, np.random.default_rng([41, i]))
        for m in MeasurePair:
            for rep in check_transference(s, m):
                assert rep.residual <= 1e-9, (cls, m, rep)
                assert rep.satisfied


def test_transference_implies_corollary():
    rng = np.random.default_rng(42)
    for i in range(100):
        cls = ParityClass.EVEN if i % 2 == 0 else ParityClass.ODD
        s = random_parity_state(cls, rng)
        for m in MeasurePair:
            if all(rep.satisfied for rep in check_transference(s, m)):
                for rep in check_corollary(s, m):
                    assert rep.satisfied


def test_corollary_without_transference():
    # product of three single-qubit states: every perspectival side is the
    # same, so corollaries hold, but transference fails on two constraints
    s = sep_counterexample()
    for m in MeasurePair:
        assert all(rep.satisfied for rep in check_corollary(s, m))
        sat = [rep.satisfied for rep in check_transference(s, m)]
        assert not all(sat)


def test_sep_counterexample_gap_is_one():
    lhs, rhs = transference_sides(sep_counterexample(), ConstraintId.C1, MeasurePair.ENTROPY)
    assert abs((lhs - rhs) - 1.0) <= 1e-12
    assert abs(rhs) <= 1e-12


def random_qubit(rng):
    """One normalised qubit: random complex, random real or a basis state, in equal shares."""
    kind = rng.integers(3)
    if kind == 0:
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    elif kind == 1:
        v = rng.standard_normal(2)
    else:
        v = np.eye(2)[rng.integers(2)]
    return v / np.linalg.norm(v)


def random_product_state(rng):
    a, b, c = (random_qubit(rng) for _ in range(3))
    return state_from_amplitudes(np.kron(np.kron(a, b), c))


def test_product_states_satisfy_corollaries_but_not_transference():
    # sep_counterexample generalised: on a product of three qubits both
    # orderings of each observer pair give the same side, so the corollaries hold to round-off,
    # while transference fails clearly on most states.  The stacked analysis
    # gives check_corollary's and check_transference's values bit for bit.
    rng = np.random.default_rng(2024)
    states = [random_product_state(rng) for _ in range(3000)]
    analysis = _analysis_of(states, list(MeasurePair))
    failures = 0
    for m in MeasurePair:
        *_, satisfied = analysis.corollary(m, 1e-12)
        assert satisfied.all(), (m, np.argwhere(~satisfied))
        _, _, residual, _ = analysis.transference(m, 1e-12)
        failures += int((residual.max(axis=1) > 0.1).sum())
    assert failures > 0.9 * 2 * len(states), failures


# (amplitudes, expected side under ENTROPY, under LINEAR).  The uniform states'
# one-qubit reductions are all maximally mixed, a doubly degenerate spectrum,
# and their perspectival states are pure products whose spectra carry round-off
# negatives for the clamp; W-even's reductions are diag(1/3, 2/3) for every party,
# so all three constraints compare sides of one spectrum.
DEGENERATE_STATES = {
    "uniform-even": ([0.5, 0, 0, 0.5, 0, 0.5, 0.5, 0], 1.0, 0.5),
    "uniform-odd": ([0, 0.5, 0.5, 0, 0.5, 0, 0, 0.5], 1.0, 0.5),
    "w-even": ([0, 0, 0, 1 / math.sqrt(3), 0, 1 / math.sqrt(3), 1 / math.sqrt(3), 0], binary_entropy(1 / 3), 4 / 9),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_STATES))
def test_degenerate_spectra_satisfy_constraints_exactly(name):
    amps, entropic, linear = DEGENERATE_STATES[name]
    psi = state_from_amplitudes(amps)
    for m, expected in ((MeasurePair.ENTROPY, entropic), (MeasurePair.LINEAR, linear)):
        for rep in check_transference(psi, m) + check_corollary(psi, m):
            assert rep.satisfied
            assert rep.lhs == rep.rhs and rep.residual == 0.0
            assert rep.lhs == pytest.approx(expected, abs=1e-12)


def test_ghz_family_violates():
    for g in (0.3, 0.6, RT2, 0.9):
        s = ghz(g)
        expect = {
            MeasurePair.ENTROPY: binary_entropy(g * g),
            MeasurePair.LINEAR: 2.0 * g * g * (1.0 - g * g),
        }
        for m in MeasurePair:
            for rep in check_transference(s, m):
                assert not rep.satisfied
                assert rep.residual > 1e-3
                assert abs(rep.residual - expect[m]) <= 1e-12


def test_odd_edge_family_fails_only_middle_constraint():
    for q in (0.1, 0.3, 0.5):
        s = odd_edge_state(q)
        expect = {
            MeasurePair.ENTROPY: binary_entropy(2.0 * q * q),
            MeasurePair.LINEAR: 4.0 * q * q - 8.0 * q ** 4,
        }
        for m in MeasurePair:
            reps = {rep.constraint: rep for rep in check_transference(s, m)}
            assert reps[ConstraintId.C1].residual <= 1e-9
            assert reps[ConstraintId.C3].residual <= 1e-9
            assert abs(reps[ConstraintId.C2].residual - expect[m]) <= 1e-9
            if q > 0:
                assert not reps[ConstraintId.C2].satisfied


def test_trivial_state_satisfies_everything():
    s = state_from_amplitudes([1, 0, 0, 0, 0, 0, 0, 0])
    for m in MeasurePair:
        assert all(rep.satisfied for rep in check_transference(s, m))
        assert all(rep.residual == 0.0 for rep in check_transference(s, m))


def test_coherence_equals_entanglement_gap_when_satisfied():
    # rearranged constraint: coherence = global minus perspectival
    # entanglement, so satisfaction forces E_persp <= E_global
    rng = np.random.default_rng(43)
    for i in range(100):
        cls = ParityClass.EVEN if i % 2 == 0 else ParityClass.ODD
        s = random_parity_state(cls, rng)
        for m in MeasurePair:
            for c in ConstraintId:
                alpha, beta, gamma = c.permutation
                e_persp = entanglement(assign_perspective(s, alpha), [0], m)
                e_global = entanglement(s, [gamma], m)
                assert e_persp <= e_global + 1e-10


def test_xyl_trivial_state():
    s = state_from_amplitudes([1, 0, 0, 0, 0, 0, 0, 0])
    t = xyl_closed_form(s, ConstraintId.C1, MeasurePair.ENTROPY)
    assert (t.x, t.y, t.l) == (1.0, 1.0, 1.0)
    t = xyl_closed_form(s, ConstraintId.C1, MeasurePair.LINEAR)
    assert (t.x, t.y, t.l) == (1.0, 0.0, 1.0)


def test_xyl_even_state_closed_form():
    # support {000, 011, 101, 110} with real amplitudes (a, d, f, g):
    # X = |2(a^2+g^2) - 1| and L = a^2 + g^2 for the first constraint
    a, d, f = 0.6, 0.4, 0.5
    g = math.sqrt(1 - a * a - d * d - f * f)
    s = state_from_amplitudes([a, 0, 0, d, 0, f, g, 0])
    t = xyl_closed_form(s, ConstraintId.C1, MeasurePair.ENTROPY)
    assert abs(t.x - abs(2 * (a * a + g * g) - 1)) <= 1e-12
    assert abs(t.l - (a * a + g * g)) <= 1e-12


def test_xyl_reconstruction_matches_measures():
    rng = np.random.default_rng(44)
    for i in range(1000):
        s = random_state(3, np.random.default_rng([44, i]))
        for c in ConstraintId:
            alpha, beta, gamma = c.permutation
            for m in MeasurePair:
                t = xyl_closed_form(s, c, m)
                e_global, e_persp, coh = reconstruct_from_xyl(t, m)
                assert abs(e_global - entanglement(s, [gamma], m)) <= 1e-9
                lhs, rhs = transference_sides(s, c, m)
                assert abs((e_persp + coh) - lhs) <= 1e-9
                assert abs(e_global - rhs) <= 1e-9


def test_condition_check_tracks_satisfaction():
    rng = np.random.default_rng(45)
    mismatches = 0
    for i in range(1000):
        if i % 3 == 0:
            s = random_state(3, np.random.default_rng([45, i]))
        else:
            cls = ParityClass.EVEN if i % 2 == 0 else ParityClass.ODD
            s = random_parity_state(cls, np.random.default_rng([45, i]))
        for m in MeasurePair:
            reps = check_transference(s, m)
            for rep in reps:
                cond = condition_check(s, rep.constraint, m)
                if cond != rep.satisfied:
                    mismatches += 1
    assert mismatches == 0


def test_condition_check_examples():
    assert not condition_check(ghz(0.6), ConstraintId.C1, MeasurePair.ENTROPY)
    assert not condition_check(ghz(0.6), ConstraintId.C1, MeasurePair.LINEAR)
    one = state_from_amplitudes([0, 1, 0, 0, 0, 0, 0, 0])
    for c in ConstraintId:
        for m in MeasurePair:
            assert condition_check(one, c, m)


def test_corollary_pair_definition():
    # each corollary compares the two orderings of one observer pair
    s = random_parity_state(ParityClass.EVEN, np.random.default_rng(46))
    pairs = {ConstraintId.C1: (0, 1), ConstraintId.C2: (1, 2), ConstraintId.C3: (2, 0)}
    for m in MeasurePair:
        for rep in check_corollary(s, m):
            alpha, beta = pairs[rep.constraint]
            assert abs(rep.lhs - perspectival_side(s, alpha, beta, m)) <= 1e-12
            assert abs(rep.rhs - perspectival_side(s, beta, alpha, m)) <= 1e-12


def test_report_serialization():
    s = state_from_amplitudes([1, 0, 0, 0, 0, 0, 0, 0])
    rep = check_transference(s, MeasurePair.ENTROPY)[0]
    d = rep.to_dict()
    assert d["constraint"] == "C1"
    assert set(d) == {"constraint", "lhs", "rhs", "residual", "satisfied"}


def test_samplers():
    a = random_parity_state(ParityClass.EVEN, np.random.default_rng(47))
    b = random_parity_state(ParityClass.EVEN, np.random.default_rng(47))
    assert np.all(a.amplitudes == b.amplitudes)
    assert parity_class(a) is ParityClass.EVEN
    assert parity_class(random_parity_state(ParityClass.ODD, np.random.default_rng(48))) is ParityClass.ODD
    s = random_state(4, np.random.default_rng(49))
    assert s.n_qubits == 4
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) <= 1e-12


def test_samplers_hold_the_unit_gaussian_draw_unchanged():
    # Both samplers divide standard-normal real and imaginary parts by their norm;
    # the state keeps that vector bit for bit, with the parity supports' other entries 0.
    def draw(seed, size):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        v /= np.linalg.norm(v)
        return v

    for n in range(1, 13):
        assert random_state(n, np.random.default_rng([50, n])).amplitudes.tobytes() == draw([50, n], 1 << n).tobytes()
    for i in range(20):
        neither = random_parity_state(ParityClass.NEITHER, np.random.default_rng([51, i]))
        assert neither.amplitudes.tobytes() == draw([51, i], 8).tobytes()
        for cls, support in ((ParityClass.EVEN, [0, 3, 5, 6]), (ParityClass.ODD, [1, 2, 4, 7])):
            expected = np.zeros(8, dtype=np.complex128)
            expected[support] = draw([51, i], 4)
            assert random_parity_state(cls, np.random.default_rng([51, i])).amplitudes.tobytes() == expected.tobytes()
