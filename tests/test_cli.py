import copy
import json
import math
import subprocess
import sys
import zlib

import numpy as np
import pytest

from qrfkit import (
    MeasurePair,
    ParityClass,
    PureState,
    assign_perspective,
    check_transference,
    cli,
    embed,
    measures,
    random_parity_state,
    rindler,
    state_from_amplitudes,
    state_from_json,
    state_to_json,
    transference,
)
from qrfkit.cli import main
from qrfkit.rindler import CSV_COLUMNS

RT2 = 1.0 / math.sqrt(2.0)
MI_PLATEAU = 0.6225562489182659
R_MAX_TEXT = repr(math.pi / 4)

WORKED = [0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.5]


def write_state(path, amps):
    doc = {"n_qubits": int(math.log2(len(amps))),
           "amplitudes": [[float(a), 0.0] for a in amps]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_perspective_worked_example(capsys, tmp_path):
    path = write_state(tmp_path / "state.json", WORKED)
    code, out, err = run(capsys, ["perspective", "--state", path, "--perspective", "1"])
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["n_qubits"] == 2
    assert doc["perspective_of"] == 1
    got = [complex(re, im) for re, im in doc["amplitudes"]]
    np.testing.assert_allclose(got, [RT2, 0.5, 0.0, 0.5], atol=1e-12)


def test_perspective_alias_labels(capsys):
    outs = []
    for label in ("2", "Rbar", "rbar"):
        code, out, _ = run(capsys, ["perspective", "--state", "rindler:0.4", "--perspective", label])
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["perspective_of"] == 2


def test_perspective_reaches_every_qubit(capsys, tmp_path):
    rng = np.random.default_rng(41)
    amps = rng.standard_normal(32)
    five = tmp_path / "five.json"
    path = write_state(five, amps / np.linalg.norm(amps))
    psi = state_from_json(five.read_text(encoding="utf-8"))
    code, out, _ = run(capsys, ["perspective", "--state", path, "--perspective", "4"])
    assert code == 0
    assert out == state_to_json(assign_perspective(psi, 4), perspective_of=4) + "\n"
    code, out, err = run(capsys, ["perspective", "--state", path, "--perspective", "5"])
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "shape"


def test_perspective_of_ghz_collapses(capsys):
    code, out, _ = run(capsys, ["perspective", "--state", "ghz:0.5", "--perspective", "A"])
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose([re for re, im in doc["amplitudes"]],
                               [1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_perspective_roundtrip_is_byte_stable(capsys, tmp_path):
    path = write_state(tmp_path / "state.json", WORKED)
    code, first, _ = run(capsys, ["perspective", "--state", path, "--perspective", "1"])
    assert code == 0
    again = tmp_path / "embedded.json"
    again.write_text(state_to_json(embed(state_from_json(first), 1)), encoding="utf-8")
    code, second, _ = run(capsys, ["perspective", "--state", str(again), "--perspective", "1"])
    assert code == 0
    assert first == second


def test_check_degradation_family_all_pass(capsys):
    code, out, _ = run(capsys, ["check", "--state", "rindler:0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["parity"] == "Even"
    assert doc["tol"] == 1e-9
    assert {blk["measure_pair"] for blk in doc["results"]} == {"entropy", "linear"}
    for blk in doc["results"]:
        assert all(rep["satisfied"] for rep in blk["transference"])
        assert all(rep["satisfied"] for rep in blk["corollary"])


def test_check_separable_counterexample(capsys):
    code, out, _ = run(capsys, ["check", "--state", "sep-counterexample"])
    assert code == 0
    doc = json.loads(out)
    assert doc["parity"] == "Neither"
    for blk in doc["results"]:
        assert all(rep["satisfied"] for rep in blk["corollary"])
        assert not all(rep["satisfied"] for rep in blk["transference"])
    entropy = next(b for b in doc["results"] if b["measure_pair"] == "entropy")
    c1 = next(r for r in entropy["transference"] if r["constraint"] == "C1")
    assert abs((c1["lhs"] - c1["rhs"]) - 1.0) <= 1e-9


def test_check_ghz_violates_everything(capsys):
    code, out, _ = run(capsys, ["check", "--state", "ghz:0.6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["parity"] == "Neither"
    for blk in doc["results"]:
        assert not any(rep["satisfied"] for rep in blk["transference"])


def test_check_odd_edge_family(capsys):
    code, out, _ = run(capsys, ["check", "--state", "appc-q:0.3", "--measures", "entropy"])
    assert code == 0
    doc = json.loads(out)
    assert [b["measure_pair"] for b in doc["results"]] == ["entropy"]
    sat = {r["constraint"]: r["satisfied"] for r in doc["results"][0]["transference"]}
    assert sat == {"C1": True, "C2": False, "C3": True}


def test_check_w_even_builtin(capsys):
    code, out, _ = run(capsys, ["check", "--state", "w-even:1,1,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["parity"] == "Even"
    for blk in doc["results"]:
        assert all(rep["satisfied"] for rep in blk["transference"])


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, ["sweep", "--grid", f"0:{R_MAX_TEXT}:3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3 + 3       # header, then one block per pair
    assert [ln.split(",")[0] for ln in lines[1:]] == ["entropy"] * 3 + ["linear"] * 3
    first = dict(zip(CSV_COLUMNS, lines[1].split(",")))
    assert first["r"] == "0"
    assert first["MI_A_R"] == "2"
    assert float(first["max_residual"]) <= 1e-10


@pytest.mark.parametrize("m", list(measures.MeasurePair), ids=lambda m: m.value)
def test_library_and_cli_share_one_sweep_writer(capsys, m):
    text = f"0:{R_MAX_TEXT}:201"
    grid = cli.parse_grid(text)
    records = rindler.sweep(grid, m)
    assert records == [rindler.SweepRecord(*row) for row in rindler._sweep_pairs(grid, [m])[0]]
    code, out, _ = run(capsys, ["sweep", "--grid", text, "--measures", m.value])
    assert code == 0
    assert out == rindler.sweep_to_csv(records, m)
    code, out, _ = run(capsys, ["sweep", "--grid", text, "--measures", m.value, "--format", "json"])
    assert code == 0
    assert json.loads(out) == rindler.sweep_to_dicts(records, m)


def test_sweep_single_point_plateau(capsys):
    code, out, _ = run(capsys, ["sweep", "--grid", f"{R_MAX_TEXT}:{R_MAX_TEXT}:1",
                                "--measures", "entropy"])
    assert code == 0
    row = dict(zip(CSV_COLUMNS, out.splitlines()[1].split(",")))
    assert row["MI_R_Rbar"] == f"{MI_PLATEAU:.12g}"


def test_sweep_json(capsys):
    code, out, _ = run(capsys, ["sweep", "--grid", "0:0.7:2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert list(rows[0]) == list(CSV_COLUMNS)
    assert rows[0]["measure_pair"] == "entropy"
    assert rows[-1]["measure_pair"] == "linear"
    assert rows[0]["E_A_RRbar"] == 1.0


def test_sweep_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        code = main(["sweep", "--grid", f"0:{R_MAX_TEXT}:9", "--out", str(target)])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_sample_even_batch(capsys):
    code, out, _ = run(capsys, ["sample", "--count", "100", "--seed", "42"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 100 * 2 + 1
    summary = json.loads(lines[-1])["summary"]
    assert summary["count"] == 100
    assert summary["seed"] == 42
    assert summary["parity"] == "even"
    assert summary["pass"] == {"entropy": 100, "linear": 100}


def test_sample_is_deterministic(capsys):
    code, first, _ = run(capsys, ["sample", "--count", "5", "--seed", "7",
                                  "--parity", "odd", "--measures", "linear"])
    assert code == 0
    code, second, _ = run(capsys, ["sample", "--count", "5", "--seed", "7",
                                   "--parity", "odd", "--measures", "linear"])
    assert code == 0
    assert first == second
    summary = json.loads(first.splitlines()[-1])["summary"]
    assert summary["pass"] == {"linear": 5}


def test_sample_neither_parity_reports_without_expectation(capsys):
    code, out, _ = run(capsys, ["sample", "--count", "5", "--seed", "3",
                                "--parity", "neither", "--measures", "entropy"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    for ln in lines[:-1]:
        doc = json.loads(ln)
        assert doc["parity"] == "neither"
        assert len(doc["constraints"]) == 3


@pytest.mark.parametrize("measures", ["both", "linear"])
@pytest.mark.parametrize("parity", ["even", "odd", "neither"])
def test_sample_lines_equal_the_scalar_checks(capsys, parity, measures):
    # Every line is the document built from check_transference on the state that
    # random_parity_state draws from the line's seed, so the stacked path is tied to
    # the public scalar API byte for byte.  A tol at round-off splits passes from fails.
    seed, count, tol = 11, 40, 2e-16
    code, out, err = run(capsys, ["sample", "--count", str(count), "--seed", str(seed), "--parity", parity,
                                  "--measures", measures, "--tol", str(tol)])
    assert code == 0
    assert err == ""
    cls = {"even": ParityClass.EVEN, "odd": ParityClass.ODD, "neither": ParityClass.NEITHER}[parity]
    pairs = {"both": [MeasurePair.ENTROPY, MeasurePair.LINEAR], "linear": [MeasurePair.LINEAR]}[measures]
    expected, passes = [], {m.value: 0 for m in pairs}
    for i in range(count):
        psi = random_parity_state(cls, np.random.default_rng([seed, i]))
        for m in pairs:
            reports = check_transference(psi, m, tol)
            ok = all(r.satisfied for r in reports)
            passes[m.value] += ok
            expected.append(json.dumps({"index": i, "parity": parity, "measure_pair": m.value,
                                        "constraints": [r.to_dict() for r in reports], "all_satisfied": ok}))
    expected.append(json.dumps({"summary": {"count": count, "parity": parity, "seed": seed, "pass": passes}}))
    assert out.splitlines() == expected


def test_exit_code_io(capsys, tmp_path):
    code, out, err = run(capsys, ["perspective", "--state", str(tmp_path / "missing.json"),
                                  "--perspective", "0"])
    assert code == 2
    assert json.loads(err)["error"] == "io"

    path = write_state(tmp_path / "ok.json", [1.0, 0.0])
    code, _, err = run(capsys, ["check", "--state", "rindler:0.1", "--out", str(tmp_path)])
    assert code == 2
    assert json.loads(err)["error"] == "io"


def test_exit_code_io_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, ["perspective", "--state", str(bad), "--perspective", "0"])
    assert code == 2
    assert json.loads(err)["error"] == "io"


def test_exit_code_shape(capsys, tmp_path):
    path = write_state(tmp_path / "one.json", [1.0, 0.0])
    code, _, err = run(capsys, ["perspective", "--state", path, "--perspective", "0"])
    assert code == 3
    assert json.loads(err)["error"] == "shape"

    path = write_state(tmp_path / "two.json", [RT2, 0.0, 0.0, RT2])
    code, _, err = run(capsys, ["check", "--state", path])
    assert code == 3
    assert json.loads(err)["error"] == "shape"


def test_exit_code_domain(capsys):
    cases = [
        ["sweep", "--grid", "0:0.9:5"],
        ["sweep", "--grid", "0:0.5:0"],
        ["perspective", "--state", "ghz:1.5", "--perspective", "0"],
        ["perspective", "--state", "rindler:0.3", "--perspective", "B"],
        ["perspective", "--state", "rindler:0.3", "--perspective", "-1"],
        ["perspective", "--state", "rindler:0.3", "--perspective", "1.0"],
        ["sample", "--count", "3", "--seed", "-1"],
        ["check", "--state", "rindler:0.3", "--tol", "-1"],
        ["check", "--state", "w-even:0,0,0"],
        ["check", "--state", "appc-q:0.8"],
        ["check"],                                   # usage error
        ["check", "--state", "rindler:0.3", "--measures", "renyi"],
    ]
    for argv in cases:
        code, _, err = run(capsys, argv)
        assert code == 4, argv
        assert json.loads(err)["error"] == "domain"


def test_exit_code_numeric(capsys, tmp_path):
    path = write_state(tmp_path / "unnorm.json", [0.5, 0.5])
    code, _, err = run(capsys, ["perspective", "--state", path, "--perspective", "0"])
    assert code == 5
    assert json.loads(err)["error"] == "numeric"


def test_non_finite_output_is_a_numeric_error(capsys, monkeypatch):
    # a measure that yields nan must not reach stdout as the bare NaN token
    monkeypatch.setattr(measures, "_linear_entropies", lambda rho: np.full(rho.shape[:-2], math.nan))
    monkeypatch.setattr(cli, "assign_perspective", lambda psi, p: PureState(2, np.full(4, math.nan + 0j)))
    cases = [
        ["check", "--state", "rindler:0.3", "--measures", "linear"],
        ["sample", "--count", "2", "--seed", "1", "--measures", "both"],
        ["sweep", "--grid", "0:0.5:2", "--measures", "linear", "--format", "json"],
        ["perspective", "--state", "rindler:0.3", "--perspective", "0"],
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 5, argv
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "numeric"


def test_non_finite_sweep_oracle_value_is_a_numeric_error(capsys, monkeypatch):
    # NaN in one oracle field after the first (C_R_of_A) must surface through max_residual
    original = transference._coherences

    def one_nan_field(rho, pair):
        out = original(rho, pair)
        out[1, 0] = math.nan
        return out

    monkeypatch.setattr(transference, "_coherences", one_nan_field)
    for fmt in ("csv", "json"):
        for measures_arg in ("entropy", "linear", "both"):
            argv = ["sweep", "--grid", "0:0.5:3", "--measures", measures_arg, "--format", fmt]
            code, out, err = run(capsys, argv)
            assert code == 5, argv
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] == "numeric"


def test_integer_amplitude_beyond_float_range_is_an_io_error(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"n_qubits": 1, "amplitudes": [[1' + "0" * 400 + ', 0], [0, 0]]}', encoding="utf-8")
    code, out, err = run(capsys, ["perspective", "--state", str(path), "--perspective", "0"])
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "io"


def test_grid_count_is_capped(capsys):
    assert len(cli.parse_grid(f"0:0.5:{cli.MAX_GRID_POINTS}")) == cli.MAX_GRID_POINTS
    code, out, err = run(capsys, ["sweep", "--grid", f"0:0.5:{cli.MAX_GRID_POINTS + 1}"])
    assert code == 4
    assert out == ""
    assert json.loads(err)["error"] == "domain"


# State files the exit-code table refers to by name.
STATE_FILES = {
    "nan.json": json.dumps({"n_qubits": 2, "amplitudes": [[math.nan, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}),
    "huge.json": json.dumps({"n_qubits": 1, "amplitudes": [[1e308, 0.0], [1e308, 0.0]]}),
    "frac.json": json.dumps({"n_qubits": 2.5, "amplitudes": [[1.0, 0.0]] + [[0.0, 0.0]] * 3}),
    "bool.json": '{"n_qubits": 1, "amplitudes": [[true, false], [false, false]]}',
    "bell.json": json.dumps({"n_qubits": 2, "amplitudes": [[RT2, 0.0], [0.0, 0.0], [0.0, 0.0], [RT2, 0.0]]}),
    "zero.json": json.dumps({"n_qubits": 2, "amplitudes": [[0.0, 0.0]] * 4}),
    "inf.json": json.dumps({"n_qubits": 1, "amplitudes": [[math.inf, 0.0], [0.0, 0.0]]}),
    "neginf.json": json.dumps({"n_qubits": 1, "amplitudes": [[0.0, -math.inf], [0.0, 0.0]]}),
}


def with_state_files(tmp_path, argv):
    """argv with each STATE_FILES name replaced by the path of that file, written under tmp_path."""
    for name, text in STATE_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return [str(tmp_path / a) if a in STATE_FILES else a for a in argv]


# (argv, expected exit code, stdout empty?)
EXIT_CODE_TABLE = [
    (["sweep", "--grid", "nonsense"], 4, True),
    (["sweep", "--grid", f"0:0.5:{cli.MAX_GRID_POINTS + 1}"], 4, True),
    (["sample", "--count", str(cli.MAX_SAMPLE_COUNT + 1), "--seed", "1"], 4, True),
    (["sample", "--count", "0", "--seed", "1"], 4, True),
    (["sample", "--count", "1", "--seed", "1"], 0, False),
    (["perspective", "--state", "nan.json", "--perspective", "0"], 5, True),
    (["perspective", "--state", "inf.json", "--perspective", "0"], 5, True),
    (["perspective", "--state", "neginf.json", "--perspective", "0"], 5, True),
    (["perspective", "--state", "huge.json", "--perspective", "0"], 5, True),
    (["perspective", "--state", "zero.json", "--perspective", "0", "--tol", "2"], 5, True),
    (["check", "--state", "w-even:nan,1,1"], 5, True),
    (["check", "--state", "appc-q:nan"], 5, True),
    (["perspective", "--state", "frac.json", "--perspective", "0"], 2, True),
    (["perspective", "--state", "bool.json", "--perspective", "0"], 2, True),
    (["perspective", "--state", "bell.json", "--perspective", "1"], 0, False),
    (["perspective", "--state", "bell.json", "--perspective", "2"], 3, True),
    (["perspective", "--state", "bell.json", "--perspective", "-1"], 4, True),
    (["perspective", "--state", "bell.json", "--perspective", "9" * 5000], 3, True),
    (["sweep", "--grid", "1e309:0:3"], 4, True),
    (["sweep", "--grid", "0:inf:3"], 4, True),
    (["sweep", "--grid=-1e308:1e308:3"], 4, True),
]


def row_id(argv):
    """The argv as one test id, each argument past 40 characters shortened to its length."""
    return " ".join(a if len(a) <= 40 else f"<{len(a)} characters>" for a in argv)


@pytest.mark.parametrize("argv, expected, stdout_empty", EXIT_CODE_TABLE, ids=[row_id(row[0]) for row in EXIT_CODE_TABLE])
def test_exit_codes(capsys, tmp_path, argv, expected, stdout_empty):
    argv = with_state_files(tmp_path, argv)
    code, out, err = run(capsys, argv)
    assert code == expected
    assert (out == "") == stdout_empty
    if expected == 0:
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1
        assert cli.EXIT_CODES[json.loads(lines[0])["error"]] == expected


# (argv, expected exit code, error kind) for inputs whose arithmetic overflows; run in a
# child process, where no warning filter hides a numpy RuntimeWarning from stderr.
NON_FINITE_TABLE = [
    (["perspective", "--state", "huge.json", "--perspective", "0"], 5, "numeric"),
    (["sweep", "--grid", "0:inf:3"], 4, "domain"),
    (["check", "--state", "w-even:inf,1,1"], 5, "numeric"),
    (["check", "--state", "w-even:1e308,1e308,1"], 5, "numeric"),
]


@pytest.mark.parametrize("argv, expected, kind", NON_FINITE_TABLE, ids=[row_id(row[0]) for row in NON_FINITE_TABLE])
def test_non_finite_input_exits_with_one_line_and_no_warning(tmp_path, argv, expected, kind):
    argv = with_state_files(tmp_path, argv)
    proc = subprocess.run([sys.executable, "-m", "qrfkit", *argv], capture_output=True, text=True, timeout=60)
    assert proc.returncode == expected
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == kind


def assert_clean_exit(code, out, err):
    """A CLI run either succeeds with JSON on stdout or fails with a documented code and one stderr line."""
    if code == 0:
        json.loads(out)
        assert err == ""
    else:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert cli.EXIT_CODES[json.loads(lines[0])["error"]] == code


def _pick(doc, rng):
    return int(rng.integers(len(doc["amplitudes"])))


def _edit(change):
    """A mutation that changes the parsed document in place, then writes it as JSON."""
    def mutate(doc, rng):
        change(doc, rng)
        return json.dumps(doc)
    return mutate


def _set(field, value):
    return _edit(lambda doc, rng: doc.update({field: value}))


def _set_part(value):
    return _edit(lambda doc, rng: doc["amplitudes"][_pick(doc, rng)].__setitem__(int(rng.integers(2)), value))


def _append_key(field, value):
    # json keeps the last of two equal keys, so the appended one overrides the original
    return lambda doc, rng: json.dumps(doc)[:-1] + f', "{field}": {json.dumps(value(rng))}}}'


# (mutation, function of a valid document and a generator giving the mutated text,
#  exit codes it may give).  Code 3 also covers `check` on the 2-qubit document.
# The non-standard NaN and Infinity tokens that json accepts are a numeric error (5).
STATE_MUTATIONS = [
    ("drop n_qubits", _edit(lambda doc, rng: doc.pop("n_qubits")), {0, 3}),
    ("drop amplitudes", _edit(lambda doc, rng: doc.pop("amplitudes")), {2}),
    ("drop a pair", _edit(lambda doc, rng: doc["amplitudes"].pop(_pick(doc, rng))), {3}),
    ("drop a part", _edit(lambda doc, rng: doc["amplitudes"][_pick(doc, rng)].pop()), {2}),
    ("empty amplitudes", _set("amplitudes", []), {3}),
    ("duplicate a pair", _edit(lambda doc, rng: doc["amplitudes"].append(doc["amplitudes"][_pick(doc, rng)])), {3}),
    ("duplicate a part", _edit(lambda doc, rng: doc["amplitudes"][_pick(doc, rng)].append(0.0)), {2}),
    ("duplicate every pair", _edit(lambda doc, rng: doc["amplitudes"].extend(doc["amplitudes"])), {5}),
    ("duplicate n_qubits", _append_key("n_qubits", lambda rng: int(rng.integers(-1, 5))), {0, 3}),
    ("duplicate amplitudes", _append_key("amplitudes", lambda rng: [[1.0, 0.0], [0.0, 0.0]]), {3}),
    ("n_qubits as string", _set("n_qubits", "3"), {2}),
    ("n_qubits as float", _set("n_qubits", 3.0), {2}),
    ("n_qubits as boolean", _set("n_qubits", True), {2}),
    ("n_qubits as null", _set("n_qubits", None), {2}),
    ("n_qubits as list", _set("n_qubits", [3]), {2}),
    ("n_qubits negative", _set("n_qubits", -3), {3}),
    ("amplitudes as null", _set("amplitudes", None), {2}),
    ("amplitudes as number", _set("amplitudes", 1.0), {2}),
    ("amplitudes as string", _set("amplitudes", "1,0"), {2}),
    ("amplitudes as object", _set("amplitudes", {"re": 1.0, "im": 0.0}), {2}),
    ("amplitudes nested", _edit(lambda doc, rng: doc.update(amplitudes=[doc["amplitudes"]])), {2}),
    ("pair as number", _edit(lambda doc, rng: doc["amplitudes"].__setitem__(_pick(doc, rng), 1.0)), {2}),
    ("pair as object", _edit(lambda doc, rng: doc["amplitudes"].__setitem__(_pick(doc, rng), {"re": 1.0})), {2}),
    ("part as string", _set_part("0.5"), {2}),
    ("part as boolean", _set_part(False), {2}),
    ("part as null", _set_part(None), {2}),
    ("part as list", _set_part([0.5]), {2}),
    ("part as object", _set_part({}), {2}),
    ("part as integer", _set_part(0), {0, 3, 5}),
    ("part beyond the float range", _set_part(10 ** 400), {2}),
    ("part underflowing to zero", lambda doc, rng: _set_part("tiny")(doc, rng).replace('"tiny"', "1e-400"), {0, 3, 5}),
    ("part as NaN", _set_part(math.nan), {5}),
    ("part as Infinity", _set_part(math.inf), {5}),
    ("part as -Infinity", _set_part(-math.inf), {5}),
    ("document as list", lambda doc, rng: json.dumps(doc["amplitudes"]), {2}),
    ("document as string", lambda doc, rng: json.dumps(json.dumps(doc)), {2}),
    ("document as null", lambda doc, rng: "null", {2}),
    ("trailing garbage", lambda doc, rng: json.dumps(doc) + "]", {2}),
    ("truncated", lambda doc, rng: json.dumps(doc)[: int(rng.integers(1, len(json.dumps(doc))))], {2}),
]

# Valid documents the mutations start from: a 2-qubit Bell state, a random complex
# 3-qubit state, and a 3-qubit perspectival output carrying "perspective_of".
VALID_STATE_DOCS = [
    {"n_qubits": 2, "amplitudes": [[RT2, 0.0], [0.0, 0.0], [0.0, 0.0], [RT2, 0.0]]},
    json.loads(state_to_json(state_from_amplitudes(np.array([3, -1j, 2 + 1j, 1 + 1j, 1 + 1j, -2, 1j, 1]) / 5))),
    json.loads(state_to_json(assign_perspective(state_from_amplitudes([0.25] * 16), 0), perspective_of=0)),
]


@pytest.mark.parametrize("mutation, mutate, codes", STATE_MUTATIONS, ids=[row[0] for row in STATE_MUTATIONS])
def test_mutated_state_documents_exit_cleanly(capsys, tmp_path, mutation, mutate, codes):
    rng = np.random.default_rng(zlib.crc32(mutation.encode()))
    path = tmp_path / "state.json"
    for doc in VALID_STATE_DOCS:
        for _ in range(3):
            text = mutate(copy.deepcopy(doc), rng)
            path.write_text(text, encoding="utf-8")
            for argv in (["perspective", "--state", str(path), "--perspective", "0"], ["check", "--state", str(path)]):
                code, out, err = run(capsys, argv)
                assert code in codes, (argv[0], text, code, err)
                assert_clean_exit(code, out, err)


def test_tol_env_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("QRF_TOL", "10")
    code, out, _ = run(capsys, ["check", "--state", "ghz:0.6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["tol"] == 10.0
    for blk in doc["results"]:
        assert all(rep["satisfied"] for rep in blk["transference"])

    # explicit flag beats the environment
    code, out, _ = run(capsys, ["check", "--state", "ghz:0.6", "--tol", "1e-9"])
    assert code == 0
    doc = json.loads(out)
    assert doc["tol"] == 1e-9
    assert not any(rep["satisfied"]
                   for blk in doc["results"] for rep in blk["transference"])

    monkeypatch.setenv("QRF_TOL", "not-a-number")
    code, _, err = run(capsys, ["check", "--state", "ghz:0.6"])
    assert code == 4
    assert json.loads(err)["error"] == "domain"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "qrfkit", "sweep", "--grid", "0:0.7:2", "--measures", "entropy"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(proc.stdout.splitlines()) == 3
