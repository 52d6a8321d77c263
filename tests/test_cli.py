import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qrfkit import assign_perspective, embed, state_from_json, state_to_json
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
        ["sweep", "--grid", "nonsense"],
        ["perspective", "--state", "ghz:1.5", "--perspective", "0"],
        ["perspective", "--state", "rindler:0.3", "--perspective", "B"],
        ["perspective", "--state", "rindler:0.3", "--perspective", "-1"],
        ["perspective", "--state", "rindler:0.3", "--perspective", "1.0"],
        ["sample", "--count", "0", "--seed", "1"],
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


def test_exit_code_numeric_non_finite_amplitudes(capsys, tmp_path):
    # json.dumps writes the bare NaN token that Python's parser reads back
    path = write_state(tmp_path / "nan.json", [math.nan, 0.0, 0.0, 1.0])
    cases = [
        ["perspective", "--state", path, "--perspective", "0"],
        ["check", "--state", "w-even:nan,1,1"],
        ["check", "--state", "appc-q:nan"],
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 5, argv
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "numeric"


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
