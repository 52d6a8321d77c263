"""The CLI checks a whole run before it writes, then writes the run as it is formatted.

Every runner returns its output as text pieces only after every check has
passed, and `main` writes the pieces to stdout or --out as they are formatted,
_ROW_BLOCK rows at a time.  These tests pin that a failing run leaves stdout
empty and an existing --out file untouched, that --out gets exactly the bytes of
stdout across the row-block seams, that a reader closing stdout early gets
the documented I/O exit instead of a traceback, and that a closed or unwritable
stderr loses the error line but not the exit code.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import run
from qrfkit import MeasurePair, ParityClass, qstate, random_parity_state, rindler, transference
from qrfkit.cli import main
from qrfkit.errors import NumericError
from reference import R_MAX_TEXT

SEAMS = [qstate._ROW_BLOCK - 1, qstate._ROW_BLOCK, qstate._ROW_BLOCK + 1]


def nan_in_last_sample_state(monkeypatch, count, seed):
    """Patch _Analysis so that C3's rhs of the neither-parity state count - 1, and of no other state, is NaN."""
    last = random_parity_state(ParityClass.NEITHER, np.random.default_rng([seed, count - 1])).amplitudes
    init, table = transference._Analysis.__init__, transference._Analysis._table

    def find_last(self, amps, *args, **kwargs):
        init(self, amps, *args, **kwargs)
        self.last_rows = np.flatnonzero((amps == last).all(axis=1))

    def last_rhs_nan(self, m, rhs, tol):
        lhs, rhs, residual, satisfied = table(self, m, rhs, tol)
        rhs = rhs.copy()
        rhs[self.last_rows, 2] = math.nan  # its residual stays finite
        return lhs, rhs, residual, satisfied

    monkeypatch.setattr(transference._Analysis, "__init__", find_last)
    monkeypatch.setattr(transference._Analysis, "_table", last_rhs_nan)


def nan_in_sweep_oracle(monkeypatch):
    """Patch _Analysis.__init__ so that one oracle field of every grid point (C_R_of_A) is NaN."""
    original = transference._Analysis.__init__

    def one_nan_field(self, *args, **kwargs):
        original(self, *args, **kwargs)
        for coh in self.coh.values():
            coh[1, 0] = math.nan

    monkeypatch.setattr(transference._Analysis, "__init__", one_nan_field)


FAILING_RUNS = [
    pytest.param(lambda mp: nan_in_last_sample_state(mp, 4097, 3),
                 ["sample", "--count", "4097", "--seed", "3", "--parity", "neither"], id="sample-last-state"),
    pytest.param(nan_in_sweep_oracle, ["sweep", "--grid", f"0:{R_MAX_TEXT}:4097", "--format", "csv"], id="sweep-csv"),
    pytest.param(nan_in_sweep_oracle, ["sweep", "--grid", f"0:{R_MAX_TEXT}:4097", "--format", "json"], id="sweep-json"),
]


@pytest.mark.parametrize("patch, argv", FAILING_RUNS)
def test_failing_run_writes_nothing(capsys, monkeypatch, tmp_path, patch, argv):
    patch(monkeypatch)
    for out_file in (None, tmp_path / "existing.txt"):
        extra = []
        if out_file is not None:
            out_file.write_bytes(b"earlier output\n")
            extra = ["--out", str(out_file)]
        code, out, err = run(capsys, argv + extra)
        assert (code, out) == (5, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "numeric"
        if out_file is not None:
            assert out_file.read_bytes() == b"earlier output\n"


@pytest.mark.parametrize("count", SEAMS)
@pytest.mark.parametrize("argv", [["sample", "--seed", "4", "--parity", "odd", "--count"],
                                  ["sweep", "--format", "csv", "--grid"], ["sweep", "--format", "json", "--grid"]],
                         ids=["sample", "sweep-csv", "sweep-json"])
def test_out_bytes_equal_stdout_across_row_block_seams(capsys, tmp_path, argv, count):
    arg = str(count) if argv[0] == "sample" else f"0:{R_MAX_TEXT}:{count}"
    code, out, err = run(capsys, argv + [arg])
    assert (code, err) == (0, "")
    path = tmp_path / "out.txt"
    assert run(capsys, argv + [arg, "--out", str(path)]) == (0, "", "")
    assert path.read_bytes() == out.encode()
    # Every row is written once: two sample lines per state and a summary, or one sweep row per point and pair.
    if "json" in argv:
        assert len(json.loads(out)) == 2 * count
    else:
        assert out.count("\n") == 2 * count + 1


def test_sweep_writers_check_before_returning():
    good = rindler._sweep_pairs([0.1, 0.2], [MeasurePair.ENTROPY])[0]
    bad = good.copy()
    bad[-1, -1] = math.nan
    for writer in (rindler._sweep_csv, rindler._sweep_json):
        with pytest.raises(NumericError):
            writer([(MeasurePair.ENTROPY, good), (MeasurePair.LINEAR, bad)])  # refused before any piece is taken
    empty = np.empty((0, len(rindler.CSV_COLUMNS) - 1))
    assert "".join(rindler._sweep_csv([(MeasurePair.ENTROPY, empty)])) == ",".join(rindler.CSV_COLUMNS) + "\n"
    assert json.loads("".join(rindler._sweep_json([(MeasurePair.ENTROPY, empty)]))) == []
    assert json.loads("".join(rindler._sweep_json([]))) == []


@pytest.mark.parametrize("argv", [["sample", "--count", "20000", "--seed", "1", "--parity", "neither"],
                                  ["sweep", "--grid", "0:0.78:20000", "--format", "json"]], ids=["sample", "sweep-json"])
def test_closed_stdout_is_an_io_error(argv):
    proc = subprocess.Popen([sys.executable, "-m", "qrfkit", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert len(head) == 100
    assert "Traceback" not in err and "Exception ignored" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "io"


def test_stdout_closed_before_any_output_is_an_io_error():
    # The pipe's read end is closed before the run starts, so its first write to stdout fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "qrfkit", "check", "--state", "rindler:0.3"], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "io"


def test_stderr_closed_at_start_keeps_the_exit_code():
    # Started with file descriptor 2 closed, Python sets sys.stderr to None; writing the error line to it once exited 1.
    proc = subprocess.run([sys.executable, "-m", "qrfkit", "check", "--state", "nope"], stdout=subprocess.PIPE,
                          timeout=60, preexec_fn=lambda: os.close(2))
    assert (proc.returncode, proc.stdout) == (2, b"")


def test_stdout_and_stderr_closed_at_start_keep_the_exit_code():
    proc = subprocess.run([sys.executable, "-m", "qrfkit", "check", "--state", "rindler:0.3"], timeout=60,
                          preexec_fn=lambda: (os.close(1), os.close(2)))
    assert proc.returncode == 2


class UnwritableStream:
    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("stderr", [None, UnwritableStream()], ids=["closed", "unwritable"])
def test_failing_stderr_keeps_the_exit_code(monkeypatch, stderr):
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["check", "--state", "nope"]) == 2
    assert main(["sweep", "--grid", "0:9:2"]) == 4
