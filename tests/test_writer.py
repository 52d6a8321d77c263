"""The row-template writer gives json.dumps' bytes.

`sample` lines, the sweep CSV and `sweep --format json` are filled from the
stacked arrays by one row writer, one % template per table: a state's lines
under every measure pair, or one sweep row.  These tests pin the JSON text
byte for byte against json.dumps of the documents the library builds, and
check that a NaN in any single row or column is refused before any output.
"""

import json
import math

import numpy as np
import pytest

from conftest import run
from qrfkit import ParityClass, qstate, random_parity_state, sweep, transference
from qrfkit.cli import parse_grid, parse_measures
from qrfkit.errors import NumericError
from qrfkit.rindler import sweep_to_dicts
from qrfkit.transference import _analysis_of, _reports
from reference import R_MAX_TEXT, sample_lines


def sample_text(count, seed, parity, measures, tol):
    """sample's output as json.dumps writes each line's document, from per-state reports of the documented sampler."""
    cls = ParityClass(parity.title())
    states = [random_parity_state(cls, np.random.default_rng([seed, i])) for i in range(count)]
    pairs = parse_measures(measures)
    analysis = _analysis_of(states, pairs)
    tables = {m: analysis.transference(m, tol) for m in pairs}
    lines = sample_lines(count, seed, parity, pairs, lambda i, m: [r.to_dict() for r in _reports(tables[m], i)])
    return "\n".join(lines) + "\n"


# 3000 states, and the counts on either side of the writer's row-block seam under both pairs.
SAMPLE_RUNS = [pytest.param("both", 3000, id="both"), pytest.param("linear", 3000, id="linear"),
               *(pytest.param("both", k, id=f"both-{k}") for k in (4095, 4096, 4097))]


@pytest.mark.parametrize("parity", ["even", "odd", "neither"])
@pytest.mark.parametrize("tol", ["1e-9", "2e-16"])
@pytest.mark.parametrize("measures, count", SAMPLE_RUNS)
def test_sample_bytes_equal_json_dumps(capsys, parity, tol, measures, count):
    code, out, err = run(capsys, ["sample", "--count", str(count), "--seed", "5", "--parity", parity,
                                  "--measures", measures, "--tol", tol])
    assert (code, err) == (0, "")
    # Lists of lines, so that a failure names the first differing line quickly.
    assert out.split("\n") == sample_text(count, 5, parity, measures, float(tol)).split("\n")


EDGE_VALUES = [-0.0, 5e-324, 1e-320, 1e300, 0.1 + 0.2]


def test_writer_edge_values_equal_json_dumps():
    rng = np.random.default_rng(15)
    k = 3 * len(EDGE_VALUES)
    floats = [np.array(np.roll(EDGE_VALUES * 3, j), dtype=np.float64) for j in range(3)]
    verdicts = rng.random((k, 2)) < 0.5
    doc = {"index": "%d", "values": ["%r", "%r", "%r"], "first": "%s", "second": "%s", "tag": "50% off"}
    template = qstate._row_template(doc) + "\n"
    text = "".join(qstate._fill_rows(template, [np.arange(k), *floats, verdicts[:, 0], verdicts[:, 1]]))
    expected = [json.dumps({"index": i, "values": [f[i].item() for f in floats], "first": bool(verdicts[i, 0]),
                            "second": bool(verdicts[i, 1]), "tag": "50% off"}) for i in range(k)]
    assert text.split("\n") == [*expected, ""]
    assert "float64" not in text
    # The same rows through an indented template after its ",\n" separator, as the sweep writes them.
    template = ",\n" + qstate._row_template([{"a": "%r", "b": "%r"}], indent=2)[2:-2]
    text = "".join(qstate._fill_rows(template, floats[:2]))
    rows = [{"a": a, "b": b} for a, b in zip(floats[0].tolist(), floats[1].tolist())]
    assert "[" + text[1:] + "\n]" == json.dumps(rows, indent=2)


def test_writer_checks_every_row_of_every_table():
    k = 2 * qstate._ROW_BLOCK + 1
    columns = [np.zeros(k), np.ones(k), np.zeros(k), np.ones(k)]
    columns[-1][-1] = math.nan
    with pytest.raises(NumericError) as caught:
        qstate._fill_rows("%r %r %r %r", columns)
    with pytest.raises(NumericError) as direct:
        qstate._dumps(math.nan)
    assert str(caught.value) == str(direct.value)


@pytest.mark.parametrize("measures", ["entropy", "linear", "both"])
def test_sample_nan_in_last_state_only_is_a_numeric_error(capsys, monkeypatch, measures):
    original = transference._Analysis._table

    def last_rhs_nan(self, m, rhs, tol):
        lhs, rhs, residual, satisfied = original(self, m, rhs, tol)
        rhs = rhs.copy()
        rhs[-1, 2] = math.nan  # C3's rhs of the last state; its residual stays finite
        return lhs, rhs, residual, satisfied

    monkeypatch.setattr(transference._Analysis, "_table", last_rhs_nan)
    code, out, err = run(capsys, ["sample", "--count", "50", "--seed", "1", "--parity", "even", "--measures", measures])
    assert code == 5
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "numeric"


@pytest.mark.parametrize("count", [1, 201, 2001])
@pytest.mark.parametrize("measures", ["both", "entropy", "linear"])
def test_sweep_json_bytes_equal_json_dumps(capsys, count, measures):
    text = f"0:{R_MAX_TEXT}:{count}"
    grid = parse_grid(text)
    rows = [row for m in parse_measures(measures) for row in sweep_to_dicts(sweep(grid, m), m)]
    code, out, err = run(capsys, ["sweep", "--grid", text, "--measures", measures, "--format", "json"])
    assert (code, err) == (0, "")
    assert out.split("\n") == (json.dumps(rows, indent=2) + "\n").split("\n")

