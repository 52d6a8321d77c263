"""The full-size checks, one function per CI step: tier-1 properties at the sizes users reach.

Run one step from the repository root with PYTHONPATH=src python tests/full_size.py "<step name>", or every step, each
in a fresh process (the memory bounds are per process), with no argument.  A numpy RuntimeWarning or a
DeprecationWarning fails every step and every qrfkit process a step starts.  The checks are assert statements, so run
without -O.  The references come from reference.py; pytest collects neither file.
"""

import filecmp
import json
import math
import multiprocessing
import os
import resource
import subprocess
import sys
import tempfile
import time
import warnings

import numpy as np

from qrfkit import (MeasurePair, ParityClass, PureState, assign_perspective, cli, rindler, state_from_amplitudes,
                    state_from_json, state_to_json)
from qrfkit.errors import NormToleranceError
from qrfkit.qstate import _ROW_BLOCK, _renormalised, _renormalised_rows
from qrfkit.transference import _Analysis, _analysis_of, _parity_amplitudes
from reference import (ANALYSIS_FIELDS, R_MAX_TEXT, add_at_channel, analysis_with_mutual_information,
                       channel_deviation, check_channel_bytes, check_diagonal_kernels, dense_channel,
                       edge_density_stack, renormalised, stacked_draws, state_document, unit_amplitudes, unit_state)

QRFKIT = [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning", "-m", "qrfkit"]
STEPS = {}


def step(name):
    """Register the decorated function as the CI step of this name."""
    def register(check):
        STEPS[name] = check
        return check
    return register


def qrfkit(*args):
    """The stdout bytes of a qrfkit run that must exit 0."""
    return subprocess.run(QRFKIT + list(args), stdout=subprocess.PIPE, check=True).stdout


def run_child(tmp, name, args):
    """Run qrfkit with stdout to the file name in tmp; check its exit code and its own peak RSS.
    Outputs stay in files: a child forked from a large parent would inherit its RSS peak."""
    path = os.path.join(tmp, name)
    with open(path, "wb") as out:
        proc = subprocess.Popen(QRFKIT + args, stdout=out, stderr=subprocess.PIPE)
        stderr = proc.stderr.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stderr.close()
    maxrss_mib = usage.ru_maxrss / 1024
    print(f"{name}: exit {proc.returncode}, {os.path.getsize(path)} bytes, child max RSS {maxrss_mib:.1f} MiB")
    assert proc.returncode == 0, f"{args} exited {proc.returncode}: {stderr}"
    assert maxrss_mib < 160, f"{args}: child max RSS {maxrss_mib:.1f} MiB is not below 160 MiB"
    return path


@step("Batched kernels at full size")
def batched_kernels_at_full_size():
    """sample and sweep analyse their states or grid points in blocks of 4096.  The output must parse as JSON, or,
    for the two-pair CSV, hold one header line and 21 fields on every line.  For each measure pair, the library
    serialisers must give the CLI's CSV bytes and JSON rows, since both go through one writer."""
    lines = qrfkit("sample", "--count", "3000", "--seed", "1", "--parity", "neither").decode().splitlines()
    assert len(lines) == 6001
    [json.loads(line) for line in lines]
    text = f"0:{R_MAX_TEXT}:2001"
    assert len(json.loads(qrfkit("sweep", "--grid", text, "--format", "json"))) == 4002
    lines = qrfkit("sweep", "--grid", text, "--measures", "both").decode().splitlines()
    assert len(lines) == 4003
    assert [i for i, line in enumerate(lines) if line.startswith("measure_pair,")] == [0]
    assert all(len(line.split(",")) == 21 for line in lines)
    for m in MeasurePair:
        records = rindler.sweep(cli.parse_grid(text), m)
        args = ["sweep", "--grid", text, "--measures", m.value]
        csv, rows = qrfkit(*args), json.loads(qrfkit(*args, "--format", "json"))
        assert csv == rindler.sweep_to_csv(records, m).encode() and rows == rindler.sweep_to_dicts(records, m), (
            f"library serialisers differ from the CLI sweep for {m.value}")
        print(f"{m.value}: {len(records)} rows, CSV bytes and JSON rows equal to the CLI")


@step("Channel at 11 qubits")
def channel_at_11_qubits():
    """The channel applies the perspective operator and the trace as a sum of two strided halves of the diagonal, so
    a register the dense 2^n x 2^n operator could not afford runs in seconds.  Any output further than 1e-12 from
    the direct rule fails the run.  At 9 and 10 qubits, the benchmark's size, the channel's bytes must also equal
    the pipeline with the dense operator."""
    psi = unit_state(11, np.random.default_rng(11))
    for p in range(psi.n_qubits):
        err = channel_deviation(psi, p)
        print(f"p={p} max deviation {err:.3e}")
        assert err <= 1e-12, f"channel differs from assign_perspective at p={p} by {err}"
    rng = np.random.default_rng(10)
    for n in (9, 10):
        check_channel_bytes(dense_channel, [unit_state(n, rng)])
        print(f"n={n}: channel bytes equal the dense operator pipeline for every p")


@step("Channel bytes against the add.at pipeline")
def channel_bytes_against_the_add_at_pipeline():
    """The channel's sum of two strided halves of the diagonal and its purification must give the bytes of the
    pipeline written out step by step: an np.where index map, np.add.at into zeros, a sum over axis p of the (2,) * n
    reshape, np.clip and np.linalg.norm.  At 10 and 16 qubits, for every p, on a unit state and on one scaled by
    3.7 (so the norm's bits reach the output)."""
    rng = np.random.default_rng(16)
    for n in (10, 16):
        psi = unit_state(n, rng)
        check_channel_bytes(add_at_channel, [psi, PureState(n_qubits=n, amplitudes=3.7 * psi.amplitudes)])
        print(f"n={n}: channel bytes equal the add.at pipeline for every p, unit and scaled")


@step("Channel at 20 qubits")
def channel_at_20_qubits():
    """The channel runs on the dephased diagonal, so time and memory grow as 2^n: every p at 20 qubits must stay
    within 1e-12 of the direct rule, and the process must peak below 256 MiB resident."""
    psi = unit_state(20, np.random.default_rng(20))
    for p in range(psi.n_qubits):
        start = time.perf_counter()
        err = channel_deviation(psi, p)
        print(f"p={p} max deviation {err:.3e} in {1e3 * (time.perf_counter() - start):.0f} ms")
        assert err <= 1e-12, f"channel differs from assign_perspective at p={p} by {err}"
    maxrss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"max RSS {maxrss_mib:.1f} MiB")
    assert maxrss_mib < 256, f"max RSS {maxrss_mib:.1f} MiB is not below 256 MiB"


@step("Channel bytes at every size to 16 qubits")
def channel_bytes_at_every_size_to_16_qubits():
    """The channel adds two strided halves of the diagonal at every register size, with no index map.  For every
    (n, p) with n = 2 to 16, its bytes must equal the add.at pipeline's, within 1e-12 of the direct rule."""
    rng = np.random.default_rng(14)
    for n in range(2, 17):
        psi = unit_state(n, rng)
        check_channel_bytes(add_at_channel, [psi])
        for p in range(n):
            err = channel_deviation(psi, p)
            assert err <= 1e-12, f"channel differs from assign_perspective at n={n}, p={p} by {err}"
        print(f"n={n}: channel bytes equal the add.at pipeline for every p")


@step("Sweep at the grid cap")
def sweep_at_the_grid_cap():
    """A sweep analyses its grid in blocks of 4096 points and writes its rows as it formats them, so a run at the
    100000-point cap stays near the memory of one block.  Both measure pairs at the cap, in each format, run once
    as their own child process: each must exit 0 and peak below 160 MiB resident.  The CSV must hold a header and
    200000 rows of 21 fields, the JSON a list of 200000 rows."""
    with tempfile.TemporaryDirectory() as tmp:
        grid = ["sweep", "--grid", f"0:{R_MAX_TEXT}:100000", "--measures", "both", "--format"]
        csv, json_path = run_child(tmp, "sweep.csv", grid + ["csv"]), run_child(tmp, "sweep.json", grid + ["json"])
        with open(csv, encoding="utf-8") as fh:
            fields = [line.count(",") + 1 for line in fh]
        assert len(fields) == 200001 and set(fields) == {21}, (
            f"CSV sweep: expected a header and 200000 rows of 21 fields, got {len(fields)} lines")
        with open(json_path, encoding="utf-8") as fh:
            rows = json.load(fh)
    assert isinstance(rows, list) and len(rows) == 200000, (
        f"JSON sweep: expected a list of 200000 rows, got {type(rows).__name__} of {len(rows)}")
    print(f"CSV sweep: {len(fields)} lines of 21 fields; JSON sweep: {len(rows)} rows")


@step("Sample at the count cap")
def sample_at_the_count_cap():
    """sample analyses its states in blocks of 4096 and writes its lines as it formats them, so a run at the
    100000-state cap stays near the memory of one block.  Both measure pairs at the cap run once as their own
    child process, then again with --out: each must exit 0 and peak below 160 MiB resident, and the --out bytes
    must equal the stdout.  Every line must parse as JSON, the lines must run index 0, 0, 1, 1, ... with entropy
    before linear, and the summary that ends them must count the per-line all_satisfied verdicts."""
    count, pairs = 100000, ("entropy", "linear")
    sample = ["sample", "--count", str(count), "--seed", "1", "--parity", "neither", "--measures", "both"]
    with tempfile.TemporaryDirectory() as tmp:
        stdout, out = run_child(tmp, "sample.jsonl", sample), os.path.join(tmp, "sample-out.jsonl")
        quiet = run_child(tmp, "sample-stdout.txt", sample + ["--out", out])
        assert os.path.getsize(quiet) == 0 and filecmp.cmp(stdout, out, shallow=False), (
            "sample --out bytes differ from its stdout")
        with open(stdout, encoding="utf-8") as fh:
            docs = map(json.loads, fh)
            passes = dict.fromkeys(pairs, 0)
            for k in range(2 * count):
                doc = next(docs)
                index, m = doc["index"], doc["measure_pair"]
                assert (index, m) == (k // 2, pairs[k % 2]), (
                    f"line {k} is index {index} under {m}, expected {k // 2} under {pairs[k % 2]}")
                passes[m] += doc["all_satisfied"] is True
            summary = next(docs)["summary"]
            assert next(docs, None) is None, "more lines follow the summary"
    assert summary["count"] == count and summary["pass"] == passes, (
        f"summary {summary} does not match the per-line pass counts {passes}")
    print(f"{2 * count} lines in state order and a summary, pass counts {passes}; --out bytes equal to stdout")


@step("Sample draws at the count cap")
def sample_draws_at_the_count_cap():
    """sample seeds a whole block of generators from one word table, computing SeedSequence's hash and each PCG64
    start state at once, then draws its states into one stack.  At the 100000-state cap, for a one-word seed, a
    multi-word seed, the first seed that overflows the 4-word pool and a 7-word seed, every row of both draw
    widths must equal default_rng([seed, i]).standard_normal(width), and every parity's stacked state must equal
    the one random_parity_state draws from default_rng([seed, i]), byte for byte (reference.stacked_draws)."""
    count = 100000
    for seed in (0, 2**70 + 5, 2**96 + 1, 2**200 + 7):
        stacked_draws(seed, count)
        print(f"seed {seed}: {count} rows of both widths equal to default_rng([seed, i]), "
              "of every parity to random_parity_state")


@step("Register at 20 qubits")
def register_at_20_qubits():
    """perspective reads a state file into one float array of its amplitude parts and writes the result a block of
    pairs at a time.  At 20 qubits, for the first and the last qubit, the CLI must exit 0, print exactly the
    library's perspective document, and peak below 512 MiB resident."""
    n = 20
    psi = unit_state(n, np.random.default_rng(20))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "register.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(state_to_json(psi))
        for p in (0, n - 1):
            start = time.perf_counter()
            proc = subprocess.run(QRFKIT + ["perspective", "--state", path, "--perspective", str(p)],
                                  capture_output=True, text=True)
            seconds = time.perf_counter() - start
            assert proc.returncode == 0, f"perspective {p} at {n} qubits exited {proc.returncode}: {proc.stderr}"
            assert proc.stdout == state_to_json(assign_perspective(psi, p), perspective_of=p) + "\n", (
                f"perspective {p} at {n} qubits differs from the library")
            print(f"p={p}: {len(proc.stdout)} bytes equal to the library in {seconds:.1f} s")
    maxrss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"child max RSS {maxrss_mib:.1f} MiB")
    assert maxrss_mib < 512, f"child max RSS {maxrss_mib:.1f} MiB is not below 512 MiB"


@step("State documents at 20 qubits against json")
def state_documents_at_20_qubits_against_json():
    """The step above compares the CLI with the library's own writer; this one checks that writer and the reader
    against json itself.  A seeded 20-qubit state, with exact and negative zeros in either part, must be written
    byte for byte as json.dumps writes its [float(re), float(im)] pairs, and read back bit for bit as the
    complex() conversion of each pair."""
    n = 20
    rng = np.random.default_rng(21)
    v = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    v[::3] = 0.0
    v.real[1::5] = -0.0
    v.imag[2::7] = -0.0
    psi = state_from_amplitudes(v / np.linalg.norm(v))
    del v
    start = time.perf_counter()
    text = state_to_json(psi, perspective_of=n)
    write = time.perf_counter() - start
    assert text == state_document(psi.amplitudes, perspective_of=n), (
        f"state_to_json at {n} qubits differs from json.dumps")
    start = time.perf_counter()
    back = state_from_json(text).amplitudes.tobytes()
    read = time.perf_counter() - start
    converted = np.array([complex(re, im) for re, im in json.loads(text)["amplitudes"]])
    assert back == converted.tobytes() and back == psi.amplitudes.tobytes(), (
        f"state_from_json at {n} qubits differs from the complex() conversion")
    print(f"{len(text)} bytes equal to json.dumps, written in {write:.2f} s and read back bit for bit in {read:.2f} s")


@step("Stacked analysis at a full block")
def stacked_analysis_at_a_full_block():
    """The analysis builds each input as one named stack of reduced states.  On 4097 seeded neither-parity states
    and on the 4097-point sweep grid (one block and one row past it), for each measure-pair list, the fields with
    and without mutual information must be byte-equal (reference.analysis_with_mutual_information), and every
    256th row must equal its one-state stack."""
    rng = np.random.default_rng(4097)
    neither = _parity_amplitudes(ParityClass.NEITHER, lambda width: rng.standard_normal((4097, width)))
    grid = rindler._global_amplitudes(np.linspace(0.0, math.pi / 4, 4097))
    for name, amps in {"neither-parity states": neither, "sweep grid": grid}.items():
        for pairs in ([MeasurePair.ENTROPY], [MeasurePair.LINEAR], list(MeasurePair)):
            stack = analysis_with_mutual_information(amps, pairs)
            for k in range(0, len(amps), 256):
                psi = state_from_amplitudes(amps[k])
                assert psi.amplitudes.tobytes() == amps[k].tobytes(), (
                    f"{name}: row {k} does not round-trip through state_from_amplitudes")
                one = _analysis_of([psi], pairs)
                for m in pairs:
                    for field in ANALYSIS_FIELDS:
                        assert getattr(stack, field)[m][..., k].tobytes() == getattr(one, field)[m][..., 0].tobytes(), (
                            f"{name}: row {k} {field} under {m.value} differs from its one-state stack")
                one_mi = _Analysis(amps[k:k + 1], pairs, mutual_information=True).mi
                assert stack.mi[:, k].tobytes() == one_mi[:, 0].tobytes(), (
                    f"{name}: row {k} mutual information differs from its one-state stack")
            print(f"{name}, {[m.value for m in pairs]}: {len(amps)} rows equal with and without mutual information, "
                  "every 256th equal to its one-state stack")


@step("Normalisation at full size")
def normalisation_at_full_size():
    """Every state the toolkit builds takes its norm through one renormalisation rule.  On a (4096, 8) stack with rows
    scaled across the 1e-12 band (1, 1 +- 0.98e-12, 1 +- 1.02e-12, 1 +- 1e-10, 2), the stacked renormalisation must give
    the bytes of the rule written out (numpy's norm; undivided within 1e-12 of 1, else divided), and so must
    state_from_amplitudes for n = 1 to 20.  NaN, infinite and zero rows must raise NormToleranceError."""
    rng = np.random.default_rng(4096)
    scales = np.array([1.0, 1 + 0.98e-12, 1 - 0.98e-12, 1 + 1.02e-12, 1 - 1.02e-12, 1 + 1e-10, 1 - 1e-10, 2.0])
    rows = rng.standard_normal((4096, 8)) + 1j * rng.standard_normal((4096, 8))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows *= scales[np.arange(4096) % len(scales), None]
    got = _renormalised_rows(rows.copy())
    divided = 0
    for k, row in enumerate(rows):
        expect = renormalised(row)
        divided += expect is not row
        assert got[k].tobytes() == expect.tobytes(), (
            f"row {k} at scale {scales[k % len(scales)]!r} differs from the written-out rule")
    assert 0 < divided < len(rows), f"{divided} of {len(rows)} rows divided: the stack does not straddle the band"
    for n in range(1, 21):
        for scale in scales:
            v = unit_amplitudes(n, rng) * scale
            assert state_from_amplitudes(v, tol=2.0).amplitudes.tobytes() == renormalised(v).tobytes(), (
                f"state_from_amplitudes at n = {n}, scale {scale!r} differs from the written-out rule")
    for name, bad in (("NaN", math.nan), ("infinite", math.inf), ("zero", 0.0)):
        stack = rows.copy()
        stack[4095] = 0.0
        stack[4095, 0] = bad
        for call in (lambda: _renormalised_rows(stack.copy()), lambda: _renormalised(stack[4095].copy()),
                     lambda: state_from_amplitudes(stack[4095], tol=math.inf)):
            try:
                call()
            except NormToleranceError:
                continue
            sys.exit(f"a {name} row was not refused")
    print(f"{len(rows)} rows ({divided} divided) and n = 1 to 20 at {len(scales)} scales equal to the written-out "
          "rule; NaN, infinite and zero rows refused")


@step("Spectra from diagonals at a full block")
def spectra_from_diagonals_at_a_full_block():
    """The analysis reads each dephased spectrum off the diagonal and sums each linear trace from a copy of it.  On
    4097 seeded density matrices at each of d = 2, 4, 8 and 16 (one block and one row past it), with zero, -0.0,
    tiny negative and degenerate diagonals (reference.edge_density_stack), and on the one-qubit reductions of 4097
    neither-parity states and of the 4097-point sweep grid, the dephased spectra, their entropies, the entropic
    coherence and the linear entropies must equal eigvalsh on the dephased matrices and np.trace, byte for byte
    (reference.check_diagonal_kernels)."""
    rng = np.random.default_rng(4097)
    for d in (2, 4, 8, 16):
        check_diagonal_kernels(edge_density_stack(d, 4097, rng))
        print(f"d={d}: 4097 edge-diagonal matrices equal to the written-out rules")
    neither = _parity_amplitudes(ParityClass.NEITHER, lambda width: rng.standard_normal((4097, width)))
    grid = rindler._global_amplitudes(np.linspace(0.0, math.pi / 4, 4097))
    for name, amps in {"neither-parity states": neither, "sweep grid": grid}.items():
        t = amps.reshape(-1, 2, 2, 2)
        for labels in ("kabc,kdbc->kad", "kbac,kbdc->kad", "kbca,kbcd->kad"):
            check_diagonal_kernels(np.einsum(labels, t, t.conj()))
        print(f"{name}: the one-qubit reductions of {len(amps)} states equal to the written-out rules")


def write_unit_state(path, n, seed):
    """Write unit_state(n, default_rng(seed))'s state_to_json document to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(state_to_json(unit_state(n, np.random.default_rng(seed))))


@step("State input a block at a time at 20 qubits")
def state_input_a_block_at_a_time_at_20_qubits():
    """perspective reads a state file in state_to_json's layout a slice of pairs at a time, so no Python number per
    amplitude part is alive at once.  A seeded 20-qubit document is written by a spawned process, so this one stays
    small (a child's peak RSS counts its parent's); perspective on it, for the first and the last qubit, must exit 0
    and peak below 160 MiB resident, and print exactly the library's perspective document."""
    n, seed = 20, 2020
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "register.json")
        writer = multiprocessing.get_context("spawn").Process(target=write_unit_state, args=(path, n, seed))
        writer.start()
        writer.join()
        assert writer.exitcode == 0, f"writing the {n}-qubit document exited {writer.exitcode}"
        outputs = {p: run_child(tmp, f"perspective-{p}.json", ["perspective", "--state", path, "--perspective", str(p)])
                   for p in (0, n - 1)}
        psi = unit_state(n, np.random.default_rng(seed))
        for p, out in outputs.items():
            with open(out, encoding="utf-8") as fh:
                assert fh.read() == state_to_json(assign_perspective(psi, p), perspective_of=p) + "\n", (
                    f"perspective {p} at {n} qubits differs from the library")
            print(f"p={p}: output equal to the library")


@step("Real state documents at 20 qubits against json")
def real_state_documents_at_20_qubits_against_json():
    """Perspective assignment gives real states, which the writer writes with every imaginary part as one +0.0
    text.  For the first and the last qubit of a seeded 20-qubit state, the perspective document must be written
    byte for byte as json.dumps writes its [float(re), float(im)] pairs, and read back bit for bit; so must the
    same state with the imaginary part at the first block seam set to -0.0, which the writer writes as complex."""
    n = 20
    psi = unit_state(n, np.random.default_rng(2021))
    for p in (0, n - 1):
        seen = assign_perspective(psi, p)
        assert not seen.amplitudes.imag.view(np.uint64).any(), f"p={p}: an imaginary part is not +0.0"
        signed = seen.amplitudes.copy()
        signed.imag[_ROW_BLOCK] = -0.0
        for name, state in (("real", seen), ("-0.0 imaginary part", PureState(n - 1, signed))):
            start = time.perf_counter()
            text = state_to_json(state, perspective_of=p)
            write = time.perf_counter() - start
            assert text == state_document(state.amplitudes, perspective_of=p), (
                f"p={p}, {name}: state_to_json differs from json.dumps")
            assert state_from_json(text).amplitudes.tobytes() == state.amplitudes.tobytes(), (
                f"p={p}, {name}: the document does not read back bit for bit")
            print(f"p={p}, {name}: {len(text)} bytes equal to json.dumps, written in {1e3 * write:.0f} ms and read "
                  "back bit for bit")


def main(argv):
    if not argv:  # every step, each in a fresh process
        failed = []
        for name in STEPS:
            print(f"== {name}", flush=True)
            if subprocess.run([sys.executable, __file__, name]).returncode:
                failed.append(name)
        sys.exit(f"failed: {', '.join(failed)}" if failed else 0)
    if len(argv) != 1 or argv[0] not in STEPS:
        sys.exit(f"usage: full_size.py [step name]; the steps are: {', '.join(map(repr, STEPS))}")
    warnings.simplefilter("error", RuntimeWarning)
    warnings.simplefilter("error", DeprecationWarning)
    STEPS[argv[0]]()


if __name__ == "__main__":
    main(sys.argv[1:])
