"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

Usage, from the root of the checkout:

    python3 bench/smoke.py

Checks that every metric BENCHMARK.json names is printed exactly once with
its unit for every workload, traced and untraced; that a corrupted or failed
call counts as failed; that call latencies are scaled by the reference
timings around them; that the tracer leaves every qrfkit binding as it
found it; and that the benchmark refuses to run, printing no result, in a
directory holding only BENCHMARK.json and bench/. Exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from qrfkit.qstate import PureState  # noqa: E402

FAILURES: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def _no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys {keys}")
    return dict(pairs)


def run_bench(cwd: str, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0.3",
         "--trace", str(trace), *extra],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def check_printed_metrics(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for w in (w["name"] for w in spec["workloads"]):
            proc = run_bench(ROOT, w, trace, "--tiny")
            label = f"{w} --trace {trace}"
            if proc.returncode != 0:
                check(False, f"{label}: exit code {proc.returncode}: {proc.stderr[-500:]}")
                continue
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1], object_pairs_hook=_no_duplicates)
            except ValueError as e:
                check(False, f"{label}: last line is not one JSON object without duplicate keys: {e}")
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct, nothing failed")
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            check(got == expected, f"{label}: every {key} metric printed once with its unit")
            check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                      for m in result["metrics"].values()), f"{label}: every value a finite number")


def _tamper_csv(text: str) -> str:
    lines = text.split("\n")
    row = lines[1].split(",")
    row[2] = repr(float(row[2]) + 0.5)
    lines[1] = ",".join(row)
    return "\n".join(lines)


def _tamper_sample(text: str) -> str:
    lines = text.split("\n")
    doc = json.loads(lines[0])
    doc["constraints"][0]["lhs"] += 1e-6
    lines[0] = json.dumps(doc)
    return "\n".join(lines)


def _tamper_register(text: str) -> str:
    doc = json.loads(text)
    doc["amplitudes"][0][0] += 1e-9
    return json.dumps(doc) + "\n"


def _tamper_channel(psi: PureState) -> PureState:
    amps = np.array(psi.amplitudes)
    amps[0] += 1e-9
    return PureState(n_qubits=psi.n_qubits, amplitudes=amps)


TAMPER = {
    "sweep": lambda out: (out[0], _tamper_csv(out[1])),
    "sample": lambda out: (out[0], _tamper_sample(out[1])),
    "register": lambda out: (out[0], _tamper_register(out[1])),
    "channel": _tamper_channel,
}


def check_corruption_counts_as_failed(workdir: str) -> None:
    def boom(i):
        raise RuntimeError("call raised")

    for name, cls in workloads.WORKLOADS.items():
        wl = cls(5, workdir, tiny=True)
        try:
            good = wl.call
            corruptions = {"tampered value": lambda i: TAMPER[name](good(i)), "raised": boom}
            if name != "channel":
                corruptions["nonzero exit"] = lambda i: (4, good(i)[1])
            for label, corrupt in corruptions.items():
                loop = worker.Loop(wl, [])
                loop.run_one(0)
                wl.call = corrupt
                loop.run_one(1)
                wl.call = good
                check((loop.attempted, loop.failed) == (2, 1), f"{name}: {label} output counts as failed")
        finally:
            if hasattr(wl, "close"):
                wl.close()


class _StubReference:
    """Reference work that takes 2 s, then 4 s, ... by the clock it reports."""

    nominal_s = 3.0

    def __init__(self):
        self.times = iter([2.0, 4.0, 6.0])

    def time(self) -> float:
        return next(self.times)


def check_latency_scaling(workdir: str) -> None:
    wl = workloads.Channel(5, workdir, tiny=True)
    loop = worker.Loop(wl, [], _StubReference())
    loop.run_one(0)
    loop.run_one(1)
    expected = [loop.latencies[0] * 3.0 / 3.0, loop.latencies[1] * 3.0 / 5.0]
    check(all(math.isclose(a, b) for a, b in zip(loop.scaled, expected)) and len(loop.scaled) == 2,
          "latency scaled by nominal over the mean reference time around the call")


def _bindings() -> dict:
    return {(id(ns), key): value for ns in tracer._package_namespaces() for key, value in list(ns.items())}


def check_tracer_restores_bindings(workdir: str) -> None:
    import qrfkit
    from qrfkit import cli, measures, perspective, qstate

    before = _bindings()
    originals = (qrfkit.assign_perspective, cli._RUNNERS["sweep"], measures.clamped_eigenvalues)
    tr = tracer.Tracer()
    wl = workloads.Sweep(5, workdir, tiny=True)
    with tr.active(0):
        check(qrfkit.assign_perspective is not originals[0]
              and perspective.assign_perspective is qrfkit.assign_perspective, "tracer rebinds re-exports")
        check(cli._RUNNERS["sweep"] is not originals[1], "tracer rebinds functions held in module dicts")
        check(measures.clamped_eigenvalues is qstate.clamped_eigenvalues is not originals[2],
              "tracer rebinds imported names")
        wl.check(0, wl.call(0))
    after = _bindings()
    check(after.keys() == before.keys() and all(after[k] is v for k, v in before.items()),
          "tracer leaves every qrfkit binding restored")
    totals = tr.totals()
    check(totals["cli.main"][0] == 1 and totals["rindler.sweep"][0] == 2, "traced call recorded its spans")
    roots = tr.spans()[tr.spans()["parent"] == 0]
    check([tr.names[f] for f in roots["fn"]] == ["cli.main"], "one root span per call, at cli.main")


def check_refuses_bare_directory(workdir: str) -> None:
    bare = os.path.join(workdir, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench(bare, "sweep", 0)
        check(proc.returncode != 0 and proc.stdout.strip() == "",
              "refuses to run without the program's sources, printing no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    workdir = os.path.join(BENCH_DIR, "out")
    os.makedirs(workdir, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_printed_metrics(spec)
    check_corruption_counts_as_failed(workdir)
    check_latency_scaling(workdir)
    check_tracer_restores_bindings(workdir)
    check_refuses_bare_directory(workdir)
    print(f"smoke: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
