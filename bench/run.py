"""qrfkit benchmark: four workloads through the CLI and the library, checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep|sample|register|channel|all \\
        --seed N --seconds S --trace 0|1

Each workload runs as a closed loop with one client in a fresh worker
process (worker.py). With --trace 0 the run reports the end-to-end metrics,
with timings scaled to a fixed CPU speed (reference.py); set-up is measured in SETUP_RUNS fresh processes and reported as their
median. With --trace 1 the same inputs run alternately traced and untraced,
and the run reports per-layer metrics from the traced calls together with
the tracer's own cost. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A full record of the run,
with provenance and every latency, goes to bench/out/result-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("sweep", "sample", "register", "channel")
SETUP_RUNS = 5
RUN_TIMEOUT_S = 170.0
# An unpinned BLAS picks its own thread count, and the channel workload's
# dense matmul then measures the machine rather than the program.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)

END_TO_END = {
    "throughput_items_per_s": "items/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "success_ratio": "ratio",
}

# "<layer>.<kind>" is a layer total; "<layer>.<function>.<kind>" one function.
PER_LAYER = [
    f"{layer}.{kind}"
    for layer in ("cli", "rindler", "transference", "perspective", "measures", "qstate")
    for kind in ("self_us_per_item", "calls_per_item")
] + [
    "qstate.clamped_eigenvalues.calls_per_item",
    "measures.von_neumann_entropy.self_us_per_item",
    "qstate.partial_trace.self_us_per_item",
    "perspective.assign_perspective.calls_per_item",
    "perspective.assign_perspective.self_us_per_item",
    "qstate.state_from_json.self_us_per_item",
    "qstate.state_to_json.self_us_per_item",
    "perspective.assign_perspective_channel.self_us_per_item",
    "perspective.perspective_operator.self_us_per_item",
    "qstate.density_matrix.self_us_per_item",
    "transference.perspectival_side.calls_per_item",
    "rindler.sweep.self_us_per_item",
]
PER_LAYER_UNITS = {"self_us_per_item": "us/item", "calls_per_item": "calls/item"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def run_worker(spec: dict, root: str, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{spec['workload']} worker did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{spec['workload']} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten calls beyond it, and
    that percentile. Runs of ten calls or fewer report their slowest call."""
    ordered = sorted(latencies)
    k = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(setups: list[float], res: dict) -> tuple[dict, dict]:
    """Timings are scaled to the reference CPU speed (reference.py); the raw
    figures go to the notes."""
    lat = res["scaled"]
    tail_s, tail_pct = tail(lat)
    values = {
        "throughput_items_per_s": res["items"] / sum(lat),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mib": res["peak_rss_mib"],
        "setup_s": statistics.median(s["setup_scaled_s"] for s in setups),
        "success_ratio": 1.0 - res["failed"] / res["attempted"],
    }
    notes = {"latency_tail_pct": tail_pct, "latency_samples": len(lat), "reference": res["reference"],
             "reference_median_s": statistics.median(res["ref_times"]),
             "failed_ratio": res["failed"] / res["attempted"],
             "setup_scaled_s": [s["setup_scaled_s"] for s in setups],
             "raw": {"throughput_items_per_s": res["items"] / sum(res["latencies"]),
                     "latency_p50_ms": 1e3 * statistics.median(res["latencies"]),
                     "latency_tail_ms": 1e3 * tail(res["latencies"])[0],
                     "setup_s": statistics.median(s["setup_s"] for s in setups)}}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}, notes


def per_layer(res: dict) -> dict:
    items = res["traced_items"]
    totals = res["totals"]
    out = {}
    for name in PER_LAYER:
        target, kind = name.rsplit(".", 1)
        picked = [v for fn, v in totals.items() if fn == target or ("." not in target and fn.startswith(target + "."))]
        index = 1 if kind == "self_us_per_item" else 0
        scale = 1e6 if kind == "self_us_per_item" else 1.0
        out[name] = {"value": scale * sum(v[index] for v in picked) / items, "unit": PER_LAYER_UNITS[kind]}
    out["trace.overhead_ratio"] = {"value": res["overhead_ratio"], "unit": "ratio"}
    return out


def source_digest(root: str) -> str:
    """sha256 over the package sources, identifying the program without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "qrfkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(workload: str, args, root: str, workdir: str) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    spec = {"root": root, "workdir": workdir, "workload": workload, "seed": args.seed,
            "seconds": args.seconds, "tiny": args.tiny}
    if args.trace:
        res = run_worker(dict(spec, mode="trace"), root, deadline)
        metrics, notes = per_layer(res), {"span_file": os.path.relpath(res["span_file"], root)}
    else:
        setups = [run_worker(dict(spec, mode="setup"), root, deadline) for _ in range(SETUP_RUNS - 1)]
        res = run_worker(dict(spec, mode="measure"), root, deadline)
        setups.append(res)
        metrics, notes = end_to_end(setups, res)
    record = {
        "workload": workload,
        "trace": args.trace,
        "correct": res["failed"] == 0 and res["warmup_failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "notes": notes,
        "errors": res["errors"],
        "provenance": {
            "seed": args.seed,
            "seconds": args.seconds,
            "items_per_call": res["items_per_call"],
            "loop": "closed, 1 client",
            "python": res["python"],
            "numpy": res["numpy"],
            "blas": res["blas"],
            "blas_threads": BLAS_THREADS,
            "nproc": NPROC,
            "cpu_model": cpu_model(),
            "git_commit": git_commit(root),
            "source_sha256": source_digest(root),
            "tiny": args.tiny,
        },
    }
    if not args.trace:
        record["latencies_s"] = res["latencies"]
        record["scaled_latencies_s"] = res["scaled"]
        record["reference_s"] = res["ref_times"]
    with open(os.path.join(workdir, f"result-{workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for err in res["errors"]:
        sys.stderr.write(err)
    return record


def print_record(record: dict) -> None:
    notes = record["notes"]
    for name, m in record["metrics"].items():
        extra = ""
        if name in notes.get("raw", {}):
            extra = f"  (raw {notes['raw'][name]:.6g})"
        if name == "latency_tail_ms":
            extra += f"  (p{notes['latency_tail_pct']:.1f} of {notes['latency_samples']} calls)"
        elif name == "success_ratio":
            extra = f"  (failed_ratio {notes['failed_ratio']:.6g}: {record['failed']} of {record['attempted']})"
        print(f"{record['workload']:<9} {name:<56} {m['value']:>14.6g} {m['unit']}{extra}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="qrfkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", default=os.path.dirname(BENCH_DIR),
                        help="checkout whose src/qrfkit is measured (default: the one holding bench/)")
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.abspath(args.root)
    try:
        if not os.path.isfile(os.path.join(root, "src", "qrfkit", "__init__.py")):
            raise BenchError(f"no qrfkit sources under {root}/src")
        workdir = os.path.join(BENCH_DIR, "out")
        os.makedirs(workdir, exist_ok=True)
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_workload(name, args, root, workdir) for name in names]
    except BenchError as e:
        sys.stderr.write(f"bench: {e}\n")
        return 2
    for record in records:
        print_record(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
