"""One benchmark worker process: set up one workload, then measure or trace it.

Started by run.py in a fresh interpreter, so that set-up includes importing
qrfkit and peak resident memory belongs to this workload alone. Takes one
JSON argument:

    {"root": <checkout>, "workdir": <dir>, "workload": <name>, "seed": <n>,
     "seconds": <s>, "mode": "setup" | "measure" | "trace", "tiny": <bool>}

and prints one JSON object as its last line of standard output.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


class Loop:
    """Closed loop with one client: the next call starts when the previous
    call, its output check and, when a reference is given, the reference
    timing have finished."""

    def __init__(self, wl, errors, ref=None):
        self.wl = wl
        self.errors = errors
        self.ref = ref
        self.last_ref_s = ref.time() if ref is not None else None
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.latencies = []
        self.scaled = []
        self.ref_times = []

    def run_one(self, i, context=None):
        """Time call i, check its output untimed, and return its duration."""
        wl = self.wl
        self.attempted += 1
        try:
            with context or contextlib.nullcontext():
                t0 = time.perf_counter()
                out = wl.call(i)
                t1 = time.perf_counter()
        except Exception:
            self._fail(i, traceback.format_exc())
            return None
        try:
            wl.check(i, out)
        except Exception:
            self._fail(i, traceback.format_exc())
        else:
            self.items += wl.items_per_call
        self.latencies.append(t1 - t0)
        if self.ref is not None:
            ref_s = self.ref.time()
            self.scaled.append((t1 - t0) * self.ref.nominal_s / (0.5 * (self.last_ref_s + ref_s)))
            self.last_ref_s = ref_s
            self.ref_times.append(ref_s)
        return t1 - t0

    def _fail(self, i, text):
        self.failed += 1
        if len(self.errors) < 3:
            self.errors.append(f"call {i}: {text}")


def measure(wl, seconds, errors, ref):
    loop = Loop(wl, errors, ref)
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        loop.run_one(i)
        i += 1
    return loop


def trace(wl, seconds, errors, span_path):
    """Run every input twice, once traced and once not, alternating which goes
    first; per-layer figures come from the traced calls only."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced = Loop(wl, errors), Loop(wl, errors)
    plain_s = traced_s = 0.0
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        order = (False, True) if i % 2 == 0 else (True, False)
        times = {}
        for with_trace in order:
            if with_trace:
                times[True] = traced.run_one(i, tracer.active(i))
            else:
                times[False] = plain.run_one(i)
        if times[True] is not None and times[False] is not None:
            plain_s += times[False]
            traced_s += times[True]
        i += 1
    if plain_s == 0.0:
        raise SystemExit("no input completed both a traced and an untraced call")
    tracer.write(span_path)
    return plain, traced, tracer.totals(), traced_s / plain_s - 1.0


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import numpy  # noqa: F401  (part of the set-up a user pays)
    import qrfkit

    import workloads

    src = os.path.realpath(os.path.join(spec["root"], "src"))
    if not os.path.realpath(qrfkit.__file__).startswith(src + os.sep):
        raise SystemExit(f"qrfkit was imported from {qrfkit.__file__}, not from {src}")

    errors = []
    wl = workloads.WORKLOADS[spec["workload"]](spec["seed"], spec["workdir"], spec["tiny"])
    try:
        warm = Loop(wl, errors)
        warm.run_one(0)
        setup_s = time.perf_counter() - T_START
        result = {"setup_s": setup_s, "warmup_failed": warm.failed, "items_per_call": wl.items_per_call}
        if spec["mode"] in ("setup", "measure"):
            from reference import Reference

            ref = Reference(wl.reference)
            ref.time()  # first use pays numpy's and json's lazy set-up
            ref_s = sorted(ref.time() for _ in range(3))[1]
            result.update(setup_scaled_s=setup_s * ref.nominal_s / ref_s, reference=list(wl.reference))
        if spec["mode"] == "measure":
            loop = measure(wl, spec["seconds"], errors, ref)
            result.update(attempted=loop.attempted, failed=loop.failed, items=loop.items,
                          latencies=loop.latencies, scaled=loop.scaled, ref_times=loop.ref_times)
        elif spec["mode"] == "trace":
            span_path = os.path.join(spec["workdir"], f"spans-{spec['workload']}.npz")
            plain, traced, totals, overhead = trace(wl, spec["seconds"], errors, span_path)
            result.update(attempted=plain.attempted + traced.attempted, failed=plain.failed + traced.failed,
                          traced_items=traced.attempted * wl.items_per_call, totals=totals,
                          overhead_ratio=overhead, span_file=span_path)
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["errors"] = errors
    result["python"] = sys.version.split()[0]
    result["numpy"] = numpy.__version__
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result["blas"] = f"{blas.get('name')} {blas.get('version')}"
    print(json.dumps(result))


if __name__ == "__main__":
    main()
