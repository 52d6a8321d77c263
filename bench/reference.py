"""Reference work that scales call latencies to a fixed CPU speed.

A machine whose per-core speed drifts (a shared host, frequency scaling)
slows every call of a run alike, by a factor that can change from one
stretch of seconds to the next. A run of a few tens of seconds sits in one
or two such stretches, so run-to-run spread would mostly measure the
machine. The worker therefore times a fixed piece of reference work after
every call and scales the call's latency by nominal / measured reference
time, taking the mean of the reference timings just before and just after
the call.

The reference is benchmark code and calls nothing in qrfkit, so a change
to the program moves the scaled latency exactly as it moves the raw one.
Its parts imitate the kind of work a workload does, because the drift
slows interpreter-bound and small-numpy code much more than a dense
multithreaded matmul: sweep, sample and register pair with an interpreter
loop, small dense numpy calls and a JSON round trip; channel pairs with a
dense matmul.

NOMINAL_S only fixes the scale. Its values are the parts' typical times
between calls on the machine the benchmark's bounds were set on (2-vCPU
Intel Xeon, numpy with OpenBLAS, BLAS pinned to 2 threads), so that there
scaled timings read close to raw milliseconds.
"""

from __future__ import annotations

import json
import time

import numpy as np

NOMINAL_S = {
    "python": 0.00555,
    "numpy_small": 0.00442,
    "json": 0.00503,
    "matmul": 0.00700,
}

_rng = np.random.default_rng(0)
_SYM = _rng.standard_normal((4, 4))
_SYM = _SYM + _SYM.T
_HERM = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_HERM = _HERM @ _HERM.conj().T
_DOC = json.dumps(_rng.standard_normal((800, 2)).tolist())
_MAT = _rng.standard_normal((256, 256))


def _python() -> None:
    s = 0
    for i in range(60000):
        s += i * i


def _numpy_small() -> None:
    for _ in range(60):
        np.linalg.eigvalsh(_SYM)
        np.kron(_SYM, _SYM)
        np.trace(_HERM @ _HERM)
        np.einsum("ij,kj->ik", _HERM, _HERM)


def _json() -> None:
    json.dumps(json.loads(_DOC))


def _matmul() -> None:
    for _ in range(12):
        _MAT @ _MAT


PARTS = {"python": _python, "numpy_small": _numpy_small, "json": _json, "matmul": _matmul}


class Reference:
    """The reference work for one workload: a fixed tuple of PARTS."""

    def __init__(self, parts: tuple[str, ...]):
        self.parts = [PARTS[p] for p in parts]
        self.nominal_s = sum(NOMINAL_S[p] for p in parts)

    def time(self) -> float:
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0
