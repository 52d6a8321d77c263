"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed, makes one timed call
per iteration through a public entry point of qrfkit, and checks the output
with code of its own. The checks share no code with the timed path: they
parse the text the CLI printed and compare it with numpy oracles written
here, so a later change to qrfkit cannot make a wrong answer pass.

Each workload names the parts of reference.py whose timing scales its call
latencies. Calls go through module attributes (``cli.main``, ``perspective.*``), looked
up at call time, so that the tracer's rebinding applies to them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from qrfkit import cli, perspective, rindler, state_from_amplitudes

SAT_TOL = 1e-9          # the CLI's default satisfaction tolerance
SIDE_TOL = 1e-9         # reported lhs/rhs against the oracle
REGISTER_TOL = 1e-12    # perspective output against the flip-merge oracle
CHANNEL_TOL = 1e-10     # channel output against the direct rule and the oracle
RESIDUAL_LIMIT = 1e-9   # largest max_residual a sweep row may report

EVEN_SUPPORT = (0b000, 0b011, 0b101, 0b110)
ODD_SUPPORT = (0b001, 0b010, 0b100, 0b111)
PARITIES = ("even", "odd", "neither")
MEASURES = ("entropy", "linear")
CONSTRAINTS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))  # (alpha, beta, gamma) for C1..C3

SWEEP_STOP = "0.7853981633974483"
# sha256 of the sweep CSV with the max_residual column removed, keyed by grid
# point count. The residual's last digits depend on the LAPACK kernels the CPU
# selects, so it is bounded by RESIDUAL_LIMIT instead of hashed; every other
# column is a closed form printed to 12 significant digits.
SWEEP_DIGESTS = {
    201: "b38086daed128980b7664193b34a13f4b8392b9f7091aae0c48a1f9caa2ee4d5",
    3: "c5f13de8fb38ead527d64898b4f35bb3384bd12ccd257de3bfe5d7ab87fcfc9c",
}


class CheckFailed(Exception):
    """An output did not pass its workload's check."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _reject_constant(name: str):
    raise CheckFailed(f"non-finite value {name} in JSON output")


def parse_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation: exit code and everything it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_lines(output: tuple[int, str]) -> list[str]:
    code, text = output
    require(code == 0, f"CLI exited with code {code}")
    require(text.endswith("\n"), "CLI output does not end with a newline")
    return text[:-1].split("\n")


def random_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    coeffs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return coeffs / np.linalg.norm(coeffs)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def flip_merge(amps: np.ndarray, p: int) -> np.ndarray:
    """Perspective of qubit p by array operations: pair every basis string with
    its complement, keep the half whose p-bit is 0, take square roots."""
    n = amps.size.bit_length() - 1
    w = np.abs(amps.reshape((2,) * n)) ** 2
    w = w + w[(slice(None, None, -1),) * n]
    out = np.sqrt(np.take(w, 0, axis=p)).ravel()
    return out / np.linalg.norm(out)


def _entropy(rho: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(vals > 0.0, -vals * np.log2(vals), 0.0)
    return terms.sum(axis=-1)


def _entanglement(rho: np.ndarray, pair: str) -> np.ndarray:
    if pair == "entropy":
        return _entropy(rho)
    return 1.0 - np.sum(np.abs(rho) ** 2, axis=(-2, -1))


def _coherence(rho: np.ndarray, pair: str) -> np.ndarray:
    if pair == "entropy":
        diag = np.einsum("kii->ki", rho).real
        dephased = np.zeros_like(rho)
        dephased[:, [0, 1], [0, 1]] = diag
        return _entropy(dephased) - _entropy(rho)
    return 2.0 * np.abs(rho[:, 0, 1]) ** 2


def transference_oracle(amps: np.ndarray, pair: str) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of constraints C1..C3 for a (K, 8) batch of 3-qubit states,
    each of shape (K, 3)."""
    k = amps.shape[0]
    t = amps.reshape(k, 2, 2, 2)
    w = np.abs(t) ** 2
    w = w + w[:, ::-1, ::-1, ::-1]
    lhs, rhs = np.empty((k, 3)), np.empty((k, 3))
    for c, (alpha, beta, gamma) in enumerate(CONSTRAINTS):
        phi = np.sqrt(np.take(w, 0, axis=alpha + 1))
        phi = phi / np.linalg.norm(phi, axis=(1, 2), keepdims=True)
        slot = [i for i in range(3) if i != alpha].index(beta)
        rho_first = np.einsum("kij,klj->kil", phi, phi)
        rho_beta = rho_first if slot == 0 else np.einsum("kij,kil->kjl", phi, phi)
        lhs[:, c] = _entanglement(rho_first, pair) + _coherence(rho_beta, pair)
        cut = np.moveaxis(t, gamma + 1, 1).reshape(k, 2, 4)
        rhs[:, c] = _entanglement(np.einsum("kia,kja->kij", cut, cut.conj()), pair)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Sweep:
    """`sweep` over the paper's 201-point r grid, both measure pairs, CSV."""

    name = "sweep"
    reference = ("python", "numpy_small", "json")

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        # The figure path has no random input: the grid is the paper's, so
        # the seed does not enter and the CSV can be pinned by digest.
        self.points = 3 if tiny else 201
        self.argv = ["sweep", "--grid", f"0:{SWEEP_STOP}:{self.points}", "--measures", "both", "--format", "csv"]
        self.items_per_call = 2 * self.points

    def call(self, i: int):
        return run_cli(self.argv)

    def check(self, i: int, output) -> None:
        lines = _cli_lines(output)
        header = lines[0].split(",")
        require(tuple(header) == tuple(rindler.CSV_COLUMNS), "CSV header differs from rindler.CSV_COLUMNS")
        require(len(lines) - 1 == self.items_per_call, f"expected {self.items_per_call} rows, got {len(lines) - 1}")
        res_col = header.index("max_residual")
        kept = [[c for j, c in enumerate(header) if j != res_col]]
        for line in lines[1:]:
            row = line.split(",")
            require(len(row) == len(header), "CSV row has the wrong number of fields")
            require(row[0] in MEASURES, f"unknown measure pair {row[0]!r}")
            values = [float(v) for v in row[1:]]
            require(all(math.isfinite(v) for v in values), "non-finite value in CSV row")
            require(values[res_col - 1] <= RESIDUAL_LIMIT, f"max_residual {values[res_col - 1]} above {RESIDUAL_LIMIT}")
            kept.append([c for j, c in enumerate(row) if j != res_col])
        text = "\n".join(",".join(row) for row in kept) + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()
        require(digest == SWEEP_DIGESTS[self.points], f"CSV digest {digest} differs from the pinned digest")


class Sample:
    """`sample --count 200 --measures both`, parity rotating even, odd, neither."""

    name = "sample"
    reference = ("python", "numpy_small", "json")

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.count = 4 if tiny else 200
        self.items_per_call = 2 * self.count

    def inputs(self, i: int) -> tuple[str, int]:
        parity = PARITIES[i % 3]
        call_seed = int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])
        return parity, call_seed

    def call(self, i: int):
        parity, call_seed = self.inputs(i)
        return run_cli(["sample", "--count", str(self.count), "--seed", str(call_seed),
                        "--parity", parity, "--measures", "both"])

    def states(self, parity: str, call_seed: int) -> np.ndarray:
        """The states the CLI draws, regenerated from its documented sampler."""
        amps = np.zeros((self.count, 8), dtype=complex)
        for j in range(self.count):
            rng = np.random.default_rng([call_seed, j])
            if parity == "neither":
                amps[j] = random_amplitudes(rng, 8)
            else:
                amps[j, list(EVEN_SUPPORT if parity == "even" else ODD_SUPPORT)] = random_amplitudes(rng, 4)
        return amps

    def check(self, i: int, output) -> None:
        lines = _cli_lines(output)
        require(len(lines) == self.items_per_call + 1, f"expected {self.items_per_call + 1} lines, got {len(lines)}")
        docs = [parse_json(line) for line in lines]
        parity, call_seed = self.inputs(i)
        amps = self.states(parity, call_seed)
        passed = {}
        for m_idx, m in enumerate(MEASURES):
            lhs_o, rhs_o = transference_oracle(amps, m)
            passed[m] = 0
            for j in range(self.count):
                doc = docs[2 * j + m_idx]
                require((doc["index"], doc["parity"], doc["measure_pair"]) == (j, parity, m), f"line {2 * j + m_idx} is out of order")
                cons = doc["constraints"]
                require([c["constraint"] for c in cons] == ["C1", "C2", "C3"], "constraints are not C1, C2, C3")
                for c_idx, c in enumerate(cons):
                    require(c["residual"] == abs(c["lhs"] - c["rhs"]), "residual is not |lhs - rhs|")
                    require(abs(c["lhs"] - lhs_o[j, c_idx]) <= SIDE_TOL, f"state {j} {m} C{c_idx + 1} lhs differs from the oracle")
                    require(abs(c["rhs"] - rhs_o[j, c_idx]) <= SIDE_TOL, f"state {j} {m} C{c_idx + 1} rhs differs from the oracle")
                    verdict = bool(abs(lhs_o[j, c_idx] - rhs_o[j, c_idx]) <= SAT_TOL)
                    require(c["satisfied"] is verdict, f"state {j} {m} C{c_idx + 1} verdict differs from the oracle")
                ok = all(c["satisfied"] for c in cons)
                require(doc["all_satisfied"] is ok, "all_satisfied disagrees with the constraints")
                require(ok or parity == "neither", f"{parity} state {j} violates a constraint")
                passed[m] += ok
        summary = {"count": self.count, "parity": parity, "seed": call_seed, "pass": passed}
        require(docs[-1] == {"summary": summary}, "summary line differs from the checked lines")


class Register:
    """`perspective` on a seeded 16-qubit state file, target rotating 0, 1, 2."""

    name = "register"
    reference = ("python", "numpy_small", "json")

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.n = 4 if tiny else 16
        self.amps = random_amplitudes(np.random.default_rng([seed, 3]), 1 << self.n)
        self.path = os.path.join(workdir, f"register-{os.getpid()}.json")
        doc = {"n_qubits": self.n, "amplitudes": [[float(a.real), float(a.imag)] for a in self.amps]}
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.items_per_call = 1 << self.n
        self._oracle = {}

    def close(self) -> None:
        os.remove(self.path)

    def call(self, i: int):
        return run_cli(["perspective", "--state", self.path, "--perspective", str(i % 3)])

    def check(self, i: int, output) -> None:
        lines = _cli_lines(output)
        require(len(lines) == 1, "perspective output is not one line")
        doc = parse_json(lines[0])
        p = i % 3
        require(doc["n_qubits"] == self.n - 1 and doc["perspective_of"] == p, "wrong n_qubits or perspective_of")
        got = np.array(doc["amplitudes"], dtype=float)
        require(got.shape == (1 << (self.n - 1), 2), f"amplitude array has shape {got.shape}")
        if p not in self._oracle:
            self._oracle[p] = flip_merge(self.amps, p)
        err = np.max(np.abs(got[:, 0] + 1j * got[:, 1] - self._oracle[p]))
        require(err <= REGISTER_TOL, f"perspective output differs from the oracle by {err}")


class Channel:
    """Library `assign_perspective_channel` on a seeded 10-qubit state, p over 0..9."""

    name = "channel"
    reference = ("matmul",)

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.n = 4 if tiny else 10
        self.amps = random_amplitudes(np.random.default_rng([seed, 4]), 1 << self.n)
        self.psi = state_from_amplitudes(self.amps)
        self.items_per_call = 1 << self.n

    def call(self, i: int):
        return perspective.assign_perspective_channel(self.psi, i % self.n)

    def check(self, i: int, output) -> None:
        p = i % self.n
        got = np.asarray(output.amplitudes)
        require(output.n_qubits == self.n - 1 and got.shape == (1 << (self.n - 1),), "wrong output register size")
        require(bool(np.all(np.isfinite(got))), "non-finite amplitude")
        direct = perspective.assign_perspective(self.psi, p).amplitudes
        err_direct = np.max(np.abs(got - direct))
        require(err_direct <= CHANNEL_TOL, f"channel differs from assign_perspective by {err_direct}")
        err_oracle = np.max(np.abs(got - flip_merge(self.amps, p)))
        require(err_oracle <= CHANNEL_TOL, f"channel differs from the oracle by {err_oracle}")


WORKLOADS = {cls.name: cls for cls in (Sweep, Sample, Register, Channel)}
