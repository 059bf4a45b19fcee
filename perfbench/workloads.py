"""The benchmark's workloads: inputs made from a seed, the timed operations,
and the checks on their outputs, which run after timing.

Every workload is a closed loop with one caller: each operation starts when
the previous one has returned. An operation is one CLI command (run
in-process through ``mubkit.cli.main``) or one library call. It fails when
it raises, exits nonzero, prints a ``FAIL`` line or fails its output check.
The checks use plain numpy and ``json`` rather than the predicates being
timed, except where they compare a manifest with the in-memory value it was
written from, which they rebuild through the library after timing. One run
makes several passes in one process, and every pass is checked.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from mubkit import characters, cli, construct, gf, mub
from mubkit.errors import DephasingWarning

CHECK_TOL = 1e-8
# Equations the axiom suite reports per field at the seed state.
AXIOM_EQUATIONS = 60


@dataclass
class Op:
    """One timed operation and the check of its result."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list] = lambda result: []


@dataclass
class OpOutcome:
    name: str
    seconds: float
    problems: list = field(default_factory=list)


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    outcomes: list

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.problems)


def run_pass(ops) -> tuple:
    """Run the operations back to back; returns (PassResult, results).

    Wall and CPU time run from the first call to the last return. An
    exception fails its operation and the pass goes on, so one failure
    raises the failed count instead of ending the run.
    """
    results, outcomes = [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        t0 = time.perf_counter()
        try:
            results.append(op.call())
            problems = []
        except Exception as exc:  # an operation failure is a measurement, not an abort
            results.append(None)
            problems = [f"raised {type(exc).__name__}: {exc}"]
        outcomes.append(OpOutcome(op.name, time.perf_counter() - t0, problems))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return PassResult(wall, cpu, outcomes), results


def timed_passes(ops, seconds: float):
    """Yield (PassResult, results) pass after pass; the caller checks each
    one before the next pass starts, so checks stay outside the timing.

    Passes go on while one more, at the median pass time so far, would end
    within ``seconds`` of measured time. There is always one pass.
    """
    walls = []
    while True:
        outcome, results = run_pass(ops)
        yield outcome, results
        walls.append(outcome.wall_s)
        if sum(walls) + statistics.median(walls) > seconds:
            return


def check_pass(ops, outcome: PassResult, results) -> None:
    """Run each completed operation's output check, recording problems."""
    for op, o, result in zip(ops, outcome.outcomes, results):
        if o.problems:
            continue
        try:
            o.problems = list(op.check(result))
        except Exception as exc:  # a check that cannot complete fails its operation
            o.problems = [f"check raised {type(exc).__name__}: {exc}"]


# -- CLI operations ----------------------------------------------------------

@dataclass
class CliResult:
    code: int
    out: str
    err: str


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals exit through SystemExit
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_op(argv, check=None) -> Op:
    def full_check(r: CliResult) -> list:
        problems = []
        if r.code != 0:
            problems.append(f"exit {r.code}: {r.err.strip()[-300:]}")
        problems += [f"FAIL line: {line}" for line in r.out.splitlines() if "FAIL" in line.split()]
        return problems + (check(r) if check and not problems else [])

    return Op(" ".join(argv), lambda: run_cli(argv), full_check)


def pass_lines(expected: int):
    """Check that a verify/axioms report has exactly ``expected`` PASS lines."""
    def check(r: CliResult) -> list:
        n = sum(1 for line in r.out.splitlines() if line.endswith(" PASS"))
        return [] if n == expected else [f"{n} PASS lines, expected {expected}"]
    return check


# -- plain numpy checks ------------------------------------------------------

def matrix_payload(rows) -> np.ndarray:
    """Exact complex array from a manifest's nested [re, im] pairs."""
    pairs = np.ascontiguousarray(np.asarray(rows, dtype=np.float64))
    return pairs.view(np.complex128)[..., 0]


def exact(name: str, got: np.ndarray, want: np.ndarray) -> list:
    if got.shape == want.shape and np.array_equal(got, want):
        return []
    return [f"{name} does not read back exactly as the in-memory value"]


def mub_law_problems(bases: np.ndarray) -> list:
    """|<b^i_j|b^m_n>|^2 = delta_jn within a basis and 1/d across bases."""
    n, d = bases.shape[0], bases.shape[1]
    adj = bases.conj().transpose(0, 2, 1)
    overlap = np.abs(adj[:, None] @ bases[None]) ** 2
    want = np.full((n, n, d, d), 1.0 / d)
    want[np.arange(n), np.arange(n)] = np.eye(d)
    worst = float(np.max(np.abs(overlap - want)))
    return [] if worst < CHECK_TOL else [f"not a maximal MUB family (deviation {worst:.2e})"]


def ueb_law_problems(flat: np.ndarray) -> list:
    """Unitarity, trace law, identity slot and class commutators of a
    (d*d, d, d) stack under the positional partition of ``mubkit.construct``."""
    d = flat.shape[1]
    eye = np.eye(d)
    table = flat.reshape(d, d, d, d)
    m = flat.reshape(d * d, d * d)
    classes = [table[1:, 0]] + [table[x, 1:] for x in range(d)]
    residuals = {
        "unitarity": np.max(np.abs(flat.conj().transpose(0, 2, 1) @ flat - eye)),
        "trace law": np.max(np.abs(m.conj() @ m.T - d * np.eye(d * d))),
        "identity slot": np.max(np.abs(table[0, 0] - eye)),
        "class commutators": max(
            np.max(np.abs(c[:, None] @ c[None] - c[None] @ c[:, None])) for c in classes
        ),
    }
    return [f"UEB {law} residual {r:.2e}" for law, r in residuals.items() if not r < CHECK_TOL]


def hadamard_problems(h: np.ndarray) -> list:
    d = h.shape[0]
    worst = max(np.max(np.abs(np.abs(h) - 1.0)), np.max(np.abs(h @ h.conj().T - d * np.eye(d))))
    return [] if worst < CHECK_TOL else [f"not a Hadamard (deviation {worst:.2e})"]


def haar_unitary(rng, d: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_modulus(rng, p: int, n: int) -> list:
    """A monic irreducible degree-n polynomial over F_p drawn from ``rng``."""
    while True:
        coeffs = [int(c) for c in rng.integers(0, p, size=n)] + [1]
        if gf.is_irreducible(coeffs, p):
            return coeffs


def load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- workloads ---------------------------------------------------------------

class Workload:
    """Seeded inputs in ``self.inputs``; ``prepare`` writes input files;
    ``operations`` lists the timed calls without running any of them."""

    name = ""

    def __init__(self, seed: int, workdir):
        self.workdir = Path(workdir)
        self.inputs = self.make_inputs(np.random.default_rng(seed % 2**64))

    def make_inputs(self, rng) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def operations(self) -> list:
        raise NotImplementedError

    def path(self, name: str) -> str:
        return str(self.workdir / name)


class LibGf32(Workload):
    """Library calls only on GF(2^5): (a) the canonical theta/phi round trip,
    (b) theta of a table conjugated by a seeded Haar unitary."""

    name = "lib-gf32"
    d = 32

    def make_inputs(self, rng):
        return {"W": haar_unitary(rng, self.d), "theta_seed": int(rng.integers(2**31))}

    def operations(self):
        s: dict = {}
        w, seed = self.inputs["W"], self.inputs["theta_seed"]

        def step(key, fn):
            def call():
                s[key] = fn()
                return s[key]
            return call

        def rebuild():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DephasingWarning)
                return construct.ueb_from_mub(*s["eig"])

        def canonical():
            chi = s["chi"].matrix / np.sqrt(self.d)
            return construct.conjugate_ueb(s["ueb"], chi)

        return [
            Op("new_field(2, 5)", step("f", lambda: gf.new_field(2, 5)),
               lambda f: [] if f.d == self.d else [f"field order {f.d}"]),
            Op("ueb_from_field", step("ueb", lambda: construct.ueb_from_field(s["f"])),
               lambda u: ueb_law_problems(u.flat())),
            Op("additive_character_matrix",
               step("chi", lambda: characters.additive_character_matrix(s["f"])),
               lambda h: hadamard_problems(h.matrix)),
            Op("conjugate_ueb(chi/sqrt(d))", step("canonical", canonical), self.check_canonical),
            Op("eigendata", step("eig", lambda: construct.eigendata(s["canonical"], seed=seed)),
               lambda e: mub_law_problems(np.stack(e[0].bases))),
            Op("ueb_from_mub", step("rebuilt", rebuild), lambda u: self.check_round_trip(s, u)),
            Op("conjugate_ueb(W)", step("dense", lambda: construct.conjugate_ueb(s["ueb"], w)),
               lambda u: self.check_conjugate(s, u)),
            Op("mub_from_ueb", step("family", lambda: mub.mub_from_ueb(s["dense"], seed=seed)),
               lambda fam: self.check_dense_family(s, fam)),
            Op("is_maximal_mub_family", lambda: mub.is_maximal_mub_family(s["family"]),
               lambda ok: [] if ok is True else ["is_maximal_mub_family returned False"]),
        ]

    @staticmethod
    def check_canonical(u):
        star = np.stack(u.class_star())
        off = np.max(np.abs(star - star * np.eye(star.shape[1])))
        return [] if off < CHECK_TOL else [f"distinguished class not diagonal ({off:.2e})"]

    @staticmethod
    def check_round_trip(s, rebuilt):
        worst = float(np.max(np.abs(rebuilt.flat() - s["canonical"].flat())))
        return [] if worst < CHECK_TOL else [f"phi(theta(U)) differs from U by {worst:.2e}"]

    def check_conjugate(self, s, dense):
        w = self.inputs["W"]
        want = w.conj().T @ s["ueb"].flat() @ w
        worst = float(np.max(np.abs(dense.flat() - want)))
        return [] if worst < CHECK_TOL else [f"W^dag U W differs by {worst:.2e}"]

    def check_dense_family(self, s, family):
        """Basis * must be W^dag chi / sqrt(d) up to per-vector phase and order."""
        want = self.inputs["W"].conj().T @ s["chi"].matrix / np.sqrt(self.d)
        overlap = np.abs(family.basis("*").conj().T @ want)
        near_one = overlap > 1.0 - CHECK_TOL
        perm = (np.all(near_one | (overlap < CHECK_TOL))
                and np.all(near_one.sum(axis=0) == 1) and np.all(near_one.sum(axis=1) == 1))
        problems = [] if perm else ["basis * is not W^dag chi/sqrt(d) up to phase and order"]
        return problems + mub_law_problems(np.stack(family.bases))


class AxiomsSuite(Workload):
    """The structure-tensor suite for GF(2^4) (seeded modulus), GF(17), GF(19)."""

    name = "axioms-suite"

    def make_inputs(self, rng):
        return {"poly16": random_modulus(rng, 2, 4)}

    def operations(self):
        poly = ",".join(map(str, self.inputs["poly16"]))
        fields = [["--p", "2", "--n", "4", "--poly", poly], ["--p", "17", "--n", "1"],
                  ["--p", "19", "--n", "1"]]
        return [cli_op(["axioms", *flags], self.check_report) for flags in fields]

    @staticmethod
    def check_report(r):
        problems = pass_lines(AXIOM_EQUATIONS)(r)
        summary = f"{AXIOM_EQUATIONS}/{AXIOM_EQUATIONS} equations passed"
        if not r.out.splitlines() or not r.out.splitlines()[-1].startswith(summary):
            problems.append(f"summary line is not '{summary} ...'")
        return problems


class HadamardGf729(Workload):
    """Character Hadamards of GF(3^6) (seeded modulus) written and verified."""

    name = "hadamard-gf729"
    p, n = 3, 6

    def __init__(self, seed: int, workdir):
        super().__init__(seed, workdir)
        self.checked = {}  # manifest name -> sha256 of bytes that passed the full check

    def make_inputs(self, rng):
        return {"poly": random_modulus(rng, self.p, self.n)}

    def operations(self):
        flags = ["--p", str(self.p), "--n", str(self.n),
                 "--poly", ",".join(map(str, self.inputs["poly"])), "--out", str(self.workdir)]
        chi, psi = characters.additive_character_matrix, characters.multiplicative_character_matrix
        return [
            cli_op(["construct", *flags, "--emit", "chi"],
                   lambda r: self.check_written("chi.json", chi)),
            cli_op(["construct", *flags, "--emit", "psi"],
                   lambda r: self.check_written("psi.json", psi)),
            cli_op(["verify", self.path("chi.json")], pass_lines(2)),
            cli_op(["verify", self.path("psi.json")], pass_lines(2)),
        ]

    def check_written(self, name, build):
        """Full check on the first pass; a later pass must write the same bytes."""
        digest = hashlib.sha256(Path(self.path(name)).read_bytes()).hexdigest()
        if self.checked.get(name) == digest:
            return []
        f = gf.new_field(self.p, self.n, self.inputs["poly"])
        problems = exact(name, matrix_payload(load_json(self.path(name))["matrix"]),
                         build(f).matrix)
        if not problems:
            self.checked[name] = digest
        return problems


WORKLOADS = {w.name: w for w in (LibGf32, AxiomsSuite, HadamardGf729)}
