"""Tests of the benchmark itself (not of mubkit):

    python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402
from workloads import WORKLOADS, Op, check_pass, cli_op, run_pass  # noqa: E402


def synthetic_spans():
    # cli.main [0, 10] holds is_ueb [1, 4] (which holds commutes [2, 3])
    # and load_manifest [5, 9]
    return [
        Span("cli.main", "cli", 0.0, 10.0, -1, 0),
        Span("construct.is_ueb", "construct", 1.0, 4.0, 0, 32),
        Span("cplx.commutes", "cplx", 2.0, 3.0, 1, None),
        Span("manifests.load_manifest", "manifests", 5.0, 9.0, 0, 100),
    ]


def test_self_time_subtracts_direct_children_only():
    assert spans.self_times(synthetic_spans()) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    nested = [Span("a", "cli", 0.0, 10.0, -1, None),
              Span("b", "gf", 1.0, 5.0, 0, None),
              Span("c", "gf", 3.0, 7.0, 0, None)]
    assert spans.self_times(nested)[0] == pytest.approx(4.0)


def test_layer_table_and_metrics_cover_every_layer():
    table = spans.layer_table(synthetic_spans())
    assert table == {"gf": (0.0, 0), "characters": (0.0, 0), "construct": (2.0, 1),
                     "mub": (0.0, 0), "cplx": (1.0, 1), "manifests": (4.0, 1),
                     "axioms": (0.0, 0), "cli": (3.0, 1)}
    metrics = spans.layer_metrics(synthetic_spans())
    assert set(metrics) == set(spans.PER_LAYER_UNITS)
    assert metrics["construct.is_ueb_s"] == 2.0
    assert metrics["construct.gram_gflops_computed"] == pytest.approx(8 * 32**6 / 2.0 / 1e9)
    assert metrics["cplx.commutes_s"] == 1.0
    assert metrics["manifests.load_s"] == 4.0
    assert metrics["manifests.load_bytes"] == 100
    assert (metrics["cli.commands"], metrics["cli.nonzero_exits"]) == (1, 0)
    assert metrics["axioms.self_s"] == 0.0


def test_failing_operations_are_counted_and_the_pass_goes_on():
    def boom():
        raise RuntimeError("injected")

    ops = [
        Op("ok", lambda: 1),
        Op("raises", boom),
        Op("after", lambda: 2, lambda r: [] if r == 2 else ["wrong"]),
        Op("bad output", lambda: 3, lambda r: ["injected check failure"]),
        cli_op(["verify", str(HERE / "no-such-manifest.json")]),
    ]
    outcome, results = run_pass(ops)
    check_pass(ops, outcome, results)
    assert len(outcome.outcomes) == len(ops)
    assert results[2] == 2
    assert [bool(o.problems) for o in outcome.outcomes] == [False, True, False, True, True]
    assert outcome.failed == 3
    assert "RuntimeError: injected" in outcome.outcomes[1].problems[0]
    assert outcome.outcomes[4].problems[0].startswith("exit 2")


def test_passes_fill_the_budget_and_there_is_always_one(monkeypatch):
    monkeypatch.setattr(workloads, "run_pass",
                        lambda ops: (workloads.PassResult(4.0, 4.0, []), []))
    counts = [len(list(workloads.timed_passes([], s))) for s in (0.0, 11.0, 12.0)]
    assert counts == [1, 2, 3]


SEED_INPUT = {"lib-gf32": "W", "axioms-suite": "poly16", "hadamard-gf729": "poly"}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_inputs_not_operation_count(name, tmp_path):
    made = [WORKLOADS[name](seed, tmp_path) for seed in range(6)]
    values = [np.asarray(w.inputs[SEED_INPUT[name]]) for w in made]
    assert any(not np.array_equal(values[0], v) for v in values[1:])
    assert len({len(w.operations()) for w in made}) == 1
    again = WORKLOADS[name](0, tmp_path)
    assert np.array_equal(np.asarray(again.inputs[SEED_INPUT[name]]), values[0])


def test_seeded_inputs_are_valid():
    rng = np.random.default_rng(7)
    w = workloads.haar_unitary(rng, 8)
    assert np.allclose(w.conj().T @ w, np.eye(8), atol=1e-12)
    poly = workloads.random_modulus(rng, 3, 6)
    assert len(poly) == 7 and poly[-1] == 1


def test_run_refuses_more_blas_threads_than_cpus(monkeypatch, capsys):
    import machine
    import run

    monkeypatch.setattr(machine, "blas_threads", lambda: machine.nproc() + 1)
    assert run.main(["--workload", "lib-gf32", "--seed", "1", "--seconds", "1"]) == 2
    assert "threads" in capsys.readouterr().err


def test_tracer_wraps_every_binding_and_restores_it():
    import mubkit
    from mubkit import cli, gf

    original = gf.new_field
    tracer = spans.Tracer()
    tracer.install(mubkit)
    try:
        assert cli.new_field is gf.new_field is not original
        field = cli.new_field(3, 2)
        field.mul_table
        field.mul_table  # cached: the second access records nothing
    finally:
        tracer.uninstall()
    assert cli.new_field is gf.new_field is mubkit.new_field is original
    names = [s.name for s in tracer.spans]
    assert names.count("gf.new_field") == 1 and names.count("gf.mul_table") == 1
    assert all(s.layer == "gf" for s in tracer.spans)
