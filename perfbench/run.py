"""The mubkit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. An untraced run (``--trace 0``) starts
set-up-only probes, then one worker (``worker.py``, a fresh interpreter)
that runs the workload's operations pass after pass until the next pass
would end past ``--seconds`` of measured time (at least one pass), and
reports medians of the end-to-end metrics. A traced run (``--trace 1``)
starts one untraced and one traced worker of one pass each and reports the
per-layer metrics. The last line of standard output is the result;
everything above it is the human-readable report. Results, spans and
provenance are also kept under ``perfbench/_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"

# The whole invocation must end within 180 s, including checks and clean-up.
RUN_LIMIT_S = 165.0
SETUP_PROBES = 5
# ROADMAP baseline at d = 32 (2 cores, numpy 2.4.6, one run each):
# stage key of spans.roadmap_stages, label, seconds.
ROADMAP_D32 = (
    ("is_partitioned_ueb", "is_partitioned_ueb", 2.7),
    ("theta", "theta (mub_from_ueb without validation)", 4.6),
    ("ueb_manifest_write", "UEB manifest build + write", 5.4),
)
ROADMAP_D32_UEB_BYTES = 6.4e6

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


class Runner:
    """Starts worker processes for one workload and seed."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.dir = RUNS / f"{workload}-seed{seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
        self.dir.mkdir(parents=True)
        self.count = 0

    def start(self, *flags) -> dict | None:
        """Run one worker; its result dict, or None if it crashed or timed out."""
        self.count += 1
        tag = f"{self.count:02d}"
        workdir = self.dir / f"work{tag}"
        out = self.dir / f"worker{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--workdir", str(workdir), "--out", str(out), *flags]
        timeout = self.deadline - time.monotonic()
        try:
            with open(self.dir / f"worker{tag}.log", "w", encoding="utf-8") as log:
                if timeout <= 0:
                    raise subprocess.TimeoutExpired(cmd, 0)
                proc = subprocess.run([*cmd, "--spawned", repr(time.time())], stdout=log,
                                      stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"worker {tag}: no time left before the run limit", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or not out.exists():
            print(f"worker {tag}: exited {proc.returncode}, see {self.dir}/worker{tag}.log",
                  file=sys.stderr)
            return None
        return json.loads(out.read_text())


def crashed(op_count: int) -> dict:
    return {"attempted": op_count, "failed": op_count, "passes": [], "crashed": True}


def measure(runner: Runner, seconds: float, op_count: int) -> tuple:
    """Set-up probes, then one worker that fills ``seconds`` with passes."""
    probes = [runner.start("--setup-only") for _ in range(SETUP_PROBES)]
    setups = [r["setup_s"] for r in probes if r]
    run = runner.start("--seconds", repr(seconds))
    if run is None:
        return setups, crashed(op_count)
    return setups + [run["setup_s"]], run


def summarize_untraced(setups, run) -> dict:
    if not run["passes"] or not setups:
        return {}
    return {
        "wall_s": statistics.median(p["wall_s"] for p in run["passes"]),
        "cpu_s": statistics.median(p["cpu_s"] for p in run["passes"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def print_ops(runs) -> None:
    for run in runs:
        for i, p in enumerate(run["passes"], 1):
            print(f"pass {i}: wall {p['wall_s']:.3f} s, cpu {p['cpu_s']:.3f} s, "
                  f"check {p['check_s']:.3f} s")
            for o in p["ops"]:
                status = "ok" if not o["problems"] else "FAILED: " + "; ".join(o["problems"])
                print(f"  {o['seconds']:8.3f} s  {o['name']}  {status}")


def print_trace_report(traced: dict, untraced_wall: float) -> None:
    wall = traced["passes"][0]["wall_s"]
    print(f"traced wall {wall:.3f} s, untraced wall {untraced_wall:.3f} s, "
          f"overhead {wall - untraced_wall:+.3f} s")
    print(f"  {'layer':<11} {'self s':>9} {'share':>7} {'spans':>8}")
    attributed = 0.0
    for layer, (self_s, count) in traced["layer_table"].items():
        attributed += self_s
        print(f"  {layer:<11} {self_s:9.3f} {self_s / wall:7.1%} {count:8d}")
    print(f"  {'(benchmark)':<11} {wall - attributed:9.3f} {(wall - attributed) / wall:7.1%}")
    print("ROADMAP baseline at d = 32 beside the traced stages of this workload:")
    for stage, label, roadmap_s in ROADMAP_D32:
        row = traced["roadmap"].get(stage)
        if row is None:
            got = "not run in this workload"
        else:
            got = f"{row['median_s']:.3f} s median of {row['calls']} at d = {row['d']}"
            if row["bytes"]:
                mb = row["bytes"] / 1e6
                got += (f", {mb:.1f} MB at {mb / row['median_s']:.2f} MB/s "
                        f"(ROADMAP {ROADMAP_D32_UEB_BYTES / 1e6 / roadmap_s:.2f} MB/s)")
        print(f"  {label:<48} ROADMAP {roadmap_s:4.1f} s | traced {got}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "mubkit" / "__init__.py").is_file():
        return fail(f"no mubkit sources under {ROOT / 'src'}; run from a repository checkout")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import machine
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    prov = machine.provenance(ROOT)
    if prov["blas_threads"] is not None and prov["blas_threads"] > prov["nproc"]:
        return fail(f"BLAS would use {prov['blas_threads']} threads on {prov['nproc']} CPUs; "
                    "set OPENBLAS_NUM_THREADS to at most nproc")
    op_count = len(WORKLOADS[args.workload](args.seed, RUNS / "unused").operations())

    runner = Runner(args.workload, args.seed, deadline)
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, "
          f"trace {args.trace}; workers in {runner.dir}")
    if args.trace:
        plain, traced = runner.start(), runner.start("--trace")
        runs = [r or crashed(op_count) for r in (plain, traced)]
        metrics, units = {}, {}
        if plain and traced:
            plain_wall = plain["passes"][0]["wall_s"]
            print_trace_report(traced, plain_wall)
            metrics = {**traced["layers"],
                       "trace.overhead_s": traced["passes"][0]["wall_s"] - plain_wall}
            units = {**spans.PER_LAYER_UNITS, "trace.overhead_s": "s",
                     "machine.zgemm_gflops": "GFLOP/s"}
    else:
        setups, run = measure(runner, args.seconds, op_count)
        runs = [run]
        metrics, units = summarize_untraced(setups, run), END_TO_END_UNITS
        if metrics:
            print(f"{len(run['passes'])} pass(es), {len(setups)} set-ups")
    print_ops(runs)

    prov["zgemm_gflops"] = machine.zgemm_gflops()
    if args.trace and metrics:
        metrics["machine.zgemm_gflops"] = prov["zgemm_gflops"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:14.6g} {units[name]}")
    print("provenance " + json.dumps(prov))

    result = {
        "correct": bool(metrics) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (runner.dir / "result.json").write_text(
        json.dumps({"args": vars(args), "provenance": prov, "result": result, "runs": runs},
                   indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
