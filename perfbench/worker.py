"""One benchmark run of a workload in a fresh interpreter.

Sets the workload up, then runs its operations pass after pass until the
``--seconds`` budget of measured time is spent (there is always one pass).
The peak RSS is read after the first pass; each pass's outputs are checked
after it is timed. Writes a JSON result. With ``--trace`` there is one pass,
its operations run under span-recording wrappers, and the spans are written
beside the result. ``run.py`` starts this script; run by hand it is

    python3 perfbench/worker.py --workload lib-gf32 --seed 1 --seconds 0 \
        --workdir perfbench/_runs/manual --out perfbench/_runs/manual.json \
        --spawned "$(date +%s.%N)"
"""

import argparse
import json
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mubkit  # noqa: E402
import spans as spanlib  # noqa: E402
from workloads import WORKLOADS, check_pass, timed_passes  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.time() of the parent just before it started this process")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measured time to fill with passes; 0 runs one pass")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.prepare()
    ops = workload.operations()
    result = {"setup_s": time.time() - args.spawned}
    if not args.setup_only:
        tracer = spanlib.Tracer() if args.trace else None
        if tracer:
            tracer.install(mubkit)
        passes = []
        try:
            for outcome, results in timed_passes(ops, 0.0 if tracer else args.seconds):
                if tracer:
                    tracer.uninstall()  # the checks run untraced
                if not passes:
                    result["peak_rss_mb"] = (
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
                check_start = time.perf_counter()
                check_pass(ops, outcome, results)
                passes.append(dict(
                    wall_s=outcome.wall_s, cpu_s=outcome.cpu_s,
                    check_s=time.perf_counter() - check_start, failed=outcome.failed,
                    ops=[asdict(o) for o in outcome.outcomes],
                ))
        finally:
            if tracer:
                tracer.uninstall()
        result.update(passes=passes, attempted=len(ops) * len(passes),
                      failed=sum(p["failed"] for p in passes))
        if tracer:
            result.update(
                layers=spanlib.layer_metrics(tracer.spans),
                layer_table=spanlib.layer_table(tracer.spans),
                roadmap=spanlib.roadmap_stages(tracer.spans),
            )
            with open(Path(args.out).with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
                for s in tracer.spans:
                    fh.write(json.dumps(s._asdict(), default=str) + "\n")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
