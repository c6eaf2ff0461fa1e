"""One workload in one fresh interpreter; started by ``run.py``.

Set-up (imports, inputs, one untimed warm-up operation) ends at the first
timed operation; its length is measured from ``--t0``, the parent's
monotonic clock just before it started this process.  The timed phase runs
whole rounds: it starts another only if, at the pace of the rounds so far,
that round ends within ``--seconds``.  Outputs are checked after the timed
phase.  The last line on stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_cli():
    if not (SRC / "rigidity_lab" / "__init__.py").is_file():
        sys.exit(f"worker: no rigidity_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rigidity_lab
    from rigidity_lab import cli
    if Path(rigidity_lab.__file__).resolve().parent != SRC / "rigidity_lab":
        sys.exit(f"worker: imported rigidity_lab from {rigidity_lab.__file__}, "
                 f"not from {SRC}")
    return cli


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="write the spans here")
    args = p.parse_args(argv)

    # One sweep worker: two threads only contend for the interpreter lock.
    os.environ["RIGIDITY_LAB_THREADS"] = "1"
    cli = _import_cli()
    import layertrace
    import workloads as wl

    ops = wl.round_ops(args.workload, args.seed)
    tracer = layertrace.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    warm = wl.run_op(cli.main, wl.warmup_op(args.workload))
    if warm.rc != 0:
        sys.exit(f"worker: warm-up failed: {warm.stderr.strip()}")
    if tracer is not None:
        tracer.reset()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    def run(op):
        if tracer is None:
            return wl.run_op(cli.main, op)
        return tracer.operation(lambda: wl.run_op(cli.main, op))

    rounds = []
    t_start = time.perf_counter()
    while True:
        rounds.append([run(op) for op in ops])
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layers = tracer.metrics() if tracer is not None else None
    if tracer is not None and args.spans:
        tracer.write(args.spans)

    checker = wl.Checker(args.workload, cli.main)
    attempted = failed = wrong = 0
    errors = []
    for outcomes in rounds:
        v = checker.check_round(ops, outcomes)
        attempted += len(outcomes)
        failed += v.failed
        wrong += len(v.wrong)
        errors += v.errors
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    # One sample per operation of the round: its mean time over the run's
    # rounds.  The host switches between a fast and a slow state every few
    # seconds; a median over single 60-ms operations lands on whichever
    # state held most of the run, while the mean over rounds, spread over
    # the whole run, weighs both by their share of it.
    times = [statistics.fmean(out.seconds for out in column)
             if all(out.rc == 0 for out in column) else float("inf")
             for column in zip(*rounds)]
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "correct": not errors, "attempted": attempted, "failed": failed,
        "rounds": len(rounds), "wall_s": wall, "setup_s": setup_s,
        "polyhedra_per_s": (attempted - failed - wrong) / wall,
        "polyhedron_s.p50": statistics.median(times),
        "polyhedron_s.p90": (statistics.quantiles(times, n=10, method="inclusive")[-1]
                             if len(times) > 1 else times[0]),
        "peak_rss_mb": peak_rss_mb,
        "op_seconds": [out.seconds for outcomes in rounds for out in outcomes],
        "layers": layers,
        "untraced_layers": tracer.missing if tracer is not None else [],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
